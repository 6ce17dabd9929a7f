// Per-block weight slices of a linear SVM.
//
// A HOG window descriptor is a concatenation of equal-length normalised
// blocks, so the linear decision w.x + b decomposes into a sum of per-block
// dot products against contiguous slices of w. The block-grid scanner
// (det::detect_multiscale_multi) exploits this: instead of materialising a
// window's descriptor and running one full-length dot per window, it streams
// the window's precomputed blocks through accumulate() — same arithmetic,
// no copy.
//
// Bit-exactness contract: accumulate() adds element products into the
// caller's double accumulator in element order, so accumulating slice 0..n-1
// over the window's blocks in descriptor order performs the EXACT floating-
// point operation sequence of LinearSvm::decision on the concatenated
// descriptor (ml::dot's left-to-right double accumulation). The scanner's
// identical-detections guarantee against the scalar reference rests on this;
// tests/ml/test_weight_slices.cpp enforces it.
#pragma once

#include <span>
#include <vector>

#include "avd/ml/svm.hpp"

namespace avd::ml {

/// Read-only view of a trained LinearSvm's weights as consecutive
/// equal-length slices. The SVM must outlive the view.
class WeightSlices {
 public:
  WeightSlices() = default;
  /// Slice `svm`'s weight vector into blocks of `block_len` weights.
  /// Throws if the SVM is untrained or its dimension is not a multiple of
  /// block_len.
  WeightSlices(const LinearSvm& svm, std::size_t block_len);

  [[nodiscard]] std::size_t block_count() const {
    return block_len_ == 0 ? 0 : weights_.size() / block_len_;
  }
  [[nodiscard]] std::size_t block_length() const { return block_len_; }
  [[nodiscard]] float bias() const { return bias_; }

  /// Weights of block `block`: block_length consecutive floats.
  [[nodiscard]] std::span<const float> slice(std::size_t block) const {
    return weights_.subspan(block * block_len_, block_len_);
  }

  /// acc += sum_i slice(block)[i] * values[i], accumulated left to right in
  /// double — the same operation order as ml::dot over the concatenation.
  void accumulate(std::size_t block, std::span<const float> values,
                  double& acc) const;

  /// Windows scored per accumulate_lanes call.
  static constexpr int kLanes = 16;

  /// Sixteen-window variant over lane-major operands: for each lane j,
  /// acc[j] += the dot of slice(block) against lane j, whose element i is
  /// base[i * elem_stride + j]. The operands must be EXACT double
  /// conversions of the block's floats (float -> double is lossless),
  /// matching the weights' own pre-converted double copy, so every product
  /// and sum is bit-equal to accumulate()'s float-operand sequence and lane
  /// scores stay bit-equal to LinearSvm::decision. The payoff is mechanical,
  /// not numerical: the sixteen per-window accumulator chains (each serial,
  /// latency bound on its own) advance together, one weight broadcast
  /// against every register of lanes per element, and the in-loop
  /// float -> double conversions are gone. The body is picked once per
  /// process: AVX2 (four registers of four lanes) where the CPU has it, the
  /// SSE2 baseline (eight pairs) elsewhere; both give the same bits. No
  /// length check (hot path).
  void accumulate_lanes(std::size_t block, const double* base,
                        std::size_t elem_stride, double* acc) const {
    lanes_(weights_d_.data() + block * block_len_, block_len_, base,
           elem_stride, acc);
  }

  /// Eight-lane half of accumulate_lanes (acc[0..7] only), for rows with
  /// fewer window positions than kLanes but at least kLanes / 2.
  void accumulate_half_lanes(std::size_t block, const double* base,
                             std::size_t elem_stride, double* acc) const {
    half_lanes_(weights_d_.data() + block * block_len_, block_len_, base,
                elem_stride, acc);
  }

  /// One-lane form of accumulate_lanes: acc += the dot of slice(block)
  /// against base[i * elem_stride]. For rows with fewer window positions
  /// than kLanes / 2. Identical per-lane arithmetic.
  void accumulate_column(std::size_t block, const double* base,
                         std::size_t elem_stride, double& acc) const;

 private:
  std::span<const float> weights_;
  std::vector<double> weights_d_;  ///< exact double copy for the lane forms
  float bias_ = 0.0f;
  std::size_t block_len_ = 0;

  using LaneKernel = void (*)(const double* w, std::size_t len,
                              const double* base, std::size_t elem_stride,
                              double* acc);
  /// The lane body for `lanes` (kLanes or kLanes / 2) on this CPU.
  static LaneKernel lane_kernel(int lanes);
  LaneKernel lanes_ = lane_kernel(kLanes);
  LaneKernel half_lanes_ = lane_kernel(kLanes / 2);
};

}  // namespace avd::ml
