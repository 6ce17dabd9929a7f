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

  /// The most windows one accumulate_lanes call scores.
  static constexpr int kLanes = 32;

  /// `lanes`-window variant over lane-major operands, for `lanes` = kLanes,
  /// 16 or 8: for each lane j < lanes, acc[j] += the dot of slice(block)
  /// against lane j, whose element i is base[i * elem_stride + j]. The
  /// operands must be EXACT double conversions of the block's floats
  /// (float -> double is lossless), matching the weights' own pre-converted
  /// double copy, so every product and sum is bit-equal to accumulate()'s
  /// float-operand sequence and lane scores stay bit-equal to
  /// LinearSvm::decision. The payoff is mechanical, not numerical: the
  /// per-window accumulator chains (each serial, latency bound on its own)
  /// advance together, one weight broadcast against every register of
  /// lanes per element, and the in-loop float -> double conversions are
  /// gone. The bodies are picked once per process, all giving the same
  /// bits: AVX-512 (registers of eight lanes) where the CPU has AVX-512F
  /// and BW, else AVX2 (registers of four), else the SSE2 baseline (pairs;
  /// its 32-lane body runs sixteen lanes twice, since sixteen pairs would
  /// not fit its registers). No length or lane-count check (hot path).
  void accumulate_lanes(int lanes, std::size_t block, const double* base,
                        std::size_t elem_stride, double* acc) const {
    lanes_[tier(lanes)](weights_d_.data() + block * block_len_, block_len_,
                        base, elem_stride, acc);
  }

  /// One-lane form of accumulate_lanes: acc += the dot of slice(block)
  /// against base[i * elem_stride]. For rows narrower than eight window
  /// positions, and for a row's last position when it is left alone.
  /// Identical per-lane arithmetic.
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
  /// Index of the body for 8, 16 or 32 lanes in lanes_.
  static constexpr int tier(int lanes) { return lanes / 16; }
  /// The lane body for `lanes` (8, 16 or 32) on this CPU.
  static LaneKernel lane_kernel(int lanes);
  LaneKernel lanes_[3] = {lane_kernel(8), lane_kernel(16), lane_kernel(32)};
};

}  // namespace avd::ml
