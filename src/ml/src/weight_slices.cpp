#include "avd/ml/weight_slices.hpp"

#include <cstring>
#include <stdexcept>

#include "avd/cpu.hpp"
#include "lane_kernels.hpp"

namespace avd::ml {

WeightSlices::WeightSlices(const LinearSvm& svm, std::size_t block_len)
    : weights_(svm.weights()), bias_(svm.bias()), block_len_(block_len) {
  if (!svm.trained())
    throw std::invalid_argument("WeightSlices: untrained SVM");
  if (block_len == 0 || svm.dimension() % block_len != 0)
    throw std::invalid_argument(
        "WeightSlices: dimension not a multiple of block length");
  weights_d_.assign(weights_.begin(), weights_.end());  // exact float->double
}

void WeightSlices::accumulate(std::size_t block, std::span<const float> values,
                              double& acc) const {
  if (values.size() != block_len_)
    throw std::invalid_argument("WeightSlices: value length mismatch");
  const std::span<const float> w = slice(block);
  for (std::size_t i = 0; i < block_len_; ++i)
    acc += static_cast<double>(w[i]) * static_cast<double>(values[i]);
}

namespace detail {
namespace {

/// Two doubles, packed: one SSE2 register at the x86-64 baseline.
using Pair = double __attribute__((vector_size(16)));
/// Four doubles, packed: one AVX register.
using Quad = double __attribute__((vector_size(32)));
/// Eight doubles, packed: one AVX-512 register.
using Oct = double __attribute__((vector_size(64)));

/// The loop every lane body runs, over Lanes / width accumulators of vector
/// type V. Always inlined, so each body compiles it for its own ISA; the
/// unrolled accumulator array lives in registers, not on the stack.
template <class V, int Lanes>
[[gnu::always_inline]] inline void lane_loop(const double* w, std::size_t len,
                                             const double* base,
                                             std::size_t elem_stride,
                                             double* acc) {
  constexpr int kWidth = sizeof(V) / sizeof(double);
  constexpr int kRegs = Lanes / kWidth;
  static_assert(kRegs * kWidth == Lanes, "whole registers of lanes");
  V a[kRegs];
#pragma GCC unroll 8
  for (int r = 0; r < kRegs; ++r)
    std::memcpy(&a[r], acc + r * kWidth, sizeof(V));  // unaligned load
  for (std::size_t i = 0; i < len; ++i, base += elem_stride) {
    // Scalar times vector is a true broadcast of w[i]; forming it as
    // w[i] + {0, ...} would turn a -0.0 weight into +0.0 and flip the sign
    // of zero products.
#pragma GCC unroll 8
    for (int r = 0; r < kRegs; ++r) {
      V x;
      std::memcpy(&x, base + r * kWidth, sizeof(V));
      a[r] += w[i] * x;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRegs; ++r)
    std::memcpy(acc + r * kWidth, &a[r], sizeof(V));
}

}  // namespace

template <int Lanes>
void lanes_sse2(const double* w, std::size_t len, const double* base,
                std::size_t elem_stride, double* acc) {
  if constexpr (Lanes == 32) {
    // Sixteen pairs would not fit the sixteen XMM registers beside the
    // weight and the operand: two runs of sixteen lanes, each lane's order
    // unchanged.
    lane_loop<Pair, 16>(w, len, base, elem_stride, acc);
    lane_loop<Pair, 16>(w, len, base + 16, elem_stride, acc + 16);
  } else {
    lane_loop<Pair, Lanes>(w, len, base, elem_stride, acc);
  }
}

template <int Lanes>
void lanes_avx2(const double* w, std::size_t len, const double* base,
                std::size_t elem_stride, double* acc) {
  lane_loop<Quad, Lanes>(w, len, base, elem_stride, acc);
}

template <int Lanes>
void lanes_avx512(const double* w, std::size_t len, const double* base,
                  std::size_t elem_stride, double* acc) {
  lane_loop<Oct, Lanes>(w, len, base, elem_stride, acc);
}

template void lanes_sse2<8>(const double*, std::size_t, const double*,
                            std::size_t, double*);
template void lanes_avx2<8>(const double*, std::size_t, const double*,
                            std::size_t, double*);
template void lanes_avx512<8>(const double*, std::size_t, const double*,
                              std::size_t, double*);
template void lanes_sse2<16>(const double*, std::size_t, const double*,
                             std::size_t, double*);
template void lanes_avx2<16>(const double*, std::size_t, const double*,
                             std::size_t, double*);
template void lanes_avx512<16>(const double*, std::size_t, const double*,
                               std::size_t, double*);
template void lanes_sse2<32>(const double*, std::size_t, const double*,
                             std::size_t, double*);
template void lanes_avx2<32>(const double*, std::size_t, const double*,
                             std::size_t, double*);
template void lanes_avx512<32>(const double*, std::size_t, const double*,
                               std::size_t, double*);

}  // namespace detail

WeightSlices::LaneKernel WeightSlices::lane_kernel(int lanes) {
  using detail::lanes_avx2;
  using detail::lanes_avx512;
  using detail::lanes_sse2;
  static constexpr LaneKernel kAvx512[] = {lanes_avx512<8>, lanes_avx512<16>,
                                           lanes_avx512<32>};
  static constexpr LaneKernel kAvx2[] = {lanes_avx2<8>, lanes_avx2<16>,
                                         lanes_avx2<32>};
  static constexpr LaneKernel kSse2[] = {lanes_sse2<8>, lanes_sse2<16>,
                                         lanes_sse2<32>};
  const LaneKernel* bodies = cpu_has_avx512() ? kAvx512
                             : cpu_has_avx2() ? kAvx2
                                              : kSse2;
  return bodies[tier(lanes)];
}

void WeightSlices::accumulate_column(std::size_t block, const double* base,
                                     std::size_t elem_stride,
                                     double& acc) const {
  const double* w = weights_d_.data() + block * block_len_;
  for (std::size_t i = 0; i < block_len_; ++i, base += elem_stride)
    acc += w[i] * *base;
}

}  // namespace avd::ml
