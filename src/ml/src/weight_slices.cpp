#include "avd/ml/weight_slices.hpp"

#include <cstring>
#include <stdexcept>

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

namespace {

/// Two doubles, packed: one SSE2 register at the x86-64 baseline.
using Pair = double __attribute__((vector_size(16)));

Pair load(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);  // unaligned load (movupd)
  return v;
}

void store(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

void WeightSlices::accumulate_lanes(std::size_t block, const double* base,
                                    std::size_t elem_stride,
                                    double* acc) const {
  static_assert(kLanes == 8, "four packed pairs of lanes");
  const double* w = weights_d_.data() + block * block_len_;
  // Four named accumulators so they live in registers, not on the stack.
  Pair a0 = load(acc), a1 = load(acc + 2), a2 = load(acc + 4),
       a3 = load(acc + 6);
  for (std::size_t i = 0; i < block_len_; ++i, base += elem_stride) {
    // A true broadcast: forming it as w[i] + {0, 0} would turn a -0.0
    // weight into +0.0 and flip the sign of zero products.
    const Pair wi = {w[i], w[i]};
    a0 += wi * load(base);
    a1 += wi * load(base + 2);
    a2 += wi * load(base + 4);
    a3 += wi * load(base + 6);
  }
  store(acc, a0);
  store(acc + 2, a1);
  store(acc + 4, a2);
  store(acc + 6, a3);
}

void WeightSlices::accumulate_column(std::size_t block, const double* base,
                                     std::size_t elem_stride,
                                     double& acc) const {
  const double* w = weights_d_.data() + block * block_len_;
  for (std::size_t i = 0; i < block_len_; ++i, base += elem_stride)
    acc += w[i] * *base;
}

}  // namespace avd::ml
