// Minimal dense vector helpers shared by the SVM / RBM / DBN code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace avd::ml {

[[nodiscard]] inline double dot(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  return acc;
}

[[nodiscard]] inline double squared_norm(std::span<const float> v) {
  double acc = 0.0;
  for (float x : v) acc += static_cast<double>(x) * x;
  return acc;
}

/// Polynomial expf (Cephes-style, ~2e-7 relative error) used by every
/// sigmoid/softmax in the DBN stack. Two properties matter more than the
/// last bit of libm accuracy here:
///  - it is branch-free element-wise float arithmetic, so the batched
///    activation loops auto-vectorise instead of calling out to libm, and
///  - vector and scalar evaluation run the *same* per-element op sequence
///    (no cross-element math), so the batched and per-window DBN paths stay
///    bit-identical no matter how either TU is compiled (FMA contraction is
///    disabled on the vectorised TU for the same reason).
[[nodiscard]] inline float fast_expf(float x) {
  // Clamp so 2^n below stays a normal float (|n| <= 126); the saturated
  // results (~1.2e-38 / ~3.4e38) are indistinguishable from 0 / inf for
  // every sigmoid or softmax consumer.
  x = std::min(x, 87.33654f);
  x = std::max(x, -87.33654f);
  // Round-to-nearest n = x / ln2 via the 2^23 magic-number trick: exact in
  // float, branch-free, and vectorises on every ISA.
  const float magic = 12582912.0f;  // 1.5 * 2^23
  const float n = (x * 1.44269504f + magic) - magic;
  // Cody-Waite two-step reduction: r = x - n*ln2 with ln2 split so the
  // first product is exact.
  float r = x - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = (p * r) * r + r + 1.0f;
  // Scale by 2^n through the exponent bits.
  const std::int32_t bits = (static_cast<std::int32_t>(n) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

[[nodiscard]] inline float sigmoidf(float x) {
  return 1.0f / (1.0f + fast_expf(-x));
}

/// In-place numerically stable softmax.
inline void softmax(std::span<float> v) {
  if (v.empty()) return;
  float maxv = v[0];
  for (float x : v) maxv = std::max(maxv, x);
  double sum = 0.0;
  for (float& x : v) {
    x = fast_expf(x - maxv);
    sum += x;
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (float& x : v) x *= inv;
}

// --- Batched (GEMM-backed) inference primitives ---------------------------
//
// The batched DBN forward pass (Dbn::posterior_batch) and the dark scan's
// batch scorer are built on one kernel: a row-major GEMM against a
// transposed weight matrix,
//
//   C[r, j] = bias[j] + sum_k A[r, k] * B[j, k]        (bias empty -> 0)
//
// with A = batch x k activations, B = n x k weights (each row one neuron,
// exactly the layout Rbm/Dbn store), C = batch x n pre-activations.
//
// Bit-exactness contract: every C element starts from bias[j] and
// accumulates its products in float in ascending-k order — the exact
// operation sequence of the plain triple loop (gemm_reference) and of the
// per-vector paths Rbm::hidden_probs / Dbn::forward. gemm() packs B into a
// k-major panel and runs a register-blocked microkernel whose inner loop
// vectorises across *output columns* — independent accumulators, so the
// reordering never touches any single element's FP op sequence, and the
// batched and per-window DBN paths agree to the last bit for every batch
// size. tests/ml/test_linalg.cpp enforces this.

/// Plain-loop reference kernel; the oracle gemm() must match bit-for-bit.
void gemm_reference(std::span<const float> a, std::size_t m, std::size_t k,
                    std::span<const float> b, std::size_t n,
                    std::span<const float> bias, std::span<float> c);

/// Packed, register-blocked GEMM, bit-identical to gemm_reference.
void gemm(std::span<const float> a, std::size_t m, std::size_t k,
          std::span<const float> b, std::size_t n,
          std::span<const float> bias, std::span<float> c);

/// Elementwise in-place sigmoid over a batch of pre-activations.
void sigmoid_inplace(std::span<float> v);

/// In-place stable softmax over each `cols`-wide row of a batch. Applies
/// the exact per-row op sequence of softmax() above.
void softmax_rows(std::span<float> data, std::size_t cols);

/// Row-major dense matrix of floats with (rows x cols) shape.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<float> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace avd::ml
