// Bit-for-bit comparison of trained model weights, for the save/load
// round-trip tests: a reloaded model must hold exactly the floats that were
// saved, not values within a tolerance of them.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <sstream>

#include "avd/ml/dbn.hpp"
#include "avd/ml/svm.hpp"

namespace avd::test_support {

/// Same length and the same IEEE bit pattern at every index (so -0.0f and
/// +0.0f differ). A failure names the first index that differs.
inline ::testing::AssertionResult same_bits(std::span<const float> a,
                                            std::span<const float> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "lengths differ: " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      std::ostringstream values;
      values << std::hexfloat << a[i] << " vs " << b[i];
      return ::testing::AssertionFailure()
             << "index " << i << ": " << values.str();
    }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult same_bits(const ml::LinearSvm& a,
                                            const ml::LinearSvm& b) {
  const float bias_a = a.bias();
  const float bias_b = b.bias();
  if (auto r = same_bits({&bias_a, 1}, {&bias_b, 1}); !r) return r << " (bias)";
  return same_bits(a.weights(), b.weights());
}

/// Every RBM layer's weights and biases, then the softmax head.
inline ::testing::AssertionResult same_bits(const ml::Dbn& a,
                                            const ml::Dbn& b) {
  if (a.hidden_layers() != b.hidden_layers())
    return ::testing::AssertionFailure() << "layer counts differ";
  for (std::size_t i = 0; i < a.hidden_layers(); ++i) {
    const ml::Rbm& ra = a.rbm(i);
    const ml::Rbm& rb = b.rbm(i);
    if (auto r = same_bits(ra.weights().data(), rb.weights().data()); !r)
      return r << " (layer " << i << " weights)";
    if (auto r = same_bits(ra.visible_bias(), rb.visible_bias()); !r)
      return r << " (layer " << i << " visible bias)";
    if (auto r = same_bits(ra.hidden_bias(), rb.hidden_bias()); !r)
      return r << " (layer " << i << " hidden bias)";
  }
  if (auto r = same_bits(a.head_weights().data(), b.head_weights().data()); !r)
    return r << " (head weights)";
  if (auto r = same_bits(a.head_bias(), b.head_bias()); !r)
    return r << " (head bias)";
  return ::testing::AssertionSuccess();
}

}  // namespace avd::test_support
