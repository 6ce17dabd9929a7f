// Per-feature standardisation (zero mean, unit variance).
//
// Dual coordinate descent converges fastest when features share a scale;
// the pairing SVM's geometric features (pixel distances vs ratios vs flags)
// span two orders of magnitude before scaling. Fit on training data, apply
// everywhere, bake into the model via transform-at-inference or fold the
// affine map into the SVM weights with fold_into().
#pragma once

#include <span>
#include <vector>

#include "avd/ml/svm.hpp"

namespace avd::ml {

class Standardizer {
 public:
  Standardizer() = default;

  /// Fit means and standard deviations per feature. Features with zero
  /// variance get scale 1 (they pass through shifted only).
  static Standardizer fit(std::span<const std::vector<float>> data);

  /// z = (x - mean) / std, element-wise.
  [[nodiscard]] std::vector<float> transform(std::span<const float> x) const;

  /// Transform every feature vector of a problem (labels unchanged).
  [[nodiscard]] SvmProblem transform(const SvmProblem& problem) const;

  /// Fold the standardisation into a linear model trained on standardised
  /// data, producing an equivalent model that consumes RAW features:
  ///   w'_i = w_i / std_i,   b' = b - sum_i w_i mean_i / std_i.
  [[nodiscard]] LinearSvm fold_into(const LinearSvm& standardized_model) const;

  [[nodiscard]] std::span<const float> means() const { return means_; }
  [[nodiscard]] std::size_t dimension() const { return means_.size(); }

 private:
  std::vector<float> means_;
  std::vector<float> stds_;
};

}  // namespace avd::ml
