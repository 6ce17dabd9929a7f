#include "avd/ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "avd/ml/linalg.hpp"

namespace avd::ml {

LinearSvm::LinearSvm(std::vector<float> weights, float bias)
    : weights_(std::move(weights)), bias_(bias) {}

double LinearSvm::decision(std::span<const float> x) const {
  if (x.size() != weights_.size())
    throw std::invalid_argument("LinearSvm: dimension mismatch");
  return dot(weights_, x) + bias_;
}

void LinearSvm::save(std::ostream& out) const {
  // max_digits10 significant digits: every float reloads to the same bits.
  const std::streamsize precision =
      out.precision(std::numeric_limits<float>::max_digits10);
  out << "svm " << weights_.size() << ' ' << bias_ << '\n';
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    out << weights_[i] << (i + 1 == weights_.size() ? '\n' : ' ');
  }
  out.precision(precision);
}

LinearSvm LinearSvm::load(std::istream& in) {
  std::string magic;
  std::size_t dim = 0;
  float bias = 0.0f;
  if (!(in >> magic >> dim >> bias) || magic != "svm")
    throw std::runtime_error("LinearSvm::load: bad header");
  std::vector<float> w(dim);
  for (auto& v : w)
    if (!(in >> v)) throw std::runtime_error("LinearSvm::load: truncated weights");
  return {std::move(w), bias};
}

void SvmProblem::add(std::vector<float> x, int label) {
  if (label != 1 && label != -1)
    throw std::invalid_argument("SvmProblem: label must be +1/-1");
  if (!features.empty() && x.size() != features.front().size())
    throw std::invalid_argument("SvmProblem: inconsistent feature dimension");
  features.push_back(std::move(x));
  labels.push_back(label);
}

LinearSvm SvmTrainer::train(const SvmProblem& problem,
                            SvmTrainReport& report) const {
  const std::size_t n = problem.size();
  if (n == 0) throw std::invalid_argument("SvmTrainer: empty problem");
  if (problem.labels.size() != n)
    throw std::invalid_argument("SvmTrainer: label/feature count mismatch");
  const std::size_t dim = problem.dimension();
  if (dim == 0) throw std::invalid_argument("SvmTrainer: zero-dimensional data");
  if (params_.c <= 0.0) throw std::invalid_argument("SvmTrainer: C must be > 0");

  // Augmented weight vector: w has dim+1 entries, the last multiplying the
  // implicit constant-1 bias feature.
  std::vector<float> w(dim + 1, 0.0f);
  std::vector<double> alpha(n, 0.0);

  // Per-example diagonal of the dual Hessian: Q_ii = x_i.x_i + 1 + 1/(2 C_i).
  // (The +1 is the bias feature; the 1/(2C) term comes from the L2 loss.)
  std::vector<double> q_diag(n);
  std::vector<double> c_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    c_of[i] = params_.c *
              (problem.labels[i] > 0 ? params_.positive_weight : 1.0);
    q_diag[i] = squared_norm(problem.features[i]) + 1.0 + 1.0 / (2.0 * c_of[i]);
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(params_.seed);

  report = {};
  for (int epoch = 0; epoch < params_.max_epochs; ++epoch) {
    rng.shuffle(order);
    double pg_max = 0.0;
    for (const std::size_t i : order) {
      const auto& x = problem.features[i];
      const double y = problem.labels[i];
      // Gradient of the dual objective in coordinate i, using the decision
      // value including the bias feature.
      double g = 0.0;
      {
        double acc = 0.0;
        for (std::size_t k = 0; k < dim; ++k)
          acc += static_cast<double>(w[k]) * x[k];
        acc += w[dim];  // bias feature = 1
        g = y * acc - 1.0 + alpha[i] / (2.0 * c_of[i]);
      }

      // Projected gradient: alpha_i is lower-bounded at 0 (no upper bound for
      // L2 loss).
      double pg = g;
      if (alpha[i] == 0.0) pg = std::min(g, 0.0);
      pg_max = std::max(pg_max, std::abs(pg));
      if (pg == 0.0) continue;

      const double alpha_old = alpha[i];
      alpha[i] = std::max(alpha[i] - g / q_diag[i], 0.0);
      const double delta = (alpha[i] - alpha_old) * y;
      if (delta != 0.0) {
        for (std::size_t k = 0; k < dim; ++k)
          w[k] += static_cast<float>(delta * x[k]);
        w[dim] += static_cast<float>(delta);
      }
    }
    report.epochs_run = epoch + 1;
    report.final_pg_max = pg_max;
    if (pg_max < params_.epsilon) {
      report.converged = true;
      break;
    }
  }

  const float bias = w[dim];
  w.resize(dim);
  return {std::move(w), bias};
}

}  // namespace avd::ml
