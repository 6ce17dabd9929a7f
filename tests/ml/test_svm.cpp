#include "avd/ml/svm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "../support/model_bits.hpp"
#include "avd/ml/rng.hpp"

namespace avd::ml {
namespace {

SvmProblem linearly_separable_2d(int n_per_class, std::uint64_t seed,
                                 double margin = 1.0) {
  SvmProblem p;
  Rng rng(seed);
  for (int i = 0; i < n_per_class; ++i) {
    p.add({static_cast<float>(rng.gaussian(margin, 0.3)),
           static_cast<float>(rng.gaussian(margin, 0.3))},
          +1);
    p.add({static_cast<float>(rng.gaussian(-margin, 0.3)),
           static_cast<float>(rng.gaussian(-margin, 0.3))},
          -1);
  }
  return p;
}

TEST(SvmProblem, RejectsBadLabels) {
  SvmProblem p;
  EXPECT_THROW(p.add({1.0f}, 0), std::invalid_argument);
  EXPECT_THROW(p.add({1.0f}, 2), std::invalid_argument);
}

TEST(SvmProblem, RejectsInconsistentDimensions) {
  SvmProblem p;
  p.add({1.0f, 2.0f}, 1);
  EXPECT_THROW(p.add({1.0f}, -1), std::invalid_argument);
}

TEST(SvmTrainer, SeparablePerfectlyClassified) {
  const SvmProblem p = linearly_separable_2d(50, 42);
  const LinearSvm svm = SvmTrainer().train(p);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_EQ(svm.predict(p.features[i]), p.labels[i]) << i;
}

TEST(SvmTrainer, ReportsConvergence) {
  SvmTrainReport report;
  const SvmProblem p = linearly_separable_2d(30, 7);
  (void)SvmTrainer().train(p, report);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.epochs_run, 0);
  EXPECT_LT(report.final_pg_max, 1e-3);
}

TEST(SvmTrainer, BiasShiftsDecisionBoundary) {
  // All-positive cluster far from origin on one axis: the learned bias must
  // let a point at the origin be classified negative.
  SvmProblem p;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    p.add({static_cast<float>(rng.gaussian(4.0, 0.2))}, +1);
    p.add({static_cast<float>(rng.gaussian(2.0, 0.2))}, -1);
  }
  const LinearSvm svm = SvmTrainer().train(p);
  EXPECT_EQ(svm.predict(std::vector<float>{4.0f}), 1);
  EXPECT_EQ(svm.predict(std::vector<float>{2.0f}), -1);
  EXPECT_EQ(svm.predict(std::vector<float>{0.0f}), -1);
}

TEST(SvmTrainer, DeterministicUnderFixedSeed) {
  const SvmProblem p = linearly_separable_2d(30, 11, 0.4);
  SvmTrainParams params;
  params.seed = 77;
  const LinearSvm a = SvmTrainer(params).train(p);
  const LinearSvm b = SvmTrainer(params).train(p);
  ASSERT_EQ(a.dimension(), b.dimension());
  for (std::size_t i = 0; i < a.dimension(); ++i)
    EXPECT_FLOAT_EQ(a.weights()[i], b.weights()[i]);
  EXPECT_FLOAT_EQ(a.bias(), b.bias());
}

TEST(SvmTrainer, NoisyDataStillMostlyCorrect) {
  // Overlapping clusters: expect > 85% accuracy, not perfection.
  const SvmProblem p = linearly_separable_2d(100, 5, 0.5);
  const LinearSvm svm = SvmTrainer().train(p);
  int correct = 0;
  for (std::size_t i = 0; i < p.size(); ++i)
    correct += svm.predict(p.features[i]) == p.labels[i];
  EXPECT_GT(static_cast<double>(correct) / p.size(), 0.85);
}

TEST(SvmTrainer, PositiveWeightTradesRecallForPrecision) {
  // Imbalanced overlapping data: upweighting the positive class must not
  // decrease the number of predicted positives.
  SvmProblem p;
  Rng rng(9);
  for (int i = 0; i < 20; ++i)
    p.add({static_cast<float>(rng.gaussian(0.6, 1.0))}, +1);
  for (int i = 0; i < 200; ++i)
    p.add({static_cast<float>(rng.gaussian(-0.6, 1.0))}, -1);

  auto positives_with_weight = [&](double w) {
    SvmTrainParams params;
    params.positive_weight = w;
    const LinearSvm svm = SvmTrainer(params).train(p);
    int n = 0;
    for (const auto& x : p.features) n += svm.predict(x) == 1;
    return n;
  };
  EXPECT_GE(positives_with_weight(10.0), positives_with_weight(1.0));
}

TEST(SvmTrainer, EmptyProblemThrows) {
  EXPECT_THROW(SvmTrainer().train(SvmProblem{}), std::invalid_argument);
}

TEST(SvmTrainer, NonPositiveCostThrows) {
  SvmTrainParams params;
  params.c = 0.0;
  EXPECT_THROW(SvmTrainer(params).train(linearly_separable_2d(5, 1)),
               std::invalid_argument);
}

TEST(LinearSvm, DecisionDimensionMismatchThrows) {
  const LinearSvm svm({1.0f, 2.0f}, 0.5f);
  EXPECT_THROW((void)svm.decision(std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(LinearSvm, DecisionIsAffine) {
  const LinearSvm svm({2.0f, -1.0f}, 0.5f);
  EXPECT_DOUBLE_EQ(svm.decision(std::vector<float>{1.0f, 1.0f}), 1.5);
  EXPECT_DOUBLE_EQ(svm.decision(std::vector<float>{0.0f, 0.0f}), 0.5);
}

TEST(LinearSvm, UntrainedReportsNotTrained) {
  EXPECT_FALSE(LinearSvm{}.trained());
  EXPECT_TRUE(LinearSvm({1.0f}, 0.0f).trained());
}

TEST(LinearSvm, SaveLoadRoundTrip) {
  // 1/3 and its neighbour need nine significant digits to tell apart.
  const LinearSvm svm({0.25f, -3.5f, 1e-6f, 1.0f / 3.0f,
                       std::nextafter(1.0f / 3.0f, 1.0f)},
                      -0.1f);
  std::stringstream ss;
  svm.save(ss);
  const LinearSvm back = LinearSvm::load(ss);
  EXPECT_TRUE(avd::test_support::same_bits(back, svm));
}

TEST(LinearSvm, LoadBadHeaderThrows) {
  std::stringstream ss("notsvm 2 0.0 1 2");
  EXPECT_THROW(LinearSvm::load(ss), std::runtime_error);
}

TEST(LinearSvm, LoadTruncatedThrows) {
  std::stringstream ss("svm 5 0.0 1 2");
  EXPECT_THROW(LinearSvm::load(ss), std::runtime_error);
}

// Parameterised sweep over C: training always converges to a usable model on
// separable data; larger C must not break separability.
class SvmCostSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvmCostSweep, SeparableStaysSeparated) {
  SvmTrainParams params;
  params.c = GetParam();
  const SvmProblem p = linearly_separable_2d(40, 13);
  const LinearSvm svm = SvmTrainer(params).train(p);
  int correct = 0;
  for (std::size_t i = 0; i < p.size(); ++i)
    correct += svm.predict(p.features[i]) == p.labels[i];
  EXPECT_EQ(correct, static_cast<int>(p.size()));
}

INSTANTIATE_TEST_SUITE_P(Costs, SvmCostSweep,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0, 100.0));

}  // namespace
}  // namespace avd::ml
