#include "avd/ml/dbn.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "../support/model_bits.hpp"

namespace avd::ml {
namespace {

// Four one-hot-quadrant patterns in a 4x4 grid, with flip noise: a trivially
// learnable 4-class problem shaped like the taillight-window task.
struct QuadrantData {
  std::vector<std::vector<float>> inputs;
  std::vector<int> labels;
};

QuadrantData quadrant_data(int per_class, std::uint64_t seed,
                           double flip = 0.05) {
  Rng rng(seed);
  QuadrantData d;
  for (int cls = 0; cls < 4; ++cls) {
    for (int i = 0; i < per_class; ++i) {
      std::vector<float> v(16, 0.0f);
      const int ox = (cls % 2) * 2;
      const int oy = (cls / 2) * 2;
      for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 2; ++x) v[(oy + y) * 4 + ox + x] = 1.0f;
      for (auto& x : v)
        if (rng.bernoulli(flip)) x = 1.0f - x;
      d.inputs.push_back(std::move(v));
      d.labels.push_back(cls);
    }
  }
  return d;
}

DbnTrainParams fast_params() {
  DbnTrainParams p;
  p.pretrain.epochs = 8;
  p.finetune_epochs = 40;
  return p;
}

TEST(Dbn, ConstructionShape) {
  const Dbn dbn({81, 20, 8}, 4);
  EXPECT_EQ(dbn.input_size(), 81);
  EXPECT_EQ(dbn.classes(), 4);
  EXPECT_EQ(dbn.hidden_layers(), 2u);
  EXPECT_EQ(dbn.rbm(0).visible(), 81);
  EXPECT_EQ(dbn.rbm(0).hidden(), 20);
  EXPECT_EQ(dbn.rbm(1).visible(), 20);
  EXPECT_EQ(dbn.rbm(1).hidden(), 8);
}

TEST(Dbn, BadConstructionThrows) {
  EXPECT_THROW(Dbn({81}, 4), std::invalid_argument);
  EXPECT_THROW(Dbn({81, 20}, 1), std::invalid_argument);
}

TEST(Dbn, PosteriorSumsToOne) {
  const Dbn dbn({16, 6, 4}, 4);
  const auto p = dbn.posterior(std::vector<float>(16, 0.5f));
  ASSERT_EQ(p.size(), 4u);
  double sum = 0.0;
  for (float v : p) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(Dbn, InputDimensionMismatchThrows) {
  const Dbn dbn({16, 6, 4}, 4);
  EXPECT_THROW((void)dbn.posterior(std::vector<float>(15, 0.0f)),
               std::invalid_argument);
}

TEST(Dbn, LearnsQuadrantTask) {
  const QuadrantData train = quadrant_data(120, 101);
  Dbn dbn({16, 10, 6}, 4, 5);
  const DbnTrainReport report = dbn.train(train.inputs, train.labels,
                                          fast_params());
  EXPECT_GT(report.final_train_accuracy, 0.95);

  const QuadrantData test = quadrant_data(40, 202);
  int correct = 0;
  for (std::size_t i = 0; i < test.inputs.size(); ++i)
    correct += dbn.predict(test.inputs[i]) == test.labels[i];
  EXPECT_GT(static_cast<double>(correct) / test.inputs.size(), 0.9);
}

TEST(Dbn, FinetuneLossDecreases) {
  const QuadrantData train = quadrant_data(80, 33);
  Dbn dbn({16, 8, 6}, 4, 9);
  const DbnTrainReport report = dbn.train(train.inputs, train.labels,
                                          fast_params());
  ASSERT_GE(report.finetune_loss.size(), 2u);
  EXPECT_LT(report.finetune_loss.back(), report.finetune_loss.front());
}

TEST(Dbn, PretrainReportsPerLayerErrors) {
  const QuadrantData train = quadrant_data(60, 44);
  Dbn dbn({16, 8, 5}, 4, 11);
  DbnTrainParams params = fast_params();
  DbnTrainReport report;
  dbn.pretrain(train.inputs, params, report);
  ASSERT_EQ(report.pretrain_errors.size(), 2u);  // one per hidden layer
  EXPECT_EQ(report.pretrain_errors[0].size(),
            static_cast<std::size_t>(params.pretrain.epochs));
}

TEST(Dbn, FinetuneLabelValidation) {
  Dbn dbn({16, 6, 4}, 4);
  std::vector<std::vector<float>> x{std::vector<float>(16, 0.0f)};
  DbnTrainReport report;
  std::vector<int> bad{4};
  EXPECT_THROW(dbn.finetune(x, bad, fast_params(), report),
               std::invalid_argument);
  std::vector<int> negative{-1};
  EXPECT_THROW(dbn.finetune(x, negative, fast_params(), report),
               std::invalid_argument);
  std::vector<int> short_labels{};
  EXPECT_THROW(dbn.finetune(x, short_labels, fast_params(), report),
               std::invalid_argument);
}

TEST(Dbn, DeterministicTraining) {
  const QuadrantData train = quadrant_data(50, 77);
  Dbn a({16, 8, 5}, 4, 21), b({16, 8, 5}, 4, 21);
  const DbnTrainParams params = fast_params();
  a.train(train.inputs, train.labels, params);
  b.train(train.inputs, train.labels, params);
  for (std::size_t i = 0; i < train.inputs.size(); ++i) {
    const auto pa = a.posterior(train.inputs[i]);
    const auto pb = b.posterior(train.inputs[i]);
    for (std::size_t c = 0; c < pa.size(); ++c) EXPECT_FLOAT_EQ(pa[c], pb[c]);
  }
}

TEST(Dbn, SaveLoadRoundTripPreservesPredictions) {
  const QuadrantData train = quadrant_data(60, 88);
  Dbn dbn({16, 8, 5}, 4, 31);
  dbn.train(train.inputs, train.labels, fast_params());

  std::stringstream ss;
  dbn.save(ss);
  const Dbn back = Dbn::load(ss);

  EXPECT_EQ(back.input_size(), 16);
  EXPECT_EQ(back.classes(), 4);
  EXPECT_TRUE(avd::test_support::same_bits(back, dbn));
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_TRUE(avd::test_support::same_bits(back.posterior(train.inputs[i]),
                                             dbn.posterior(train.inputs[i])));
}

TEST(Dbn, LoadBadHeaderThrows) {
  std::stringstream ss("nope 3 4");
  EXPECT_THROW(Dbn::load(ss), std::runtime_error);
}

TEST(Dbn, PosteriorBatchBitEqualsPerWindowPosterior) {
  const QuadrantData train = quadrant_data(60, 55);
  Dbn dbn({16, 8, 5}, 4, 13);
  dbn.train(train.inputs, train.labels, fast_params());

  for (const int batch : {1, 2, 7, 60}) {
    std::vector<float> xs;
    for (int r = 0; r < batch; ++r)
      xs.insert(xs.end(), train.inputs[r].begin(), train.inputs[r].end());
    const std::vector<float> out = dbn.posterior_batch(xs, batch);
    ASSERT_EQ(out.size(), static_cast<std::size_t>(batch) * 4);
    for (int r = 0; r < batch; ++r) {
      const auto want = dbn.posterior(train.inputs[r]);
      for (std::size_t c = 0; c < want.size(); ++c)
        EXPECT_EQ(out[r * 4 + c], want[c])
            << "batch " << batch << " row " << r << " class " << c;
    }
  }
}

TEST(Dbn, PosteriorBatchScratchReuseAcrossBatchSizes) {
  const Dbn dbn({16, 6, 4}, 4, 3);
  DbnBatchScratch scratch;
  for (const int batch : {5, 1, 9}) {  // shrink and grow the same scratch
    const std::vector<float> xs(static_cast<std::size_t>(batch) * 16, 0.25f);
    std::vector<float> out(static_cast<std::size_t>(batch) * 4);
    dbn.posterior_batch(xs, batch, scratch, out);
    const auto want = dbn.posterior(std::vector<float>(16, 0.25f));
    for (int r = 0; r < batch; ++r)
      for (std::size_t c = 0; c < want.size(); ++c)
        EXPECT_EQ(out[r * 4 + c], want[c]);
  }
}

TEST(Dbn, PosteriorBatchValidatesSizes) {
  const Dbn dbn({16, 6, 4}, 4);
  DbnBatchScratch scratch;
  std::vector<float> out(8);
  const std::vector<float> xs(32, 0.0f);
  EXPECT_THROW(dbn.posterior_batch(xs, -1, scratch, out),
               std::invalid_argument);
  EXPECT_THROW(dbn.posterior_batch(std::span<const float>(xs).first(31), 2,
                                   scratch, out),
               std::invalid_argument);
  EXPECT_THROW(dbn.posterior_batch(xs, 2, scratch,
                                   std::span<float>(out).first(7)),
               std::invalid_argument);
  // Zero rows is a valid no-op.
  std::vector<float> empty_out;
  dbn.posterior_batch({}, 0, scratch, empty_out);
  EXPECT_TRUE(dbn.posterior_batch({}, 0).empty());
}

TEST(Dbn, PaperShapedNetworkTrains) {
  // The exact architecture of §III-B: 81 -> 20 -> 8 -> 4.
  Dbn dbn({81, 20, 8}, 4, 7);
  Rng rng(7);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 80; ++i) {
    std::vector<float> v(81, 0.0f);
    const int cls = i % 4;
    for (int j = cls * 20; j < cls * 20 + 20; ++j) v[j] = 1.0f;
    x.push_back(std::move(v));
    y.push_back(cls);
  }
  DbnTrainParams p = fast_params();
  const DbnTrainReport report = dbn.train(x, y, p);
  EXPECT_GT(report.final_train_accuracy, 0.9);
}

}  // namespace
}  // namespace avd::ml
