// Model and dataset persistence across process boundaries: everything a
// deployment writes to disk must reload into functionally identical
// components.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "../support/model_bits.hpp"
#include "avd/datasets/dataset_io.hpp"
#include "avd/detect/dark_training.hpp"
#include "avd/detect/hog_svm_detector.hpp"

namespace avd {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest -j runs these tests as parallel processes.
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("avd_persist_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(PersistenceTest, HogSvmModelThroughFile) {
  data::VehiclePatchSpec spec;
  spec.n_positive = spec.n_negative = 60;
  const det::HogSvmModel original =
      det::train_hog_svm(data::make_vehicle_patches(spec), "day");

  {
    std::ofstream out(dir_ + "/day.hogsvm");
    original.save(out);
  }
  std::ifstream in(dir_ + "/day.hogsvm");
  const det::HogSvmModel reloaded = det::HogSvmModel::load(in);
  EXPECT_TRUE(test_support::same_bits(reloaded.svm, original.svm));

  // Identical patch-level decisions on fresh data.
  data::VehiclePatchSpec fresh = spec;
  fresh.seed = 31415;
  const data::PatchDataset test = data::make_vehicle_patches(fresh);
  for (std::size_t i = 0; i < test.size(); i += 9)
    EXPECT_EQ(reloaded.decision(test.patches[i].gray),
              original.decision(test.patches[i].gray));
}

TEST_F(PersistenceTest, DbnThroughFile) {
  det::DarkTrainingSpec spec;
  spec.windows.per_class = 60;
  spec.dbn.pretrain.epochs = 6;
  spec.dbn.finetune_epochs = 15;
  const ml::Dbn original = det::train_taillight_dbn(spec);
  {
    std::ofstream out(dir_ + "/taillight.dbn");
    original.save(out);
  }
  std::ifstream in(dir_ + "/taillight.dbn");
  const ml::Dbn reloaded = ml::Dbn::load(in);
  EXPECT_TRUE(test_support::same_bits(reloaded, original));

  data::TaillightWindowSpec ws;
  ws.per_class = 20;
  ws.seed = 2718;
  for (const auto& w : data::make_taillight_windows(ws))
    EXPECT_EQ(reloaded.predict(w.pixels), original.predict(w.pixels));
}

TEST_F(PersistenceTest, DarkDetectorComponentsThroughFiles) {
  // Persist the dark detector's two models, rebuild the detector, verify
  // identical detections.
  det::DarkTrainingSpec spec;
  spec.windows.per_class = 80;
  spec.dbn.pretrain.epochs = 8;
  spec.dbn.finetune_epochs = 20;
  spec.pairing_scenes = 40;
  const det::DarkVehicleDetector original = det::train_dark_detector(spec);

  {
    std::ofstream out(dir_ + "/dbn.txt");
    original.dbn().save(out);
  }
  {
    std::ofstream out(dir_ + "/pair.svm");
    original.pairing_svm().save(out);
  }
  std::ifstream din(dir_ + "/dbn.txt");
  std::ifstream sin(dir_ + "/pair.svm");
  const det::DarkVehicleDetector rebuilt(
      ml::Dbn::load(din), ml::LinearSvm::load(sin), original.config());
  EXPECT_TRUE(test_support::same_bits(rebuilt.dbn(), original.dbn()));
  EXPECT_TRUE(
      test_support::same_bits(rebuilt.pairing_svm(), original.pairing_svm()));

  data::SceneGenerator gen(data::LightingCondition::Dark, 1);
  for (int i = 0; i < 3; ++i) {
    const img::RgbImage frame =
        data::render_scene(gen.random_scene({480, 270}, 2));
    const auto a = original.detect(frame);
    const auto b = rebuilt.detect(frame);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].box, b[k].box);
      EXPECT_EQ(a[k].score, b[k].score);
    }
  }
}

TEST_F(PersistenceTest, TrainOnReloadedDatasetMatchesOriginal) {
  // Save a dataset, reload it, train on both: models must agree exactly
  // (training is deterministic and the pixels round-trip losslessly).
  data::VehiclePatchSpec spec;
  spec.n_positive = spec.n_negative = 40;
  const data::PatchDataset original = data::make_vehicle_patches(spec);
  data::save_dataset(original, dir_ + "/ds");
  const data::PatchDataset reloaded = data::load_dataset(dir_ + "/ds");

  const det::HogSvmModel m1 = det::train_hog_svm(original, "a");
  const det::HogSvmModel m2 = det::train_hog_svm(reloaded, "b");
  ASSERT_EQ(m1.svm.dimension(), m2.svm.dimension());
  for (std::size_t i = 0; i < m1.svm.dimension(); i += 17)
    EXPECT_FLOAT_EQ(m1.svm.weights()[i], m2.svm.weights()[i]);
  EXPECT_FLOAT_EQ(m1.svm.bias(), m2.svm.bias());
}

TEST_F(PersistenceTest, SaveLoadIsTextFormat) {
  // The artefacts are inspectable text, not opaque blobs.
  data::VehiclePatchSpec spec;
  spec.n_positive = spec.n_negative = 20;
  const det::HogSvmModel model =
      det::train_hog_svm(data::make_vehicle_patches(spec), "day");
  std::stringstream ss;
  model.save(ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("hogsvm day"), std::string::npos);
  EXPECT_NE(text.find("svm "), std::string::npos);
}

}  // namespace
}  // namespace avd
