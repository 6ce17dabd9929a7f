#include "avd/core/system_models.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "../support/pinned_frames.hpp"

namespace avd::core {
namespace {

// Train one small model bundle for the whole suite.
class SystemModelsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TrainingBudget budget;
    budget.vehicle_pos = 60;
    budget.vehicle_neg = 60;
    budget.pedestrian_pos = 40;
    budget.pedestrian_neg = 40;
    budget.dbn_windows_per_class = 80;
    budget.pairing_scenes = 40;
    models_ = new SystemModels(build_system_models(budget));
  }
  static void TearDownTestSuite() {
    delete models_;
    models_ = nullptr;
  }
  static const SystemModels& models() { return *models_; }

 private:
  static SystemModels* models_;
};

SystemModels* SystemModelsTest::models_ = nullptr;

TEST_F(SystemModelsTest, AllModelsTrained) {
  EXPECT_TRUE(models().day.svm.trained());
  EXPECT_TRUE(models().dusk.svm.trained());
  EXPECT_TRUE(models().combined.svm.trained());
  EXPECT_TRUE(models().pedestrian.svm.trained());
  EXPECT_TRUE(models().dark.pairing_svm().trained());
}

TEST_F(SystemModelsTest, ModelNames) {
  EXPECT_EQ(models().day.name, "day");
  EXPECT_EQ(models().dusk.name, "dusk");
  EXPECT_EQ(models().combined.name, "combined");
  EXPECT_EQ(models().pedestrian.name, "pedestrian");
}

TEST_F(SystemModelsTest, WindowsMatchBudget) {
  EXPECT_EQ(models().day.window, (img::Size{64, 64}));
  EXPECT_EQ(models().pedestrian.window, (img::Size{32, 64}));
}

TEST_F(SystemModelsTest, ClassIds) {
  EXPECT_EQ(models().day.class_id, det::kClassVehicle);
  EXPECT_EQ(models().pedestrian.class_id, det::kClassPedestrian);
}

TEST_F(SystemModelsTest, VehicleModelSelection) {
  // Day and dusk select their own SVM; the switch is a model swap, not a
  // reconfiguration (paper §III-A: two models in two block RAMs).
  EXPECT_EQ(&models().vehicle_model_for(data::LightingCondition::Day),
            &models().day);
  EXPECT_EQ(&models().vehicle_model_for(data::LightingCondition::Dusk),
            &models().dusk);
}

TEST_F(SystemModelsTest, DayAndDuskModelsDiffer) {
  // The paper stresses "the trained model in these three cases look very
  // different" — weights must not coincide.
  const auto& wd = models().day.svm.weights();
  const auto& wk = models().dusk.svm.weights();
  ASSERT_EQ(wd.size(), wk.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < wd.size(); ++i)
    diff += std::abs(static_cast<double>(wd[i]) - wk[i]);
  EXPECT_GT(diff, 1.0);
}

TEST_F(SystemModelsTest, DarkDetectorHasPaperShape) {
  EXPECT_EQ(models().dark.dbn().input_size(), 81);
  EXPECT_EQ(models().dark.dbn().classes(), 4);
  EXPECT_EQ(models().dark.config().downsample_factor, 3);
  EXPECT_EQ(models().dark.config().window_stride, 2);
}

TEST(SystemModelsBudget, Deterministic) {
  TrainingBudget tiny;
  tiny.vehicle_pos = tiny.vehicle_neg = 20;
  tiny.pedestrian_pos = tiny.pedestrian_neg = 15;
  tiny.dbn_windows_per_class = 30;
  tiny.pairing_scenes = 10;
  const SystemModels a = build_system_models(tiny);
  const SystemModels b = build_system_models(tiny);
  ASSERT_EQ(a.day.svm.dimension(), b.day.svm.dimension());
  for (std::size_t i = 0; i < a.day.svm.dimension(); ++i)
    EXPECT_FLOAT_EQ(a.day.svm.weights()[i], b.day.svm.weights()[i]);
  EXPECT_FLOAT_EQ(a.pedestrian.svm.bias(), b.pedestrian.svm.bias());
}

TrainingBudget tiny_budget_with_animal() {
  TrainingBudget tiny;
  tiny.vehicle_pos = tiny.vehicle_neg = 20;
  tiny.pedestrian_pos = tiny.pedestrian_neg = 15;
  tiny.dbn_windows_per_class = 30;
  tiny.pairing_scenes = 10;
  tiny.animal_pos = tiny.animal_neg = 15;
  return tiny;
}

void hash_svm(test_support::Fnv1a& h, const ml::LinearSvm& svm) {
  const float bias = svm.bias();
  h.floats(svm.weights()).floats({&bias, 1});
}

// The bits of every weight of every model, hashed. The literal was captured
// from the serial build (one model after another on one thread); training
// the models concurrently must reproduce each of them exactly.
TEST(SystemModelsBudget, EveryWeightBitPinned) {
  const SystemModels m = build_system_models(tiny_budget_with_animal());
  ASSERT_TRUE(m.has_animal_model());

  test_support::Fnv1a h;
  for (const det::HogSvmModel* model :
       {&m.day, &m.dusk, &m.combined, &m.pedestrian, &m.animal})
    hash_svm(h, model->svm);
  const ml::Dbn& dbn = m.dark.dbn();
  ASSERT_EQ(dbn.hidden_layers(), 2u);
  for (std::size_t i = 0; i < dbn.hidden_layers(); ++i)
    h.floats(dbn.rbm(i).weights().data())
        .floats(dbn.rbm(i).visible_bias())
        .floats(dbn.rbm(i).hidden_bias());
  h.floats(dbn.head_weights().data()).floats(dbn.head_bias());
  hash_svm(h, m.dark.pairing_svm());

  EXPECT_EQ(h.h, 0xf44b06dc2204bae1ULL) << std::hex << h.h;
}

std::size_t live_threads() {
  const std::filesystem::path tasks = "/proc/self/task";
  return std::distance(std::filesystem::directory_iterator(tasks),
                       std::filesystem::directory_iterator());
}

// A job that throws fails the whole build with its exception, and only once
// every job has finished: no training thread outlives the call. Bounded at
// 120 s (the tiny budget trains in well under a second).
TEST(SystemModelsBudget, FailingJobThrowsAfterEveryJobJoins) {
  TrainingBudget bad = tiny_budget_with_animal();
  bad.pedestrian_pos = bad.pedestrian_neg = 0;  // empty set: train_hog_svm throws
  const bool count_threads = std::filesystem::exists("/proc/self/task");
  const std::size_t threads_before = count_threads ? live_threads() : 0;

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)build_system_models(bad), std::invalid_argument);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(120));

  if (!count_threads) return;
  // A joined thread can linger in /proc for an instant after its join
  // returns, so allow it a moment to be reaped; a running job never is.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (live_threads() > threads_before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(live_threads(), threads_before);
}

}  // namespace
}  // namespace avd::core
