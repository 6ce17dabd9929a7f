#include "avd/detect/hog_svm_detector.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "avd/image/color.hpp"

namespace avd::det {
namespace {

// Shared fixture: train small models once per suite (training is the slow
// part; every test then probes a different behaviour).
class HogSvmDetectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::VehiclePatchSpec spec;
    spec.condition = data::LightingCondition::Day;
    spec.n_positive = 150;
    spec.n_negative = 150;
    spec.seed = 100;
    model_ = new HogSvmModel(
        train_hog_svm(data::make_vehicle_patches(spec), "day"));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static const HogSvmModel& model() { return *model_; }

 private:
  static HogSvmModel* model_;
};

HogSvmModel* HogSvmDetectorTest::model_ = nullptr;

TEST_F(HogSvmDetectorTest, ModelMetadata) {
  EXPECT_EQ(model().name, "day");
  EXPECT_EQ(model().window, (img::Size{64, 64}));
  EXPECT_EQ(model().class_id, kClassVehicle);
  EXPECT_TRUE(model().svm.trained());
  EXPECT_EQ(model().svm.dimension(),
            model().hog.descriptor_length(model().window));
}

TEST_F(HogSvmDetectorTest, ClassifiesHeldOutPatches) {
  data::VehiclePatchSpec spec;
  spec.condition = data::LightingCondition::Day;
  spec.n_positive = 40;
  spec.n_negative = 40;
  spec.seed = 777;  // held out
  const ml::BinaryCounts counts =
      evaluate_patches(model(), data::make_vehicle_patches(spec));
  EXPECT_GT(counts.accuracy(), 0.85);
}

TEST_F(HogSvmDetectorTest, DecisionRejectsWrongWindowSize) {
  EXPECT_THROW((void)model().decision(img::ImageU8(32, 32)),
               std::invalid_argument);
}

TEST_F(HogSvmDetectorTest, SaveLoadRoundTrip) {
  std::stringstream ss;
  model().save(ss);
  const HogSvmModel back = HogSvmModel::load(ss);
  EXPECT_EQ(back.name, model().name);
  EXPECT_EQ(back.window, model().window);
  ml::Rng rng(9);
  const img::ImageU8 patch =
      data::render_vehicle_patch(data::LightingCondition::Day, {64, 64}, rng);
  EXPECT_NEAR(back.decision(patch), model().decision(patch), 1e-4);
}

TEST_F(HogSvmDetectorTest, SaveRejectsWhitespaceNames) {
  // The text header is whitespace-delimited and load() reads the name with
  // >>, so "day model" would round-trip as name="day" with "model" parsed as
  // the window width. Such names must be rejected at save time, not
  // corrupted at load time.
  for (const char* bad : {"day model", " day", "day\t", "du sk\n", "", " "}) {
    HogSvmModel adversarial = model();
    adversarial.name = bad;
    std::stringstream ss;
    EXPECT_THROW(adversarial.save(ss), std::invalid_argument)
        << "name '" << bad << "' should be rejected";
  }
}

TEST_F(HogSvmDetectorTest, PunctuatedNameRoundTrips) {
  HogSvmModel odd = model();
  odd.name = "day/v2.1_final-candidate";
  std::stringstream ss;
  odd.save(ss);
  EXPECT_EQ(HogSvmModel::load(ss).name, odd.name);
}

TEST_F(HogSvmDetectorTest, LoadBadHeaderThrows) {
  std::stringstream ss("bogus");
  EXPECT_THROW(HogSvmModel::load(ss), std::runtime_error);
}

TEST_F(HogSvmDetectorTest, LoadRejectsMalformedGeometry) {
  // Files whose header parses but describes no scannable model: the scan
  // would index past the weights or divide by a zero block stride.
  const auto weights = [](int n) {
    std::string w;
    for (int i = 0; i < n; ++i) w += i == 0 ? "0.5" : " 0.5";
    return w;
  };
  for (const std::string& file : {
           // 360 weights where a 64x64 window needs 1764.
           "hogsvm short 64 64 0 8 9 2 1 0.2\nsvm 360 0.1\n" + weights(360),
           // Zero block stride.
           "hogsvm nostride 64 64 0 8 9 2 0 0.2\nsvm 1764 0.1\n" +
               weights(1764),
           // Zero cell size, zero bins, zero block size.
           "hogsvm nocell 64 64 0 0 9 2 1 0.2\nsvm 4 0.1\n" + weights(4),
           "hogsvm nobins 64 64 0 8 0 2 1 0.2\nsvm 4 0.1\n" + weights(4),
           "hogsvm noblock 64 64 0 8 9 0 1 0.2\nsvm 4 0.1\n" + weights(4),
           // Window not a multiple of the cell size.
           "hogsvm ragged 60 64 0 8 9 2 1 0.2\nsvm 4 0.1\n" + weights(4)}) {
    std::stringstream ss(file);
    EXPECT_THROW(HogSvmModel::load(ss), std::runtime_error)
        << file.substr(0, file.find('\n'));
  }
  std::stringstream ok("hogsvm fine 64 64 0 8 9 2 1 0.2\nsvm 1764 0.1\n" +
                       weights(1764));
  EXPECT_EQ(HogSvmModel::load(ok).svm.dimension(), 1764u);
}

TEST_F(HogSvmDetectorTest, MultiscaleFindsCenteredVehicle) {
  // Build a frame with one large vehicle; the detector must find it.
  data::SceneGenerator gen(data::LightingCondition::Day, 55);
  data::SceneSpec scene;
  scene.condition = data::LightingCondition::Day;
  scene.frame_size = {192, 128};
  scene.horizon_y = 36;
  data::VehicleSpec v;
  v.body = {60, 50, 76, 60};
  scene.vehicles.push_back(v);
  scene.noise_seed = 1;
  const img::ImageU8 gray = img::rgb_to_gray(data::render_scene(scene));

  SlidingWindowParams params;
  params.score_threshold = 0.0;
  const auto dets = detect_multiscale(gray, model(), params);
  ASSERT_FALSE(dets.empty());
  const MatchResult match = match_detections(dets, {v.body}, 0.3);
  EXPECT_EQ(match.true_positives, 1);
}

TEST_F(HogSvmDetectorTest, MultiscaleNearlyQuietOnEmptyRoad) {
  // The paper's day model has a nonzero false-positive rate (Table I: FP 4 of
  // 25 negatives), so require "few and weak", not "none".
  data::SceneGenerator gen(data::LightingCondition::Day, 66);
  int false_positives = 0;
  for (int i = 0; i < 5; ++i) {
    data::SceneSpec scene = gen.random_scene({192, 128}, 0);
    scene.clutter.clear();
    const img::ImageU8 gray = img::rgb_to_gray(data::render_scene(scene));
    SlidingWindowParams params;
    params.score_threshold = 0.5;
    false_positives +=
        static_cast<int>(detect_multiscale(gray, model(), params).size());
  }
  EXPECT_LE(false_positives, 2);
}

TEST_F(HogSvmDetectorTest, MultiscaleDetectionsCarryModelClass) {
  data::SceneGenerator gen(data::LightingCondition::Day, 77);
  const img::ImageU8 gray =
      img::rgb_to_gray(data::render_scene(gen.random_scene({192, 128}, 2)));
  SlidingWindowParams params;
  params.score_threshold = -1.0;  // accept plenty
  for (const Detection& d : detect_multiscale(gray, model(), params))
    EXPECT_EQ(d.class_id, kClassVehicle);
}

TEST_F(HogSvmDetectorTest, UntrainedModelThrows) {
  HogSvmModel empty;
  empty.window = {64, 64};
  EXPECT_THROW((void)detect_multiscale(img::ImageU8(128, 128), empty),
               std::invalid_argument);
}

TEST(HogSvmTraining, EmptyDatasetThrows) {
  EXPECT_THROW(train_hog_svm(data::PatchDataset{}, "x"), std::invalid_argument);
}

TEST(HogSvmTraining, InconsistentPatchSizesThrow) {
  data::PatchDataset ds;
  ds.patches.push_back({img::ImageU8(64, 64), +1, false});
  ds.patches.push_back({img::ImageU8(32, 32), -1, false});
  EXPECT_THROW(train_hog_svm(ds, "x"), std::invalid_argument);
}

TEST(HogSvmTraining, PedestrianWindowAndClass) {
  data::PedestrianPatchSpec spec;
  spec.n_positive = 40;
  spec.n_negative = 40;
  HogSvmTrainOptions opts;
  opts.class_id = kClassPedestrian;
  const HogSvmModel ped =
      train_hog_svm(data::make_pedestrian_patches(spec), "pedestrian", opts);
  EXPECT_EQ(ped.window, (img::Size{32, 64}));
  EXPECT_EQ(ped.class_id, kClassPedestrian);

  data::PedestrianPatchSpec test = spec;
  test.seed = 808;
  EXPECT_GT(evaluate_patches(ped, data::make_pedestrian_patches(test)).accuracy(),
            0.8);
}

TEST(HogSvmTraining, EvaluatePatchCountsAddUp) {
  data::VehiclePatchSpec spec;
  spec.n_positive = 10;
  spec.n_negative = 15;
  spec.seed = 3;
  const data::PatchDataset ds = data::make_vehicle_patches(spec);
  const HogSvmModel m = train_hog_svm(ds, "self");
  const ml::BinaryCounts c = evaluate_patches(m, ds);
  EXPECT_EQ(c.total(), 25u);
  EXPECT_EQ(c.tp + c.fn, 10u);
  EXPECT_EQ(c.tn + c.fp, 15u);
}

}  // namespace
}  // namespace avd::det
