#include "avd/detect/dark_detector.hpp"

#include <gtest/gtest.h>

#include "avd/detect/dark_training.hpp"
#include "avd/image/color.hpp"
#include "avd/image/draw.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/runtime/thread_pool.hpp"

namespace avd::det {
namespace {

void expect_same_taillights(const std::vector<TaillightDetection>& got,
                            const std::vector<TaillightDetection>& want,
                            const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].center.x, want[i].center.x) << label << " light " << i;
    EXPECT_EQ(got[i].center.y, want[i].center.y) << label << " light " << i;
    EXPECT_EQ(got[i].cls, want[i].cls) << label << " light " << i;
    // Exact, not approximate: the batched forward is bit-identical to the
    // per-window path, so the aggregated confidence must match to the bit.
    EXPECT_EQ(got[i].confidence, want[i].confidence) << label << " light " << i;
    EXPECT_EQ(got[i].blob_box, want[i].blob_box) << label << " light " << i;
    EXPECT_EQ(got[i].blob_area, want[i].blob_area) << label << " light " << i;
  }
}

// One trained detector shared across the suite (training dominates runtime).
class DarkDetectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DarkTrainingSpec spec;
    spec.windows.per_class = 120;
    spec.dbn.pretrain.epochs = 12;
    spec.dbn.finetune_epochs = 30;
    spec.pairing_scenes = 60;
    detector_ = new DarkVehicleDetector(train_dark_detector(spec));
  }
  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
  }
  static const DarkVehicleDetector& detector() { return *detector_; }

  // A hand-built dark scene with one vehicle at a known place.
  static data::SceneSpec one_vehicle_scene() {
    data::SceneSpec scene;
    scene.condition = data::LightingCondition::Dark;
    scene.frame_size = {480, 270};
    scene.horizon_y = 100;
    data::VehicleSpec v;
    v.body = {180, 120, 120, 95};
    scene.vehicles.push_back(v);
    scene.noise_seed = 77;
    return scene;
  }

 private:
  static DarkVehicleDetector* detector_;
};

DarkVehicleDetector* DarkDetectorTest::detector_ = nullptr;

TEST_F(DarkDetectorTest, ConstructionValidatesShapes) {
  ml::Dbn wrong_dbn({10, 5}, 4);
  EXPECT_THROW(DarkVehicleDetector(wrong_dbn, detector().pairing_svm()),
               std::invalid_argument);
  ml::Dbn right_dbn({81, 20, 8}, 4);
  ml::LinearSvm wrong_svm(std::vector<float>(3, 0.0f), 0.0f);
  EXPECT_THROW(DarkVehicleDetector(right_dbn, wrong_svm),
               std::invalid_argument);
}

TEST_F(DarkDetectorTest, PreprocessProducesDownsampledBinary) {
  const img::RgbImage frame = data::render_scene(one_vehicle_scene());
  const img::ImageU8 mask = detector().preprocess(frame);
  EXPECT_EQ(mask.size(), (img::Size{160, 90}));  // 480x270 / 3
  for (auto v : mask.pixels()) EXPECT_TRUE(v == 0 || v == 255);
}

TEST_F(DarkDetectorTest, PreprocessKeepsTaillightsDropsBackground) {
  const data::SceneSpec scene = one_vehicle_scene();
  const img::ImageU8 mask = detector().preprocess(data::render_scene(scene));
  const auto [lb, rb] = scene.vehicles[0].taillight_boxes();
  const int f = detector().config().downsample_factor;
  const img::Rect lb_ds = img::inflated(img::scaled(lb, 1.0 / f, 1.0 / f), 2);
  EXPECT_GT(img::count_nonzero(mask.crop(lb_ds)), 0u);
  // Most of the frame stays background.
  EXPECT_LT(img::count_nonzero(mask),
            static_cast<std::size_t>(mask.pixel_count() / 20));
}

TEST_F(DarkDetectorTest, DetectTaillightsFindsBothLamps) {
  const data::SceneSpec scene = one_vehicle_scene();
  const img::ImageU8 mask = detector().preprocess(data::render_scene(scene));
  const auto lights = detector().detect_taillights(mask);
  EXPECT_GE(lights.size(), 2u);
  for (const TaillightDetection& t : lights) {
    EXPECT_NE(t.cls, data::TaillightClass::NotTaillight);
    EXPECT_GE(t.confidence, detector().config().dbn_min_confidence);
  }
}

// One detection moves each detect.dark.* counter by what it did.
TEST_F(DarkDetectorTest, DetectionMovesItsCounters) {
  const img::ImageU8 mask =
      detector().preprocess(data::render_scene(one_vehicle_scene()));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto value = [&](const char* name) {
    return registry.counter(name).value();
  };
  const std::uint64_t blobs = value("detect.dark.blobs");
  const std::uint64_t windows = value("detect.dark.batch_windows");
  const std::uint64_t taillights = value("detect.dark.taillights");
  const auto lights = detector().detect_taillights(mask);
  EXPECT_GE(value("detect.dark.blobs") - blobs, 2u);  // both lamps
  EXPECT_GT(value("detect.dark.batch_windows"), windows);
  EXPECT_EQ(value("detect.dark.taillights") - taillights, lights.size());
}

TEST_F(DarkDetectorTest, DetectFindsVehicleBox) {
  const data::SceneSpec scene = one_vehicle_scene();
  const auto dets = detector().detect(data::render_scene(scene));
  ASSERT_FALSE(dets.empty());
  const MatchResult m = match_detections(dets, {scene.vehicles[0].body}, 0.25);
  EXPECT_EQ(m.true_positives, 1);
}

TEST_F(DarkDetectorTest, MostlyQuietOnVehicleFreeDarkScene) {
  // Vehicle-free night scenes still contain paired red signal heads and
  // wet-road streaks; a small false-alarm rate is expected (the paper's own
  // accuracy is 95%, not 100%).
  data::SceneGenerator gen(data::LightingCondition::Dark, 31);
  int false_alarms = 0;
  for (int i = 0; i < 10; ++i) {
    const auto dets =
        detector().detect(data::render_scene(gen.random_scene({480, 270}, 0)));
    false_alarms += !dets.empty();
  }
  EXPECT_LE(false_alarms, 3);
}

TEST_F(DarkDetectorTest, SingleRedLightIsNotAVehicle) {
  data::SceneSpec scene;
  scene.condition = data::LightingCondition::Dark;
  scene.frame_size = {480, 270};
  scene.horizon_y = 100;
  scene.distractors.push_back({{240, 135}, 4, {255, 45, 30}});
  scene.noise_seed = 5;
  EXPECT_TRUE(detector().detect(data::render_scene(scene)).empty());
}

TEST_F(DarkDetectorTest, WhiteHeadlightPairIsNotAVehicle) {
  // Oncoming headlights: pass no chroma gate, so nothing is even thresholded.
  data::SceneSpec scene;
  scene.condition = data::LightingCondition::Dark;
  scene.frame_size = {480, 270};
  scene.horizon_y = 100;
  scene.distractors.push_back({{200, 180}, 5, {255, 250, 235}});
  scene.distractors.push_back({{240, 180}, 5, {255, 250, 235}});
  scene.noise_seed = 6;
  const img::ImageU8 mask = detector().preprocess(data::render_scene(scene));
  EXPECT_EQ(img::count_nonzero(mask), 0u);
}

TEST_F(DarkDetectorTest, PairFeaturesShape) {
  TaillightDetection a, b;
  a.center = {10, 50};
  b.center = {60, 52};
  a.blob_area = 9;
  b.blob_area = 16;
  a.cls = b.cls = data::TaillightClass::LargeRound;
  const auto f = DarkVehicleDetector::pair_features(a, b);
  EXPECT_EQ(f.size(), DarkVehicleDetector::kPairFeatureCount);
  EXPECT_FLOAT_EQ(f[0], 0.5f);        // dx / 100
  EXPECT_FLOAT_EQ(f[1], 0.2f);        // |dy| / 10
  EXPECT_FLOAT_EQ(f[4], 0.75f);       // size ratio 3/4
  EXPECT_FLOAT_EQ(f[5], 1.0f);        // class agreement
}

TEST_F(DarkDetectorTest, PairingRespectsGeometricGate) {
  // Two taillights vertically stacked can never pair.
  TaillightDetection a, b;
  a.center = {100, 40};
  b.center = {100, 90};
  a.cls = b.cls = data::TaillightClass::LargeRound;
  a.blob_area = b.blob_area = 10;
  a.confidence = b.confidence = 1.0;
  EXPECT_TRUE(detector().pair_taillights({a, b}).empty());
}

TEST_F(DarkDetectorTest, PairedBoxSpansLights) {
  TaillightDetection a, b;
  a.center = {60, 60};
  b.center = {100, 60};
  a.cls = b.cls = data::TaillightClass::LargeRound;
  a.blob_area = b.blob_area = 12;
  a.confidence = b.confidence = 1.0;
  const auto pairs = detector().pair_taillights({a, b});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].box.contains(img::Point{80, 60}));
  EXPECT_GE(pairs[0].box.width, 40);
}

TEST_F(DarkDetectorTest, DownsampleFactorValidation) {
  DarkDetectorConfig bad;
  bad.downsample_factor = 0;
  EXPECT_THROW(
      DarkVehicleDetector(detector().dbn(), detector().pairing_svm(), bad),
      std::invalid_argument);
}

TEST_F(DarkDetectorTest, WindowStrideValidation) {
  // A non-positive stride yields no window anchors, so every blob would be
  // scored on zero windows and the detector would find nothing, silently.
  for (const int stride : {0, -2}) {
    DarkDetectorConfig bad;
    bad.window_stride = stride;
    EXPECT_THROW(
        DarkVehicleDetector(detector().dbn(), detector().pairing_svm(), bad),
        std::invalid_argument)
        << "stride " << stride;
  }
}

TEST_F(DarkDetectorTest, ClosingElementValidation) {
  // An even or non-positive closing element would throw from img::close on
  // every frame; the constructor refuses it up front.
  for (const img::StructuringElement se :
       {img::StructuringElement{2, 3}, img::StructuringElement{3, 4},
        img::StructuringElement{0, 3}, img::StructuringElement{3, -1}}) {
    DarkDetectorConfig bad;
    bad.closing = se;
    EXPECT_THROW(
        DarkVehicleDetector(detector().dbn(), detector().pairing_svm(), bad),
        std::invalid_argument)
        << "closing " << se.width << "x" << se.height;
  }
}

TEST_F(DarkDetectorTest, NonDivisibleFrameStillWorks) {
  // 479x271 is not divisible by 3: the nearest-neighbour fallback must kick
  // in and the pipeline must not throw.
  data::SceneGenerator gen(data::LightingCondition::Dark, 13);
  const img::RgbImage frame =
      data::render_scene(gen.random_scene({479, 271}, 1));
  EXPECT_NO_THROW((void)detector().detect(frame));
}

TEST(DarkWindowAnchors, StrideCoversSpanWithClampedEdge) {
  // [0, 20) with win 9, stride 2: interior anchors 0,2,..,10 and the final
  // anchor clamped to 20-9=11 — the right/bottom edge is always scanned.
  EXPECT_EQ(dark_window_anchors(0, 20, 9, 2),
            (std::vector<int>{0, 2, 4, 6, 8, 10, 11}));
  // Stride landing exactly on end-win adds no duplicate.
  EXPECT_EQ(dark_window_anchors(0, 13, 9, 2), (std::vector<int>{0, 2, 4}));
  // Non-zero begin offsets every anchor.
  EXPECT_EQ(dark_window_anchors(5, 18, 9, 3), (std::vector<int>{5, 8, 9}));
}

TEST(DarkWindowAnchors, ExactFitYieldsSingleAnchor) {
  EXPECT_EQ(dark_window_anchors(4, 13, 9, 2), (std::vector<int>{4}));
}

TEST(DarkWindowAnchors, DegenerateSpansAreEmpty) {
  EXPECT_TRUE(dark_window_anchors(0, 8, 9, 2).empty());   // window too wide
  EXPECT_TRUE(dark_window_anchors(0, 20, 9, 0).empty());  // bad stride
  EXPECT_TRUE(dark_window_anchors(0, 20, 0, 2).empty());  // bad window
  EXPECT_TRUE(dark_window_anchors(10, 10, 9, 2).empty()); // empty span
}

TEST_F(DarkDetectorTest, BatchedScanMatchesReferenceExactly) {
  // The tentpole equivalence contract: batched gather/score/scatter must
  // reproduce the per-window reference detection-for-detection, for every
  // batch size and every pool size.
  data::SceneGenerator gen(data::LightingCondition::Dark, 97);
  runtime::ThreadPool pool1(1), pool3(3);
  for (int s = 0; s < 3; ++s) {
    const img::ImageU8 mask =
        detector().preprocess(data::render_scene(gen.random_scene({480, 270}, 2)));
    const auto want = detector().detect_taillights_reference(mask);

    for (const int batch : {1, 7, 256}) {
      DarkDetectorConfig cfg = detector().config();
      cfg.batch_windows = batch;
      DarkVehicleDetector dut(detector().dbn(), detector().pairing_svm(), cfg);
      expect_same_taillights(dut.detect_taillights(mask), want, "no pool");
      dut.set_scan_pool(&pool1);
      expect_same_taillights(dut.detect_taillights(mask), want, "pool(1)");
      dut.set_scan_pool(&pool3);
      expect_same_taillights(dut.detect_taillights(mask), want, "pool(3)");
    }
  }
}

TEST_F(DarkDetectorTest, FindsTaillightsFlushWithFrameBorder) {
  // Regression for the dark-scan border skip: before the clamped final
  // anchor, a blob whose neighbourhood ended off-stride lost its edge
  // windows, so lamps hugging the frame border were under-voted. Park the
  // vehicle hard against the right frame edge.
  data::SceneSpec scene;
  scene.condition = data::LightingCondition::Dark;
  scene.frame_size = {480, 270};
  scene.horizon_y = 100;
  data::VehicleSpec v;
  v.body = {480 - 121, 120, 120, 95};  // body right edge 1 px from border
  scene.vehicles.push_back(v);
  scene.noise_seed = 42;
  const img::ImageU8 mask = detector().preprocess(data::render_scene(scene));
  const auto lights = detector().detect_taillights(mask);
  EXPECT_GE(lights.size(), 2u);
  const auto dets = detector().detect(data::render_scene(scene));
  const MatchResult m = match_detections(dets, {scene.vehicles[0].body}, 0.25);
  EXPECT_EQ(m.true_positives, 1);
}

// --- DarkScanPool: training-free equivalence + race coverage --------------
//
// An untrained DBN and a zero SVM make these tests cheap enough for the TSan
// lane (scripts/check.sh runs DarkScanPool.* under ThreadSanitizer): the
// point is the concurrency structure of the batched scan, not accuracy.

img::ImageU8 speckled_mask() {
  img::ImageU8 mask(160, 90, 0);
  // A spread of blob shapes: dots, bars, an L, and border-flush blobs that
  // exercise the clamped anchors (right edge, bottom edge, corner).
  const auto dot = [&](int x, int y, int w, int h) {
    for (int dy = 0; dy < h; ++dy)
      for (int dx = 0; dx < w; ++dx) mask.at(x + dx, y + dy) = 255;
  };
  dot(10, 10, 2, 2);
  dot(40, 12, 8, 3);   // wide bar
  dot(70, 30, 4, 4);
  dot(71, 50, 1, 1);   // single pixel
  dot(20, 60, 3, 12);  // tall streak
  dot(157, 40, 3, 3);  // flush with right edge
  dot(80, 87, 5, 3);   // flush with bottom edge
  dot(158, 88, 2, 2);  // corner
  return mask;
}

DarkVehicleDetector untrained_detector(DarkDetectorConfig cfg = {}) {
  cfg.dbn_min_confidence = 0.0;  // accept whatever the untrained DBN votes
  return {ml::Dbn({81, 20, 8}, 4, 1),
          ml::LinearSvm(std::vector<float>(6, 0.0f), 0.0f), cfg};
}

TEST(DarkScanPool, BatchedMatchesReferenceAcrossBatchSizes) {
  const img::ImageU8 mask = speckled_mask();
  const DarkVehicleDetector ref = untrained_detector();
  const auto want = ref.detect_taillights_reference(mask);
  EXPECT_FALSE(want.empty());
  for (const int batch : {1, 3, 16, 1024}) {
    DarkDetectorConfig cfg;
    cfg.batch_windows = batch;
    const DarkVehicleDetector dut = untrained_detector(cfg);
    expect_same_taillights(dut.detect_taillights(mask), want, "batch");
  }
}

TEST(DarkScanPool, PooledScanMatchesSerialScan) {
  const img::ImageU8 mask = speckled_mask();
  DarkVehicleDetector det = untrained_detector();
  const auto want = det.detect_taillights(mask);
  runtime::ThreadPool pool(3);
  det.set_scan_pool(&pool);
  ASSERT_EQ(det.scan_pool(), &pool);
  for (int repeat = 0; repeat < 5; ++repeat)
    expect_same_taillights(det.detect_taillights(mask), want, "pooled");
}

TEST(DarkScanPool, ConcurrentCallersShareOnePool) {
  // StreamServer runs several detect workers against one shared detector;
  // the batched scan must tolerate concurrent callers on the same pool.
  const img::ImageU8 mask = speckled_mask();
  DarkVehicleDetector det = untrained_detector();
  const auto want = det.detect_taillights(mask);
  runtime::ThreadPool scan_pool(2), callers(3);
  det.set_scan_pool(&scan_pool);
  callers.run_indexed(6, [&](int) {
    expect_same_taillights(det.detect_taillights(mask), want, "concurrent");
  });
}

TEST(DarkScanPool, EmptyMaskYieldsNoDetections) {
  const img::ImageU8 mask(160, 90, 0);
  DarkVehicleDetector det = untrained_detector();
  runtime::ThreadPool pool(2);
  det.set_scan_pool(&pool);
  EXPECT_TRUE(det.detect_taillights(mask).empty());
  EXPECT_TRUE(det.detect_taillights_reference(mask).empty());
}

}  // namespace
}  // namespace avd::det
