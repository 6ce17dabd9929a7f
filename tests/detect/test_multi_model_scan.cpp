#include "avd/detect/multi_model_scan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "../support/pinned_frames.hpp"
#include "avd/image/color.hpp"
#include "avd/runtime/thread_pool.hpp"

namespace avd::det {
namespace {

void expect_identical(const std::vector<Detection>& a,
                      const std::vector<Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box, b[i].box) << "detection " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "detection " << i;  // bit-equal
    EXPECT_EQ(a[i].class_id, b[i].class_id) << "detection " << i;
  }
}

/// FNV-1a over every detection's box, score bits and class, in output order.
std::uint64_t detection_hash(const std::vector<Detection>& dets) {
  test_support::Fnv1a h;
  for (const Detection& d : dets) {
    const std::int32_t ints[] = {d.box.x, d.box.y, d.box.width, d.box.height,
                                 d.class_id};
    std::uint8_t bytes[sizeof ints + sizeof d.score];
    std::memcpy(bytes, ints, sizeof ints);
    std::memcpy(bytes + sizeof ints, &d.score, sizeof d.score);
    h.bytes(bytes);
  }
  return h.h;
}

std::vector<Detection> filter_class(const std::vector<Detection>& dets,
                                    int class_id) {
  std::vector<Detection> out;
  for (const Detection& d : dets)
    if (d.class_id == class_id) out.push_back(d);
  return out;
}

class MultiModelScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::VehiclePatchSpec vspec;
    vspec.n_positive = vspec.n_negative = 80;
    vspec.seed = 11;
    vehicle_ = new HogSvmModel(
        train_hog_svm(data::make_vehicle_patches(vspec), "vehicle"));

    data::AnimalPatchSpec aspec;
    aspec.n_positive = aspec.n_negative = 80;
    aspec.seed = 12;
    HogSvmTrainOptions opts;
    opts.class_id = kClassAnimal;
    animal_ = new HogSvmModel(
        train_hog_svm(data::make_animal_patches(aspec), "animal", opts));
  }
  static void TearDownTestSuite() {
    delete vehicle_;
    delete animal_;
    vehicle_ = nullptr;
    animal_ = nullptr;
  }
  static const HogSvmModel& vehicle() { return *vehicle_; }
  static const HogSvmModel& animal() { return *animal_; }

  // A daylight countryside frame with one vehicle and one animal.
  static data::SceneSpec mixed_scene() {
    data::SceneSpec scene;
    scene.condition = data::LightingCondition::Day;
    scene.frame_size = {256, 160};
    scene.horizon_y = 48;
    data::VehicleSpec v;
    v.body = {30, 70, 80, 62};
    scene.vehicles.push_back(v);
    data::AnimalSpec a;
    a.body = {160, 80, 70, 52};
    scene.animals.push_back(a);
    scene.noise_seed = 9;
    return scene;
  }

 private:
  static HogSvmModel* vehicle_;
  static HogSvmModel* animal_;
};

HogSvmModel* MultiModelScanTest::vehicle_ = nullptr;
HogSvmModel* MultiModelScanTest::animal_ = nullptr;

TEST_F(MultiModelScanTest, FindsBothClassesInOneScan) {
  const data::SceneSpec scene = mixed_scene();
  const img::ImageU8 gray = img::rgb_to_gray(data::render_scene(scene));
  const HogSvmModel* models[] = {&vehicle(), &animal()};
  SlidingWindowParams params;
  params.score_threshold = 0.0;
  const auto dets = detect_multiscale_multi(gray, models, params);

  const MatchResult vmatch = match_detections(
      filter_class(dets, kClassVehicle), {scene.vehicles[0].body}, 0.25);
  const MatchResult amatch = match_detections(
      filter_class(dets, kClassAnimal), {scene.animals[0].body}, 0.25);
  EXPECT_EQ(vmatch.true_positives, 1);
  EXPECT_EQ(amatch.true_positives, 1);
}

TEST_F(MultiModelScanTest, AgreesWithSingleModelScan) {
  const img::ImageU8 gray =
      img::rgb_to_gray(data::render_scene(mixed_scene()));
  SlidingWindowParams params;
  params.score_threshold = 0.3;

  const HogSvmModel* solo[] = {&vehicle()};
  const auto multi = detect_multiscale_multi(gray, solo, params);
  const auto single = detect_multiscale(gray, vehicle(), params);
  ASSERT_EQ(multi.size(), single.size());
  for (std::size_t i = 0; i < multi.size(); ++i) {
    EXPECT_EQ(multi[i].box, single[i].box);
    EXPECT_DOUBLE_EQ(multi[i].score, single[i].score);
  }
}

TEST_F(MultiModelScanTest, DifferentWindowSizesCoexist) {
  // vehicle 64x64, animal 64x48: both scan from the same grids.
  EXPECT_NE(vehicle().window, animal().window);
  const img::ImageU8 gray =
      img::rgb_to_gray(data::render_scene(mixed_scene()));
  const HogSvmModel* models[] = {&vehicle(), &animal()};
  EXPECT_NO_THROW((void)detect_multiscale_multi(gray, models, {}));
}

TEST_F(MultiModelScanTest, ThreeModelsOneFrontEnd) {
  // Vehicle + animal + pedestrian behind one shared HOG front end — the
  // richest configuration the fabric could carry.
  data::PedestrianPatchSpec pspec;
  pspec.n_positive = pspec.n_negative = 60;
  HogSvmTrainOptions popts;
  popts.class_id = kClassPedestrian;
  const HogSvmModel ped = train_hog_svm(
      data::make_pedestrian_patches(pspec), "pedestrian", popts);

  data::SceneSpec scene = mixed_scene();
  data::PedestrianSpec walker;
  walker.body = {120, 84, 24, 52};
  scene.pedestrians.push_back(walker);
  const img::ImageU8 gray = img::rgb_to_gray(data::render_scene(scene));

  const HogSvmModel* models[] = {&vehicle(), &animal(), &ped};
  SlidingWindowParams params;
  params.score_threshold = 0.0;
  const auto dets = detect_multiscale_multi(gray, models, params);

  bool saw_vehicle = false, saw_animal = false;
  for (const Detection& d : dets) {
    saw_vehicle |= d.class_id == kClassVehicle;
    saw_animal |= d.class_id == kClassAnimal;
  }
  EXPECT_TRUE(saw_vehicle);
  EXPECT_TRUE(saw_animal);
}

TEST_F(MultiModelScanTest, RejectsMismatchedHogGeometry) {
  HogSvmModel odd = vehicle();
  odd.hog.cell_size = 4;
  const HogSvmModel* models[] = {&vehicle(), &odd};
  EXPECT_THROW((void)detect_multiscale_multi(img::ImageU8(128, 128), models, {}),
               std::invalid_argument);
}

TEST_F(MultiModelScanTest, RejectsEmptyAndUntrained) {
  EXPECT_THROW(
      (void)detect_multiscale_multi(img::ImageU8(128, 128), {}, {}),
      std::invalid_argument);
  HogSvmModel untrained;
  untrained.window = {64, 64};
  const HogSvmModel* models[] = {&untrained};
  EXPECT_THROW(
      (void)detect_multiscale_multi(img::ImageU8(128, 128), models, {}),
      std::invalid_argument);
}

TEST_F(MultiModelScanTest, RejectsMalformedModels) {
  // Models the block-grid scan cannot index safely are refused before any
  // scanning, on both scan paths, instead of reading past the weights or
  // dividing by a zero block stride.
  HogSvmModel short_weights = vehicle();
  short_weights.svm = ml::LinearSvm(std::vector<float>(360, 0.5f), 0.1f);
  HogSvmModel no_stride = vehicle();
  no_stride.hog.block_stride_cells = 0;
  HogSvmModel ragged = vehicle();
  ragged.window = {60, 64};
  HogSvmModel tiny = vehicle();
  tiny.window = {8, 8};
  HogSvmModel no_bins = vehicle();
  no_bins.hog.bins = 0;
  const img::ImageU8 frame(128, 128);
  for (const HogSvmModel* bad :
       {&short_weights, &no_stride, &ragged, &tiny, &no_bins}) {
    const HogSvmModel* alone[] = {bad};
    const HogSvmModel* paired[] = {&vehicle(), bad};
    EXPECT_THROW((void)detect_multiscale_multi(frame, alone, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)detect_multiscale_multi(frame, paired, {}),
                 std::invalid_argument);
    EXPECT_THROW((void)detect_multiscale_multi_reference(frame, alone, {}),
                 std::invalid_argument);
  }
}

TEST(WindowAnchorPositions, CoversTheEdgeWhenStrideDivides) {
  EXPECT_EQ(window_anchor_positions(16, 8, 2),
            (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(WindowAnchorPositions, ClampsFinalAnchorOffStride) {
  // 31 cells, 8-cell window, stride 2: the last in-stride anchor is 22, but
  // the edge window starts at 23 — previously skipped, now clamped in.
  EXPECT_EQ(window_anchor_positions(31, 8, 2),
            (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 23}));
}

TEST(WindowAnchorPositions, ExactFitYieldsSingleAnchor) {
  EXPECT_EQ(window_anchor_positions(8, 8, 2), (std::vector<int>{0}));
}

TEST(WindowAnchorPositions, EmptyWhenWindowDoesNotFit) {
  EXPECT_TRUE(window_anchor_positions(7, 8, 1).empty());
  EXPECT_TRUE(window_anchor_positions(0, 8, 1).empty());
  EXPECT_TRUE(window_anchor_positions(8, 0, 1).empty());
  EXPECT_TRUE(window_anchor_positions(8, 8, 0).empty());
}

TEST(WindowAnchorPositions, NoDuplicateWhenLastStrideLandsOnEdge) {
  EXPECT_EQ(window_anchor_positions(12, 8, 4), (std::vector<int>{0, 4}));
}

TEST_F(MultiModelScanTest, BlockGridScannerBitIdenticalToReference) {
  // The tentpole guarantee: the block-grid scanner produces detection-for-
  // detection identical output to the scalar per-window oracle — same boxes,
  // bit-equal scores — with no pool.
  const img::ImageU8 gray =
      img::rgb_to_gray(data::render_scene(mixed_scene()));
  const HogSvmModel* models[] = {&vehicle(), &animal()};
  SlidingWindowParams params;
  params.score_threshold = 0.0;
  expect_identical(detect_multiscale_multi(gray, models, params),
                   detect_multiscale_multi_reference(gray, models, params));
}

TEST_F(MultiModelScanTest, ParallelScanIdenticalForEveryPoolSize) {
  // Determinism across thread counts: no pool, a zero-thread pool, and a
  // 4-thread pool must all reproduce the reference exactly.
  const img::ImageU8 gray =
      img::rgb_to_gray(data::render_scene(mixed_scene()));
  const HogSvmModel* models[] = {&vehicle(), &animal()};
  SlidingWindowParams params;
  params.score_threshold = 0.0;
  const auto reference =
      detect_multiscale_multi_reference(gray, models, params);

  for (const int threads : {0, 1, 4}) {
    runtime::ThreadPool pool(threads);
    params.pool = &pool;
    expect_identical(detect_multiscale_multi(gray, models, params), reference);
  }
}

TEST_F(MultiModelScanTest, OffStrideGeometryStaysIdentical) {
  // A frame whose cell grid is off-stride in both axes exercises the
  // clamped edge anchors through both paths.
  data::SceneSpec scene = mixed_scene();
  scene.frame_size = {250, 150};
  scene.vehicles[0].body = {30, 60, 70, 56};
  scene.animals[0].body = {150, 70, 64, 48};
  const img::ImageU8 gray = img::rgb_to_gray(data::render_scene(scene));
  const HogSvmModel* models[] = {&vehicle(), &animal()};
  SlidingWindowParams params;
  params.score_threshold = 0.0;
  params.stride_cells = 2;
  runtime::ThreadPool pool(4);
  params.pool = &pool;
  expect_identical(detect_multiscale_multi(gray, models, params),
                   detect_multiscale_multi_reference(gray, models, params));
}

TEST_F(MultiModelScanTest, FindsVehicleFlushAgainstFrameBorder) {
  // Regression for the edge-skip bug: with stride 3 on a 250x150 frame
  // (31x18 cells) the old loop's last anchors fell 2 cells short of the
  // right edge and 1 short of the bottom, so a vehicle flush against the
  // corner was never scanned at its own position. The clamped edge anchor
  // covers it (IoU vs truth ~0.78; the best pre-fix window managed ~0.4).
  data::SceneSpec scene;
  scene.condition = data::LightingCondition::Day;
  scene.frame_size = {250, 150};
  scene.horizon_y = 48;
  data::VehicleSpec v;
  v.body = {186, 86, 64, 64};  // flush against right and bottom borders
  scene.vehicles.push_back(v);
  scene.noise_seed = 21;
  const img::ImageU8 gray = img::rgb_to_gray(data::render_scene(scene));

  const HogSvmModel* models[] = {&vehicle()};
  SlidingWindowParams params;
  params.score_threshold = 0.0;
  params.stride_cells = 3;
  const auto dets = detect_multiscale_multi(gray, models, params);

  const MatchResult match =
      match_detections(filter_class(dets, kClassVehicle),
                       {scene.vehicles[0].body}, 0.5);
  EXPECT_EQ(match.true_positives, 1);
  expect_identical(dets,
                   detect_multiscale_multi_reference(gray, models, params));
}

TEST_F(MultiModelScanTest, DetectionHashesPinned) {
  // Detections of the fixture frames at a low threshold, hashed box, score
  // bits and class. The literals were captured from the block-major scanner
  // the lane-major block grid replaced; every bit must still match.
  const HogSvmModel* models[] = {&vehicle(), &animal()};
  SlidingWindowParams params;
  params.score_threshold = -0.5;
  runtime::ThreadPool pool(4);
  params.pool = &pool;

  const img::ImageU8 mixed =
      img::rgb_to_gray(data::render_scene(mixed_scene()));
  const auto mixed_dets = detect_multiscale_multi(mixed, models, params);
  EXPECT_EQ(mixed_dets.size(), 22u);
  EXPECT_EQ(detection_hash(mixed_dets), 17377289002810461967ULL);

  data::SceneSpec off = mixed_scene();
  off.frame_size = {250, 150};
  off.vehicles[0].body = {30, 60, 70, 56};
  off.animals[0].body = {150, 70, 64, 48};
  const img::ImageU8 off_gray = img::rgb_to_gray(data::render_scene(off));
  params.stride_cells = 2;
  EXPECT_EQ(detection_hash(detect_multiscale_multi(off_gray, models, params)),
            1779859795247470902ULL);
  params.stride_cells = 3;
  EXPECT_EQ(detection_hash(detect_multiscale_multi(off_gray, models, params)),
            16249182977318137040ULL);
}

TEST_F(MultiModelScanTest, FullHdDetectionHashesPinned) {
  // One rendered 1920x1080 day frame through vehicle, animal and pedestrian
  // models: many full eight-window runs per row, several block geometries.
  data::PedestrianPatchSpec pspec;
  pspec.n_positive = pspec.n_negative = 60;
  HogSvmTrainOptions popts;
  popts.class_id = kClassPedestrian;
  const HogSvmModel ped = train_hog_svm(
      data::make_pedestrian_patches(pspec), "pedestrian", popts);

  data::SceneGenerator gen(data::LightingCondition::Day, 1303);
  const img::ImageU8 gray = img::rgb_to_gray(
      data::render_scene(gen.random_scene({1920, 1080}, 3, 2)));
  const HogSvmModel* models[] = {&vehicle(), &animal(), &ped};
  SlidingWindowParams params;
  params.score_threshold = 0.0;
  runtime::ThreadPool pool(4);
  params.pool = &pool;
  const auto dets = detect_multiscale_multi(gray, models, params);
  EXPECT_EQ(dets.size(), 292u);
  EXPECT_EQ(detection_hash(dets), 18087247891717376866ULL);
  params.stride_cells = 2;
  EXPECT_EQ(detection_hash(detect_multiscale_multi(gray, models, params)),
            2747099992358437905ULL);
}

}  // namespace
}  // namespace avd::det
