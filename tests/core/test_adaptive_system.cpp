#include "avd/core/adaptive_system.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "avd/image/color.hpp"
#include "avd/obs/trace.hpp"

namespace avd::core {
namespace {

using data::LightingCondition;

TrainingBudget tiny_budget() {
  TrainingBudget b;
  b.vehicle_pos = b.vehicle_neg = 40;
  b.pedestrian_pos = b.pedestrian_neg = 30;
  b.dbn_windows_per_class = 90;
  b.pairing_scenes = 30;
  return b;
}

// Control-plane-only system shared across the suite.
class AdaptiveSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AdaptiveSystemConfig cfg;
    cfg.run_detectors = false;
    system_ = new AdaptiveSystem(build_system_models(tiny_budget()), cfg);
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  static AdaptiveSystem& system() { return *system_; }

  static data::DriveSequence drive(std::vector<data::DriveSegment> segments) {
    data::SequenceSpec spec;
    spec.frame_size = {480, 270};
    spec.segments = std::move(segments);
    return data::DriveSequence(spec);
  }

 private:
  static AdaptiveSystem* system_;
};

AdaptiveSystem* AdaptiveSystemTest::system_ = nullptr;

TEST_F(AdaptiveSystemTest, ConfigForCondition) {
  EXPECT_STREQ(config_for(LightingCondition::Day), "day-dusk");
  EXPECT_STREQ(config_for(LightingCondition::Dusk), "day-dusk");
  EXPECT_STREQ(config_for(LightingCondition::Dark), "dark");
}

TEST_F(AdaptiveSystemTest, SteadyDayNeedsNoReconfig) {
  const auto report = system().run(drive({{LightingCondition::Day, 30}}));
  EXPECT_EQ(report.reconfig_count(), 0);
  EXPECT_EQ(report.dropped_vehicle_frames(), 0);
  EXPECT_DOUBLE_EQ(report.vehicle_availability(), 1.0);
}

TEST_F(AdaptiveSystemTest, DayToDuskIsModelSwapOnly) {
  // Both conditions live in the same partial configuration: no PR.
  const auto report = system().run(drive(
      {{LightingCondition::Day, 20}, {LightingCondition::Dusk, 20}}));
  EXPECT_EQ(report.reconfig_count(), 0);
  EXPECT_EQ(report.dropped_vehicle_frames(), 0);
}

TEST_F(AdaptiveSystemTest, DuskToDarkTriggersOneReconfig) {
  const auto report = system().run(drive(
      {{LightingCondition::Dusk, 20}, {LightingCondition::Dark, 20}}));
  EXPECT_EQ(report.reconfig_count(), 1);
  // Paper §IV-B: one reconfiguration costs exactly one 50 fps frame.
  EXPECT_EQ(report.dropped_vehicle_frames(), 1);
  EXPECT_EQ(report.reconfigs[0].config_name, "dark");
}

TEST_F(AdaptiveSystemTest, PedestrianDetectionNeverInterrupted) {
  const auto report = system().run(drive(
      {{LightingCondition::Day, 10},
       {LightingCondition::Dark, 10},
       {LightingCondition::Day, 10}}));
  EXPECT_EQ(report.pedestrian_frames_processed(),
            static_cast<int>(report.frames.size()));
}

TEST_F(AdaptiveSystemTest, RoundTripReconfiguresTwice) {
  const auto report = system().run(drive(
      {{LightingCondition::Dusk, 15},
       {LightingCondition::Dark, 15},
       {LightingCondition::Dusk, 15}}));
  EXPECT_EQ(report.reconfig_count(), 2);
  EXPECT_EQ(report.dropped_vehicle_frames(), 2);
  EXPECT_EQ(report.reconfigs[0].config_name, "dark");
  EXPECT_EQ(report.reconfigs[1].config_name, "day-dusk");
}

TEST_F(AdaptiveSystemTest, DebounceDelaysReconfigByAFewFrames) {
  const auto report = system().run(drive(
      {{LightingCondition::Dusk, 10}, {LightingCondition::Dark, 10}}));
  ASSERT_EQ(report.reconfig_count(), 1);
  // The condition changes at frame 10; debounce (3 frames) defers the
  // trigger to frame 12.
  int trigger_frame = -1;
  for (const auto& f : report.frames)
    if (f.reconfig_triggered) trigger_frame = f.index;
  EXPECT_GE(trigger_frame, 11);
  EXPECT_LE(trigger_frame, 13);
}

TEST_F(AdaptiveSystemTest, ActiveConfigLagsSensedCondition) {
  const auto report = system().run(drive(
      {{LightingCondition::Dusk, 10}, {LightingCondition::Dark, 10}}));
  // Frames right after the dark transition still run day-dusk hardware.
  const auto& f10 = report.frames[10];
  EXPECT_EQ(f10.active_config, "day-dusk");
  // By the end, dark hardware is loaded.
  EXPECT_EQ(report.frames.back().active_config, "dark");
}

TEST_F(AdaptiveSystemTest, TunnelScenarioNoReconfig) {
  // Paper §IV-B: entering a lit tunnel is day->dusk, "simply handled" with
  // no reconfiguration.
  const auto report = system().run(drive(
      {{LightingCondition::Day, 15},
       {LightingCondition::Dusk, 15, 0.30},  // tunnel
       {LightingCondition::Day, 15}}));
  EXPECT_EQ(report.reconfig_count(), 0);
}

TEST_F(AdaptiveSystemTest, CanonicalDriveMatchesPaperStory) {
  const auto spec = data::DriveSequence::canonical_drive({480, 270}, 40);
  const auto report = system().run(data::DriveSequence(spec));
  // Exactly two PRs: dusk->dark and dark->dusk.
  EXPECT_EQ(report.reconfig_count(), 2);
  EXPECT_EQ(report.dropped_vehicle_frames(), 2);
  EXPECT_GT(report.vehicle_availability(), 0.99);
  // Reconfig events logged through the controller.
  EXPECT_GE(report.log.from("pr-controller").size(), 2u);
}

TEST_F(AdaptiveSystemTest, ReconfigUsesConfiguredMethodTiming) {
  const auto report = system().run(drive(
      {{LightingCondition::Dusk, 10}, {LightingCondition::Dark, 10}}));
  ASSERT_EQ(report.reconfig_count(), 1);
  // Default method is the paper's PR controller: ~390 MB/s on an ~8 MB
  // bitstream -> ~21.5 ms.
  EXPECT_NEAR(report.reconfigs[0].throughput_mbps(), 390.0, 20.0);
  EXPECT_NEAR(report.reconfigs[0].duration().as_ms(), 21.5, 2.0);
}

TEST_F(AdaptiveSystemTest, SlowMethodDropsMoreFrames) {
  AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  cfg.method = soc::ReconfigMethod::AxiHwicap;  // ~460 ms per reconfig
  AdaptiveSystem slow(build_system_models(tiny_budget()), cfg);
  const auto report = slow.run(drive(
      {{LightingCondition::Dusk, 10}, {LightingCondition::Dark, 40}}));
  ASSERT_EQ(report.reconfig_count(), 1);
  // ~461 ms of reconfiguration at 50 fps costs ~23 frames.
  EXPECT_GT(report.dropped_vehicle_frames(), 15);
}

TEST_F(AdaptiveSystemTest, ImageLightEstimateMatchesSensorDecisions) {
  // Vision-only operation: deriving the light level from the frames must
  // produce the same reconfiguration story as the external sensor on a
  // clean day->dark->day drive.
  core::AdaptiveSystemConfig sensor_cfg;
  sensor_cfg.run_detectors = false;
  core::AdaptiveSystemConfig vision_cfg = sensor_cfg;
  vision_cfg.use_image_light_estimate = true;

  const core::SystemModels models = core::build_system_models(tiny_budget());
  core::AdaptiveSystem by_sensor(models, sensor_cfg);
  core::AdaptiveSystem by_vision(models, vision_cfg);

  const auto seq = drive({{LightingCondition::Day, 15},
                          {LightingCondition::Dark, 15},
                          {LightingCondition::Day, 15}});
  const auto rs = by_sensor.run(seq);
  const auto rv = by_vision.run(seq);
  EXPECT_EQ(rv.reconfig_count(), rs.reconfig_count());
  EXPECT_EQ(rv.frames.back().active_config, rs.frames.back().active_config);
  // Per-frame sensed conditions may differ by a frame or two of debounce;
  // the end states must agree per segment midpoint.
  EXPECT_EQ(rv.frames[7].sensed, LightingCondition::Day);
  EXPECT_EQ(rv.frames[22].sensed, LightingCondition::Dark);
  EXPECT_EQ(rv.frames[40].sensed, LightingCondition::Day);
}

TEST(AdaptiveSystemDetectors, FullPipelineFindsVehiclesPerCondition) {
  AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  cfg.sliding.score_threshold = 0.0;
  AdaptiveSystem system(build_system_models(tiny_budget()), cfg);

  // Dark frame through the dark pipeline.
  data::SceneGenerator dark_gen(data::LightingCondition::Dark, 5);
  const auto dark_scene = dark_gen.random_scene({480, 270}, 1);
  const auto dark_dets = system.detect_vehicles(
      data::render_scene(dark_scene), data::LightingCondition::Dark);
  EXPECT_FALSE(dark_dets.empty());

  // Day frame through the HOG pipeline.
  data::SceneSpec day_scene;
  day_scene.condition = data::LightingCondition::Day;
  day_scene.frame_size = {192, 128};
  day_scene.horizon_y = 36;
  data::VehicleSpec v;
  v.body = {60, 50, 76, 60};
  day_scene.vehicles.push_back(v);
  const auto day_dets = system.detect_vehicles(
      data::render_scene(day_scene), data::LightingCondition::Day);
  EXPECT_FALSE(day_dets.empty());
}

void expect_same_boxes(const std::vector<det::Detection>& a,
                       const std::vector<det::Detection>& b,
                       const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box, b[i].box) << where << " #" << i;
    EXPECT_EQ(a[i].score, b[i].score) << where << " #" << i;  // bit-exact
    EXPECT_EQ(a[i].class_id, b[i].class_id) << where << " #" << i;
  }
}

TEST(AdaptiveSystemDetectors, DetectFrameDispatchesOnTheLoadedConfiguration) {
  TrainingBudget budget = tiny_budget();
  budget.animal_pos = budget.animal_neg = 40;
  AdaptiveSystemConfig cfg;
  cfg.sliding.score_threshold = -0.5;  // enough boxes of both classes
  const AdaptiveSystem system(build_system_models(budget), cfg);
  const SystemModels& models = system.models();
  ASSERT_TRUE(models.has_animal_model());

  // A day countryside frame: countryside adds the animal classifier to the
  // day-dusk scan without moving a vehicle box or score.
  data::SequenceSpec spec;
  spec.frame_size = {320, 180};
  spec.animals_per_frame = 2;
  spec.segments = {
      {LightingCondition::Day, 1, -1.0, data::RoadType::Countryside}};
  const img::RgbImage day =
      data::render_scene(data::DriveSequence(spec).frame(0).scene);
  const FrameDetections day_dusk =
      system.detect_frame(day, "day-dusk", LightingCondition::Day, cfg.sliding);
  const FrameDetections countryside = system.detect_frame(
      day, "countryside", LightingCondition::Day, cfg.sliding);
  EXPECT_FALSE(day_dusk.animals.has_value());
  ASSERT_TRUE(countryside.animals.has_value());
  EXPECT_FALSE(countryside.vehicles.empty());
  EXPECT_FALSE(countryside.animals->empty());
  expect_same_boxes(countryside.vehicles, day_dusk.vehicles, "vehicles");
  expect_same_boxes(day_dusk.vehicles,
                    system.detect_vehicles(day, LightingCondition::Day),
                    "detect_vehicles");
  expect_same_boxes(*countryside.animals,
                    det::detect_multiscale(img::rgb_to_gray(day),
                                           models.animal, cfg.sliding),
                    "animals");

  // A dark frame: the dark pipeline, whatever the sensed condition says.
  data::SceneGenerator dark_gen(LightingCondition::Dark, 5);
  const img::RgbImage dark =
      data::render_scene(dark_gen.random_scene({480, 270}, 1));
  const FrameDetections night =
      system.detect_frame(dark, "dark", LightingCondition::Day, cfg.sliding);
  EXPECT_FALSE(night.animals.has_value());
  EXPECT_FALSE(night.vehicles.empty());
  expect_same_boxes(night.vehicles, models.dark.detect(dark), "dark");
}

// Boxes count only on a frame the vehicle engine scans: a coast frame's
// tracker boxes on a frame dropped for reconfiguration, or under
// run_detectors off, report no match at all.
TEST(AdaptiveSystemDetectors, ReportFrameMatchesOnlyScannedFrames) {
  const SystemModels models = build_system_models(tiny_budget());
  AdaptiveSystemConfig off;
  off.run_detectors = false;
  const AdaptiveSystem scanning(models, {});
  const AdaptiveSystem control_only(models, off);
  data::SequenceSpec spec;
  spec.frame_size = {320, 180};
  spec.segments = {{LightingCondition::Day, 1}};
  const data::SequenceFrame meta = data::DriveSequence(spec).frame(0);
  ControlStep step = scanning.begin_session().control_step(meta);
  ASSERT_TRUE(step.record.vehicle_processed);
  ASSERT_GT(meta.scene.vehicles.size(), 0u);

  const FrameDetections no_boxes;
  const auto matched = [&](const AdaptiveSystem& system,
                           const std::optional<FrameDetections>& boxes) {
    const det::MatchResult m =
        system.report_frame(step, meta, boxes).vehicle_match;
    return m.true_positives + m.false_negatives + m.false_positives;
  };
  EXPECT_EQ(matched(scanning, no_boxes),
            static_cast<int>(meta.scene.vehicles.size()));  // all missed
  EXPECT_EQ(matched(scanning, std::nullopt), 0);
  EXPECT_EQ(matched(control_only, no_boxes), 0);
  step.record.vehicle_processed = false;
  EXPECT_EQ(matched(scanning, no_boxes), 0);
  EXPECT_FALSE(scanning.scan_frame(step, meta, scanning.config().sliding));
}

TEST(AdaptiveSystemDetectors, TracedDayFrameSpansEveryLayer) {
  // One traced day evaluate_frame: every layer of the frame cost ledger that
  // runs on it records a span beneath the evaluate_frame span.
  AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  const AdaptiveSystem system(build_system_models(tiny_budget()), cfg);
  data::SequenceSpec spec;
  spec.frame_size = {320, 180};
  spec.segments = {{LightingCondition::Day, 1}};
  const data::DriveSequence seq(spec);
  AdaptiveSystem::StepSession session = system.begin_session();
  const ControlStep step = session.control_step(seq.frame(0));

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const AdaptiveFrameReport fr = system.evaluate_frame(step, seq.frame(0));
  tracer.set_enabled(false);
  const std::vector<obs::SpanRecord> spans = tracer.drain();
  ASSERT_TRUE(fr.vehicle_processed);
  ASSERT_EQ(fr.active_config, "day-dusk");

  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  std::uint64_t root = 0;
  for (const obs::SpanRecord& s : spans) {
    by_id[s.span_id] = &s;
    if (std::string(s.name) == "evaluate_frame") root = s.span_id;
  }
  ASSERT_NE(root, 0u) << "no evaluate_frame span";
  std::set<std::string> beneath;
  for (const obs::SpanRecord& s : spans) {
    for (std::uint64_t p = s.parent_span_id; p != 0;) {
      if (p == root) {
        beneath.insert(s.name);
        break;
      }
      const auto it = by_id.find(p);
      p = it == by_id.end() ? 0 : it->second->parent_span_id;
    }
  }
  for (const char* layer :
       {"render_scene", "grey", "detect_multiscale", "hog_front_end",
        "pyramid_resize", "cell_grid", "block_grid", "scan_band", "nms",
        "match"})
    EXPECT_EQ(beneath.count(layer), 1u) << layer;
}

}  // namespace
}  // namespace avd::core
