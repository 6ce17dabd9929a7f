// The fault-injection harness against a live StreamServer: one test per
// fault class (stall, garbage, transient error, slow worker + saturation,
// wedge -> watchdog), plus the two determinism guarantees the overload plane
// must not break — unaffected streams stay bit-identical to the no-fault
// run, and a ForceDegrade plan reproduces its transitions and detections
// exactly across serves.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "avd/obs/metrics.hpp"
#include "avd/runtime/fault_injection.hpp"
#include "avd/runtime/stream_server.hpp"
#include "../support/tiny_models.hpp"

namespace avd::runtime {
namespace {

// ThreadSanitizer slows real frame work ~5-15x, so wall-clock thresholds
// (watchdog timeouts vs per-frame cost on a *healthy* stream) need headroom
// under the chaos lane or a legitimately slow frame reads as a wedge.
#if defined(__SANITIZE_THREAD__)
constexpr int kTimingScale = 10;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kTimingScale = 10;
#else
constexpr int kTimingScale = 1;
#endif
#else
constexpr int kTimingScale = 1;
#endif

/// Day->Dark drives, `2 * frames_per_segment` frames each; different seeds
/// per stream so cross-stream mixups would be visible.
std::vector<data::DriveSequence> make_streams(int n_streams,
                                              int frames_per_segment) {
  std::vector<data::DriveSequence> seqs;
  for (int i = 0; i < n_streams; ++i) {
    data::SequenceSpec spec;
    spec.frame_size = {240, 136};
    spec.segments = {{data::LightingCondition::Day, frames_per_segment},
                     {data::LightingCondition::Dark, frames_per_segment}};
    spec.seed = 515 + static_cast<std::uint64_t>(i);
    seqs.emplace_back(spec);
  }
  return seqs;
}

void expect_frames_identical(const core::AdaptiveFrameReport& a,
                             const core::AdaptiveFrameReport& b,
                             const std::string& where) {
  EXPECT_EQ(a.index, b.index) << where;
  EXPECT_EQ(a.light_level, b.light_level) << where;  // bit-exact double
  EXPECT_EQ(a.sensed, b.sensed) << where;
  EXPECT_EQ(a.active_config, b.active_config) << where;
  EXPECT_EQ(a.vehicle_processed, b.vehicle_processed) << where;
  EXPECT_EQ(a.pedestrian_processed, b.pedestrian_processed) << where;
  EXPECT_EQ(a.reconfig_triggered, b.reconfig_triggered) << where;
  EXPECT_EQ(a.vehicles_truth, b.vehicles_truth) << where;
  EXPECT_EQ(a.vehicle_match.true_positives, b.vehicle_match.true_positives)
      << where;
  EXPECT_EQ(a.vehicle_match.false_negatives, b.vehicle_match.false_negatives)
      << where;
  EXPECT_EQ(a.vehicle_match.false_positives, b.vehicle_match.false_positives)
      << where;
  EXPECT_EQ(a.degrade_level, b.degrade_level) << where;
  EXPECT_EQ(a.detect_coasted, b.detect_coasted) << where;
}

void expect_reports_identical(const core::AdaptiveRunReport& a,
                              const core::AdaptiveRunReport& b,
                              const std::string& where) {
  ASSERT_EQ(a.frames.size(), b.frames.size()) << where;
  for (std::size_t i = 0; i < a.frames.size(); ++i)
    expect_frames_identical(a.frames[i], b.frames[i],
                            where + " frame " + std::to_string(i));
  ASSERT_EQ(a.reconfigs.size(), b.reconfigs.size()) << where;
  for (std::size_t i = 0; i < a.reconfigs.size(); ++i) {
    EXPECT_EQ(a.reconfigs[i].config_name, b.reconfigs[i].config_name) << where;
    EXPECT_EQ(a.reconfigs[i].start.ps, b.reconfigs[i].start.ps) << where;
    EXPECT_EQ(a.reconfigs[i].end.ps, b.reconfigs[i].end.ps) << where;
  }
}

/// Transition equality up to wall-clock: everything but t_ns.
void expect_transitions_identical(const std::vector<DegradeTransition>& a,
                                  const std::vector<DegradeTransition>& b,
                                  const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, b[i].stream) << where << " #" << i;
    EXPECT_EQ(a[i].from, b[i].from) << where << " #" << i;
    EXPECT_EQ(a[i].to, b[i].to) << where << " #" << i;
    EXPECT_EQ(a[i].frame, b[i].frame) << where << " #" << i;
    EXPECT_EQ(a[i].reason, b[i].reason) << where << " #" << i;
  }
}

void expect_animals_identical(const core::AdaptiveFrameReport& a,
                              const core::AdaptiveFrameReport& b,
                              const std::string& where) {
  EXPECT_EQ(a.animals_truth, b.animals_truth) << where;
  EXPECT_EQ(a.animal_match.true_positives, b.animal_match.true_positives)
      << where;
  EXPECT_EQ(a.animal_match.false_negatives, b.animal_match.false_negatives)
      << where;
  EXPECT_EQ(a.animal_match.false_positives, b.animal_match.false_positives)
      << where;
}

/// A laddered stream's reports built from the public pieces, as the serve
/// promises them: one control session; per frame, scan_frame at the sliding
/// window its level implies, or (a coast frame) the boxes of a tracker fed
/// every earlier frame in index order, as the collector's coast ledger does;
/// then report_frame. `level_of(i)` is frame i's forced level.
std::vector<core::AdaptiveFrameReport> ladder_reference(
    const core::AdaptiveSystem& system, const data::DriveSequence& seq,
    const std::function<int(int)>& level_of) {
  const DegradeLadderConfig ladder;
  det::SlidingWindowParams coarse = system.config().sliding;
  coarse.stride_cells *= kCoarseStrideMultiplier;
  coarse.max_levels = std::min(coarse.max_levels, kCoarseMaxLevels);
  core::AdaptiveSystem::StepSession session = system.begin_session();
  det::IouTracker tracker(kCoastTracker);
  std::vector<core::AdaptiveFrameReport> reports;
  for (int i = 0; i < seq.frame_count(); ++i) {
    const data::SequenceFrame meta = seq.frame(i);
    core::ControlStep step = session.control_step(meta);
    const int level = level_of(i);
    const bool coast = level == 2 && i % ladder.skip_modulus != 0;
    std::optional<core::FrameDetections> boxes;
    if (coast) {
      boxes.emplace();
      for (const det::Track& t : tracker.update({})) {
        det::Detection d;
        d.box = t.box;
        d.score = t.last_score;
        d.class_id = t.class_id;
        boxes->vehicles.push_back(d);
      }
    } else if (level == 3) {
      step.record.vehicle_processed = false;
    } else {
      boxes = system.scan_frame(step, meta,
                                level > 0 ? coarse : system.config().sliding);
    }
    core::AdaptiveFrameReport expected = system.report_frame(step, meta, boxes);
    expected.degrade_level = level;
    expected.detect_coasted = coast;
    if (!coast)
      tracker.update(boxes ? boxes->vehicles : std::vector<det::Detection>{});
    reports.push_back(std::move(expected));
  }
  return reports;
}

/// tiny_models() plus the countryside animal classifier, trained once.
const core::SystemModels& countryside_models() {
  static const core::SystemModels models = [] {
    core::TrainingBudget budget = test_support::tiny_budget();
    budget.animal_pos = budget.animal_neg = 30;
    return core::build_system_models(budget);
  }();
  return models;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::AdaptiveSystemConfig cfg;
    cfg.run_detectors = true;
    system_ = new core::AdaptiveSystem(test_support::tiny_models(), cfg);
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  static core::AdaptiveSystem* system_;
};

core::AdaptiveSystem* FaultInjectionTest::system_ = nullptr;

TEST_F(FaultInjectionTest, ChaosPlanIsDeterministic) {
  const FaultPlan a = FaultPlan::chaos(7, 8, 20);
  const FaultPlan b = FaultPlan::chaos(7, 8, 20);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
    EXPECT_EQ(a.faults[i].stream, b.faults[i].stream);
    EXPECT_EQ(a.faults[i].from_frame, b.faults[i].from_frame);
    EXPECT_EQ(a.faults[i].count, b.faults[i].count);
    EXPECT_EQ(a.faults[i].magnitude, b.faults[i].magnitude);
  }
  EXPECT_FALSE(a.faults.empty());  // seed 7 must actually produce faults
  const FaultPlan c = FaultPlan::chaos(8, 8, 20);
  bool differs = c.faults.size() != a.faults.size();
  for (std::size_t i = 0; !differs && i < a.faults.size(); ++i)
    differs = c.faults[i].kind != a.faults[i].kind ||
              c.faults[i].stream != a.faults[i].stream;
  EXPECT_TRUE(differs);  // different seed, different plan
}

// A stalling source only delays frames; per-stream results — including the
// stalled stream's — must be bit-identical to the sequential run. This also
// proves the ladder-active path (the scan boxes kept for the collector's
// coast ledger) does not perturb full-fidelity results.
TEST_F(FaultInjectionTest, SourceStallDelaysButNeverChangesResults) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 3);
  FaultPlan plan;
  plan.faults.push_back({FaultKind::SourceStall, 0, 1, 3, 2.0});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.detect_workers = 2;
  sc.fault_injector = &injector;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  EXPECT_EQ(injector.counters().stalls, 3u);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    expect_reports_identical(results[s].report, system_->run(streams[s]),
                             "stream " + std::to_string(s));
    EXPECT_EQ(results[s].shed_frames, 0u);
    EXPECT_FALSE(results[s].source_failed);
    EXPECT_EQ(results[s].degrade_level, DegradeLevel::Full);
  }
}

TEST_F(FaultInjectionTest, GarbageFramesAreRefusedAtIngest) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 3);
  const int n = streams[0].frame_count();
  FaultPlan plan;
  plan.seed = 99;
  plan.faults.push_back({FaultKind::GarbageFrame, 0, 2, 2, 0.0});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.fault_injector = &injector;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  EXPECT_EQ(injector.counters().garbage, 2u);
  EXPECT_EQ(results[0].garbage_frames, 2u);
  // Refused before index assignment: the surviving frames are densely
  // numbered 0..n-3 — no holes for the control plane to trip on.
  ASSERT_EQ(results[0].report.frames.size(), static_cast<std::size_t>(n - 2));
  for (int i = 0; i < n - 2; ++i)
    EXPECT_EQ(results[0].report.frames[static_cast<std::size_t>(i)].index, i);
  // The untargeted stream is untouched, bit for bit.
  EXPECT_EQ(results[1].garbage_frames, 0u);
  expect_reports_identical(results[1].report, system_->run(streams[1]),
                           "stream 1");
}

TEST_F(FaultInjectionTest, TransientSourceErrorsRetryToSuccess) {
  const std::vector<data::DriveSequence> streams = make_streams(1, 3);
  FaultPlan plan;
  plan.faults.push_back({FaultKind::SourceError, 0, 2, /*count=*/2, 0.0});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.fault_injector = &injector;  // 2 failures + 1 success of 3 attempts
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  EXPECT_EQ(injector.counters().errors, 2u);
  EXPECT_EQ(results[0].source_retries, 2u);
  EXPECT_FALSE(results[0].source_failed);
  // Retries recovered every frame: the stream is complete and identical.
  expect_reports_identical(results[0].report, system_->run(streams[0]),
                           "retried stream");
}

TEST_F(FaultInjectionTest, ExhaustedRetriesTruncateTheStream) {
  const std::vector<data::DriveSequence> streams = make_streams(1, 3);
  FaultPlan plan;
  plan.faults.push_back({FaultKind::SourceError, 0, 2, /*count=*/10, 0.0});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.fault_injector = &injector;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  EXPECT_EQ(injector.counters().errors, 3u);  // one per attempt
  EXPECT_TRUE(results[0].source_failed);
  EXPECT_EQ(results[0].source_retries, 2u);  // attempts 2 and 3 were retries
  // Truncated exactly at the failing position; what came before is intact.
  ASSERT_EQ(results[0].report.frames.size(), 2u);
  const core::AdaptiveRunReport full = system_->run(streams[0]);
  for (std::size_t i = 0; i < 2; ++i)
    expect_frames_identical(results[0].report.frames[i], full.frames[i],
                            "surviving frame " + std::to_string(i));
}

// Slow detect workers + a tiny DropOldest queue: the saturation story. The
// serve must complete with every frame accounted — processed, dropped or
// shed — never lost.
TEST_F(FaultInjectionTest, DetectSlowdownSaturatesQueueWithoutLosingFrames) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 3);
  const int n = streams[0].frame_count();
  FaultPlan plan;
  plan.faults.push_back({FaultKind::DetectSlowdown, -1, 0, n, 3.0});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.detect_workers = 1;
  sc.queue_capacity = 2;
  sc.detect_policy = OverflowPolicy::DropOldest;
  sc.fault_injector = &injector;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  EXPECT_GT(injector.counters().slowdown_frames, 0u);
  for (const StreamResult& r : results) {
    // Every frame surfaced as a report; drops are explicit, not silent.
    EXPECT_EQ(r.report.frames.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(r.report.frames[static_cast<std::size_t>(i)].index, i);
    EXPECT_EQ(r.shed_frames, 0u);  // saturation drops are not admission sheds
  }
}

// The ladder-determinism guarantee: a ForceDegrade plan keyed on frame
// indices produces the same transitions AND the same per-frame reports on
// every serve, because the pin is applied at the per-stream-sequential
// control stage — wall clock never enters the decision.
TEST_F(FaultInjectionTest, ForceDegradePlanIsDeterministicAcrossServes) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 4);
  const int n = streams[0].frame_count();  // 8 frames
  FaultPlan plan;
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 2, 2, 1.0});  // coarse
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 5, 3, 2.0});  // skip-coast

  const auto serve_once = [&] {
    FaultInjector injector(plan);
    StreamServerConfig sc;
    sc.detect_workers = 3;
    sc.fault_injector = &injector;
    StreamServer server(*system_, sc);
    return server.serve_sequences(streams);
  };
  const std::vector<StreamResult> first = serve_once();
  const std::vector<StreamResult> second = serve_once();

  // Bit-identical reports and identical transition sequences, twice over.
  for (std::size_t s = 0; s < streams.size(); ++s) {
    expect_reports_identical(first[s].report, second[s].report,
                             "serve/serve stream " + std::to_string(s));
    expect_transitions_identical(first[s].degrade_transitions,
                                 second[s].degrade_transitions,
                                 "stream " + std::to_string(s));
  }
  // The pinned levels landed on exactly the planned frames.
  const auto& frames = first[0].report.frames;
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const core::AdaptiveFrameReport& f = frames[static_cast<std::size_t>(i)];
    const int expected = (i >= 2 && i < 4) ? 1 : (i >= 5 ? 2 : 0);
    EXPECT_EQ(f.degrade_level, expected) << "frame " << i;
    // Level 2 coasts every frame whose index is not a multiple of the
    // skip modulus (default 3).
    EXPECT_EQ(f.detect_coasted, expected == 2 && i % 3 != 0) << "frame " << i;
  }
  // Levels: frames 2,3 coarse; frames 5..7 skip-coast, of which 6 scans
  // (6 % 3 == 0) and 5,7 coast.
  EXPECT_EQ(first[0].coasted_frames, 2u);
  EXPECT_EQ(first[0].degraded_scans, 3u);
  EXPECT_EQ(second[0].coasted_frames, 2u);
  // The untargeted stream never leaves Full and matches sequential.
  EXPECT_TRUE(first[1].degrade_transitions.empty());
  expect_reports_identical(first[1].report, system_->run(streams[1]),
                           "stream 1 vs sequential");
}

// ForceDegrade to level 3: frames are shed with full accounting — present
// in the report with vehicle_processed=false and degrade_level 3, counted
// in shed_frames, and the pedestrian partition (static) keeps running.
TEST_F(FaultInjectionTest, ForcedShedProducesAccountedReports) {
  const std::vector<data::DriveSequence> streams = make_streams(1, 3);
  const int n = streams[0].frame_count();
  FaultPlan plan;
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 2, 2, 3.0});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.fault_injector = &injector;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  EXPECT_EQ(results[0].shed_frames, 2u);
  ASSERT_EQ(results[0].report.frames.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& f = results[0].report.frames[static_cast<std::size_t>(i)];
    if (i >= 2 && i < 4) {
      EXPECT_FALSE(f.vehicle_processed) << "frame " << i;
      EXPECT_EQ(f.degrade_level, 3) << "frame " << i;
      EXPECT_TRUE(f.pedestrian_processed) << "frame " << i;
    } else {
      EXPECT_EQ(f.degrade_level, 0) << "frame " << i;
    }
  }
}

// Every ladder path against ladder_reference: level 1 scans the coarse
// pyramid, level 3 sheds (and is no backpressure drop), level 2 coasts on
// the tracker boxes every earlier frame fed.
TEST_F(FaultInjectionTest, LadderFramesMatchASequentialReference) {
  const std::vector<data::DriveSequence> streams = make_streams(1, 5);
  const int n = streams[0].frame_count();  // 10 frames
  FaultPlan plan;
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 2, 2, 1.0});  // coarse
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 4, 1, 3.0});  // shed
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 5, 5, 2.0});  // skip-coast
  FaultInjector injector(plan);
  StreamServerConfig sc;
  sc.detect_workers = 3;
  sc.fault_injector = &injector;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);
  ASSERT_EQ(results[0].report.frames.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(results[0].shed_frames, 1u);
  EXPECT_EQ(results[0].backpressure_drops, 0u);

  const std::vector<core::AdaptiveFrameReport> reference = ladder_reference(
      *system_, streams[0],
      [](int i) { return i < 2 ? 0 : i < 4 ? 1 : i == 4 ? 3 : 2; });
  for (int i = 0; i < n; ++i) {
    const core::AdaptiveFrameReport& expected =
        reference[static_cast<std::size_t>(i)];
    expect_frames_identical(
        results[0].report.frames[static_cast<std::size_t>(i)], expected,
        "frame " + std::to_string(i));
  }
}

// An urban -> countryside drive with the animal model. Served with three
// detect workers it equals run() in every field, animal_match included, so
// the {vehicle, animal} scan runs the same way on both paths; under
// ForceDegrade levels 1 and 2 it equals ladder_reference, and a coast frame
// carries no animal boxes.
TEST_F(FaultInjectionTest, CountrysideLadderServeMatchesSequential) {
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  const core::AdaptiveSystem system(countryside_models(), cfg);
  data::SequenceSpec spec;
  spec.frame_size = {240, 136};
  spec.animals_per_frame = 2;
  spec.segments = {
      {data::LightingCondition::Day, 5, -1.0, data::RoadType::Urban},
      {data::LightingCondition::Day, 9, -1.0, data::RoadType::Countryside}};
  spec.seed = 616;
  const std::vector<data::DriveSequence> streams{data::DriveSequence(spec)};
  const int n = streams[0].frame_count();  // 14 frames

  const core::AdaptiveRunReport sequential = system.run(streams[0]);
  ASSERT_EQ(sequential.reconfig_count(), 1);
  int animal_scans = 0;
  for (const core::AdaptiveFrameReport& f : sequential.frames)
    animal_scans += f.animal_match.true_positives +
                        f.animal_match.false_negatives ==
                    f.animals_truth && f.animals_truth > 0;
  EXPECT_GE(animal_scans, 6);  // the countryside frames after the swap

  StreamServerConfig sc;
  sc.detect_workers = 3;
  {
    StreamServer server(system, sc);
    const std::vector<StreamResult> results = server.serve_sequences(streams);
    expect_reports_identical(results[0].report, sequential, "serve vs run");
    for (int i = 0; i < n; ++i)
      expect_animals_identical(
          results[0].report.frames[static_cast<std::size_t>(i)],
          sequential.frames[static_cast<std::size_t>(i)],
          "serve vs run frame " + std::to_string(i));
  }

  FaultPlan plan;
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 7, 2, 1.0});  // coarse
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 9, 5, 2.0});  // skip-coast
  FaultInjector injector(plan);
  sc.fault_injector = &injector;
  StreamServer server(system, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);
  ASSERT_EQ(results[0].report.frames.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(results[0].coasted_frames, 3u);  // frames 10, 11 and 13
  const std::vector<core::AdaptiveFrameReport> reference = ladder_reference(
      system, streams[0], [](int i) { return i < 7 ? 0 : i < 9 ? 1 : 2; });
  for (int i = 0; i < n; ++i) {
    const core::AdaptiveFrameReport& f =
        results[0].report.frames[static_cast<std::size_t>(i)];
    const std::string where = "laddered frame " + std::to_string(i);
    expect_frames_identical(f, reference[static_cast<std::size_t>(i)], where);
    expect_animals_identical(f, reference[static_cast<std::size_t>(i)], where);
    if (f.detect_coasted) {
      EXPECT_EQ(f.animal_match.true_positives, 0) << where;
      EXPECT_EQ(f.animal_match.false_negatives, 0) << where;
      EXPECT_EQ(f.animal_match.false_positives, 0) << where;
    }
  }
}

// Each frame's fate is counted once, by the collector: a level-1 frame the
// detect queue drops is a backpressure drop, not also a degraded scan. And
// StreamResult's ladder counts are exactly the serve's growth of the
// runtime.*{stream=} series.
TEST_F(FaultInjectionTest, LadderCountsEachFrameOnce) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 4);
  const int n = streams[0].frame_count();  // 8 frames
  FaultPlan plan;
  plan.faults.push_back({FaultKind::ForceDegrade, -1, 0, n, 1.0});
  plan.faults.push_back({FaultKind::DetectSlowdown, -1, 0, n, 3.0});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.detect_workers = 1;
  sc.queue_capacity = 2;
  sc.detect_policy = OverflowPolicy::DropOldest;
  sc.fault_injector = &injector;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto series = [&](const char* name, std::size_t s) -> obs::Counter& {
    return registry.counter(name, {{"stream", std::to_string(s)}});
  };
  const char* const kOutcomes[] = {"runtime.shed", "runtime.coasted",
                                   "runtime.degraded_scans"};
  std::vector<std::vector<std::uint64_t>> before(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s)
    for (const char* name : kOutcomes)
      before[s].push_back(series(name, s).value());
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  std::uint64_t drops = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const StreamResult& r = results[s];
    ASSERT_EQ(r.report.frames.size(), static_cast<std::size_t>(n));
    EXPECT_LE(r.degraded_scans + r.backpressure_drops + r.shed_frames +
                  r.coasted_frames,
              static_cast<std::uint64_t>(n))
        << "stream " << s << ": degraded_scans " << r.degraded_scans
        << ", drops " << r.backpressure_drops;
    const std::uint64_t counts[] = {r.shed_frames, r.coasted_frames,
                                    r.degraded_scans};
    for (std::size_t k = 0; k < 3; ++k)
      EXPECT_EQ(series(kOutcomes[k], s).value() - before[s][k], counts[k])
          << kOutcomes[k] << " stream " << s;
    drops += r.backpressure_drops;
  }
  EXPECT_GT(drops, 0u);  // the slow worker really overflowed the queue
}

// A wedged source (stalls far past the watchdog timeout) is converted into
// a degrade-level-3 event: watchdog_fired, the stream truncated and shed,
// the serve over in bounded time — and the healthy stream untouched.
TEST_F(FaultInjectionTest, WatchdogConvertsWedgedStreamIntoShed) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 3);
  FaultPlan plan;
  plan.faults.push_back(
      {FaultKind::SourceStall, 0, 1, 100, 400.0 * kTimingScale});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.ingest_workers = 2;  // the healthy stream must not wait behind the wedge
  sc.fault_injector = &injector;
  sc.watchdog.enabled = true;
  sc.watchdog.timeout = std::chrono::milliseconds(100 * kTimingScale);
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  EXPECT_TRUE(results[0].watchdog_fired);
  EXPECT_EQ(results[0].degrade_level, DegradeLevel::Shed);
  bool watchdog_reason = false;
  for (const DegradeTransition& t : results[0].degrade_transitions)
    if (t.reason == "watchdog") watchdog_reason = true;
  EXPECT_TRUE(watchdog_reason);
  // Truncated: the source was abandoned after the wedge was detected.
  EXPECT_LT(results[0].report.frames.size(),
            static_cast<std::size_t>(streams[0].frame_count()));
  EXPECT_FALSE(results[1].watchdog_fired);
  expect_reports_identical(results[1].report, system_->run(streams[1]),
                           "healthy stream");
}

// Every transition carries its tracer-timebase time: the watchdog's on the
// wedged stream, and the health windows' on the stream whose every frame
// misses a tiny budget (the flight recorder's /degrade rows copy it).
TEST_F(FaultInjectionTest, WatchdogAndHealthTransitionsAreTimestamped) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 3);
  FaultPlan plan;
  plan.faults.push_back(
      {FaultKind::SourceStall, 0, 1, 100, 400.0 * kTimingScale});
  FaultInjector injector(plan);

  StreamServerConfig sc;
  sc.ingest_workers = 2;
  sc.fault_injector = &injector;
  sc.watchdog.enabled = true;
  sc.watchdog.timeout = std::chrono::milliseconds(100 * kTimingScale);
  // Health may move a stream to coarse-scan only, so the watchdog's move to
  // Shed is a transition of its own.
  sc.admission.enabled = true;
  sc.admission.ladder.max_degraded_level = 1;
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 1e-4;
  sc.slo.deadline_miss_unhealthy = 2.0;
  sc.slo.telemetry_period = std::chrono::milliseconds(1);
  sc.slo.hysteresis.breaches_to_worsen = 1;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  std::vector<std::string> reasons;
  for (const StreamResult& r : results)
    for (const DegradeTransition& t : r.degrade_transitions) {
      reasons.push_back(t.reason);
      EXPECT_GT(t.t_ns, 0u) << t.reason;
    }
  EXPECT_NE(std::find(reasons.begin(), reasons.end(), "watchdog"),
            reasons.end());
  EXPECT_TRUE(std::any_of(reasons.begin(), reasons.end(),
                          [](const std::string& r) {
                            return r.rfind("health:", 0) == 0;
                          }));
}

// A token bucket configured while admission is off sheds nothing, though the
// watchdog keeps the ladder's forced levels in play: `enabled` gates the
// bucket, so the serve is the sequential run bit for bit.
TEST_F(FaultInjectionTest, WatchdogServeWithAdmissionOffIgnoresTheBucket) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 3);
  StreamServerConfig sc;
  sc.watchdog.enabled = true;
  sc.admission.bucket.rate_fps = 1.0;
  sc.admission.bucket.burst = 1.0;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    expect_reports_identical(results[s].report, system_->run(streams[s]),
                             "stream " + std::to_string(s));
    EXPECT_EQ(results[s].shed_frames, 0u);
    EXPECT_FALSE(results[s].watchdog_fired);
  }
}

// Admission control switched on but with a healthy fleet (no SLO pressure,
// no bucket) must remain bit-identical to the sequential path: the plane's
// cost when idle is bookkeeping, never behaviour.
TEST_F(FaultInjectionTest, IdleAdmissionPlaneIsBitIdentical) {
  const std::vector<data::DriveSequence> streams = make_streams(2, 3);
  StreamServerConfig sc;
  sc.admission.enabled = true;
  sc.detect_workers = 2;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    expect_reports_identical(results[s].report, system_->run(streams[s]),
                             "stream " + std::to_string(s));
    EXPECT_EQ(results[s].degrade_level, DegradeLevel::Full);
    EXPECT_TRUE(results[s].degrade_transitions.empty());
    EXPECT_EQ(results[s].shed_frames, 0u);
    EXPECT_EQ(results[s].coasted_frames, 0u);
  }
}

// The whole chaos diet at once: a seeded plan across 4 streams must leave
// the serve complete, accounted and reproducible in its plan.
TEST_F(FaultInjectionTest, ChaosServeCompletesWithFullAccounting) {
  const std::vector<data::DriveSequence> streams = make_streams(4, 3);
  const int n = streams[0].frame_count();
  FaultInjector injector(FaultPlan::chaos(42, 4, n));
  ASSERT_FALSE(injector.plan().faults.empty());

  StreamServerConfig sc;
  sc.ingest_workers = 2;
  sc.detect_workers = 3;
  sc.fault_injector = &injector;
  StreamServer server(*system_, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  ASSERT_EQ(results.size(), 4u);
  for (const StreamResult& r : results) {
    // Whatever the plan did, every ingested frame surfaced exactly once.
    EXPECT_LE(r.report.frames.size(), static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < r.report.frames.size(); ++i)
      EXPECT_EQ(r.report.frames[i].index, static_cast<int>(i));
    EXPECT_GE(static_cast<int>(r.degrade_level), 0);
    EXPECT_LE(static_cast<int>(r.degrade_level), 3);
  }
}

}  // namespace
}  // namespace avd::runtime
