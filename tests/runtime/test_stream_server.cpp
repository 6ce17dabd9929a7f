// StreamServer: the tentpole guarantee — per-stream results from the
// concurrent runtime are bit-identical to the sequential
// AdaptiveSystem::run() path — plus backpressure accounting and metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/fault_injection.hpp"
#include "avd/runtime/stream_server.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "../support/tiny_models.hpp"

namespace avd::runtime {
namespace {

/// The four scripted drives served throughout this file: same shape,
/// different seeds → different scenes, reconfig times, detections.
std::vector<data::DriveSequence> four_streams(int frames_per_segment,
                                              bool with_tunnel = true) {
  std::vector<data::DriveSequence> seqs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    data::SequenceSpec spec =
        with_tunnel ? data::DriveSequence::canonical_drive({240, 136},
                                                           frames_per_segment)
                    : data::SequenceSpec{};
    if (!with_tunnel) {
      spec.frame_size = {240, 136};
      spec.segments = {{data::LightingCondition::Day, frames_per_segment},
                       {data::LightingCondition::Dark, frames_per_segment}};
    }
    spec.seed = 2024 + i;
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
  EXPECT_EQ(a.animals_truth, b.animals_truth) << where;
  EXPECT_EQ(a.vehicle_match.true_positives, b.vehicle_match.true_positives)
      << where;
  EXPECT_EQ(a.vehicle_match.false_negatives, b.vehicle_match.false_negatives)
      << where;
  EXPECT_EQ(a.vehicle_match.false_positives, b.vehicle_match.false_positives)
      << where;
  EXPECT_EQ(a.animal_match.true_positives, b.animal_match.true_positives)
      << where;
  EXPECT_EQ(a.animal_match.false_negatives, b.animal_match.false_negatives)
      << where;
  EXPECT_EQ(a.animal_match.false_positives, b.animal_match.false_positives)
      << where;
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
    EXPECT_EQ(a.reconfigs[i].transfer.bytes, b.reconfigs[i].transfer.bytes)
        << where;
  }
  // The control-plane event logs must line up event for event: simulated
  // timestamps, sources, messages. events() returns a locked snapshot, so
  // take it once per log rather than per access.
  const std::vector<soc::Event> a_events = a.log.events();
  const std::vector<soc::Event> b_events = b.log.events();
  ASSERT_EQ(a_events.size(), b_events.size()) << where;
  for (std::size_t i = 0; i < a_events.size(); ++i) {
    EXPECT_EQ(a_events[i].time.ps, b_events[i].time.ps) << where;
    EXPECT_EQ(a_events[i].source, b_events[i].source) << where;
    EXPECT_EQ(a_events[i].message, b_events[i].message) << where;
  }
}

// The ISSUE acceptance test: 4 streams × 4 detect workers, with detection
// enabled, must reproduce the sequential run() per stream bit for bit.
TEST(StreamServer, FourStreamsFourWorkersMatchSequentialExactly) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = four_streams(6);

  StreamServerConfig sc;
  sc.ingest_workers = 2;
  sc.detect_workers = 4;
  sc.queue_capacity = 4;  // small queues → real contention and blocking
  StreamServer server(system, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  ASSERT_EQ(results.size(), streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const core::AdaptiveRunReport sequential = system.run(streams[s]);
    EXPECT_EQ(results[s].stream, static_cast<int>(s));
    EXPECT_EQ(results[s].backpressure_drops, 0u);
    expect_reports_identical(results[s].report, sequential,
                             "stream " + std::to_string(s));
  }
}

// With use_image_light_estimate the control step renders each frame to
// estimate its light level, so control does real work on the ingest
// workers, concurrently across streams and with the detect stage's own
// renders. Every per-stream report must still match run() bit for bit.
TEST(StreamServer, ImageLightEstimateServeMatchesSequentialExactly) {
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  cfg.use_image_light_estimate = true;
  core::AdaptiveSystem system(test_support::tiny_models(), cfg);

  const std::vector<data::DriveSequence> streams = four_streams(4);

  StreamServerConfig sc;
  sc.ingest_workers = 4;
  sc.detect_workers = 2;
  sc.queue_capacity = 2;  // small queues: ingest workers block on detect
  StreamServer server(system, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  ASSERT_EQ(results.size(), streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s)
    expect_reports_identical(results[s].report, system.run(streams[s]),
                             "stream " + std::to_string(s));
}

// One ThreadPool shared between the detect stage (scan_pool) and the
// sliding-window scanner (sliding.pool): frame-level and scan-level
// parallelism nest on the same threads, and every per-stream report still
// matches the sequential single-threaded run bit for bit.
TEST(StreamServer, SharedScanPoolMatchesSequentialExactly) {
  const core::SystemModels& models = test_support::tiny_models();
  ThreadPool pool(4);
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  cfg.sliding.pool = &pool;
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = four_streams(4);

  StreamServerConfig sc;
  sc.detect_workers = 3;
  sc.queue_capacity = 4;
  sc.scan_pool = &pool;
  StreamServer server(system, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  core::AdaptiveSystemConfig seq_cfg = cfg;
  seq_cfg.sliding.pool = nullptr;  // fully sequential oracle
  core::AdaptiveSystem sequential(models, seq_cfg);
  ASSERT_EQ(results.size(), streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    EXPECT_EQ(results[s].backpressure_drops, 0u);
    expect_reports_identical(results[s].report, sequential.run(streams[s]),
                             "stream " + std::to_string(s));
  }
}

// Cross-stream detect batching: workers gather frames from every stream
// into one indexed batch on the shared pool. The gather/scatter must be
// invisible in the data plane — per-stream reports bit-identical to the
// sequential oracle, no frame lost, no drops introduced.
TEST(StreamServer, CrossStreamBatchingMatchesSequentialExactly) {
  const core::SystemModels& models = test_support::tiny_models();
  ThreadPool pool(4);
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  cfg.sliding.pool = &pool;  // scan-level parallelism nests in batch tasks
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = four_streams(4);

  StreamServerConfig sc;
  sc.detect_workers = 2;  // two batch coordinators racing on the queue
  sc.queue_capacity = 8;  // deep enough that gathers really batch
  sc.scan_pool = &pool;
  sc.cross_stream_batching = true;
  sc.detect_batch_max = 6;
  StreamServer server(system, sc);
  const std::vector<StreamResult> results = server.serve_sequences(streams);

  core::AdaptiveSystemConfig seq_cfg = cfg;
  seq_cfg.sliding.pool = nullptr;  // fully sequential oracle
  core::AdaptiveSystem sequential(models, seq_cfg);
  ASSERT_EQ(results.size(), streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    EXPECT_EQ(results[s].backpressure_drops, 0u);
    expect_reports_identical(results[s].report, sequential.run(streams[s]),
                             "stream " + std::to_string(s));
  }
}

// Batching under the degradation ladder: level-2 coast frames never enter a
// gather (control hands them to the collector, which resolves them on its
// coast ledger), while the scan frames of interleaved streams share the
// gathers of a single detect worker. The serve must stay deterministic
// across serves and complete (every frame reported). With the gather off,
// the same worker takes one frame at a time, and the results must not move.
TEST(StreamServer, CrossStreamBatchingWithCoastLadderIsDeterministic) {
  const core::SystemModels& models = test_support::tiny_models();
  ThreadPool pool(3);
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = four_streams(4);
  FaultPlan plan;
  // Streams 0 and 2 pinned to SkipCoast from frame 2 on: their later
  // frames alternate scan/coast, and their scans share gathers with
  // streams 1/3.
  plan.faults.push_back({FaultKind::ForceDegrade, 0, 2, 64, 2.0});
  plan.faults.push_back({FaultKind::ForceDegrade, 2, 2, 64, 2.0});

  const auto serve_once = [&](bool batching) {
    FaultInjector injector(plan);
    StreamServerConfig sc;
    sc.detect_workers = 1;  // one worker gathers every stream's scans
    sc.queue_capacity = 8;
    sc.scan_pool = &pool;
    sc.cross_stream_batching = batching;
    sc.detect_batch_max = 8;
    sc.fault_injector = &injector;
    StreamServer server(system, sc);
    return server.serve_sequences(streams);
  };
  const std::vector<StreamResult> batched = serve_once(true);
  ASSERT_EQ(batched.size(), streams.size());
  for (const bool batching : {false, true}) {
    SCOPED_TRACE(batching ? "batching on" : "batching off");
    const std::vector<StreamResult> again = serve_once(batching);
    ASSERT_EQ(again.size(), streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
      ASSERT_EQ(static_cast<int>(again[s].report.frames.size()),
                streams[s].frame_count());
      EXPECT_EQ(again[s].coasted_frames, batched[s].coasted_frames);
      expect_reports_identical(again[s].report, batched[s].report,
                               "serve/serve stream " + std::to_string(s));
    }
  }
  EXPECT_GT(batched[0].coasted_frames, 0u);
  EXPECT_GT(batched[2].coasted_frames, 0u);
  // Untargeted streams never leave Full and still match the oracle.
  expect_reports_identical(batched[1].report, system.run(streams[1]),
                           "stream 1 vs sequential");
  expect_reports_identical(batched[3].report, system.run(streams[3]),
                           "stream 3 vs sequential");
}

// Running the server twice must give identical results (no scheduling
// nondeterminism leaks into the data plane).
TEST(StreamServer, RepeatedServesAreIdentical) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;  // control plane only: fast
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = four_streams(20);
  StreamServerConfig sc;
  sc.detect_workers = 3;
  StreamServer s1(system, sc), s2(system, sc);
  const auto r1 = s1.serve_sequences(streams);
  const auto r2 = s2.serve_sequences(streams);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t s = 0; s < r1.size(); ++s)
    expect_reports_identical(r1[s].report, r2[s].report,
                             "stream " + std::to_string(s));
}

// obs_view() is the one way to read a serve's state from outside: a view
// held across the next serve() keeps the first serve's sampler and recorder
// alive and readable while the second serve, on another thread, replaces
// them in the server.
TEST(StreamServer, ObsViewHeldAcrossAServeStaysReadable) {
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(test_support::tiny_models(), cfg);
  StreamServer server(system, {});

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  std::uint64_t frames = 0;
  for (const StreamResult& r : server.serve_sequences(four_streams(3)))
    frames += r.report.frames.size();
  const StreamServer::ObsView held = server.obs_view();
  ASSERT_NE(held.sampler, nullptr);
  ASSERT_NE(held.recorder, nullptr);
  ASSERT_EQ(held.sampler->frames_seen(), frames);

  std::atomic<bool> done{false};
  std::thread second([&] {
    (void)server.serve_sequences(four_streams(5));
    done.store(true);
  });
  do {
    EXPECT_EQ(held.sampler->frames_seen(), frames);
    EXPECT_FALSE(held.recorder->dump("held view").empty());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (!done.load());
  second.join();
  tracer.set_enabled(false);
  tracer.clear();

  EXPECT_EQ(held.sampler->frames_seen(), frames);
  EXPECT_NE(server.obs_view().sampler, held.sampler);
}

// Under DropOldest with a starved detect pool, frames overflow — but every
// frame still shows up in the report, dropped ones as vehicle_processed =
// false with the pedestrian engine untouched (the paper's reconfiguration
// drop, generalised to load shedding).
TEST(StreamServer, DropOldestShedsLoadButAccountsEveryFrame) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = four_streams(15);
  StreamServerConfig sc;
  sc.detect_workers = 1;
  sc.queue_capacity = 2;
  sc.detect_policy = OverflowPolicy::DropOldest;
  sc.simulated_accel_ms = 2.0;  // starve: detect is 2 ms/frame, control ~µs
  StreamServer server(system, sc);
  // The registry is process-global: read the drop counter as a delta.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t drops_before =
      registry.snapshot().counter("runtime.backpressure_drops");
  const auto results = server.serve_sequences(streams);

  std::uint64_t total_drops = 0;
  for (std::size_t s = 0; s < results.size(); ++s) {
    const auto& r = results[s];
    ASSERT_EQ(static_cast<int>(r.report.frames.size()),
              streams[s].frame_count());
    total_drops += r.backpressure_drops;
    const core::AdaptiveRunReport sequential = system.run(streams[s]);
    std::uint64_t seen_drops = 0;
    for (std::size_t i = 0; i < r.report.frames.size(); ++i) {
      const auto& f = r.report.frames[i];
      const auto& sf = sequential.frames[i];
      // Control-plane outputs are never affected by load shedding.
      EXPECT_EQ(f.sensed, sf.sensed);
      EXPECT_EQ(f.active_config, sf.active_config);
      EXPECT_EQ(f.light_level, sf.light_level);
      EXPECT_TRUE(f.pedestrian_processed);  // static partition never stalls
      if (f.vehicle_processed != sf.vehicle_processed) {
        // Shed frame: sequential processed it, the loaded server did not.
        EXPECT_TRUE(sf.vehicle_processed);
        EXPECT_FALSE(f.vehicle_processed);
        ++seen_drops;
      }
    }
    // A backpressure drop that lands on a frame the control plane already
    // dropped (reconfiguration window) flips no flag, so seen_drops may
    // undercount by at most the reconfiguration drops.
    EXPECT_LE(seen_drops, r.backpressure_drops) << "stream " << s;
    EXPECT_LE(r.backpressure_drops - seen_drops,
              static_cast<std::uint64_t>(sequential.dropped_vehicle_frames()))
        << "stream " << s;
  }
  EXPECT_GT(total_drops, 0u) << "expected the starved pool to shed load";
  EXPECT_EQ(registry.snapshot().counter("runtime.backpressure_drops") -
                drops_before,
            total_drops);
}

TEST(StreamServer, MetricsCoverEveryFrame) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = four_streams(10);
  int total_frames = 0;
  for (const auto& s : streams) total_frames += s.frame_count();

  StreamServerConfig sc;
  sc.detect_workers = 2;
  StreamServer server(system, sc);
  // The registry is process-global (earlier serves in this binary count
  // into the same series), so every check reads a delta around the serve.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto processed = [&registry](const char* stage) {
    return registry.counter("runtime.stage.processed", {{"stage", stage}})
        .value();
  };
  const auto latency = [&registry](const char* stage) -> obs::Histogram& {
    return registry.histogram("runtime.stage.latency_ns", {{"stage", stage}});
  };
  const std::uint64_t ingest0 = processed("ingest");
  const std::uint64_t control0 = processed("control");
  const std::uint64_t detect0 = processed("detect");
  const std::uint64_t report0 = processed("report");
  const std::uint64_t drops0 =
      registry.snapshot().counter("runtime.backpressure_drops");
  const std::uint64_t detect_samples0 = latency("detect").count();
  const std::uint64_t control_samples0 = latency("control").count();

  const auto results = server.serve_sequences(streams);
  ASSERT_EQ(results.size(), 4u);

  const auto n = static_cast<std::uint64_t>(total_frames);
  EXPECT_EQ(processed("ingest") - ingest0, n);
  EXPECT_EQ(processed("control") - control0, n);
  EXPECT_EQ(processed("detect") - detect0 +
                registry.snapshot().counter("runtime.backpressure_drops") -
                drops0,
            n);
  EXPECT_EQ(processed("report") - report0, n);
  EXPECT_GT(latency("detect").count() - detect_samples0, 0u);
  EXPECT_EQ(latency("control").count() - control_samples0, n);

  // Every queue-fed stage saw its input queue hold at least one frame, and
  // never more than its capacity.
  for (const char* stage : {"detect", "report"}) {
    const double hw =
        registry.gauge("runtime.stage.queue_high_water", {{"stage", stage}})
            .value();
    EXPECT_GE(hw, 1.0) << stage;
    EXPECT_LE(hw, static_cast<double>(sc.queue_capacity)) << stage;
  }
}

// Every stage sees every frame, so the four runtime.stage.* series each
// count all 120 frames. The snapshot folds only population labels: there is
// no fleet base summing the stages (480 for 120 frames).
TEST(StreamServer, StageSeriesHaveNoBaseSummedOverStages) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = four_streams(5);
  int total_frames = 0;
  for (const auto& s : streams) total_frames += s.frame_count();
  ASSERT_EQ(total_frames, 120);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto ingested = [&registry] {
    return registry.counter("runtime.stage.processed", {{"stage", "ingest"}})
        .value();
  };
  const std::uint64_t ingested0 = ingested();
  StreamServer server(system, {});
  const auto results = server.serve_sequences(streams);
  ASSERT_EQ(results.size(), 4u);

  EXPECT_EQ(ingested() - ingested0, 120u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  constexpr std::uint64_t kAbsent = ~std::uint64_t{0};
  EXPECT_EQ(snap.counter("runtime.stage.processed", kAbsent), kAbsent);
  EXPECT_EQ(snap.histogram("runtime.stage.latency_ns"), nullptr);
  EXPECT_EQ(snap.gauge("runtime.stage.queue_high_water", -1.0), -1.0);
}

TEST(StreamServer, EmptyAndSingleFrameStreams) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(models, cfg);

  data::SequenceSpec one;
  one.frame_size = {240, 136};
  one.segments = {{data::LightingCondition::Day, 1}};
  StreamServer server(system, {});
  const auto results =
      server.serve_sequences({data::DriveSequence(one)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].report.frames.size(), 1u);

  StreamServer empty_server(system, {});
  EXPECT_TRUE(empty_server.serve({}).empty());
}

TEST(SequenceFrameSource, AdaptsSequencesUnchanged) {
  data::SequenceSpec spec;
  spec.frame_size = {240, 136};
  spec.segments = {{data::LightingCondition::Day, 5}};
  const data::DriveSequence seq(spec);
  SequenceFrameSource source{data::DriveSequence(spec)};
  EXPECT_EQ(source.frame_count(), 5);
  for (int i = 0; i < 5; ++i) {
    const auto meta = source.next();
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->light_level, seq.frame(i).light_level);
    EXPECT_EQ(meta->condition, seq.frame(i).condition);
  }
  EXPECT_FALSE(source.next().has_value());
}

}  // namespace
}  // namespace avd::runtime
