// StreamServer SLO wiring: per-stream health monitoring driven by the
// always-on telemetry exporter — healthy on a comfortable budget, unhealthy
// when every frame busts the deadline, with transitions and callbacks
// surfaced through the server API, plus the per-frame latency accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/stream_server.hpp"
#include "../support/tiny_models.hpp"

namespace avd::runtime {
namespace {

std::vector<data::DriveSequence> streams(int n, int frames_per_segment,
                                         std::uint64_t seed) {
  std::vector<data::DriveSequence> seqs;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(n); ++i) {
    data::SequenceSpec spec =
        data::DriveSequence::canonical_drive({240, 136}, frames_per_segment);
    spec.seed = seed + i;
    seqs.emplace_back(spec);
  }
  return seqs;
}

core::AdaptiveSystemConfig control_only() {
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  return cfg;
}

// Worst-of over the latest serve's per-stream health.
obs::HealthState worst_health(const StreamServer& server) {
  std::vector<obs::HealthState> states;
  for (const StreamServer::StreamView& s : server.obs_view().streams)
    states.push_back(s.health);
  return obs::worst_of(states);
}

TEST(StreamSlo, ComfortableBudgetStaysHealthy) {
  const core::SystemModels& models = test_support::tiny_models();
  const core::AdaptiveSystem system(models, control_only());

  StreamServerConfig sc;
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 1e6;  // nothing misses a ~17 min budget
  sc.slo.telemetry_period = std::chrono::milliseconds(2);
  StreamServer server(system, sc);
  const std::vector<StreamResult> results =
      server.serve_sequences(streams(2, 4, 5200));

  ASSERT_EQ(results.size(), 2u);
  for (const StreamResult& r : results) {
    EXPECT_EQ(r.health, obs::HealthState::Healthy);
    EXPECT_TRUE(r.health_transitions.empty());
    EXPECT_EQ(r.deadline_misses, 0u);
  }
  const StreamServer::ObsView view = server.obs_view();
  ASSERT_EQ(view.streams.size(), 2u);
  EXPECT_EQ(view.streams[0].health, obs::HealthState::Healthy);
}

TEST(StreamSlo, ImpossibleBudgetGoesUnhealthyAndFiresCallback) {
  const core::SystemModels& models = test_support::tiny_models();
  const core::AdaptiveSystem system(models, control_only());

  StreamServerConfig sc;
  sc.detect_workers = 2;
  sc.simulated_accel_ms = 2.0;       // stretch the run across many windows
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 1e-4;     // 100 ns: every frame misses
  sc.slo.telemetry_period = std::chrono::milliseconds(1);
  sc.slo.hysteresis.breaches_to_worsen = 1;
  // Idle tail windows after the last frame must not walk the state back.
  sc.slo.hysteresis.clears_to_recover = 1000;
  StreamServer server(system, sc);

  std::atomic<int> callbacks{0};
  server.set_health_callback(
      [&callbacks](int stream, const obs::HealthTransition& t) {
        EXPECT_GE(stream, 0);
        EXPECT_NE(t.to, obs::HealthState::Healthy);
        callbacks.fetch_add(1);
      });

  const std::vector<StreamResult> results =
      server.serve_sequences(streams(2, 6, 5300));
  ASSERT_EQ(results.size(), 2u);
  for (const StreamResult& r : results) {
    // Every reported frame missed the 100 ns budget...
    EXPECT_EQ(r.deadline_misses, r.report.frames.size());
    // ...so the frame_deadline rule (100 % >> 25 %) drove the stream to
    // UNHEALTHY in the first evaluated window.
    EXPECT_EQ(r.health, obs::HealthState::Unhealthy);
    ASSERT_FALSE(r.health_transitions.empty());
    EXPECT_EQ(r.health_transitions.back().to, obs::HealthState::Unhealthy);
    EXPECT_NE(r.health_transitions.back().reason.find("frame_deadline"),
              std::string::npos);
  }
  EXPECT_GE(callbacks.load(), 2);
}

TEST(StreamSlo, TelemetryJsonlSinkIsWrittenDuringServe) {
  const core::SystemModels& models = test_support::tiny_models();
  const core::AdaptiveSystem system(models, control_only());

  const std::string path = testing::TempDir() + "stream_slo_telemetry.jsonl";
  std::remove(path.c_str());

  StreamServerConfig sc;
  sc.slo.enabled = true;
  sc.slo.telemetry_period = std::chrono::milliseconds(2);
  sc.slo.telemetry_jsonl = path;
  StreamServer server(system, sc);
  (void)server.serve_sequences(streams(1, 4, 5400));

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++lines;
    const std::optional<obs::json::Value> doc = obs::json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_NE(doc->find("t_ns"), nullptr);
    EXPECT_NE(doc->find("seq"), nullptr);
    ASSERT_NE(doc->find("counters"), nullptr);
    // The per-stream labeled counters the SLO rules watch are in every
    // sample, and the snapshot's fold gives every row the fleet view too.
    EXPECT_NE(doc->find("counters")->find("runtime.frames{stream=\"0\"}"),
              nullptr);
    EXPECT_NE(doc->find("counters")->find("runtime.frames"), nullptr);
  }
  EXPECT_GE(lines, 1u);  // stop() guarantees at least the final sample
  std::remove(path.c_str());
}

TEST(StreamSlo, DisabledMonitoringStillCountsLatencyAndFrames) {
  const core::SystemModels& models = test_support::tiny_models();
  const core::AdaptiveSystem system(models, control_only());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::Labels stream0{{"stream", "0"}};
  const std::uint64_t frames_before =
      registry.counter("runtime.frames", stream0).value();
  const std::uint64_t latency_before =
      registry.histogram("runtime.frame.latency_ns", stream0).count();

  StreamServer server(system, {});  // slo.enabled defaults to false
  const std::vector<StreamResult> results =
      server.serve_sequences(streams(1, 3, 5500));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].health, obs::HealthState::Healthy);
  EXPECT_TRUE(results[0].health_transitions.empty());
  EXPECT_EQ(worst_health(server), obs::HealthState::Healthy);

  const std::uint64_t served = results[0].report.frames.size();
  EXPECT_EQ(registry.counter("runtime.frames", stream0).value() -
                frames_before,
            served);
  EXPECT_GE(registry.histogram("runtime.frame.latency_ns", stream0).count() -
                latency_before,
            served);
  // The snapshot's fleet series cover the stream's frames even with
  // monitoring disabled.
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GE(snap.counter("runtime.frames"), served);
  ASSERT_NE(snap.histogram("runtime.frame.latency_ns"), nullptr);
  EXPECT_GE(snap.histogram("runtime.frame.latency_ns")->count, served);
}

TEST(StreamSlo, ForcedBreachWritesParseableFlightBundle) {
  const core::SystemModels& models = test_support::tiny_models();
  const core::AdaptiveSystem system(models, control_only());

  StreamServerConfig sc;
  sc.simulated_accel_ms = 2.0;
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 1e-4;  // 100 ns: every frame misses
  sc.slo.telemetry_period = std::chrono::milliseconds(1);
  sc.slo.hysteresis.breaches_to_worsen = 1;
  sc.slo.hysteresis.clears_to_recover = 1000;
  sc.slo.flight_dump_dir = testing::TempDir();
  StreamServer server(system, sc);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const std::vector<StreamResult> results =
      server.serve_sequences(streams(2, 6, 5600));
  tracer.set_enabled(false);
  tracer.clear();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(worst_health(server), obs::HealthState::Unhealthy);

  // The UNHEALTHY transition produced an on-disk bundle...
  ASSERT_FALSE(server.last_flight_bundle_path().empty());
  std::ifstream in(server.last_flight_bundle_path());
  ASSERT_TRUE(in.is_open()) << server.last_flight_bundle_path();
  std::stringstream buf;
  buf << in.rdbuf();
  const std::optional<obs::json::Value> doc = obs::json::parse(buf.str());
  ASSERT_TRUE(doc.has_value()) << "bundle is not valid JSON";

  // ...that is self-contained: config, telemetry, the SLO transitions that
  // tripped it, and per-stream frame chains connected ingest -> report.
  EXPECT_NE(doc->find("config"), nullptr);
  const obs::json::Value* transitions = doc->find("slo_transitions");
  ASSERT_NE(transitions, nullptr);
  EXPECT_FALSE(transitions->array.empty());
  const obs::json::Value* telemetry = doc->find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_FALSE(telemetry->array.empty());
  const obs::json::Value* streams_obj = doc->find("streams");
  ASSERT_NE(streams_obj, nullptr);
  ASSERT_FALSE(streams_obj->object.empty());
  std::size_t connected_chains = 0;
  for (const auto& [stream_id, entry] : streams_obj->object) {
    const obs::json::Value* frames = entry.find("frames");
    ASSERT_NE(frames, nullptr) << stream_id;
    for (const obs::json::Value& frame : frames->array) {
      const obs::json::Value* connected = frame.find("connected");
      ASSERT_NE(connected, nullptr);
      EXPECT_TRUE(connected->boolean);
      const obs::json::Value* spans = frame.find("spans");
      ASSERT_NE(spans, nullptr);
      bool has_ingest = false;
      bool has_report = false;
      bool has_drop = false;
      for (const obs::json::Value& span : spans->array) {
        const obs::json::Value* name = span.find("name");
        ASSERT_NE(name, nullptr);
        if (name->string == "ingest_frame") has_ingest = true;
        if (name->string == "collect_report") has_report = true;
        if (name->string == "drop_frame") has_drop = true;
      }
      EXPECT_TRUE(has_ingest);
      // A frame either made it to the report stage or was dropped under
      // backpressure — both leave a complete, explained chain. The only
      // other shape is the single-span end-of-stream ingest probe.
      EXPECT_TRUE(has_report || has_drop || spans->array.size() == 1u);
      if (has_report) ++connected_chains;
    }
  }
  // At least one full ingest -> report chain made it into the bundle.
  EXPECT_GT(connected_chains, 0u);
  std::remove(server.last_flight_bundle_path().c_str());

  // The tail sampler retained the breaching frames as Marked chains.
  const auto sampler = server.obs_view().sampler;
  ASSERT_NE(sampler, nullptr);
  EXPECT_GT(sampler->frames_retained(), 0u);
  bool saw_marked = false;
  for (const obs::RetainedFrame& f : sampler->retained())
    if (f.reason == obs::RetainReason::Marked) saw_marked = true;
  EXPECT_TRUE(saw_marked);
}

TEST(StreamSlo, OneSaturatedStreamDegradesOnlyItself) {
  // Unit-level twin of the fleet story: two per-stream monitors over the
  // labeled series, synthetic windows where only stream 0 misses deadlines.
  obs::SloConfig hysteresis;
  hysteresis.breaches_to_worsen = 2;  // hysteresis: one bad window is noise
  obs::SloMonitor m0("stream0",
                     obs::standard_stream_rules_labeled({{"stream", "0"}}),
                     hysteresis);
  obs::SloMonitor m1("stream1",
                     obs::standard_stream_rules_labeled({{"stream", "1"}}),
                     hysteresis);

  const auto sample = [](std::uint64_t t_ns, std::uint64_t frames0,
                         std::uint64_t miss0, std::uint64_t frames1,
                         std::uint64_t miss1) {
    obs::TelemetrySample s;
    s.t_ns = t_ns;
    s.metrics.counters = {
        {obs::labeled_name("runtime.deadline_miss", {{"stream", "0"}}), miss0},
        {obs::labeled_name("runtime.deadline_miss", {{"stream", "1"}}), miss1},
        {obs::labeled_name("runtime.frames", {{"stream", "0"}}), frames0},
        {obs::labeled_name("runtime.frames", {{"stream", "1"}}), frames1},
    };
    return s;
  };

  // Three windows: stream 0 misses every deadline, stream 1 none.
  const obs::TelemetrySample s0 = sample(1000, 0, 0, 0, 0);
  const obs::TelemetrySample s1 = sample(2000, 10, 10, 10, 0);
  const obs::TelemetrySample s2 = sample(3000, 20, 20, 20, 0);
  const obs::TelemetrySample s3 = sample(4000, 30, 30, 30, 0);

  // First breaching window: hysteresis holds stream 0 at HEALTHY.
  m0.observe(s0, s1);
  m1.observe(s0, s1);
  EXPECT_EQ(m0.state(), obs::HealthState::Healthy);

  m0.observe(s1, s2);
  m1.observe(s1, s2);
  m0.observe(s2, s3);
  m1.observe(s2, s3);

  // Only the saturated stream degraded; its neighbour never moved.
  EXPECT_EQ(m0.state(), obs::HealthState::Unhealthy);
  EXPECT_EQ(m1.state(), obs::HealthState::Healthy);
  EXPECT_TRUE(m1.transitions().empty());

  // The fleet rollup reports worst-of.
  const std::vector<obs::HealthState> fleet{m0.state(), m1.state()};
  EXPECT_EQ(obs::worst_of(fleet), obs::HealthState::Unhealthy);
  EXPECT_EQ(obs::worst_of({}), obs::HealthState::Healthy);

  // Transition timestamps are ordered and carry window-closing times.
  const std::vector<obs::HealthTransition> ts = m0.transitions();
  ASSERT_FALSE(ts.empty());
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_LE(ts[i - 1].t_ns, ts[i].t_ns);
  EXPECT_EQ(ts.front().entity, "stream0");
  EXPECT_NE(ts.front().reason.find("frame_deadline"), std::string::npos);
}

}  // namespace
}  // namespace avd::runtime
