// ShardedServer: deterministic placement, bit-identical per-stream results
// through the sharded + batched data plane, shard-labeled telemetry whose
// rollup marginals reconcile with the per-shard leaves, and the single
// fleet ops surface on the front door.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/ops_server.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/sharded_server.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "../support/tiny_models.hpp"

namespace avd::runtime {
namespace {

std::vector<data::DriveSequence> drives(int n, int frames_per_segment) {
  std::vector<data::DriveSequence> seqs;
  for (int i = 0; i < n; ++i) {
    data::SequenceSpec spec =
        data::DriveSequence::canonical_drive({240, 136}, frames_per_segment);
    spec.seed = 4040 + static_cast<std::uint64_t>(i);
    seqs.emplace_back(spec);
  }
  return seqs;
}

/// Sum of a prometheus scrape's values for one base name, split into the
/// per-shard marginals (exactly one label, "shard") and the two-label
/// shard x stream leaves, keyed by shard value.
struct ShardSeries {
  std::map<std::string, double> marginal;  ///< shard -> marginal value
  std::map<std::string, double> leaf_sum;  ///< shard -> sum of its leaves
};

void fold_series(ShardSeries& out, const std::string& series,
                 const std::string& base, double value) {
  const auto parsed = obs::parse_labeled_name(series);
  if (!parsed || parsed->base != base) return;
  std::string shard, stream;
  for (const auto& [k, v] : parsed->labels) {
    if (k == "shard") shard = v;
    if (k == "stream") stream = v;
  }
  if (shard.empty()) return;
  if (parsed->labels.size() == 1)
    out.marginal[shard] += value;
  else if (parsed->labels.size() == 2 && !stream.empty())
    out.leaf_sum[shard] += value;
}

/// Shard series of `base` (a raw dotted registry name) in a snapshot.
ShardSeries collect_shard_series(const obs::MetricsSnapshot& snap,
                                 const std::string& base) {
  ShardSeries out;
  for (const auto& [name, v] : snap.counters)
    fold_series(out, name, base, static_cast<double>(v));
  return out;
}

/// Shard series of `base` (the sanitized Prometheus family name, e.g.
/// "runtime_frames") in a /metricsz scrape body.
ShardSeries collect_shard_series(const std::string& prometheus,
                                 const std::string& base) {
  ShardSeries out;
  std::istringstream lines(prometheus);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    fold_series(out, line.substr(0, space), base,
                std::stod(line.substr(space + 1)));
  }
  return out;
}

TEST(ShardedServer, PlacementIsStableHash) {
  // The hash is a pure function of the bytes — pin two reference values so
  // an accidental reseed/reorder of the FNV constants cannot slip through.
  EXPECT_EQ(stable_stream_hash(""), 14695981039346656037ull);
  EXPECT_EQ(stable_stream_hash("s0"), stable_stream_hash("s0"));
  EXPECT_NE(stable_stream_hash("s0"), stable_stream_hash("s1"));

  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystem system(models, {});

  ShardedServerConfig fc;
  fc.shards = 4;
  ShardedServer front(system, fc);

  for (const std::string name : {"s0", "s1", "cam-front", "cam-rear"}) {
    const int expected =
        static_cast<int>(stable_stream_hash(name) % 4ull);
    EXPECT_EQ(front.shard_of(name), expected) << name;
  }

  // A second front door with the same config places identically.
  ShardedServer front2(system, fc);
  for (const std::string name : {"s0", "s1", "cam-front", "cam-rear"})
    EXPECT_EQ(front.shard_of(name), front2.shard_of(name)) << name;

  // The two-shard placement the front-door tests below rely on.
  fc.shards = 2;
  const ShardedServer pair(system, fc);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(pair.shard_of("s" + std::to_string(i)), i % 2) << i;
}

// The tentpole guarantee extended across shards: every stream's report from
// the sharded front door — with cross-stream batching inside each shard and
// a shared scan pool — is bit-identical to the sequential run(), and the
// scatter restores input order whatever the hash placed where.
TEST(ShardedServer, ShardedBatchedServeMatchesSequentialExactly) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  ThreadPool pool(4);
  cfg.sliding.pool = &pool;
  core::AdaptiveSystem system(models, cfg);

  const std::vector<data::DriveSequence> streams = drives(4, 4);

  ShardedServerConfig fc;
  fc.shards = 2;
  fc.shard.detect_workers = 2;
  fc.shard.queue_capacity = 4;
  fc.shard.scan_pool = &pool;
  fc.shard.cross_stream_batching = true;
  fc.shard.detect_batch_max = 4;
  ShardedServer front(system, fc);

  const std::vector<StreamResult> results = front.serve_sequences(streams);
  ASSERT_EQ(results.size(), streams.size());

  const std::vector<int> assignment = front.last_assignment();
  ASSERT_EQ(assignment.size(), streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    std::string name = "s";
    name += std::to_string(s);
    EXPECT_EQ(assignment[s], front.shard_of(name));
  }

  core::AdaptiveSystemConfig seq_cfg = cfg;
  seq_cfg.sliding.pool = nullptr;  // strictly single-threaded oracle
  core::AdaptiveSystem sequential(models, seq_cfg);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    EXPECT_EQ(results[s].stream, static_cast<int>(s));
    EXPECT_EQ(results[s].backpressure_drops, 0u);
    const core::AdaptiveRunReport oracle = sequential.run(streams[s]);
    ASSERT_EQ(results[s].report.frames.size(), oracle.frames.size());
    for (std::size_t i = 0; i < oracle.frames.size(); ++i) {
      const auto& a = results[s].report.frames[i];
      const auto& b = oracle.frames[i];
      EXPECT_EQ(a.index, b.index);
      EXPECT_EQ(a.light_level, b.light_level);
      EXPECT_EQ(a.active_config, b.active_config);
      EXPECT_EQ(a.vehicle_match.true_positives, b.vehicle_match.true_positives)
          << "stream " << s << " frame " << i;
      EXPECT_EQ(a.vehicle_match.false_positives,
                b.vehicle_match.false_positives)
          << "stream " << s << " frame " << i;
      EXPECT_EQ(a.vehicle_match.false_negatives,
                b.vehicle_match.false_negatives)
          << "stream " << s << " frame " << i;
    }
  }
}

// Telemetry reconciliation: after a sharded serve, rollup() has folded the
// shard= x stream= leaves so that each per-shard marginal equals the sum of
// that shard's own leaves. (Compared leaf-wise, not against the unlabeled
// base: the base also folds stream=-only series from other tests sharing
// the global registry.)
TEST(ShardedServer, RollupShardMarginalsEqualLeafSums) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystem system(models, {});

  ShardedServerConfig fc;
  fc.shards = 3;
  fc.shard.detect_workers = 1;
  ShardedServer front(system, fc);
  const std::vector<StreamResult> results =
      front.serve_sequences(drives(6, 3));
  ASSERT_EQ(results.size(), 6u);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const ShardSeries frames =
      collect_shard_series(registry.snapshot(), "runtime.frames");
  // Every shard that served streams has leaves, a marginal, and they agree.
  ASSERT_FALSE(frames.leaf_sum.empty());
  for (const auto& [shard, leaves] : frames.leaf_sum) {
    const auto it = frames.marginal.find(shard);
    ASSERT_NE(it, frames.marginal.end()) << "no marginal for shard " << shard;
    EXPECT_DOUBLE_EQ(it->second, leaves) << "shard " << shard;
  }
  // And a second rollup must not double anything.
  registry.rollup();
  const ShardSeries again =
      collect_shard_series(registry.snapshot(), "runtime.frames");
  EXPECT_EQ(again.marginal, frames.marginal);
  EXPECT_EQ(again.leaf_sum, frames.leaf_sum);
}

// Stage series carry the shard label like every other series: each shard's
// runtime.stage.processed{stage=detect} counts exactly the frames of the
// streams placed on it, and the shard series sum to the fleet total.
TEST(ShardedServer, StageSeriesShardMarginalsSumToFleetTotal) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystem system(models, {});

  ShardedServerConfig fc;
  fc.shards = 2;
  fc.shard.detect_workers = 1;
  ShardedServer front(system, fc);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto detect_processed = [&registry](int shard) {
    return registry
        .counter("runtime.stage.processed",
                 {{"shard", std::to_string(shard)}, {"stage", "detect"}})
        .value();
  };
  // The registry is process-global: read deltas around the serve.
  const std::uint64_t before[2] = {detect_processed(0), detect_processed(1)};
  const std::vector<StreamResult> results =
      front.serve_sequences(drives(4, 3));
  ASSERT_EQ(results.size(), 4u);

  const std::vector<int> placement = front.last_assignment();
  std::uint64_t expected[2] = {0, 0};
  std::uint64_t fleet = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto frames =
        static_cast<std::uint64_t>(results[i].report.frames.size());
    expected[placement[i]] += frames;
    fleet += frames;
  }
  std::uint64_t sum = 0;
  for (int m = 0; m < 2; ++m) {
    const std::uint64_t delta = detect_processed(m) - before[m];
    EXPECT_EQ(delta, expected[m]) << "shard " << m;
    sum += delta;
  }
  EXPECT_EQ(sum, fleet);
}

// The fleet ops surface: ONE front-door listener answers /metricsz with
// shard=-labeled series whose marginals reconcile against the same scrape's
// leaves, /healthz with the fleet worst-of, /statusz with the topology.
TEST(ShardedServer, FrontDoorServesFleetMetricsHealthAndStatus) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystem system(models, {});

  ShardedServerConfig fc;
  fc.shards = 2;
  fc.shard.detect_workers = 1;
  fc.shard.ops.enabled = true;
  fc.shard.ops.server.port = 0;  // ephemeral
  ShardedServer front(system, fc);
  ASSERT_NE(front.ops_server(), nullptr);
  const std::uint16_t port = front.ops_server()->port();
  ASSERT_NE(port, 0);

  const std::vector<StreamResult> results =
      front.serve_sequences(drives(4, 3));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(front.fleet_health(), obs::HealthState::Healthy);

  // /metricsz: the ISSUE acceptance check — shard= series are exported and
  // the scrape's own rollup reconciles (marginal == sum of per-shard leaves).
  const auto metrics = obs::http_get(port, "/metricsz");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(metrics->body.find("shard=\"1\""), std::string::npos);
  const ShardSeries frames =
      collect_shard_series(metrics->body, "runtime_frames");
  ASSERT_FALSE(frames.leaf_sum.empty());
  for (const auto& [shard, leaves] : frames.leaf_sum) {
    const auto it = frames.marginal.find(shard);
    ASSERT_NE(it, frames.marginal.end()) << "no marginal for shard " << shard;
    EXPECT_DOUBLE_EQ(it->second, leaves) << "shard " << shard;
  }

  const auto metrics_json = obs::http_get(port, "/metricsz.json");
  ASSERT_TRUE(metrics_json.has_value());
  EXPECT_EQ(metrics_json->status, 200);
  EXPECT_NE(metrics_json->body.find("runtime.frames"), std::string::npos);

  // /healthz: healthy fleet -> 200, per-shard stream rows, fleet verdict.
  const auto healthz = obs::http_get(port, "/healthz");
  ASSERT_TRUE(healthz.has_value());
  EXPECT_EQ(healthz->status, 200);
  EXPECT_NE(healthz->body.find("\"fleet\":\"HEALTHY\""), std::string::npos);
  EXPECT_NE(healthz->body.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(healthz->body.find("\"shard\":1"), std::string::npos);
  EXPECT_NE(healthz->body.find("\"stream\":\"s0\""), std::string::npos);

  // /statusz: topology + serve counter.
  const auto statusz = obs::http_get(port, "/statusz");
  ASSERT_TRUE(statusz.has_value());
  EXPECT_EQ(statusz->status, 200);
  EXPECT_NE(statusz->body.find("sharded-front-door"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"serves\":1"), std::string::npos);
}

// Stream names are user input: a name holding a quote and a backslash must
// come back from the front door's /healthz as a string of a document that
// parses, and /statusz must parse too.
TEST(ShardedServer, FrontDoorEscapesStreamNames) {
  const core::SystemModels& models = test_support::tiny_models();
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  core::AdaptiveSystem system(models, cfg);

  ShardedServerConfig fc;
  fc.shards = 1;
  fc.shard.detect_workers = 1;
  fc.shard.ops.enabled = true;
  fc.shard.ops.server.port = 0;  // ephemeral
  ShardedServer front(system, fc);
  ASSERT_NE(front.ops_server(), nullptr);
  const std::uint16_t port = front.ops_server()->port();

  const std::string name = "a\"b\\c";
  std::vector<NamedStream> streams;
  streams.push_back({name, make_source(drives(1, 2)[0])});
  ASSERT_EQ(front.serve(std::move(streams)).size(), 1u);

  const auto healthz = obs::http_get(port, "/healthz");
  ASSERT_TRUE(healthz.has_value());
  const std::optional<obs::json::Value> doc = obs::json::parse(healthz->body);
  ASSERT_TRUE(doc.has_value()) << healthz->body;
  const obs::json::Value* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array.size(), 1u);
  const obs::json::Value* rows = shards->array[0].find("streams");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 1u);
  const obs::json::Value* stream = rows->array[0].find("stream");
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->string, name);

  const auto statusz = obs::http_get(port, "/statusz");
  ASSERT_TRUE(statusz.has_value());
  EXPECT_TRUE(obs::json::valid(statusz->body)) << statusz->body;
}

core::AdaptiveSystemConfig control_only() {
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  return cfg;
}

/// GET `target` from the front door; require `status` and a body the strict
/// JSON parser accepts.
obs::json::Value get_json(std::uint16_t port, const std::string& target,
                          int status = 200) {
  const std::optional<obs::HttpResponse> res = obs::http_get(port, target);
  EXPECT_TRUE(res.has_value()) << target;
  if (!res.has_value()) return {};
  EXPECT_EQ(res->status, status) << target;
  const std::optional<obs::json::Value> doc = obs::json::parse(res->body);
  EXPECT_TRUE(doc.has_value()) << target << " body: " << res->body;
  return doc.value_or(obs::json::Value{});
}

/// Frames served per shard, from a serve's results and its placement.
std::vector<std::uint64_t> frames_per_shard(
    const std::vector<StreamResult>& results, const std::vector<int>& shard,
    int shards) {
  std::vector<std::uint64_t> frames(static_cast<std::size_t>(shards), 0);
  for (std::size_t i = 0; i < results.size(); ++i)
    frames[static_cast<std::size_t>(shard[i])] +=
        results[i].report.frames.size();
  return frames;
}

// The front door answers the seven endpoints a StreamServer answers, from
// the same code: each one mid-serve with a body that parses, /profilez
// sampling the shards' detect stage, /tracez?shard=m one shard's frames,
// and a bad ?shard= refused.
TEST(ShardedServer, FrontDoorAnswersEveryEndpoint) {
  core::AdaptiveSystem system(test_support::tiny_models(), control_only());

  ShardedServerConfig fc;
  fc.shards = 2;  // FNV-1a places s0, s2 on shard 0 and s1, s3 on shard 1
  fc.shard.detect_workers = 1;
  fc.shard.simulated_accel_ms = 10.0;  // keep detect spans open to sample
  fc.shard.ops.enabled = true;
  fc.shard.ops.server.handler_threads = 3;
  ShardedServer front(system, fc);
  ASSERT_NE(front.ops_server(), nullptr);
  const std::uint16_t port = front.ops_server()->port();

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  std::vector<StreamResult> results;
  std::thread serving([&] { results = front.serve_sequences(drives(4, 8)); });

  const auto profile = obs::http_get(port, "/profilez?seconds=0.3");
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->status, 200);
  EXPECT_NE(profile->body.find("detect_frame"), std::string::npos)
      << profile->body;
  const auto metrics = obs::http_get(port, "/metricsz");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_EQ(metrics->content_type, obs::kPrometheusContentType);
  for (const char* target :
       {"/metricsz.json", "/healthz", "/statusz", "/tracez", "/flightz",
        "/tracez?shard=1", "/flightz?shard=1",
        "/profilez?seconds=0.05&format=json"})
    (void)get_json(port, target);
  serving.join();
  tracer.set_enabled(false);

  ASSERT_EQ(results.size(), 4u);
  const std::vector<std::uint64_t> frames =
      frames_per_shard(results, front.last_assignment(), 2);
  ASSERT_NE(frames[1], 0u);
  const obs::json::Value shard1 = get_json(port, "/tracez?shard=1");
  ASSERT_NE(shard1.find("frames_seen"), nullptr);
  EXPECT_EQ(shard1.find("frames_seen")->number,
            static_cast<double>(frames[1]));
  tracer.clear();

  for (const char* target : {"/tracez?shard=x", "/flightz?shard=x",
                             "/tracez?shard=1x", "/tracez?shard="}) {
    const auto res = obs::http_get(port, target);
    ASSERT_TRUE(res.has_value()) << target;
    EXPECT_EQ(res->status, 400) << target;
  }
  for (const char* target :
       {"/tracez?shard=9", "/flightz?shard=9", "/tracez?shard=-1"}) {
    const auto res = obs::http_get(port, target);
    ASSERT_TRUE(res.has_value()) << target;
    EXPECT_EQ(res->status, 404) << target;
  }
}

// Each shard's sampler ingests only the chains of the frames that shard
// served, though every shard's spans share the process-wide tracer rings:
// the shards' frames_seen sum to the frames the fleet served.
TEST(ShardedServer, TracedShardsSumToFramesServed) {
  core::AdaptiveSystem system(test_support::tiny_models(), control_only());

  ShardedServerConfig fc;
  fc.shards = 2;
  fc.shard.ops.enabled = true;
  ShardedServer front(system, fc);
  const std::uint16_t port = front.ops_server()->port();

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const std::vector<StreamResult> results =
      front.serve_sequences(drives(3, 2));
  tracer.set_enabled(false);

  const std::vector<std::uint64_t> frames =
      frames_per_shard(results, front.last_assignment(), 2);
  double sum = 0.0;
  for (int m = 0; m < 2; ++m) {
    const obs::json::Value tracez =
        get_json(port, "/tracez?shard=" + std::to_string(m));
    ASSERT_NE(tracez.find("frames_seen"), nullptr);
    EXPECT_EQ(tracez.find("frames_seen")->number,
              static_cast<double>(frames[static_cast<std::size_t>(m)]))
        << "shard " << m;
    sum += tracez.find("frames_seen")->number;
  }
  tracer.clear();
  EXPECT_EQ(sum, static_cast<double>(frames[0] + frames[1]));
}

// The one fleet-pressure rule. Every frame misses a tiny budget, so every
// stream turns DEGRADED (a miss rate cannot pass an unhealthy threshold above
// 1) and the 100-window dwell holds it at coarse-scan on its own. With
// fleet_pressure_fraction 0.5 the front door raises the signal once half
// the fleet is hot, and the shards escalate past the dwell with reason
// health:fleet-pressure; at 0 the signal never rises.
TEST(ShardedServer, FleetPressureFractionEscalatesPastTheDwell) {
  core::AdaptiveSystem system(test_support::tiny_models(), control_only());
  const auto count_reasons = [&system](double fraction) {
    ShardedServerConfig fc;
    fc.shards = 2;  // FNV-1a: s0, s2 on shard 0 and s1, s3 on shard 1
    fc.fleet_pressure_fraction = fraction;
    fc.shard.detect_workers = 1;
    fc.shard.simulated_accel_ms = 1.0;
    fc.shard.admission.enabled = true;
    fc.shard.admission.ladder.escalate_after_windows = 100;
    fc.shard.slo.enabled = true;
    fc.shard.slo.frame_budget_ms = 1e-4;
    fc.shard.slo.deadline_miss_unhealthy = 2.0;
    fc.shard.slo.telemetry_period = std::chrono::milliseconds(1);
    fc.shard.slo.hysteresis.breaches_to_worsen = 1;
    ShardedServer front(system, fc);
    std::map<std::string, int> reasons;
    for (const StreamResult& r : front.serve_sequences(drives(4, 6)))
      for (const DegradeTransition& t : r.degrade_transitions)
        ++reasons[t.reason];
    return reasons;
  };
  std::map<std::string, int> off = count_reasons(0.0);
  EXPECT_GT(off["health:degraded"], 0);  // the streams did degrade
  EXPECT_EQ(off["health:fleet-pressure"], 0);
  EXPECT_GT(count_reasons(0.5)["health:fleet-pressure"], 0);
}

// Regression: set_fleet_pressure() on a shard whose serve() had not yet
// published its admission controller was dropped, so the shard started its
// serve with the pressure off. Raised before serve(), it must reach the
// first health-driven decision: every stream's first transition gives the
// fleet-pressure reason. Every frame misses a tiny budget, so every stream
// turns DEGRADED.
TEST(StreamServer, FleetPressureSetBeforeServeReachesTheFirstDecision) {
  core::AdaptiveSystem system(test_support::tiny_models(), control_only());
  StreamServerConfig sc;
  sc.detect_workers = 1;
  sc.simulated_accel_ms = 1.0;
  sc.admission.enabled = true;
  sc.admission.ladder.escalate_after_windows = 100;
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 1e-4;
  sc.slo.deadline_miss_unhealthy = 2.0;
  sc.slo.telemetry_period = std::chrono::milliseconds(1);
  sc.slo.hysteresis.breaches_to_worsen = 1;
  StreamServer server(system, sc);
  server.set_fleet_pressure(true);
  int degraded = 0;
  for (const StreamResult& r : server.serve_sequences(drives(2, 6))) {
    if (r.degrade_transitions.empty()) continue;
    ++degraded;
    EXPECT_EQ(r.degrade_transitions.front().reason, "health:fleet-pressure")
        << "stream " << r.stream;
  }
  EXPECT_GT(degraded, 0);  // the streams did degrade
}

// Regression: the front door's /healthz read each shard's admission
// controller without the shard's lock while the shard's serve() swapped it.
// Scrape in a loop across serves with the ladder live, health transitions
// firing and the fleet-pressure signal recomputed on each of them (TSan
// reports the race; the stress lane repeats this).
TEST(ShardedServer, FrontDoorHealthzScrapedDuringServesIsRaceFree) {
  core::AdaptiveSystem system(test_support::tiny_models(), control_only());

  ShardedServerConfig fc;
  fc.shards = 2;
  fc.fleet_pressure_fraction = 0.25;
  fc.shard.detect_workers = 1;
  fc.shard.simulated_accel_ms = 1.0;
  fc.shard.admission.enabled = true;
  fc.shard.slo.enabled = true;
  fc.shard.slo.frame_budget_ms = 1e-4;  // every frame misses: transitions
  fc.shard.slo.telemetry_period = std::chrono::milliseconds(1);
  fc.shard.slo.hysteresis.breaches_to_worsen = 1;
  fc.shard.ops.enabled = true;
  ShardedServer front(system, fc);
  const std::uint16_t port = front.ops_server()->port();

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0}, bad{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      const auto res = obs::http_get(port, "/healthz");
      if (!res.has_value() || (res->status != 200 && res->status != 503) ||
          !obs::json::valid(res->body))
        bad.fetch_add(1);
      scrapes.fetch_add(1);
    }
  });
  for (int serve = 0; serve < 3; ++serve)
    EXPECT_EQ(front.serve_sequences(drives(4, 2)).size(), 4u);
  stop.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace avd::runtime
