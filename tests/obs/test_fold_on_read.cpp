// The fleet view is folded where it is read: MetricsRegistry::snapshot()
// derives the fleet bases and per-shard marginals from the stored leaves,
// and every export takes them from there. A scrape writes no derived series
// into the registry, and the /metricsz bodies are pinned byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "avd/obs/metrics.hpp"
#include "avd/obs/ops_server.hpp"
#include "avd/obs/telemetry.hpp"

namespace avd::obs {
namespace {

// A fleet-shaped registry: every kind of series the fold has a rule for.
void fill_fleet(MetricsRegistry& reg) {
  // stream= leaves, one with a value that needs escaping.
  reg.counter("runtime.frames", {{"stream", "0"}}).inc(40);
  reg.counter("runtime.frames", {{"stream", "1"}}).inc(2);
  reg.counter("runtime.frames", {{"stream", "a\"b"}}).inc(5);
  reg.gauge("runtime.degrade.level", {{"stream", "0"}}).set(1.0);
  reg.gauge("runtime.degrade.level", {{"stream", "1"}}).set(2.5);
  for (std::uint64_t ns : {1'200'000u, 3'400'000u, 18'000'000u})
    reg.histogram("runtime.frame.latency_ns", {{"stream", "0"}}).record_ns(ns);
  for (std::uint64_t ns : {900'000u, 25'000'000u})
    reg.histogram("runtime.frame.latency_ns", {{"stream", "1"}}).record_ns(ns);
  // shard= x stream= leaves: per-shard marginals and the fleet base.
  reg.counter("fleet.frames", {{"shard", "0"}, {"stream", "a"}}).inc(3);
  reg.counter("fleet.frames", {{"shard", "0"}, {"stream", "b"}}).inc(4);
  reg.counter("fleet.frames", {{"shard", "1"}, {"stream", "c"}}).inc(5);
  reg.gauge("fleet.depth", {{"shard", "0"}, {"stream", "a"}}).set(0.25);
  reg.gauge("fleet.depth", {{"shard", "1"}, {"stream", "c"}}).set(2.0);
  reg.histogram("fleet.latency_ns", {{"shard", "0"}, {"stream", "a"}})
      .record_ns(700);
  reg.histogram("fleet.latency_ns", {{"shard", "1"}, {"stream", "c"}})
      .record_ns(90'000);
  // A directly written parent beside its leaf: not a leaf, and replaced
  // by the fold of its leaves.
  reg.counter("fleet.frames", {{"shard", "2"}}).inc(1000);
  reg.counter("fleet.frames", {{"shard", "2"}, {"stream", "d"}}).inc(7);
  // stage= series, alone and beside shard=: never folded.
  for (const char* stage : {"detect", "ingest"}) {
    reg.counter("runtime.stage.processed", {{"stage", stage}}).inc(120);
    reg.gauge("runtime.stage.queue_high_water", {{"stage", stage}}).set(3.0);
    reg.histogram("runtime.stage.latency_ns", {{"stage", stage}})
        .record_ns(50'000);
    reg.counter("sharded.processed", {{"shard", "0"}, {"stage", stage}})
        .inc(60);
  }
  // A directly written base beside stream= leaves: replaced by the fold.
  reg.counter("runtime.deadline_miss").inc(99);
  reg.counter("runtime.deadline_miss", {{"stream", "0"}}).inc(5);
  reg.counter("runtime.deadline_miss", {{"stream", "1"}}).inc(1);
  // The fold target "x.y" sorts before the stored "x_y", so it keeps the
  // family name x_y and the stored series takes x_y_2.
  reg.counter("x_y").inc(1);
  reg.counter("x.y", {{"stream", "0"}}).inc(2);
  // Plain series no fold touches.
  reg.counter("detect.hogsvm.windows_scanned").inc(12345);
  reg.gauge("soc.bandwidth_gbps").set(3.75);
  reg.histogram("core.control_step_ns").record_ns(4'321);
}

// The process-identity series vary by build and by run: the value after
// `key`, up to `end`, becomes "@".
std::string mask_after(std::string body, const std::string& key, char end) {
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return body;
  const std::size_t from = at + key.size();
  body.replace(from, body.find(end, from) - from, "@");
  return body;
}

// /metricsz of fill_fleet(): the body every scrape of it must produce, byte
// for byte (captured when scrapes still stored the fold in the registry).
constexpr const char* kGoldenPrometheus =
    R"(# HELP detect_hogsvm_windows_scanned detect.hogsvm.windows_scanned
# TYPE detect_hogsvm_windows_scanned counter
detect_hogsvm_windows_scanned 12345
# HELP fleet_frames fleet.frames
# TYPE fleet_frames counter
fleet_frames 19
fleet_frames{shard="0",stream="a"} 3
fleet_frames{shard="0",stream="b"} 4
fleet_frames{shard="0"} 7
fleet_frames{shard="1",stream="c"} 5
fleet_frames{shard="1"} 5
fleet_frames{shard="2",stream="d"} 7
fleet_frames{shard="2"} 7
# HELP runtime_deadline_miss runtime.deadline_miss
# TYPE runtime_deadline_miss counter
runtime_deadline_miss 6
runtime_deadline_miss{stream="0"} 5
runtime_deadline_miss{stream="1"} 1
# HELP runtime_frames runtime.frames
# TYPE runtime_frames counter
runtime_frames 47
runtime_frames{stream="0"} 40
runtime_frames{stream="1"} 2
runtime_frames{stream="a\"b"} 5
# HELP runtime_stage_processed runtime.stage.processed
# TYPE runtime_stage_processed counter
runtime_stage_processed{stage="detect"} 120
runtime_stage_processed{stage="ingest"} 120
# HELP sharded_processed sharded.processed
# TYPE sharded_processed counter
sharded_processed{shard="0",stage="detect"} 60
sharded_processed{shard="0",stage="ingest"} 60
# HELP x_y x.y
# TYPE x_y counter
x_y 2
x_y{stream="0"} 2
# HELP x_y_2 x_y
# TYPE x_y_2 counter
x_y_2 1
# HELP build_info build.info
# TYPE build_info gauge
build_info{@} 1
# HELP fleet_depth fleet.depth
# TYPE fleet_depth gauge
fleet_depth 2.25
fleet_depth{shard="0",stream="a"} 0.25
fleet_depth{shard="0"} 0.25
fleet_depth{shard="1",stream="c"} 2
fleet_depth{shard="1"} 2
# HELP process_uptime_seconds process.uptime_seconds
# TYPE process_uptime_seconds gauge
process_uptime_seconds @
# HELP runtime_degrade_level runtime.degrade.level
# TYPE runtime_degrade_level gauge
runtime_degrade_level 3.5
runtime_degrade_level{stream="0"} 1
runtime_degrade_level{stream="1"} 2.5
# HELP runtime_stage_queue_high_water runtime.stage.queue_high_water
# TYPE runtime_stage_queue_high_water gauge
runtime_stage_queue_high_water{stage="detect"} 3
runtime_stage_queue_high_water{stage="ingest"} 3
# HELP soc_bandwidth_gbps soc.bandwidth_gbps
# TYPE soc_bandwidth_gbps gauge
soc_bandwidth_gbps 3.75
# HELP core_control_step_ns core.control_step_ns
# TYPE core_control_step_ns summary
core_control_step_ns{quantile="0.5"} 4352
core_control_step_ns{quantile="0.95"} 4352
core_control_step_ns{quantile="0.99"} 4352
core_control_step_ns_sum 4321
core_control_step_ns_count 1
# HELP fleet_latency_ns fleet.latency_ns
# TYPE fleet_latency_ns summary
fleet_latency_ns{quantile="0.5"} 672
fleet_latency_ns{quantile="0.95"} 86016
fleet_latency_ns{quantile="0.99"} 86016
fleet_latency_ns_sum 90700
fleet_latency_ns_count 2
fleet_latency_ns{shard="0",stream="a",quantile="0.5"} 672
fleet_latency_ns{shard="0",stream="a",quantile="0.95"} 672
fleet_latency_ns{shard="0",stream="a",quantile="0.99"} 672
fleet_latency_ns_sum{shard="0",stream="a"} 700
fleet_latency_ns_count{shard="0",stream="a"} 1
fleet_latency_ns{shard="0",quantile="0.5"} 672
fleet_latency_ns{shard="0",quantile="0.95"} 672
fleet_latency_ns{shard="0",quantile="0.99"} 672
fleet_latency_ns_sum{shard="0"} 700
fleet_latency_ns_count{shard="0"} 1
fleet_latency_ns{shard="1",stream="c",quantile="0.5"} 86016
fleet_latency_ns{shard="1",stream="c",quantile="0.95"} 86016
fleet_latency_ns{shard="1",stream="c",quantile="0.99"} 86016
fleet_latency_ns_sum{shard="1",stream="c"} 90000
fleet_latency_ns_count{shard="1",stream="c"} 1
fleet_latency_ns{shard="1",quantile="0.5"} 86016
fleet_latency_ns{shard="1",quantile="0.95"} 86016
fleet_latency_ns{shard="1",quantile="0.99"} 86016
fleet_latency_ns_sum{shard="1"} 90000
fleet_latency_ns_count{shard="1"} 1
# HELP runtime_frame_latency_ns runtime.frame.latency_ns
# TYPE runtime_frame_latency_ns summary
runtime_frame_latency_ns{quantile="0.5"} 3276800
runtime_frame_latency_ns{quantile="0.95"} 24117248
runtime_frame_latency_ns{quantile="0.99"} 24117248
runtime_frame_latency_ns_sum 48500000
runtime_frame_latency_ns_count 5
runtime_frame_latency_ns{stream="0",quantile="0.5"} 3276800
runtime_frame_latency_ns{stream="0",quantile="0.95"} 17825792
runtime_frame_latency_ns{stream="0",quantile="0.99"} 17825792
runtime_frame_latency_ns_sum{stream="0"} 22600000
runtime_frame_latency_ns_count{stream="0"} 3
runtime_frame_latency_ns{stream="1",quantile="0.5"} 884736
runtime_frame_latency_ns{stream="1",quantile="0.95"} 24117248
runtime_frame_latency_ns{stream="1",quantile="0.99"} 24117248
runtime_frame_latency_ns_sum{stream="1"} 25900000
runtime_frame_latency_ns_count{stream="1"} 2
# HELP runtime_stage_latency_ns runtime.stage.latency_ns
# TYPE runtime_stage_latency_ns summary
runtime_stage_latency_ns{stage="detect",quantile="0.5"} 51200
runtime_stage_latency_ns{stage="detect",quantile="0.95"} 51200
runtime_stage_latency_ns{stage="detect",quantile="0.99"} 51200
runtime_stage_latency_ns_sum{stage="detect"} 50000
runtime_stage_latency_ns_count{stage="detect"} 1
runtime_stage_latency_ns{stage="ingest",quantile="0.5"} 51200
runtime_stage_latency_ns{stage="ingest",quantile="0.95"} 51200
runtime_stage_latency_ns{stage="ingest",quantile="0.99"} 51200
runtime_stage_latency_ns_sum{stage="ingest"} 50000
runtime_stage_latency_ns_count{stage="ingest"} 1
)";

// /metricsz.json of the same registry.
constexpr const char* kGoldenJson =
    R"({"counters":{"detect.hogsvm.windows_scanned":12345,"fleet.frames":19)"
    R"(,"fleet.frames{shard=\"0\",stream=\"a\"}":3)"
    R"(,"fleet.frames{shard=\"0\",stream=\"b\"}":4)"
    R"(,"fleet.frames{shard=\"0\"}":7)"
    R"(,"fleet.frames{shard=\"1\",stream=\"c\"}":5)"
    R"(,"fleet.frames{shard=\"1\"}":5)"
    R"(,"fleet.frames{shard=\"2\",stream=\"d\"}":7)"
    R"(,"fleet.frames{shard=\"2\"}":7,"runtime.deadline_miss":6)"
    R"(,"runtime.deadline_miss{stream=\"0\"}":5)"
    R"(,"runtime.deadline_miss{stream=\"1\"}":1,"runtime.frames":47)"
    R"(,"runtime.frames{stream=\"0\"}":40,"runtime.frames{stream=\"1\"}":2)"
    R"(,"runtime.frames{stream=\"a\\\"b\"}":5)"
    R"(,"runtime.stage.processed{stage=\"detect\"}":120)"
    R"(,"runtime.stage.processed{stage=\"ingest\"}":120)"
    R"(,"sharded.processed{shard=\"0\",stage=\"detect\"}":60)"
    R"(,"sharded.processed{shard=\"0\",stage=\"ingest\"}":60,"x.y":2)"
    R"(,"x.y{stream=\"0\"}":2,"x_y":1},"gauges":{"build.info{@}":1)"
    R"(,"fleet.depth":2.25,"fleet.depth{shard=\"0\",stream=\"a\"}":0.25)"
    R"(,"fleet.depth{shard=\"0\"}":0.25)"
    R"(,"fleet.depth{shard=\"1\",stream=\"c\"}":2,"fleet.depth{shard=\"1\"}":2)"
    R"(,"process.uptime_seconds":@,"runtime.degrade.level":3.5)"
    R"(,"runtime.degrade.level{stream=\"0\"}":1)"
    R"(,"runtime.degrade.level{stream=\"1\"}":2.5)"
    R"(,"runtime.stage.queue_high_water{stage=\"detect\"}":3)"
    R"(,"runtime.stage.queue_high_water{stage=\"ingest\"}":3)"
    R"(,"soc.bandwidth_gbps":3.75})"
    R"(,"histograms":{"core.control_step_ns":{"count":1,"sum_ns":4321)"
    R"(,"mean_ns":4321,"p50_ns":4352,"p95_ns":4352,"p99_ns":4352,"max_ns":4321})"
    R"(,"fleet.latency_ns":{"count":2,"sum_ns":90700,"mean_ns":45350)"
    R"(,"p50_ns":672,"p95_ns":86016,"p99_ns":86016,"max_ns":90000})"
    R"(,"fleet.latency_ns{shard=\"0\",stream=\"a\"}":{"count":1,"sum_ns":700)"
    R"(,"mean_ns":700,"p50_ns":672,"p95_ns":672,"p99_ns":672,"max_ns":700})"
    R"(,"fleet.latency_ns{shard=\"0\"}":{"count":1,"sum_ns":700,"mean_ns":700)"
    R"(,"p50_ns":672,"p95_ns":672,"p99_ns":672,"max_ns":700})"
    R"(,"fleet.latency_ns{shard=\"1\",stream=\"c\"}":{"count":1,"sum_ns":90000)"
    R"(,"mean_ns":90000,"p50_ns":86016,"p95_ns":86016,"p99_ns":86016)"
    R"(,"max_ns":90000},"fleet.latency_ns{shard=\"1\"}":{"count":1)"
    R"(,"sum_ns":90000,"mean_ns":90000,"p50_ns":86016,"p95_ns":86016)"
    R"(,"p99_ns":86016,"max_ns":90000},"runtime.frame.latency_ns":{"count":5)"
    R"(,"sum_ns":48500000,"mean_ns":9700000,"p50_ns":3276800,"p95_ns":24117248)"
    R"(,"p99_ns":24117248,"max_ns":25000000})"
    R"(,"runtime.frame.latency_ns{stream=\"0\"}":{"count":3,"sum_ns":22600000)"
    R"(,"mean_ns":7533333.333333333,"p50_ns":3276800,"p95_ns":17825792)"
    R"(,"p99_ns":17825792,"max_ns":18000000})"
    R"(,"runtime.frame.latency_ns{stream=\"1\"}":{"count":2,"sum_ns":25900000)"
    R"(,"mean_ns":12950000,"p50_ns":884736,"p95_ns":24117248,"p99_ns":24117248)"
    R"(,"max_ns":25000000})"
    R"(,"runtime.stage.latency_ns{stage=\"detect\"}":{"count":1,"sum_ns":50000)"
    R"(,"mean_ns":50000,"p50_ns":51200,"p95_ns":51200,"p99_ns":51200)"
    R"(,"max_ns":50000},"runtime.stage.latency_ns{stage=\"ingest\"}":{"count":1)"
    R"(,"sum_ns":50000,"mean_ns":50000,"p50_ns":51200,"p95_ns":51200)"
    R"(,"p99_ns":51200,"max_ns":50000}}})";

TEST(FoldOnRead, MetricszBodiesMatchGolden) {
  MetricsRegistry reg;
  fill_fleet(reg);
  const std::string prom = mask_after(
      mask_after(prometheus_response(reg).body, "\nbuild_info{", '}'),
      "\nprocess_uptime_seconds ", '\n');
  const std::string json = mask_after(
      mask_after(metrics_json_response(reg).body, "\"build.info{", '}'),
      "\"process.uptime_seconds\":", ',');
  EXPECT_EQ(prom, kGoldenPrometheus);
  EXPECT_EQ(json, kGoldenJson);
}

TEST(FoldOnRead, ScrapesLeaveStoredSeriesUnchanged) {
  MetricsRegistry scraped;
  fill_fleet(scraped);
  const std::string before = to_json(scraped.snapshot());
  (void)prometheus_response(scraped);
  (void)metrics_json_response(scraped);
  TelemetryExporter exporter(scraped);
  exporter.sample_now();

  // The directly written base and parent keep what their writers wrote.
  EXPECT_EQ(scraped.counter("runtime.deadline_miss").value(), 99u);
  EXPECT_EQ(scraped.counter("fleet.frames", {{"shard", "2"}}).value(), 1000u);
  // The view is the one before the scrapes: they set the process identity
  // only in the snapshots they render.
  EXPECT_EQ(to_json(scraped.snapshot()), before);
  // No fold target was stored: looking one up creates it, empty.
  EXPECT_EQ(scraped.counter("runtime.frames").value(), 0u);
  EXPECT_EQ(scraped.counter("fleet.frames", {{"shard", "0"}}).value(), 0u);
  EXPECT_EQ(scraped.gauge("fleet.depth").value(), 0.0);
  EXPECT_EQ(scraped.histogram("runtime.frame.latency_ns").count(), 0u);
}

TEST(FoldOnRead, SnapshotLookupsMatchALinearScan) {
  // A folded shard= x stream= snapshot: leaves, shard marginals and fleet
  // bases of every kind. Each lookup, of every stored name and of names
  // that fall before, between and after them, agrees with a scan.
  MetricsRegistry reg;
  fill_fleet(reg);
  for (int shard = 0; shard < 4; ++shard) {
    for (int stream = 0; stream < 12; ++stream) {
      const Labels labels{{"shard", std::to_string(shard)},
                          {"stream", std::to_string(stream)}};
      reg.counter("runtime.frames", labels).inc(shard * 100 + stream);
      reg.gauge("runtime.queue_depth", labels).set(stream * 0.5);
      reg.histogram("runtime.frame.latency_ns", labels)
          .record_ns(1000u * (stream + 1));
    }
  }
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_GT(snap.counters.size(), 60u);
  const auto sorted_unique = [](const auto& entries) {
    return std::adjacent_find(entries.begin(), entries.end(),
                              [](const auto& a, const auto& b) {
                                return !(a.first < b.first);
                              }) == entries.end();
  };
  EXPECT_TRUE(sorted_unique(snap.counters));
  EXPECT_TRUE(sorted_unique(snap.gauges));
  EXPECT_TRUE(sorted_unique(snap.histograms));

  std::vector<std::string> probes = {"", "!", "~", "runtime", "zzz"};
  const auto add_probes = [&](const auto& entries) {
    for (const auto& [name, v] : entries) {
      probes.push_back(name);
      probes.push_back(name + "~");
      probes.push_back(name.substr(0, name.size() - 1));
    }
  };
  add_probes(snap.counters);
  add_probes(snap.gauges);
  add_probes(snap.histograms);
  const auto scan = [](const auto& entries, const std::string& name) {
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const auto& e) { return e.first == name; });
    return it == entries.end() ? nullptr : &it->second;
  };
  for (const std::string& name : probes) {
    const auto* c = scan(snap.counters, name);
    EXPECT_EQ(snap.counter(name, 12345u), c != nullptr ? *c : 12345u) << name;
    const auto* g = scan(snap.gauges, name);
    EXPECT_EQ(snap.gauge(name, -7.0), g != nullptr ? *g : -7.0) << name;
    EXPECT_EQ(snap.histogram(name), scan(snap.histograms, name)) << name;
  }
}

TEST(FoldOnRead, SetGaugeKeepsTheSnapshotSorted) {
  MetricsRegistry reg;
  fill_fleet(reg);
  MetricsSnapshot snap = reg.snapshot();
  const std::size_t n = snap.gauges.size();
  snap.set_gauge("runtime.degrade.level", 9.0);  // present: set in place
  snap.set_gauge("a.first", 1.0);
  snap.set_gauge("m.middle", 2.0);
  snap.set_gauge("zz.last", 3.0);
  ASSERT_EQ(snap.gauges.size(), n + 3);
  EXPECT_TRUE(std::is_sorted(snap.gauges.begin(), snap.gauges.end()));
  EXPECT_EQ(snap.gauge("runtime.degrade.level"), 9.0);
  EXPECT_EQ(snap.gauge("a.first"), 1.0);
  EXPECT_EQ(snap.gauge("m.middle"), 2.0);
  EXPECT_EQ(snap.gauge("zz.last"), 3.0);
}

}  // namespace
}  // namespace avd::obs
