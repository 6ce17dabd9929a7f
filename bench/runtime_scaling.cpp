// Runtime scaling: aggregate throughput of the avd::runtime StreamServer
// as the detect worker pool grows, at 1/2/4/8 concurrent camera streams.
//
// The detect stage models a blocking dispatch to the PL accelerator
// (simulated_accel_ms): on the paper's Zynq the fabric processes one frame
// per 20 ms and the ARM core's job is to keep it fed. Worker scaling here
// therefore measures what the serving layer controls — how well concurrent
// streams overlap accelerator occupancy — independent of host CPU count.
// A second section reports the host-CPU-bound mode (run_detectors = true)
// for machines with real cores to spare.
//
// Acceptance (ISSUE 1): >1.8x aggregate throughput from 1 -> 4 workers on
// >= 2 streams, with per-stream results bit-identical to the sequential
// AdaptiveSystem::run() path.
#include <chrono>
#include <cstdio>
#include <vector>

#include "avd/obs/metrics.hpp"
#include "avd/runtime/stream_server.hpp"
#include "bench_report.hpp"

namespace {

using avd::core::AdaptiveRunReport;
using Clock = std::chrono::steady_clock;

avd::core::TrainingBudget tiny_budget() {
  avd::core::TrainingBudget b;
  b.vehicle_pos = b.vehicle_neg = 30;
  b.pedestrian_pos = b.pedestrian_neg = 20;
  b.dbn_windows_per_class = 40;
  b.pairing_scenes = 20;
  return b;
}

std::vector<avd::data::DriveSequence> make_streams(int n, int frames_per_segment) {
  std::vector<avd::data::DriveSequence> seqs;
  for (int i = 0; i < n; ++i) {
    avd::data::SequenceSpec spec =
        avd::data::DriveSequence::canonical_drive({240, 136}, frames_per_segment);
    spec.seed = 7000 + static_cast<std::uint64_t>(i);
    seqs.emplace_back(spec);
  }
  return seqs;
}

bool reports_identical(const AdaptiveRunReport& a, const AdaptiveRunReport& b) {
  if (a.frames.size() != b.frames.size()) return false;
  if (a.reconfigs.size() != b.reconfigs.size()) return false;
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    const auto& x = a.frames[i];
    const auto& y = b.frames[i];
    if (x.sensed != y.sensed || x.active_config != y.active_config ||
        x.vehicle_processed != y.vehicle_processed ||
        x.light_level != y.light_level ||
        x.vehicle_match.true_positives != y.vehicle_match.true_positives ||
        x.vehicle_match.false_positives != y.vehicle_match.false_positives)
      return false;
  }
  for (std::size_t i = 0; i < a.reconfigs.size(); ++i)
    if (a.reconfigs[i].start.ps != b.reconfigs[i].start.ps ||
        a.reconfigs[i].end.ps != b.reconfigs[i].end.ps)
      return false;
  return true;
}

struct Measurement {
  double fps = 0.0;
  bool identical = true;
};

Measurement measure(const avd::core::AdaptiveSystem& system, int n_streams,
                    int detect_workers, int frames_per_segment,
                    double accel_ms, bool check_identical) {
  const std::vector<avd::data::DriveSequence> streams =
      make_streams(n_streams, frames_per_segment);
  int total_frames = 0;
  for (const auto& s : streams) total_frames += s.frame_count();

  avd::runtime::StreamServerConfig sc;
  sc.ingest_workers = 2;
  sc.detect_workers = detect_workers;
  sc.queue_capacity = 16;
  sc.simulated_accel_ms = accel_ms;
  avd::runtime::StreamServer server(system, sc);

  const Clock::time_point t0 = Clock::now();
  const std::vector<avd::runtime::StreamResult> results =
      server.serve_sequences(streams);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  Measurement m;
  m.fps = static_cast<double>(total_frames) / seconds;
  if (check_identical) {
    for (std::size_t s = 0; s < streams.size(); ++s)
      m.identical = m.identical &&
                    reports_identical(results[s].report, system.run(streams[s]));
  }
  return m;
}

void run_table(const avd::core::AdaptiveSystem& system, const char* title,
               int frames_per_segment, double accel_ms, bool check_identical,
               avd::bench::BenchReport* report = nullptr) {
  std::printf("%s\n", title);
  std::printf("%8s | %10s %10s %10s %10s | %11s %10s\n", "streams",
              "1 worker", "2 workers", "4 workers", "8 workers", "4w/1w",
              "identical");
  bool accept = false;
  for (const int n_streams : {1, 2, 4, 8}) {
    double fps1 = 0.0, fps4 = 0.0;
    bool identical = true;
    std::printf("%8d |", n_streams);
    for (const int workers : {1, 2, 4, 8}) {
      const Measurement m = measure(system, n_streams, workers,
                                    frames_per_segment, accel_ms,
                                    check_identical);
      identical = identical && m.identical;
      if (workers == 1) fps1 = m.fps;
      if (workers == 4) fps4 = m.fps;
      std::printf(" %10.1f", m.fps);
    }
    const double speedup = fps1 > 0.0 ? fps4 / fps1 : 0.0;
    std::printf(" | %10.2fx %10s\n", speedup,
                check_identical ? (identical ? "yes" : "NO") : "-");
    if (n_streams >= 2 && speedup > 1.8) accept = true;
    if (report != nullptr) {
      char key[64];
      std::snprintf(key, sizeof key, "accel.streams%d.speedup_1w_to_4w",
                    n_streams);
      report->metric(key, speedup, "x");
      if (check_identical)
        report->check("accel.streams" + std::to_string(n_streams) +
                          ".identical_to_sequential",
                      identical);
    }
  }
  std::printf("  (aggregate frames/s; identical = per-stream reports match "
              "sequential run())\n");
  if (check_identical) {
    std::printf("  acceptance >1.8x at 1->4 workers on >=2 streams: %s\n\n",
                accept ? "PASS" : "FAIL");
    if (report != nullptr)
      report->check("accel.speedup_over_1.8x_on_2plus_streams", accept);
  } else {
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf("=== bench: runtime_scaling ===\n\n");
  std::printf("training models (tiny budget)...\n");
  avd::bench::BenchReport report("runtime_scaling");
  const avd::core::SystemModels models =
      avd::core::build_system_models(tiny_budget());

  // Part 1 — serving-layer scaling with the accelerator model. Each frame
  // occupies its detect worker for 4 ms (a 5x-sped-up stand-in for the
  // paper's 20 ms PL frame time), so throughput is bounded by how many
  // accelerator dispatches the runtime keeps in flight, not by host cores.
  {
    avd::core::AdaptiveSystemConfig cfg;
    cfg.run_detectors = false;  // control plane + accelerator occupancy
    avd::core::AdaptiveSystem system(models, cfg);
    run_table(system,
              "-- accelerator-occupancy mode (4 ms/frame PL model) --", 25,
              4.0, true, &report);
  }

  // Part 2 — host-CPU-bound mode: the software detectors do the pixel work
  // on the host. Scaling here tracks physical core count (on a 1-core
  // container it stays flat — that is the machine, not the runtime).
  {
    avd::core::AdaptiveSystemConfig cfg;
    cfg.run_detectors = true;
    avd::core::AdaptiveSystem system(models, cfg);
    run_table(system, "-- host-CPU detection mode (software pipelines) --", 3,
              0.0, false);
  }

  // One more loaded configuration, then the per-stage registry series
  // (runtime.stage.*{stage=}), which count every serve in this process.
  {
    avd::core::AdaptiveSystemConfig cfg;
    cfg.run_detectors = false;
    avd::core::AdaptiveSystem system(models, cfg);
    avd::runtime::StreamServerConfig sc;
    sc.detect_workers = 4;
    sc.simulated_accel_ms = 4.0;
    avd::runtime::StreamServer server(system, sc);
    (void)server.serve_sequences(make_streams(4, 25));
  }
  avd::obs::MetricsRegistry& registry = avd::obs::MetricsRegistry::global();
  std::printf("stage metrics (every serve above):\n");
  for (const char* stage : {"ingest", "control", "detect", "report"}) {
    const avd::obs::Labels labels = {{"stage", stage}};
    const avd::obs::HistogramSummary lat =
        registry.histogram("runtime.stage.latency_ns", labels).summary();
    std::printf("  %-8s processed=%-6llu p50=%.3fms p99=%.3fms\n", stage,
                static_cast<unsigned long long>(
                    registry.counter("runtime.stage.processed", labels)
                        .value()),
                static_cast<double>(lat.p50_ns) / 1e6,
                static_cast<double>(lat.p99_ns) / 1e6);
  }
  std::printf("\n");
  // Tail latency over every frame the benchmark served, from the always-on
  // telemetry histogram the runtime feeds per frame. This is the headline
  // latency number scripts/bench_diff guards against regressions.
  const double p99_ms =
      static_cast<double>(
          registry.histogram("runtime.frame.latency_ns").percentile_ns(0.99)) /
      1e6;
  std::printf("frame latency p99 (all served frames): %.3f ms\n\n", p99_ms);
  report.metric("runtime.frame.latency_p99_ms", p99_ms, "ms", "lower");
  report.note("accel_model", "4 ms/frame simulated PL dispatch, 25 frames/segment");
  report.write();
  return 0;
}
