// multi_stream_serve: the serving runtime end to end.
//
// Serves four concurrent scripted drives (different seeds, one passing
// through countryside) through the adaptive pipeline with a 4-worker detect
// pool, prints per-stream adaptive summaries and per-stage metrics from the
// registry, then exports the traced serve as a Chrome/Perfetto trace.
//
//   build/examples/multi_stream_serve [trace.json]
#include <cstdio>
#include <string>
#include <vector>

#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/stream_server.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "avd/soc/trace_export.hpp"

int main(int argc, char** argv) {
  const std::string trace_path =
      argc > 1 ? argv[1] : "multi_stream_trace.json";

  std::printf("=== multi_stream_serve ===\n\n");
  std::printf("training models (small budget)...\n");
  avd::core::TrainingBudget budget;
  budget.vehicle_pos = budget.vehicle_neg = 60;
  budget.pedestrian_pos = budget.pedestrian_neg = 40;
  budget.dbn_windows_per_class = 60;
  budget.pairing_scenes = 30;
  const avd::core::SystemModels models = avd::core::build_system_models(budget);

  // One shared pool for every level of parallelism: the sliding-window
  // scanner splits pyramid levels across it, and the server's detect
  // workers (scan_pool below) would fan cross-stream batches onto it too.
  // Batching is off here, so each detect worker takes one frame at a time;
  // either way, no second thread pool and identical detections.
  avd::runtime::ThreadPool scan_pool(4);

  avd::core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  cfg.sliding.pool = &scan_pool;
  const avd::core::AdaptiveSystem system(models, cfg);

  // Four cameras: the canonical day->tunnel->dusk->dark drive under four
  // different worlds (seeds), one of them on countryside roads.
  std::vector<avd::data::DriveSequence> streams;
  for (std::uint64_t i = 0; i < 4; ++i) {
    avd::data::SequenceSpec spec =
        avd::data::DriveSequence::canonical_drive({320, 180}, 10);
    spec.seed = 40 + i;
    if (i == 3)
      for (avd::data::DriveSegment& seg : spec.segments)
        seg.road = avd::data::RoadType::Countryside;
    streams.emplace_back(spec);
  }

  avd::runtime::StreamServerConfig sc;
  sc.ingest_workers = 2;
  sc.detect_workers = 4;
  sc.queue_capacity = 8;
  // Try OverflowPolicy::DropOldest here to watch load shedding: overflowing
  // frames come back as vehicle_processed=false, the serving-layer analogue
  // of the paper's one-frame reconfiguration drop.
  sc.detect_policy = avd::runtime::OverflowPolicy::Block;
  sc.scan_pool = &scan_pool;
  avd::runtime::StreamServer server(system, sc);

  std::printf("serving %zu streams (%d frames each) with %d detect workers...\n\n",
              streams.size(), streams[0].frame_count(), sc.detect_workers);
  avd::obs::Tracer& tracer = avd::obs::Tracer::global();
  tracer.set_enabled(true);
  const std::vector<avd::runtime::StreamResult> results =
      server.serve_sequences(streams);
  tracer.set_enabled(false);

  std::printf("%6s %7s %9s %8s %13s %13s %7s\n", "stream", "frames",
              "reconfigs", "dropped", "availability", "bp-dropped", "recall");
  for (const avd::runtime::StreamResult& r : results) {
    const avd::det::MatchResult match = r.report.total_vehicle_match();
    const int truth = match.true_positives + match.false_negatives;
    std::printf("%6d %7zu %9d %8d %12.1f%% %13llu %6.1f%%\n", r.stream,
                r.report.frames.size(), r.report.reconfig_count(),
                r.report.dropped_vehicle_frames(),
                100.0 * r.report.vehicle_availability(),
                static_cast<unsigned long long>(r.backpressure_drops),
                truth > 0 ? 100.0 * match.true_positives / truth : 0.0);
  }

  // Per-stage series live in the process-wide registry; this process runs
  // one serve, so they hold exactly its frames.
  std::printf("\nper-stage metrics:\n");
  avd::obs::MetricsRegistry& registry = avd::obs::MetricsRegistry::global();
  for (const char* stage : {"ingest", "control", "detect", "report"}) {
    const avd::obs::Labels labels = {{"stage", stage}};
    const avd::obs::HistogramSummary lat =
        registry.histogram("runtime.stage.latency_ns", labels).summary();
    std::printf("  %-8s processed=%-5llu queue_hw=%-3.0f p50=%7.2fms "
                "p95=%7.2fms p99=%7.2fms\n",
                stage,
                static_cast<unsigned long long>(
                    registry.counter("runtime.stage.processed", labels)
                        .value()),
                registry.gauge("runtime.stage.queue_high_water", labels)
                    .value(),
                static_cast<double>(lat.p50_ns) / 1e6,
                static_cast<double>(lat.p95_ns) / 1e6,
                static_cast<double>(lat.p99_ns) / 1e6);
  }

  // The traced serve out through the soc trace path, merged with stream 0's
  // simulated-time session log: load the file in chrome://tracing or
  // ui.perfetto.dev.
  const std::vector<avd::obs::SpanRecord> spans = tracer.drain();
  avd::soc::write_chrome_trace(results[0].report.log, spans, trace_path);
  std::printf("\nwrote trace to %s (%zu spans)\n", trace_path.c_str(),
              spans.size());

  // Sanity: stream 0 served concurrently == stream 0 run sequentially.
  const avd::core::AdaptiveRunReport sequential = system.run(streams[0]);
  const bool same =
      sequential.frames.size() == results[0].report.frames.size() &&
      sequential.reconfig_count() == results[0].report.reconfig_count() &&
      sequential.total_vehicle_match().true_positives ==
          results[0].report.total_vehicle_match().true_positives;
  std::printf("stream 0 matches sequential AdaptiveSystem::run(): %s\n",
              same ? "yes" : "NO");
  return same ? 0 : 1;
}
