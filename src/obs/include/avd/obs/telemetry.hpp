// Always-on telemetry: a background thread that snapshots a MetricsRegistry
// on a fixed period, hands each sample with its predecessor to `on_sample`
// (the window the SLO monitor evaluates) and appends it to an optional
// JSONL sink — the machine-readable perf trajectory offline tooling reads.
//
// Design constraints, in order:
//  * Zero hot-path cost: sampling reads the registry's relaxed atomics from
//    one background thread; pipeline workers never see the exporter.
//  * Bounded memory: only the latest sample is kept, as the next window's
//    start (total_samples() counts everything).
//  * Clean shutdown: stop() (and the destructor) wakes the thread, takes one
//    final sample so short runs are never empty, flushes the sink and joins.
//
// Timestamps share the span tracer's timebase (Tracer::global().now_ns())
// so telemetry rows line up with trace spans in post-processing.
//
// JSONL schema, one sample per line (parses with obs::json):
//   {"t_ns":<u64>,"seq":<u64>,"counters":{...},"gauges":{...},
//    "histograms":{...}}
// `seq` increases by exactly 1 per row: a consumer can detect reordering or
// duplication in transport.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "avd/obs/metrics.hpp"

namespace avd::obs {

/// One row of the telemetry time series.
struct TelemetrySample {
  std::uint64_t t_ns = 0;  ///< Tracer::global().now_ns() at snapshot time
  std::uint64_t seq = 0;   ///< 0-based sample index, gapless per exporter
  MetricsSnapshot metrics;
};

/// One JSONL line for `sample` (no trailing newline).
[[nodiscard]] std::string to_json(const TelemetrySample& sample);

struct TelemetryConfig {
  /// Snapshot period. The paper's frame budget is 20 ms; the default samples
  /// at 50 Hz so every frame window lands in some sample's delta.
  std::chrono::milliseconds period{20};
  /// Append-only JSONL sink; empty = in-memory only.
  std::string jsonl_path;
  /// Fold labeled series into their base names (MetricsRegistry::rollup())
  /// right before each snapshot, so every row carries the per-stream and the
  /// fleet view. O(series) on the exporter thread, zero on the hot path.
  bool rollup_before_sample = false;
  /// Invoked on the exporter thread after each sample lands, with the
  /// previous sample (nullptr on the first) and the new one — the hook the
  /// SLO monitor evaluates windows from. Keep it cheap; it blocks sampling.
  std::function<void(const TelemetrySample* prev, const TelemetrySample& cur)>
      on_sample;
};

class TelemetryExporter {
 public:
  explicit TelemetryExporter(MetricsRegistry& registry,
                             TelemetryConfig config = {});
  ~TelemetryExporter();  ///< stop()s if still running
  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Launch the background thread (no-op when already running). Opens the
  /// JSONL sink; throws std::runtime_error if the sink cannot be opened.
  void start();
  /// Take one final sample, flush the sink, join the thread. Idempotent.
  void stop();
  [[nodiscard]] bool running() const;

  /// Take a sample right now, from the calling thread (works whether or not
  /// the background thread runs — tests and one-shot dumps use this).
  void sample_now();

  /// Samples taken since construction.
  [[nodiscard]] std::uint64_t total_samples() const;

  [[nodiscard]] const TelemetryConfig& config() const { return config_; }

 private:
  void run_loop();
  void take_sample();

  MetricsRegistry* registry_;
  TelemetryConfig config_;

  mutable std::mutex mutex_;  ///< guards last_, total_samples_, sink_
  TelemetrySample last_;      ///< the latest sample (once total_samples_ > 0)
  std::uint64_t total_samples_ = 0;
  std::ofstream sink_;

  mutable std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace avd::obs
