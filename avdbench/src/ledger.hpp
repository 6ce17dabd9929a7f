// Measurement primitives of the benchmark: the percentile rule, process
// CPU/RSS probes, the per-layer span ledger and the metric report.
//
// Everything here is timed with std::chrono::steady_clock from the
// benchmark's own code; nothing reaches into the avd libraries.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace avdbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Samples a percentile needs beyond it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (p in (0, 100]): the value at rank ceil(p/100 * n)
/// of the sorted samples. Refuses (nullopt) when fewer than kMinBeyond
/// samples lie beyond that rank, so a reported p90 always rests on at least
/// ten slower samples.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double p);

/// Plain median (mean of the middle pair for even n); for small sets such as
/// repeated set-ups, where the percentile rule does not apply.
[[nodiscard]] double median(std::vector<double> samples);

/// Process CPU time (user + system) in seconds.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Per-layer spans recorded around the benchmark's own calls into each
/// layer's public function. Spans stay in memory until the run ends.
class Ledger {
 public:
  struct Span {
    std::string layer;
    int frame = 0;
    double ms = 0.0;
  };

  void add(const std::string& layer, int frame, double ms) {
    spans_.push_back({layer, frame, ms});
  }
  /// Times fn() and records it as one span of `layer`; returns fn()'s value.
  template <typename Fn>
  auto time(const std::string& layer, int frame, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    auto out = fn();
    add(layer, frame, ms_between(t0, Clock::now()));
    return out;
  }

  /// Sum of a layer's spans divided by `frames`.
  [[nodiscard]] double per_frame(const std::string& layer, int frames) const;
  /// Every span of `layer`, in recording order.
  [[nodiscard]] std::vector<double> samples(const std::string& layer) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// One named measurement. `samples` is how many observations it rests on.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// The run's outcome: metrics by name, the correctness gates and the frame
/// accounting. Printed as one JSON line for run.py to split into the
/// contract line and the full report.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// A percentile metric; a refused percentile fails the run (the workload
  /// ran too few frames to support it) and is recorded as a failed gate.
  void set_percentile(const std::string& name, const std::vector<double>& xs,
                      double p, const std::string& unit);
  /// Records a named correctness gate; a failed gate fails the run and its
  /// `frames` count as failed.
  void gate(const std::string& name, bool ok, std::uint64_t frames = 0);
  void attempt(std::uint64_t frames) { attempted_ += frames; }
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  [[nodiscard]] bool correct() const;
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..},"gates":{..},
  ///  "notes":{..}} on one line, every value with all its digits.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, bool> gates_;
  std::map<std::string, std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans as a JSON array of {"layer","frame","ms"} objects.
[[nodiscard]] std::string spans_to_json(const Ledger& ledger);

}  // namespace avdbench
