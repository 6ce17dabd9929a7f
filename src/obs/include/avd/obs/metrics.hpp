// Named metrics: counters, gauges and latency histograms behind one
// registry, with JSON and Prometheus text exposition — the one metrics store
// of the stack (the runtime's per-stage and per-stream series, the
// detectors' counters, the simulation's ARM-performance-counter reads).
//
// Series can carry label dimensions (stream=<id>, shard=<id>, stage=<name>,
// ...): labels flatten into the registry name via labeled_name(), and each
// labeled series is an ordinary lock-free metric. The registry holds only
// what instrumentation writes; the fleet view — the population series
// (stream=, shard=) folded into the unlabeled series of the same base name
// and into per-shard marginals — is computed by snapshot() when it is read,
// so per-stream and fleet views export side by side at O(series) cost.
//
// Thread safety: every mutator is a relaxed atomic operation, safe and cheap
// from any thread. Registry lookups (counter()/gauge()/histogram()) take a
// mutex — resolve them once and keep the returned reference; entries are
// never deallocated while the registry lives, so references stay valid
// (reset_values() zeroes values but keeps registrations and addresses).
//
// Read-side contract: counter/gauge reads are exact. Histogram snapshots
// taken while writers are still recording are approximate (count/sum/bins
// may mutually disagree mid-update); see Histogram::percentile_ns.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace avd::obs {

/// The exact Content-Type the text exposition format must be served under —
/// Prometheus negotiates on the version parameter, so ad-hoc "text/plain"
/// responses are not conformant. Used by OpsServer's /metricsz.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// One label dimension of a metric series, as sorted key/value pairs
/// (`{{"stream", "3"}}`, or `{{"shard", "1"}, {"stream", "3"}}` from the
/// sharded front door). Labels
/// are flattened into the series' registry name by labeled_name(), so a
/// labeled series costs exactly what an unlabeled one does after the
/// one-time lookup: resolve the reference once, mutate relaxed atomics.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical flat rendering of a labeled series: `name{k="v",...}` with keys
/// sorted and sanitised to [a-zA-Z0-9_] and values escaped (\\ \" \n). This
/// string is simultaneously the registry key, the JSON object key and — via
/// parse_labeled_name — the Prometheus series identity, so every view of a
/// labeled metric agrees on what it is. Braces in `name` itself are mapped
/// to '_' to keep the rendering unambiguous. Empty labels return `name`
/// unchanged.
[[nodiscard]] std::string labeled_name(std::string_view name, Labels labels);

/// A flat series name split back into base name + unescaped labels.
struct ParsedSeriesName {
  std::string base;
  Labels labels;
};

/// Inverse of labeled_name: nullopt when `flat` is not a strict labeled
/// rendering (no '{', bad key syntax, bad escape, trailing characters) — in
/// which case it is a plain unlabeled name.
[[nodiscard]] std::optional<ParsedSeriesName> parse_labeled_name(
    std::string_view flat);

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written scalar (bandwidth, queue depth, light level, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Summary of one histogram, safe to copy and serialise. Meaningful only
/// once writers have quiesced (see Histogram).
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  double mean_ns = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Lock-free log-linear latency histogram over nanosecond samples.
/// Values 0..15 get exact unit bins; above that, 8 sub-buckets per
/// power-of-two octave (≤ ~6-7 % relative error on the representative value).
///
/// Recording is a few relaxed atomic adds. Reads taken mid-run may observe
/// torn state (a sample counted in `count()` but not yet binned, or vice
/// versa); percentile_ns() computes from a single self-consistent copy of
/// the bins, so a torn read degrades to a slightly-off quantile, never an
/// out-of-range bin. Exact summaries require quiesced writers.
class Histogram {
 public:
  static constexpr int kLinearBins = 16;
  static constexpr int kSubBuckets = 8;
  static constexpr int kOctaves = 60;  // covers > 10^18 ns
  static constexpr int kBins = kLinearBins + kSubBuckets * kOctaves;

  void record_ns(std::uint64_t ns) {
    bins_[static_cast<std::size_t>(bin_index(ns))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    update_max(max_ns_, ns);
  }
  void record(std::chrono::nanoseconds d) {
    record_ns(d.count() < 0 ? 0u : static_cast<std::uint64_t>(d.count()));
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_ns() const {
    return max_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_ns() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum_ns()) / static_cast<double>(n);
  }

  /// Approximate p-quantile (p in [0,1]) as the representative value of the
  /// first bin whose cumulative count reaches p * total, where total is the
  /// sum of one consistent copy of the bins (not the count() counter — the
  /// two can disagree mid-record). 0 when empty.
  [[nodiscard]] std::uint64_t percentile_ns(double p) const;

  [[nodiscard]] HistogramSummary summary() const;

  /// Add every bin/count/sum of `other` into this histogram (max is joined).
  /// Relaxed adds, so concurrent readers see the usual approximate state.
  void merge_from(const Histogram& other);

  void reset();

  [[nodiscard]] static int bin_index(std::uint64_t ns);
  /// Midpoint of the value range bin `index` covers.
  [[nodiscard]] static std::uint64_t bin_value(int index);

 private:
  static void update_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBins> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Point-in-time copy of every metric in a registry, safe to hold, diff and
/// serialise after the registry has moved on. Entries are sorted by name,
/// fold targets included (see MetricsRegistry::snapshot()). This is the unit
/// a telemetry sample carries.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;

  /// Value of the named counter, or `fallback` when absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name,
                                      std::uint64_t fallback = 0) const;
  [[nodiscard]] double gauge(std::string_view name,
                             double fallback = 0.0) const;
  /// The named histogram summary, or nullptr when absent.
  [[nodiscard]] const HistogramSummary* histogram(std::string_view name) const;
};

/// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":...}}}
/// with names sorted; parses with obs::json.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

/// Owns named metrics. Lookup is find-or-create by name; the same name
/// always returns the same object, so components instrumented independently
/// aggregate into one metric. Counter, gauge and histogram namespaces are
/// separate (one name may exist in each).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the built-in instrumentation publishes into.
  static MetricsRegistry& global();

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Labeled lookups: find-or-create the series labeled_name(name, labels).
  /// Same contract as the unlabeled forms — resolve once (the lookup takes
  /// the registry mutex and builds the flat name), then mutate the returned
  /// reference lock-free from any thread.
  [[nodiscard]] Counter& counter(const std::string& name, const Labels& labels);
  [[nodiscard]] Gauge& gauge(const std::string& name, const Labels& labels);
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     const Labels& labels);

  /// Zero every value. Registrations (and therefore references handed out
  /// by counter()/gauge()/histogram()) survive.
  void reset_values();

  /// Copy every metric's current value (histograms as summaries), with the
  /// fleet view folded in. Every population *leaf* series — one whose labels
  /// are all population labels, stream= and shard= — folds into the
  /// unlabeled series of its base name: `runtime.frames{stream="0"}` +
  /// `runtime.frames{stream="1"}` give `runtime.frames` (counters and gauges
  /// sum; histograms merge bins). A series with any other label
  /// (`runtime.stage.processed{stage="detect"}`) is never folded: its
  /// siblings measure different things, and their sum would count one frame
  /// once per stage. Leaves with two or more labels also fold into their
  /// *parent* marginal — the series with the last sorted label dropped — so
  /// a sharded fleet's `runtime.frames{shard="0",stream="3"}` leaves also
  /// give `runtime.frames{shard="0"}`. A series that is another series'
  /// parent is not a leaf, and a stored series with a fold target's name
  /// (a base or a marginal written directly) is replaced by the fold. The
  /// registry is never written: the maps are walked under the mutex, the
  /// reads and merges run outside it. Safe with live writers under the
  /// usual read-side contract: counters/gauges are exact, histogram
  /// summaries approximate.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// obs::to_json(snapshot()).
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format of snapshot(): counters and gauges
  /// as-is, histograms as summaries (quantile series + _sum + _count). Labeled
  /// series (labeled_name renderings) are split back into base name +
  /// label set: the base is sanitised, the label values re-escaped for the
  /// exposition (\\ \" \n), and every series of one family (same raw base,
  /// any labels) shares one sanitised name, one # HELP and one # TYPE
  /// line. Base names are sanitised to [a-zA-Z0-9_:] with other characters
  /// mapped to '_'; when two raw bases sanitise to the same family name,
  /// later ones get a numeric suffix (_2, _3, ...) instead of silently
  /// colliding. # HELP carries the raw base name, so the sanitisation
  /// stays reversible by a human. Wire conformance: gauge specials render
  /// +Inf/-Inf/NaN and every emitted line (hence the body) ends in '\n' —
  /// serve it under kPrometheusContentType.
  [[nodiscard]] std::string to_prometheus() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace avd::obs
