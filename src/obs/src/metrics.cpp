#include "avd/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "avd/obs/build_info.hpp"
#include "avd/obs/json.hpp"

namespace avd::obs {
namespace {

void append_double(std::ostringstream& os, double v) {
  // Round-trippable doubles; integral values print without an exponent so
  // the JSON stays readable.
  const auto saved = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  os.precision(saved);
}

// The text exposition spells special values `+Inf`/`-Inf`/`NaN`; iostreams
// would print `inf`/`nan`, which Prometheus rejects at scrape time.
void append_prometheus_value(std::ostringstream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0.0 ? "+Inf" : "-Inf");
  } else {
    append_double(os, v);
  }
}

bool label_key_char_ok(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     c == '_';
  return first ? alpha : (alpha || (c >= '0' && c <= '9'));
}

// Label values use the Prometheus escape set, which labeled_name() shares:
// backslash, double-quote and newline. Everything else passes through.
std::string escape_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9')
    out.insert(out.begin(), '_');
  return out;
}

// Sanitisation is lossy ("a.b" and "a_b" both map to "a_b"); distinct raw
// names must not silently merge into one exposition series. First claimant
// keeps the clean name, later ones get _2, _3, ... — deterministic because
// callers iterate sorted maps. Histograms claim their _sum/_count suffixes
// too so a raw name like "x_sum" can't collide with histogram "x"'s series.
class PrometheusNamer {
 public:
  std::string unique(const std::string& raw, bool reserve_summary_suffixes) {
    const std::string base = prometheus_name(raw);
    std::string candidate = base;
    for (std::uint64_t n = 2; !claim(candidate, reserve_summary_suffixes);
         ++n)
      candidate = base + '_' + std::to_string(n);
    return candidate;
  }

 private:
  bool claim(const std::string& name, bool reserve_summary_suffixes) {
    if (taken_.contains(name)) return false;
    if (reserve_summary_suffixes &&
        (taken_.contains(name + "_sum") || taken_.contains(name + "_count")))
      return false;
    taken_.insert(name);
    if (reserve_summary_suffixes) {
      taken_.insert(name + "_sum");
      taken_.insert(name + "_count");
    }
    return true;
  }

  std::set<std::string> taken_;
};

// Every series of one family — same raw base name within one section
// (counter/gauge/histogram), any label set — shares one exposition name,
// claimed once on first sight. Sections are distinct keys so a counter and a
// gauge with the same raw base still diverge (x / x_2), exactly as before
// labels existed.
class FamilyNamer {
 public:
  const std::string& family(int section, const std::string& raw_base,
                            bool reserve_summary_suffixes) {
    const auto key = std::make_pair(section, raw_base);
    auto it = families_.find(key);
    if (it == families_.end())
      it = families_
               .emplace(key, namer_.unique(raw_base, reserve_summary_suffixes))
               .first;
    return it->second;
  }

 private:
  PrometheusNamer namer_;
  std::map<std::pair<int, std::string>, std::string> families_;
};

// A flat registry name resolved for exposition: the family's sanitised name
// plus the inner label block ('stream="0"', no braces; empty when the series
// is unlabeled), with label values re-escaped for the exposition format.
struct ResolvedSeries {
  std::string family;
  std::string raw_base;  // pre-sanitisation name, for # HELP
  std::string label_block;
};

ResolvedSeries resolve_series(FamilyNamer& namer, int section,
                              const std::string& flat_name,
                              bool reserve_summary_suffixes) {
  ResolvedSeries out;
  if (auto parsed = parse_labeled_name(flat_name)) {
    out.family =
        namer.family(section, parsed->base, reserve_summary_suffixes);
    out.raw_base = std::move(parsed->base);
    bool first = true;
    for (const auto& [k, v] : parsed->labels) {
      if (!first) out.label_block += ',';
      first = false;
      out.label_block += k;
      out.label_block += "=\"";
      out.label_block += escape_label_value(v);
      out.label_block += '"';
    }
  } else {
    out.family = namer.family(section, flat_name, reserve_summary_suffixes);
    out.raw_base = flat_name;
  }
  return out;
}

// # HELP values may not contain raw newlines or backslashes.
std::string prometheus_help(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

void append_histogram_json(std::ostringstream& os, const HistogramSummary& s) {
  os << "{\"count\":" << s.count << ",\"sum_ns\":" << s.sum_ns
     << ",\"mean_ns\":";
  append_double(os, s.mean_ns);
  os << ",\"p50_ns\":" << s.p50_ns << ",\"p95_ns\":" << s.p95_ns
     << ",\"p99_ns\":" << s.p99_ns << ",\"max_ns\":" << s.max_ns << '}';
}

}  // namespace

std::string labeled_name(std::string_view name, Labels labels) {
  std::string base(name);
  for (char& c : base)
    if (c == '{' || c == '}') c = '_';
  if (labels.empty()) return base;
  for (auto& [k, v] : labels) {
    if (k.empty()) k = "_";
    for (std::size_t i = 0; i < k.size(); ++i)
      if (!label_key_char_ok(k[i], i == 0)) k[i] = '_';
  }
  std::sort(labels.begin(), labels.end());
  std::string out = std::move(base);
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  out += '}';
  return out;
}

std::optional<ParsedSeriesName> parse_labeled_name(std::string_view flat) {
  const std::size_t open = flat.find('{');
  if (open == std::string_view::npos) return std::nullopt;
  if (flat.back() != '}') return std::nullopt;
  ParsedSeriesName out;
  out.base.assign(flat.substr(0, open));
  if (out.base.find('}') != std::string::npos) return std::nullopt;
  const std::string_view body = flat.substr(open + 1, flat.size() - open - 2);
  if (body.empty()) return std::nullopt;  // labeled_name never emits "{}"
  std::size_t pos = 0;
  for (;;) {
    const std::size_t key_start = pos;
    if (pos >= body.size() || !label_key_char_ok(body[pos], true))
      return std::nullopt;
    ++pos;
    while (pos < body.size() && label_key_char_ok(body[pos], false)) ++pos;
    std::string key(body.substr(key_start, pos - key_start));
    if (pos + 1 >= body.size() || body[pos] != '=' || body[pos + 1] != '"')
      return std::nullopt;
    pos += 2;
    std::string value;
    bool closed = false;
    while (pos < body.size()) {
      const char c = body[pos++];
      if (c == '"') {
        closed = true;
        break;
      }
      if (c == '\\') {
        if (pos >= body.size()) return std::nullopt;
        const char esc = body[pos++];
        if (esc == '\\') value += '\\';
        else if (esc == '"') value += '"';
        else if (esc == 'n') value += '\n';
        else return std::nullopt;
      } else {
        value += c;
      }
    }
    if (!closed) return std::nullopt;
    out.labels.emplace_back(std::move(key), std::move(value));
    if (pos == body.size()) break;
    if (body[pos] != ',') return std::nullopt;
    ++pos;
    if (pos == body.size()) return std::nullopt;  // trailing comma
  }
  return out;
}

int Histogram::bin_index(std::uint64_t ns) {
  if (ns < kLinearBins) return static_cast<int>(ns);
  const int octave = std::bit_width(ns) - 1;  // >= 4 here
  const int sub = static_cast<int>((ns >> (octave - 3)) & (kSubBuckets - 1));
  int index = kLinearBins + (octave - 4) * kSubBuckets + sub;
  if (index >= kBins) index = kBins - 1;
  return index;
}

std::uint64_t Histogram::bin_value(int index) {
  if (index < kLinearBins) return static_cast<std::uint64_t>(index);
  const int octave = 4 + (index - kLinearBins) / kSubBuckets;
  const int sub = (index - kLinearBins) % kSubBuckets;
  const std::uint64_t base = 1ull << octave;
  const std::uint64_t step = base / kSubBuckets;
  // Midpoint of [base + sub*step, base + (sub+1)*step).
  return base + static_cast<std::uint64_t>(sub) * step + step / 2;
}

std::uint64_t Histogram::percentile_ns(double p) const {
  // One pass copying the bins keeps the computation self-consistent: the
  // target is derived from the same values the cumulative walk sees, so even
  // a read racing record_ns() resolves inside the copied distribution
  // instead of walking past the last populated bin.
  std::array<std::uint64_t, kBins> local;
  std::uint64_t total = 0;
  for (int i = 0; i < kBins; ++i) {
    local[static_cast<std::size_t>(i)] =
        bins_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    total += local[static_cast<std::size_t>(i)];
  }
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  auto target =
      static_cast<std::uint64_t>(p * static_cast<double>(total) + 0.5);
  if (target > total) target = total;
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBins; ++i) {
    cumulative += local[static_cast<std::size_t>(i)];
    if (cumulative >= target && cumulative > 0) return bin_value(i);
  }
  return max_ns();  // unreachable: cumulative reaches total >= target
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  s.count = count();
  s.sum_ns = sum_ns();
  s.mean_ns = mean_ns();
  s.p50_ns = percentile_ns(0.50);
  s.p95_ns = percentile_ns(0.95);
  s.p99_ns = percentile_ns(0.99);
  s.max_ns = max_ns();
  return s;
}

void Histogram::merge_from(const Histogram& other) {
  for (int i = 0; i < kBins; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t n = other.bins_[idx].load(std::memory_order_relaxed);
    if (n != 0) bins_[idx].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_ns_.fetch_add(other.sum_ns(), std::memory_order_relaxed);
  update_max(max_ns_, other.max_ns());
}

void Histogram::reset() {
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  // The default process-identity series (process.uptime_seconds,
  // build.info{mode=,version=}) exist from the very first snapshot; ops
  // scrapes republish to keep uptime current. Leaked like the tracer.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    publish_process_metrics(*r);
    return r;
  }();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return counter(labeled_name(name, labels));
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return gauge(labeled_name(name, labels));
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  return histogram(labeled_name(name, labels));
}

namespace {

// Population labels name who produced a sample (a stream, a shard), so
// their series add up to a fleet total. Every other label (stage=, layer=,
// mode=, ...) names a different quantity: the four stage=
// runtime.stage.processed series each count every frame once, and their sum
// counts it four times.
bool is_population_label(const std::string& key) {
  return key == "shard" || key == "stream";
}

// A fold source candidate: a labeled series whose every label is a
// population label. nullopt for plain names and for any series that carries
// another label; those are exported as they are.
std::optional<ParsedSeriesName> population_series(std::string_view flat) {
  std::optional<ParsedSeriesName> parsed = parse_labeled_name(flat);
  if (parsed && std::all_of(parsed->labels.begin(), parsed->labels.end(),
                            [](const auto& label) {
                              return is_population_label(label.first);
                            }))
    return parsed;
  return std::nullopt;
}

// The flat name of a labeled series with its last (sorted) label dropped —
// the series' fold parent ("runtime.frames{shard="0",stream="3"}" ->
// "runtime.frames{shard="0"}").
std::string parent_name(const ParsedSeriesName& parsed) {
  Labels parent(parsed.labels.begin(), parsed.labels.end() - 1);
  return labeled_name(parsed.base, std::move(parent));
}

// One section's stored series, in name order, as snapshot() copied them out
// of the registry's map.
template <typename Metric>
using Stored = std::vector<std::pair<std::string, const Metric*>>;

// The fold sources are the population *leaves*: a population series that
// some other series of the section has as its parent is a marginal of the
// fold, not a leaf, even when instrumentation wrote it directly. Each leaf
// folds into its base and, when it carries >= 2 labels, into its
// one-label-shorter parent. Returns each fold target with its leaves.
template <typename Metric>
std::map<std::string, std::vector<const Metric*>> fold_plan(
    const Stored<Metric>& section) {
  struct Series {
    const std::string* name;
    std::string base;
    std::string parent;  // empty for a one-label series
    const Metric* metric;
  };
  std::vector<Series> population;
  std::set<std::string> parents;
  for (const auto& [name, metric] : section)
    if (auto parsed = population_series(name)) {
      std::string parent;
      if (parsed->labels.size() >= 2) {
        parent = parent_name(*parsed);
        parents.insert(parent);
      }
      population.push_back(
          {&name, std::move(parsed->base), std::move(parent), metric});
    }
  std::map<std::string, std::vector<const Metric*>> plan;
  for (const Series& s : population) {
    if (parents.contains(*s.name)) continue;
    plan[s.base].push_back(s.metric);
    if (!s.parent.empty()) plan[s.parent].push_back(s.metric);
  }
  return plan;
}

std::uint64_t value_of(const Counter& c) { return c.value(); }
double value_of(const Gauge& g) { return g.value(); }
HistogramSummary value_of(const Histogram& h) { return h.summary(); }

// Counters and gauges sum their leaves; histograms merge bins.
template <typename Metric>
auto fold(const std::vector<const Metric*>& leaves) {
  decltype(value_of(*leaves.front())) sum{};
  for (const Metric* leaf : leaves) sum += value_of(*leaf);
  return sum;
}
HistogramSummary fold(const std::vector<const Histogram*>& leaves) {
  Histogram merged;
  for (const Histogram* leaf : leaves) merged.merge_from(*leaf);
  return merged.summary();
}

// The section's exported view: every stored series, with each fold target
// (stored or not) replaced by the fold of its leaves, in name order.
template <typename Metric>
auto folded(const Stored<Metric>& section) {
  using Value = decltype(value_of(std::declval<const Metric&>()));
  std::map<std::string, Value> view;
  const auto plan = fold_plan(section);
  for (const auto& [name, metric] : section)
    if (!plan.contains(name)) view.emplace(name, value_of(*metric));
  for (const auto& [target, leaves] : plan) view.emplace(target, fold(leaves));
  return std::vector<std::pair<std::string, Value>>(view.begin(), view.end());
}

template <typename Map>
auto stored(const Map& section) {
  Stored<typename Map::mapped_type::element_type> out;
  out.reserve(section.size());
  for (const auto& [name, metric] : section)
    out.emplace_back(name, metric.get());
  return out;
}

}  // namespace

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name,
                                       std::uint64_t fallback) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return fallback;
}

double MetricsSnapshot::gauge(std::string_view name, double fallback) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return fallback;
}

const HistogramSummary* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& [n, v] : histograms)
    if (n == name) return &v;
  return nullptr;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << json::escape(name) << "\":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    if (!first) os << ',';
    first = false;
    os << '"' << json::escape(name) << "\":";
    append_double(os, v);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, s] : snapshot.histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json::escape(name) << "\":";
    append_histogram_json(os, s);
  }
  os << "}}";
  return os.str();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Only the walk over the maps needs the mutex: entries are never freed,
  // so the reads, merges and summaries run outside it.
  std::unique_lock<std::mutex> lock(mutex_);
  const auto counters = stored(counters_);
  const auto gauges = stored(gauges_);
  const auto histograms = stored(histograms_);
  lock.unlock();
  return {folded(counters), folded(gauges), folded(histograms)};
}

std::string MetricsRegistry::to_json() const {
  return obs::to_json(snapshot());
}

std::string MetricsRegistry::to_prometheus() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  FamilyNamer namer;
  std::set<std::string> described;  // family names with # HELP/# TYPE out
  const auto describe = [&](const ResolvedSeries& r, const char* type) {
    if (!described.insert(r.family).second) return;
    os << "# HELP " << r.family << ' ' << prometheus_help(r.raw_base) << '\n';
    os << "# TYPE " << r.family << ' ' << type << '\n';
  };
  for (const auto& [name, v] : snap.counters) {
    const ResolvedSeries r = resolve_series(namer, 0, name, false);
    describe(r, "counter");
    os << r.family;
    if (!r.label_block.empty()) os << '{' << r.label_block << '}';
    os << ' ' << v << '\n';
  }
  for (const auto& [name, v] : snap.gauges) {
    const ResolvedSeries r = resolve_series(namer, 1, name, false);
    describe(r, "gauge");
    os << r.family;
    if (!r.label_block.empty()) os << '{' << r.label_block << '}';
    os << ' ';
    append_prometheus_value(os, v);
    os << '\n';
  }
  for (const auto& [name, s] : snap.histograms) {
    const ResolvedSeries r = resolve_series(namer, 2, name, true);
    describe(r, "summary");
    // The quantile label joins the series' own labels in one block.
    const std::string prefix =
        r.label_block.empty() ? std::string{} : r.label_block + ',';
    const std::string suffix =
        r.label_block.empty() ? std::string{} : '{' + r.label_block + '}';
    os << r.family << '{' << prefix << "quantile=\"0.5\"} " << s.p50_ns
       << '\n';
    os << r.family << '{' << prefix << "quantile=\"0.95\"} " << s.p95_ns
       << '\n';
    os << r.family << '{' << prefix << "quantile=\"0.99\"} " << s.p99_ns
       << '\n';
    os << r.family << "_sum" << suffix << ' ' << s.sum_ns << '\n';
    os << r.family << "_count" << suffix << ' ' << s.count << '\n';
  }
  return os.str();
}

}  // namespace avd::obs
