#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace avdbench {
namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0) || p > 100.0) return std::nullopt;
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  const std::size_t r = std::clamp<std::size_t>(rank, 1, n);
  if (n - r < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ledger::per_frame(const std::string& layer, int frames) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.layer == layer) total += s.ms;
  return frames > 0 ? total / frames : 0.0;
}

std::vector<double> Ledger::samples(const std::string& layer) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.layer == layer) out.push_back(s.ms);
  return out;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = {value, unit, samples};
}

void Report::set_percentile(const std::string& name,
                            const std::vector<double>& xs, double p,
                            const std::string& unit) {
  const std::optional<double> v = percentile(xs, p);
  gate("enough_samples_for_" + name, v.has_value());
  set(name, v.value_or(std::nan("")), unit, xs.size());
}

void Report::gate(const std::string& name, bool ok, std::uint64_t frames) {
  auto [it, inserted] = gates_.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
  if (!ok) failed_ += frames;
}

bool Report::correct() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const auto& g) { return g.second; });
}

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted_
    << ", \"failed\": " << std::min(failed_, attempted_) << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
      << number(m.value) << ", \"unit\": " << quoted(m.unit)
      << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  o << "}, \"gates\": {";
  first = true;
  for (const auto& [name, ok] : gates_) {
    o << (first ? "" : ", ") << quoted(name) << ": " << (ok ? "true" : "false");
    first = false;
  }
  o << "}, \"notes\": {";
  first = true;
  for (const auto& [key, value] : notes_) {
    o << (first ? "" : ", ") << quoted(key) << ": " << quoted(value);
    first = false;
  }
  o << "}}";
  return o.str();
}

std::string spans_to_json(const Ledger& ledger) {
  std::ostringstream o;
  o << "[";
  bool first = true;
  for (const Ledger::Span& s : ledger.spans()) {
    o << (first ? "\n" : ",\n") << "{\"layer\": " << quoted(s.layer)
      << ", \"frame\": " << s.frame << ", \"ms\": " << number(s.ms) << "}";
    first = false;
  }
  o << "\n]\n";
  return o.str();
}

}  // namespace avdbench
