// Shared bench-report harness: every bench that wants machine-readable
// output builds one BenchReport and write()s it as BENCH_<name>.json next to
// the human-readable stdout tables. CI uploads these as artifacts; trend
// tooling diffs them across commits.
//
// One schema for every bench ("avd-bench-v1"):
//   {
//     "schema": "avd-bench-v1",
//     "bench": "<name>",
//     "metrics": {
//       "<metric>": {"value": <number>, "unit": "<unit>",
//                     "better": "higher"|"lower"}
//     },
//     "checks": {"<acceptance check>": true|false},
//     "notes": {"<key>": "<string>", "host.<field>": "<string>", ...}
//   }
// Parses with obs::json (tests/bench rely on this). Metric names use dotted
// lowercase; checks are the bench's acceptance criteria, so a report with
// every check true is a passing bench.
//
// Every report's notes carry the host it was measured on: host.nproc,
// host.cpu_model, host.compiler, host.build_type and host.git_sha (the
// checkout's HEAD when the bench ran). scripts/bench_diff compares the first
// four and treats a comparison across hosts as informational.
//
// Output directory: $AVD_BENCH_DIR when set, else the working directory.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

namespace avd::bench {

/// First line of `command`'s standard output, or "unknown".
inline std::string first_output_line(const char* command) {
  std::string line;
  if (FILE* pipe = popen(command, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) line = buf;
    pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line.empty() ? "unknown" : line;
}

/// The host fields every report's notes carry (see the header comment).
inline std::map<std::string, std::string> host_fingerprint() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    const std::size_t start = colon == std::string::npos
                                  ? std::string::npos
                                  : line.find_first_not_of(" \t", colon + 1);
    if (start != std::string::npos) cpu_model = line.substr(start);
    break;
  }
  return {
      {"host.nproc", std::to_string(std::thread::hardware_concurrency())},
      {"host.cpu_model", cpu_model},
      {"host.compiler", AVD_BENCH_COMPILER},
      {"host.build_type", AVD_BENCH_BUILD_TYPE},
      {"host.git_sha",
       first_output_line("git -C \"" AVD_BENCH_SOURCE_DIR
                         "\" rev-parse --short=12 HEAD 2>/dev/null")},
  };
}

class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), notes_(host_fingerprint()) {}

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& better = "higher") {
    metrics_[name] = Metric{value, unit, better};
  }
  void check(const std::string& name, bool pass) { checks_[name] = pass; }
  void note(const std::string& name, const std::string& text) {
    notes_[name] = text;
  }

  [[nodiscard]] bool all_checks_pass() const {
    for (const auto& [_, pass] : checks_)
      if (!pass) return false;
    return true;
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"schema\":\"avd-bench-v1\",\"bench\":\"" +
                      escape(name_) + "\"";
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      if (!first) out += ',';
      first = false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", m.value);
      out += '"' + escape(name) + "\":{\"value\":" + buf + ",\"unit\":\"" +
             escape(m.unit) + "\",\"better\":\"" + escape(m.better) + "\"}";
    }
    out += "},\"checks\":{";
    first = true;
    for (const auto& [name, pass] : checks_) {
      if (!first) out += ',';
      first = false;
      out += '"' + escape(name) + "\":" + (pass ? "true" : "false");
    }
    out += "},\"notes\":{";
    first = true;
    for (const auto& [name, text] : notes_) {
      if (!first) out += ',';
      first = false;
      out += '"' + escape(name) + "\":\"" + escape(text) + '"';
    }
    out += "}}";
    return out;
  }

  /// Write BENCH_<name>.json into $AVD_BENCH_DIR (or cwd) and say so on
  /// stdout. Throws std::runtime_error on I/O failure.
  void write() const {
    const char* dir = std::getenv("AVD_BENCH_DIR");
    const std::string path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
        "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) throw std::runtime_error("BenchReport: cannot open " + path);
    out << to_json() << '\n';
    if (!out) throw std::runtime_error("BenchReport: write failed: " + path);
    std::printf("bench report: %s\n", path.c_str());
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string better;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out;
  }

  std::string name_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, bool> checks_;
  std::map<std::string, std::string> notes_;
};

}  // namespace avd::bench
