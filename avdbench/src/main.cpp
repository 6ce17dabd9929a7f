// avdbench: one run of one workload.
//
//   avdbench --workload <day_dusk_640|night_1080|adaptive_serve>
//            --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Prints a human-readable metric table, then one JSON line with every metric
// (value, unit, sample count), the correctness gates and the frame
// accounting. run.py turns that line into the benchmark's result line and
// its report file. Exit status 0 only when every gate passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "avdbench: %s\nusage: avdbench --workload <day_dusk_640|"
               "night_1080|adaptive_serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n",
               why);
  std::exit(2);
}

avdbench::Options parse(int argc, char** argv) {
  avdbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload != "day_dusk_640" && o.workload != "night_1080" &&
      o.workload != "adaptive_serve")
    usage("unknown workload");
  if (!(o.seconds > 0.0) || o.seconds > 60.0) usage("--seconds out of range");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const avdbench::Options opts = parse(argc, argv);
  avdbench::Report report;
  report.note("compiler", AVDBENCH_COMPILER);
  report.note("build_type", AVDBENCH_BUILD_TYPE);
  try {
    if (opts.workload == "adaptive_serve")
      avdbench::run_serve_workload(opts, report);
    else
      avdbench::run_frame_workload(opts, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avdbench: %s\n", e.what());
    return 1;
  }

  std::printf("%-40s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : report.metrics())
    std::printf("%-40s %16.6f %-6s %8zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  const double failed_pct =
      report.attempted() > 0 ? 100.0 * static_cast<double>(report.failed()) /
                                   static_cast<double>(report.attempted())
                             : 0.0;
  std::printf("frames attempted %llu, failed %llu (frames_failed_pct %.3f)\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), failed_pct);
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
