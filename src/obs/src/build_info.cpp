#include "avd/obs/build_info.hpp"

#include <chrono>

#include "avd/obs/metrics.hpp"

#ifndef AVD_BUILD_VERSION
#define AVD_BUILD_VERSION "dev"
#endif
#ifndef AVD_BUILD_MODE
#define AVD_BUILD_MODE "unspecified"
#endif

namespace avd::obs {
namespace {

// Function-local so the anchor works regardless of static-init order; the
// first caller (normally MetricsRegistry::global()'s creation) pins it.
std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

const char* build_version() { return AVD_BUILD_VERSION; }

const char* build_mode() { return AVD_BUILD_MODE; }

double process_uptime_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_epoch())
      .count();
}

void publish_build_info(MetricsRegistry& registry) {
  registry
      .gauge("build.info",
             {{"mode", build_mode()}, {"version", build_version()}})
      .set(1.0);
}

void publish_process_metrics(MetricsSnapshot& snapshot) {
  snapshot.set_gauge("process.uptime_seconds", process_uptime_seconds());
  snapshot.set_gauge(labeled_name("build.info", {{"mode", build_mode()},
                                                 {"version", build_version()}}),
                     1.0);
}

}  // namespace avd::obs
