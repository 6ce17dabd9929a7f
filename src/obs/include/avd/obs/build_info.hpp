// Process identity: who is this binary and how long has it been up?
//
// A fleet of shards is only debuggable when every scrape target answers
// "which build, which mode, since when" the same way everywhere — the
// Prometheus exposition, /statusz and the flight bundles must agree.
// The answers are two series:
//
//   process.uptime_seconds          gauge, as of the scrape
//   build.info{mode=,version=}      info-style gauge pinned to 1 (the value
//                                   is meaningless; the labels carry the
//                                   identity, Prometheus-idiomatically)
//
// MetricsRegistry::global() stores build.info once at creation, so every
// snapshot of it (telemetry rows, flight bundles) carries the identity, and
// its creation anchors the uptime clock. The uptime is never stored, since
// nothing would keep a stored value current: a /metricsz scrape sets both
// series in the snapshot it renders and writes nothing, and /statusz reads
// the uptime itself.
#pragma once

namespace avd::obs {

class MetricsRegistry;
struct MetricsSnapshot;

/// Version baked in by CMake (AVD_BUILD_VERSION compile definition);
/// "dev" when built without it.
[[nodiscard]] const char* build_version();

/// Build mode baked in by CMake (AVD_BUILD_MODE, normally CMAKE_BUILD_TYPE);
/// "unspecified" when built without it.
[[nodiscard]] const char* build_mode();

/// Seconds since this process first touched the obs layer (steady clock,
/// anchored on first call — MetricsRegistry::global() anchors it early).
[[nodiscard]] double process_uptime_seconds();

/// Store build.info in `registry`. Idempotent.
void publish_build_info(MetricsRegistry& registry);

/// Set both series, the uptime as of now, in `snapshot`, each in sorted
/// position (MetricsSnapshot::set_gauge): what a scrape renders.
void publish_process_metrics(MetricsSnapshot& snapshot);

}  // namespace avd::obs
