// frame_slo_monitor: live SLO health monitoring over the serving runtime.
//
// Serves the canonical drive twice through the concurrent StreamServer with
// the always-on telemetry pipeline enabled:
//
//   1. with a comfortable 20 ms frame budget — streams stay HEALTHY,
//   2. with an impossibly tight budget against a slowed-down simulated
//      accelerator — the frame_deadline SLO rule drives every stream to
//      UNHEALTHY and health transitions fire live callbacks.
//
// The telemetry exporter writes one JSON object per sampling window to a
// JSONL sink; the example tails the per-stream counters out of the final
// window and prints the health transition log.
//
// Self-validating: exits non-zero if the healthy run degrades, the tight
// run fails to go UNHEALTHY, or the telemetry sink is missing/invalid.
//
//   build/examples/frame_slo_monitor [telemetry.jsonl]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "avd/obs/json.hpp"
#include "avd/obs/slo.hpp"
#include "avd/runtime/stream_server.hpp"

namespace {

std::vector<avd::data::DriveSequence> make_streams(int n, std::uint64_t seed) {
  std::vector<avd::data::DriveSequence> streams;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(n); ++i) {
    avd::data::SequenceSpec spec =
        avd::data::DriveSequence::canonical_drive({240, 136}, 8);
    spec.seed = seed + i;
    streams.emplace_back(spec);
  }
  return streams;
}

void print_results(const std::vector<avd::runtime::StreamResult>& results) {
  for (const avd::runtime::StreamResult& r : results) {
    std::printf("  stream %d: %zu frames, %llu deadline misses, health %s\n",
                r.stream, r.report.frames.size(),
                static_cast<unsigned long long>(r.deadline_misses),
                avd::obs::to_string(r.health));
    for (const avd::obs::HealthTransition& t : r.health_transitions)
      std::printf("    transition %s -> %s (%s)\n", avd::obs::to_string(t.from),
                  avd::obs::to_string(t.to), t.reason.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonl_path =
      argc > 1 ? argv[1] : "frame_slo_telemetry.jsonl";

  std::printf("=== frame_slo_monitor ===\n\n");
  std::printf("training models (small budget)...\n");
  avd::core::TrainingBudget budget;
  budget.vehicle_pos = budget.vehicle_neg = 40;
  budget.pedestrian_pos = budget.pedestrian_neg = 30;
  budget.dbn_windows_per_class = 40;
  budget.pairing_scenes = 20;
  const avd::core::SystemModels models = avd::core::build_system_models(budget);
  avd::core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;  // control plane only: latency comes from the
                              // simulated accelerator below
  const avd::core::AdaptiveSystem system(models, cfg);

  bool ok = true;
  const auto fail = [&ok](const char* what) {
    std::printf("FAIL: %s\n", what);
    ok = false;
  };

  // --- Run 1: comfortable budget, everything healthy. --------------------
  std::printf("\n[1] comfortable budget (%.0f ms per frame)\n", 20.0);
  {
    avd::runtime::StreamServerConfig sc;
    sc.slo.enabled = true;
    sc.slo.frame_budget_ms = 20.0;  // the paper's 50 fps HDTV contract
    sc.slo.telemetry_period = std::chrono::milliseconds(2);
    avd::runtime::StreamServer server(system, sc);
    const std::vector<avd::runtime::StreamResult> results =
        server.serve_sequences(make_streams(2, 900));
    print_results(results);
    for (const avd::runtime::StreamResult& r : results)
      if (r.health != avd::obs::HealthState::Healthy)
        fail("comfortable budget should stay HEALTHY");
  }

  // --- Run 2: impossible budget, live transitions to UNHEALTHY. ----------
  std::printf("\n[2] tight budget (0.5 ms) vs a 2 ms simulated accelerator\n");
  {
    avd::runtime::StreamServerConfig sc;
    sc.detect_workers = 2;
    sc.simulated_accel_ms = 2.0;
    sc.slo.enabled = true;
    sc.slo.frame_budget_ms = 0.5;
    sc.slo.telemetry_period = std::chrono::milliseconds(1);
    sc.slo.telemetry_jsonl = jsonl_path;
    sc.slo.hysteresis.breaches_to_worsen = 1;
    sc.slo.hysteresis.clears_to_recover = 1000;  // no flapping on idle tails
    avd::runtime::StreamServer server(system, sc);
    server.set_health_callback(
        [](int stream, const avd::obs::HealthTransition& t) {
          std::printf("  [callback] stream %d: %s -> %s\n", stream,
                      avd::obs::to_string(t.from), avd::obs::to_string(t.to));
        });
    const std::vector<avd::runtime::StreamResult> results =
        server.serve_sequences(make_streams(2, 910));
    print_results(results);
    for (const avd::runtime::StreamResult& r : results) {
      if (r.health != avd::obs::HealthState::Unhealthy)
        fail("tight budget should reach UNHEALTHY");
      if (r.health_transitions.empty()) fail("no health transitions recorded");
    }
  }

  // --- Telemetry sink: one valid JSON object per sampling window. --------
  std::printf("\ntelemetry sink: %s\n", jsonl_path.c_str());
  std::ifstream in(jsonl_path);
  if (!in.is_open()) fail("telemetry JSONL sink missing");
  std::size_t windows = 0;
  std::string last;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    if (!avd::obs::json::valid(line)) fail("telemetry line is not valid JSON");
    ++windows;
    last = line;
  }
  if (windows == 0) fail("telemetry sink has no samples");
  std::printf("  %zu sampling windows\n", windows);
  if (const std::optional<avd::obs::json::Value> doc =
          avd::obs::json::parse(last)) {
    if (const avd::obs::json::Value* counters = doc->find("counters")) {
      // Per-stream series carry a stream label; each sample's snapshot
      // folds them into the fleet-wide base name as it reads them.
      for (const char* key :
           {"runtime.frames{stream=\"0\"}",
            "runtime.deadline_miss{stream=\"0\"}", "runtime.frames"}) {
        const avd::obs::json::Value* v = counters->find(key);
        std::printf("  final %s = %.0f\n", key, v != nullptr ? v->number : 0.0);
        if (v == nullptr) fail("final telemetry window missing SLO counter");
      }
    }
  }

  std::printf("\nself-check: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
