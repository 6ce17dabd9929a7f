// live_introspection: the embedded ops server, exercised end to end over
// real sockets.
//
// Trains a small system, starts a StreamServer with the ops plane enabled,
// and keeps a multi-stream serve running while it:
//
//   * sweeps every endpoint — /metricsz, /metricsz.json, /healthz, /tracez,
//     /flightz, /statusz, /profilez — through the HTTP client and validates
//     each payload (JSON bodies through the strict obs::json parser,
//     /metricsz against the Prometheus content type, /profilez against the
//     live pipeline's span names),
//   * forces an SLO breach on a second ops-enabled server and polls its
//     /healthz until the 200 -> 503 flip is observed,
//   * optionally publishes its port (--port-file) and keeps serving
//     (--linger-seconds N) so an external scraper — scripts/check.sh uses
//     curl — can hit the same endpoints while frames are in flight.
//
// Exits non-zero when any check fails.
//
//   build/examples/live_introspection [--port-file PATH]
//                                     [--linger-seconds N]
//   build/examples/live_introspection --parse FILE            # JSON lint
//   build/examples/live_introspection --parse-collapsed FILE  # profile lint
//
// The --parse modes are standalone payload validators (no models trained,
// no server started): check.sh pipes curl output through them so "parseable
// by the strict parser" is checked by the same code in-process and over the
// wire.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/ops_server.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/stream_server.hpp"

namespace {

using namespace std::chrono_literals;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// --parse: the file must be one complete, strictly valid JSON document.
int parse_json_file(const std::string& path) {
  const std::string text = read_file(path);
  if (text.empty()) {
    std::printf("FAIL: %s is empty or unreadable\n", path.c_str());
    return 1;
  }
  if (!avd::obs::json::valid(text)) {
    std::printf("FAIL: %s is not valid JSON\n", path.c_str());
    return 1;
  }
  std::printf("ok: %s parses strictly (%zu bytes)\n", path.c_str(),
              text.size());
  return 0;
}

/// --parse-collapsed: non-empty flamegraph.pl collapsed-stack text — every
/// line "frame[;frame...] count" — with at least one detect-stage stack.
int parse_collapsed_file(const std::string& path) {
  const std::string text = read_file(path);
  if (text.empty()) {
    std::printf("FAIL: %s is empty (profiler saw no open spans)\n",
                path.c_str());
    return 1;
  }
  std::istringstream lines(text);
  std::size_t n = 0;
  bool saw_detect = false;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      std::printf("FAIL: %s line %zu is not 'stack count': %s\n",
                  path.c_str(), n + 1, line.c_str());
      return 1;
    }
    char* end = nullptr;
    const unsigned long long count =
        std::strtoull(line.c_str() + sp + 1, &end, 10);
    if (end == line.c_str() + sp + 1 || *end != '\0' || count == 0) {
      std::printf("FAIL: %s line %zu has a bad count: %s\n", path.c_str(),
                  n + 1, line.c_str());
      return 1;
    }
    if (line.compare(0, sp, "detect_frame") == 0 ||
        line.find("detect_frame;") != std::string::npos ||
        line.compare(0, 13, "detect_frame;") == 0)
      saw_detect = true;
    ++n;
  }
  if (n == 0) {
    std::printf("FAIL: %s holds no stacks\n", path.c_str());
    return 1;
  }
  if (!saw_detect) {
    std::printf("FAIL: %s has no detect-stage stacks\n", path.c_str());
    return 1;
  }
  std::printf("ok: %s holds %zu collapsed stacks (detect stage present)\n",
              path.c_str(), n);
  return 0;
}

std::vector<avd::data::DriveSequence> make_streams(int n, int per_segment,
                                                   std::uint64_t seed) {
  std::vector<avd::data::DriveSequence> seqs;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(n); ++i) {
    avd::data::SequenceSpec spec =
        avd::data::DriveSequence::canonical_drive({240, 136}, per_segment);
    spec.seed = seed + i;
    seqs.emplace_back(spec);
  }
  return seqs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string port_file;
  double linger_seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--parse" && i + 1 < argc) return parse_json_file(argv[i + 1]);
    if (arg == "--parse-collapsed" && i + 1 < argc)
      return parse_collapsed_file(argv[i + 1]);
    if (arg == "--port-file" && i + 1 < argc) port_file = argv[++i];
    if (arg == "--linger-seconds" && i + 1 < argc)
      linger_seconds = std::atof(argv[++i]);
  }

  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::printf("FAIL: %s\n", what.c_str());
    ok = false;
  };

  std::printf("=== live_introspection ===\n\n");
  std::printf("training models (small budget)...\n");
  avd::core::TrainingBudget budget;
  budget.vehicle_pos = budget.vehicle_neg = 30;
  budget.pedestrian_pos = budget.pedestrian_neg = 20;
  budget.dbn_windows_per_class = 40;
  budget.pairing_scenes = 20;
  const avd::core::SystemModels models = avd::core::build_system_models(budget);
  avd::core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;  // control plane + simulated detect holds
  const avd::core::AdaptiveSystem system(models, cfg);

  avd::obs::Tracer& tracer = avd::obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  avd::runtime::StreamServerConfig sc;
  sc.detect_workers = 2;
  sc.simulated_accel_ms = 10.0;  // keep detect spans open for the profiler
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 1e6;  // this server stays healthy
  sc.slo.telemetry_period = std::chrono::milliseconds(5);
  // Admission plane on (bucket off, ladder idle on a healthy server) so the
  // sweep validates the overload fields /healthz and /statusz export.
  sc.admission.enabled = true;
  sc.ops.enabled = true;
  sc.ops.server.handler_threads = 3;
  avd::runtime::StreamServer server(system, sc);
  const std::uint16_t port = server.ops_server()->port();
  std::printf("ops server listening on 127.0.0.1:%u\n\n",
              static_cast<unsigned>(port));
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << port << '\n';
  }

  // Serve continuously: until the endpoint sweep is done AND the linger
  // window (for external curl scrapers) has elapsed.
  std::atomic<bool> sweep_done{false};
  const auto linger_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(linger_seconds));
  std::atomic<std::uint64_t> frames_served{0};
  std::thread serving([&] {
    std::uint64_t batch = 0;
    while (!sweep_done.load() ||
           std::chrono::steady_clock::now() < linger_deadline) {
      const auto results =
          server.serve_sequences(make_streams(4, 4, 9000 + 100 * batch));
      for (const auto& r : results) frames_served += r.report.frames.size();
      ++batch;
    }
  });

  // --- endpoint sweep against the live serve -----------------------------
  const auto get = [&](const std::string& target)
      -> std::optional<avd::obs::HttpResponse> {
    return avd::obs::http_get(port, target);
  };
  const auto expect_json = [&](const std::string& target,
                               int expect_status) -> avd::obs::json::Value {
    const auto res = get(target);
    if (!res.has_value()) {
      fail(target + ": no response");
      return {};
    }
    if (res->status != expect_status)
      fail(target + ": status " + std::to_string(res->status));
    if (res->content_type.find("application/json") == std::string::npos)
      fail(target + ": content type " + res->content_type);
    const auto doc = avd::obs::json::parse(res->body);
    if (!doc.has_value()) {
      fail(target + ": body is not strictly valid JSON");
      return {};
    }
    std::printf("  %-28s %d, %zu bytes, parses\n", target.c_str(),
                res->status, res->body.size());
    return *doc;
  };

  std::printf("sweeping endpoints mid-serve:\n");
  const auto metricsz = get("/metricsz");
  if (!metricsz.has_value() || metricsz->status != 200) {
    fail("/metricsz unreachable");
  } else {
    if (metricsz->content_type != avd::obs::kPrometheusContentType)
      fail("/metricsz content type: " + metricsz->content_type);
    if (metricsz->body.empty() || metricsz->body.back() != '\n')
      fail("/metricsz body does not end in a newline");
    if (metricsz->body.find("process_uptime_seconds ") == std::string::npos)
      fail("/metricsz lacks process_uptime_seconds");
    if (metricsz->body.find("build_info{") == std::string::npos)
      fail("/metricsz lacks build_info");
    std::printf("  %-28s %d, %zu bytes, %s\n", "/metricsz", metricsz->status,
                metricsz->body.size(), "conformant");
  }

  const auto metrics_json = expect_json("/metricsz.json", 200);
  if (metrics_json.find("counters") == nullptr)
    fail("/metricsz.json lacks counters");

  auto healthz = expect_json("/healthz", 200);
  // The server is a fleet of one shard: its stream rows are shards[0].
  const auto stream_rows =
      [](const avd::obs::json::Value& doc) -> const avd::obs::json::Value* {
    const auto* shards = doc.find("shards");
    return shards == nullptr || shards->array.empty()
               ? nullptr
               : shards->array.front().find("streams");
  };
  // The per-stream rows appear once the first serve() is underway; poll
  // briefly instead of racing it.
  for (int attempt = 0; attempt < 100; ++attempt) {
    const auto* streams = stream_rows(healthz);
    if (streams != nullptr && !streams->array.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (const auto res = get("/healthz"); res.has_value())
      if (auto doc = avd::obs::json::parse(res->body); doc.has_value())
        healthz = *doc;
  }
  if (const auto* fleet = healthz.find("fleet"); fleet == nullptr)
    fail("/healthz lacks fleet state");
  else
    std::printf("  fleet health: %s\n", fleet->string.c_str());
  if (const auto* streams = stream_rows(healthz);
      streams == nullptr || streams->array.empty()) {
    fail("/healthz lacks streams");
  } else {
    const auto& row = streams->array.front();
    for (const char* key :
         {"degrade_level", "admitted", "shed", "coasted", "degraded_scans"})
      if (row.find(key) == nullptr)
        fail(std::string("/healthz stream row lacks ") + key);
  }

  const auto tracez = expect_json("/tracez", 200);
  if (tracez.find("span_stats") == nullptr || tracez.find("retained") == nullptr)
    fail("/tracez lacks span_stats/retained");

  const auto flightz = expect_json("/flightz", 200);
  if (flightz.find("streams") == nullptr) fail("/flightz lacks streams");

  const auto statusz = expect_json("/statusz", 200);
  if (statusz.find("build") == nullptr || statusz.find("config") == nullptr)
    fail("/statusz lacks build/config");
  if (const auto* conf = statusz.find("config");
      conf != nullptr && (conf->find("admission_enabled") == nullptr ||
                          !conf->find("admission_enabled")->boolean))
    fail("/statusz config does not show admission_enabled");
  if (const auto* adm = statusz.find("admission"); adm == nullptr) {
    fail("/statusz lacks the admission aggregate");
  } else {
    for (const char* key : {"max_degrade_level", "admitted", "shed",
                            "shed_by_bucket", "coasted", "degraded_scans"})
      if (adm->find(key) == nullptr)
        fail(std::string("/statusz admission aggregate lacks ") + key);
  }

  const auto profile = get("/profilez?seconds=0.5");
  if (!profile.has_value() || profile->status != 200) {
    fail("/profilez unreachable");
  } else if (profile->body.find("detect_frame") == std::string::npos) {
    fail("/profilez saw no detect_frame stacks:\n" + profile->body);
  } else {
    std::printf("  %-28s %d, %zu bytes, detect stacks present\n",
                "/profilez?seconds=0.5", profile->status,
                profile->body.size());
  }
  const auto profile_json = expect_json("/profilez?seconds=0.2&format=json", 200);
  if (profile_json.find("stacks") == nullptr)
    fail("/profilez json lacks stacks");

  // --- forced breach: watch /healthz flip 200 -> 503 ---------------------
  std::printf("\nforcing an SLO breach on a second server:\n");
  {
    avd::runtime::StreamServerConfig bc;
    bc.detect_workers = 2;
    bc.simulated_accel_ms = 5.0;
    bc.slo.enabled = true;
    bc.slo.frame_budget_ms = 1e-4;  // 100 ns: every frame misses
    bc.slo.telemetry_period = std::chrono::milliseconds(1);
    bc.slo.hysteresis.breaches_to_worsen = 1;
    bc.slo.hysteresis.clears_to_recover = 1000;
    bc.ops.enabled = true;
    avd::runtime::StreamServer breach_server(system, bc);
    const std::uint16_t bport = breach_server.ops_server()->port();

    const auto before = avd::obs::http_get(bport, "/healthz");
    if (!before.has_value() || before->status != 200)
      fail("breach server /healthz not 200 before serve");

    std::thread breach_serving(
        [&] { (void)breach_server.serve_sequences(make_streams(2, 8, 9900)); });
    bool saw_503 = false;
    const auto poll_deadline = std::chrono::steady_clock::now() + 30s;
    while (!saw_503 && std::chrono::steady_clock::now() < poll_deadline) {
      const auto res = avd::obs::http_get(bport, "/healthz");
      if (res.has_value() && res->status == 503) saw_503 = true;
      std::this_thread::sleep_for(5ms);
    }
    breach_serving.join();
    const auto after = avd::obs::http_get(bport, "/healthz");
    if (!saw_503) fail("/healthz never flipped to 503 during the breach");
    if (!after.has_value() || after->status != 503)
      fail("/healthz not 503 after the breached serve");
    else
      std::printf("  /healthz flipped 200 -> 503 and stayed (body: %s)\n",
                  after->body.c_str());
  }

  // --- hand over to external scrapers, then wind down --------------------
  if (linger_seconds > 0.0)
    std::printf("\nlingering %.1fs for external scrapers on port %u...\n",
                linger_seconds, static_cast<unsigned>(port));
  sweep_done.store(true);
  serving.join();
  tracer.set_enabled(false);
  tracer.clear();

  std::printf("\nserved %llu frames across the sweep; ops answered %llu "
              "requests\n",
              static_cast<unsigned long long>(frames_served.load()),
              static_cast<unsigned long long>(
                  server.ops_server()->requests_served()));
  std::printf("self-check: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
