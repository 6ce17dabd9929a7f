#include "ops_surface.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "avd/obs/build_info.hpp"
#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"

namespace avd::runtime {
namespace {

using View = StreamServer::ObsView;

constexpr const char* kJson = "application/json";
constexpr const char* kText = "text/plain; charset=utf-8";
// Upper bound on one /profilez window; larger ?seconds= values clamp.
constexpr double kMaxProfileSeconds = 10.0;

const char* json_bool(bool b) { return b ? "true" : "false"; }

template <class T>
void json_array(std::ostream& os, const std::vector<T>& items) {
  os << '[';
  for (std::size_t i = 0; i < items.size(); ++i)
    os << (i != 0 ? "," : "") << obs::to_json(items[i]);
  os << ']';
}

// Live health: mid-serve the monitors' current state-machine positions,
// between serves (or with monitoring off) the last serve's verdicts. 503 on
// an UNHEALTHY fleet makes this a load-balancer readiness probe.
obs::HttpResponse healthz(const std::vector<View>& views) {
  std::vector<obs::HealthState> all;
  std::ostringstream rows;
  for (std::size_t m = 0; m < views.size(); ++m) {
    rows << (m != 0 ? "," : "") << "{\"shard\":" << m << ",\"streams\":[";
    for (std::size_t s = 0; s < views[m].streams.size(); ++s) {
      const StreamServer::StreamView& st = views[m].streams[s];
      all.push_back(st.health);
      rows << (s != 0 ? "," : "") << "{\"stream\":\""
           << obs::json::escape(st.name) << "\",\"state\":\""
           << obs::to_string(st.health)
           << "\",\"degrade_level\":" << static_cast<int>(st.level)
           << ",\"admitted\":" << st.stats.admitted
           << ",\"shed\":" << st.stats.shed
           << ",\"coasted\":" << st.stats.coasted
           << ",\"degraded_scans\":" << st.stats.degraded_scans << '}';
    }
    rows << "]}";
  }
  const obs::HealthState fleet = obs::worst_of(all);
  std::ostringstream os;
  os << "{\"fleet\":\"" << obs::to_string(fleet) << "\",\"shards\":["
     << rows.str() << "]}";
  return {fleet == obs::HealthState::Unhealthy ? 503 : 200, kJson, os.str()};
}

// The shard's tail sampler over its latest serve's frames.
obs::HttpResponse tracez(const View& view) {
  static const obs::TraceSampler kNone;  // before the shard's first serve
  const obs::TraceSampler& sampler = view.sampler ? *view.sampler : kNone;
  std::ostringstream os;
  os << "{\"frames_seen\":" << sampler.frames_seen()
     << ",\"frames_retained\":" << sampler.frames_retained()
     << ",\"spans_seen\":" << sampler.spans_seen()
     << ",\"retained_evicted\":" << sampler.retained_evicted()
     << ",\"span_stats\":";
  json_array(os, sampler.stats());
  os << ",\"retained\":";
  json_array(os, sampler.retained());
  os << '}';
  return {200, kJson, os.str()};
}

obs::HttpResponse flightz(const View& view) {
  if (view.recorder)
    return {200, kJson, view.recorder->dump("ops /flightz request")};
  return {200, kJson,
          "{\"reason\":\"no serve has run yet\",\"streams\":{},"
          "\"telemetry\":[],\"slo_transitions\":[]}"};
}

}  // namespace

std::string config_json_fields(const StreamServerConfig& c) {
  std::ostringstream os;
  os << "\"cross_stream_batching\":" << json_bool(c.cross_stream_batching)
     << ",\"ingest_workers\":" << c.ingest_workers
     << ",\"detect_workers\":" << c.detect_workers
     << ",\"queue_capacity\":" << c.queue_capacity
     << ",\"detect_policy\":\"" << to_string(c.detect_policy)
     << "\",\"slo_enabled\":" << json_bool(c.slo.enabled)
     << ",\"frame_budget_ms\":" << c.slo.frame_budget_ms
     << ",\"admission_enabled\":" << json_bool(c.admission.enabled)
     << ",\"watchdog_enabled\":" << json_bool(c.watchdog.enabled)
     << ",\"fault_injection\":" << json_bool(c.fault_injector != nullptr);
  return os.str();
}

OpsSurface::OpsSurface(std::string role, ShardedServerConfig fleet,
                       const std::atomic<std::uint64_t>& serves,
                       ShardViews shards)
    : role_(std::move(role)),
      fleet_(std::move(fleet)),
      serves_(serves),
      shards_(std::move(shards)),
      server_(fleet_.shard.ops.server) {
  const StreamOpsConfig& ops = fleet_.shard.ops;
  // One scrape answers for the whole fleet: the responses fold the
  // registry first, so shard= marginals and the fleet base are fresh.
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  server_.handle("/metricsz", [&registry](const obs::HttpRequest&) {
    return obs::prometheus_response(registry);
  });
  server_.handle("/metricsz.json", [&registry](const obs::HttpRequest&) {
    return obs::metrics_json_response(registry);
  });
  server_.handle("/healthz", [this](const obs::HttpRequest&) {
    return healthz(shards_());
  });
  server_.handle("/statusz",
                 [this](const obs::HttpRequest&) { return statusz(); });
  server_.handle("/profilez",
                 [this](const obs::HttpRequest& req) { return profilez(req); });
  handle_shard("/tracez", &tracez);
  handle_shard("/flightz", &flightz);
  if (!server_.start())
    throw std::runtime_error(role_ + ": ops server failed to bind " +
                             ops.server.bind_address + ":" +
                             std::to_string(ops.server.port));
}

// Identity, configuration and fleet-wide overload accounting (zero before
// any serve and while every frame is Full).
obs::HttpResponse OpsSurface::statusz() const {
  AdmissionStats totals;
  int max_level = 0;
  std::ostringstream shards;
  const std::vector<View> views = shards_();
  for (std::size_t m = 0; m < views.size(); ++m) {
    for (const StreamServer::StreamView& st : views[m].streams) {
      totals.admitted += st.stats.admitted;
      totals.shed += st.stats.shed;
      totals.shed_by_bucket += st.stats.shed_by_bucket;
      totals.coasted += st.stats.coasted;
      totals.degraded_scans += st.stats.degraded_scans;
      max_level = std::max(max_level, static_cast<int>(st.level));
    }
    shards << (m != 0 ? "," : "") << "{\"shard\":" << m
           << ",\"streams\":" << views[m].streams.size() << '}';
  }
  std::ostringstream os;
  os << "{\"role\":\"" << role_ << "\",\"build\":{\"version\":\""
     << obs::json::escape(obs::build_version()) << "\",\"mode\":\""
     << obs::json::escape(obs::build_mode())
     << "\"},\"uptime_seconds\":" << obs::process_uptime_seconds()
     << ",\"serves\":" << serves_.load()
     << ",\"ops_requests\":" << server_.requests_served()
     << ",\"config\":{\"shards\":" << fleet_.shards
     << ",\"fleet_pressure_fraction\":" << fleet_.fleet_pressure_fraction
     << ',' << config_json_fields(fleet_.shard)
     << ",\"ops_port\":" << server_.port()
     << ",\"profiler_hz\":" << profiler_.config().hz
     << ",\"max_profile_seconds\":" << kMaxProfileSeconds
     << "},\"admission\":{\"max_degrade_level\":" << max_level
     << ",\"admitted\":" << totals.admitted << ",\"shed\":" << totals.shed
     << ",\"shed_by_bucket\":" << totals.shed_by_bucket
     << ",\"coasted\":" << totals.coasted
     << ",\"degraded_scans\":" << totals.degraded_scans << "},\"shards\":["
     << shards.str() << "]}";
  return {200, kJson, os.str()};
}

// On-demand profile of the process-global tracer, so it sees every shard:
// blocks its handler thread for the window (clamped to
// max_profile_seconds); concurrent requests serialise inside run_for().
obs::HttpResponse OpsSurface::profilez(const obs::HttpRequest& req) {
  // std::from_chars is locale-independent: "1,5" is rejected outright
  // instead of silently parsing as 1 (or as 1.5 under a comma-decimal
  // locale), and must consume the whole value.
  const std::string secs = req.query_value("seconds", "1");
  double seconds = 0.0;
  const auto [ptr, ec] =
      std::from_chars(secs.data(), secs.data() + secs.size(), seconds);
  if (ec != std::errc{} || ptr != secs.data() + secs.size() ||
      !(seconds > 0.0))
    return {400, kText, "bad seconds value: " + secs + "\n"};
  seconds = std::min(seconds, kMaxProfileSeconds);
  const obs::ProfileReport report = profiler_.run_for(
      std::chrono::milliseconds(static_cast<long>(seconds * 1000.0)));
  if (req.query_value("format") == "json")
    return {200, kJson, report.to_json()};
  return {200, kText, report.to_collapsed()};
}

// Installs `render` over the shard ?shard= selects (default 0); one that
// has not served yet renders an empty view. A value that is not an integer
// answers 400, a shard the fleet lacks 404.
void OpsSurface::handle_shard(const char* path,
                              obs::HttpResponse (*render)(const View&)) {
  server_.handle(path, [this, render](const obs::HttpRequest& req)
                           -> obs::HttpResponse {
    const std::string text = req.query_value("shard", "0");
    int m = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), m);
    if (ec != std::errc{} || ptr != text.data() + text.size())
      return {400, kText, "bad shard value: " + text + "\n"};
    if (m < 0 || m >= fleet_.shards)
      return {404, kText, "no shard " + text + "\n"};
    const std::vector<View> views = shards_();
    const auto um = static_cast<std::size_t>(m);
    return render(um < views.size() ? views[um] : View{});
  });
}

}  // namespace avd::runtime
