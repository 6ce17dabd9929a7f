#include "avd/runtime/sharded_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "avd/obs/build_info.hpp"
#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"

namespace avd::runtime {

std::uint64_t stable_stream_hash(std::string_view name) noexcept {
  // FNV-1a, 64-bit: offset basis / prime from the reference parameters.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

ShardedServer::ShardedServer(const core::AdaptiveSystem& system,
                             ShardedServerConfig config)
    : system_(&system), config_(std::move(config)) {
  config_.shards = std::max(1, config_.shards);
  // The fleet has one ops surface; a shard template smuggling its own in
  // would race M listeners for one port.
  config_.shard.ops.enabled = false;
  if (config_.ops_enabled) {
    ops_ = std::make_unique<obs::OpsServer>(config_.ops);
    install_ops_endpoints();
    if (!ops_->start())
      throw std::runtime_error("ShardedServer: ops server failed to bind " +
                               config_.ops.bind_address + ":" +
                               std::to_string(config_.ops.port));
  }
}

ShardedServer::~ShardedServer() {
  // Handler threads walk shard_servers_; take the listener down first.
  if (ops_) ops_->stop();
}

int ShardedServer::shard_of(const std::string& name) const {
  const auto it = config_.assign_override.find(name);
  if (it != config_.assign_override.end())
    return std::clamp(it->second, 0, config_.shards - 1);
  return static_cast<int>(stable_stream_hash(name) %
                          static_cast<std::uint64_t>(config_.shards));
}

std::vector<StreamResult> ShardedServer::serve_sequences(
    const std::vector<data::DriveSequence>& sequences) {
  std::vector<NamedStream> streams;
  streams.reserve(sequences.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    std::string name = "s";
    name += std::to_string(i);
    streams.push_back({std::move(name), make_source(sequences[i])});
  }
  return serve(std::move(streams));
}

std::vector<StreamResult> ShardedServer::serve(
    std::vector<NamedStream> streams) {
  const int m_shards = config_.shards;
  serve_count_.fetch_add(1);

  // --- gather: deterministic placement ---------------------------------
  struct Placement {
    int shard = 0;
    int local = 0;  ///< index within the shard's source list
  };
  std::vector<Placement> place(streams.size());
  std::vector<std::vector<std::unique_ptr<FrameSource>>> shard_sources(
      static_cast<std::size_t>(m_shards));
  std::vector<std::vector<std::string>> shard_names(
      static_cast<std::size_t>(m_shards));
  std::vector<int> assignment(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const int m = shard_of(streams[i].name);
    const auto um = static_cast<std::size_t>(m);
    place[i] = {m, static_cast<int>(shard_sources[um].size())};
    assignment[i] = m;
    shard_names[um].push_back(streams[i].name);
    shard_sources[um].push_back(std::move(streams[i].source));
  }

  // --- build this serve's shard servers --------------------------------
  // Published under the lock so the ops handlers never see a half-built
  // fleet; old servers (previous serve) are torn down here too.
  {
    std::lock_guard<std::mutex> lock(shards_mutex_);
    shard_servers_.clear();
    shard_stream_names_ = shard_names;
    last_assignment_ = assignment;
    for (int m = 0; m < m_shards; ++m) {
      StreamServerConfig sc = config_.shard;
      sc.ops.enabled = false;
      sc.metric_labels.emplace_back("shard", std::to_string(m));
      sc.stream_names = shard_names[static_cast<std::size_t>(m)];
      shard_servers_.push_back(
          std::make_unique<StreamServer>(*system_, sc));
      if (config_.fleet_pressure_fraction > 0.0)
        shard_servers_.back()->set_health_callback(
            [this](int, const obs::HealthTransition&) {
              update_fleet_pressure();
            });
    }
  }

  // --- serve all shards concurrently -----------------------------------
  // One thread per shard; each StreamServer spins its own stage workers
  // (and leans on the shared scan_pool when the template installs one).
  std::vector<std::vector<StreamResult>> shard_results(
      static_cast<std::size_t>(m_shards));
  std::vector<std::thread> shard_threads;
  shard_threads.reserve(static_cast<std::size_t>(m_shards));
  for (int m = 0; m < m_shards; ++m) {
    shard_threads.emplace_back([this, m, &shard_results, &shard_sources] {
      const auto um = static_cast<std::size_t>(m);
      shard_results[um] =
          shard_servers_[um]->serve(std::move(shard_sources[um]));
    });
  }
  for (std::thread& t : shard_threads) t.join();

  // Fold the shard= x stream= leaves into per-shard marginals and the
  // fleet base (idempotent on top of the per-shard serves' own rollups).
  obs::MetricsRegistry::global().rollup();

  // --- scatter: restore input order ------------------------------------
  std::vector<StreamResult> out(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    out[i] = std::move(
        shard_results[static_cast<std::size_t>(place[i].shard)]
                     [static_cast<std::size_t>(place[i].local)]);
    out[i].stream = static_cast<int>(i);
  }
  return out;
}

std::vector<int> ShardedServer::last_assignment() const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  return last_assignment_;
}

obs::HealthState ShardedServer::fleet_health() const {
  std::vector<obs::HealthState> all;
  std::lock_guard<std::mutex> lock(shards_mutex_);
  for (const auto& shard : shard_servers_) {
    const std::vector<obs::HealthState> states = shard->live_stream_health();
    all.insert(all.end(), states.begin(), states.end());
  }
  return obs::worst_of(all);
}

void ShardedServer::update_fleet_pressure() {
  // Fleet view: degraded-or-worse fraction across EVERY shard's streams.
  std::size_t total = 0, hot = 0;
  std::lock_guard<std::mutex> lock(shards_mutex_);
  for (const auto& shard : shard_servers_) {
    for (const obs::HealthState s : shard->live_stream_health()) {
      ++total;
      if (s != obs::HealthState::Healthy) ++hot;
    }
  }
  const bool pressure =
      total > 0 && static_cast<double>(hot) >=
                       config_.fleet_pressure_fraction *
                           static_cast<double>(total);
  for (const auto& shard : shard_servers_)
    if (AdmissionController* admission = shard->admission())
      admission->set_fleet_pressure(pressure);
}

// The fleet introspection surface. Handlers run on the front door's pool
// threads concurrently with serve(); everything crosses shards_mutex_ or
// is internally thread-safe (registry, shard accessors).
void ShardedServer::install_ops_endpoints() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  // One scrape answers for the whole fleet: prometheus_response folds the
  // registry first, so shard= marginals and the fleet base are fresh.
  ops_->handle("/metricsz", [&registry](const obs::HttpRequest&) {
    return obs::prometheus_response(registry);
  });
  ops_->handle("/metricsz.json", [&registry](const obs::HttpRequest&) {
    return obs::metrics_json_response(registry);
  });

  // Fleet health: worst-of across every shard; 503 when UNHEALTHY, so the
  // front door slots straight into a load balancer's readiness probe.
  ops_->handle("/healthz", [this](const obs::HttpRequest&) {
    std::ostringstream os;
    std::vector<obs::HealthState> all;
    obs::HealthState fleet = obs::HealthState::Healthy;
    {
      std::lock_guard<std::mutex> lock(shards_mutex_);
      os << "{\"shards\":[";
      for (std::size_t m = 0; m < shard_servers_.size(); ++m) {
        const StreamServer& shard = *shard_servers_[m];
        const std::vector<obs::HealthState> states =
            shard.live_stream_health();
        all.insert(all.end(), states.begin(), states.end());
        AdmissionController* admission = shard.admission();
        if (m != 0) os << ',';
        os << "{\"shard\":" << m << ",\"streams\":[";
        for (std::size_t s = 0; s < states.size(); ++s) {
          if (s != 0) os << ',';
          os << "{\"stream\":\""
             << obs::json::escape(m < shard_stream_names_.size() &&
                                          s < shard_stream_names_[m].size()
                                      ? shard_stream_names_[m][s]
                                      : std::to_string(s))
             << "\",\"state\":\"" << obs::to_string(states[s]) << '"';
          if (admission != nullptr)
            os << ",\"degrade_level\":"
               << static_cast<int>(admission->level(static_cast<int>(s)));
          os << '}';
        }
        os << "]}";
      }
      fleet = obs::worst_of(all);
      os << "],\"fleet\":\"" << obs::to_string(fleet) << "\"}";
    }
    obs::HttpResponse res;
    res.status = fleet == obs::HealthState::Unhealthy ? 503 : 200;
    res.content_type = "application/json";
    res.body = os.str();
    return res;
  });

  ops_->handle("/statusz", [this, &registry](const obs::HttpRequest&) {
    obs::publish_process_metrics(registry);
    std::ostringstream os;
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time_)
            .count();
    os << "{\"role\":\"sharded-front-door\",\"build\":{\"version\":\""
       << obs::json::escape(obs::build_version()) << "\",\"mode\":\""
       << obs::json::escape(obs::build_mode())
       << "\"},\"uptime_seconds\":" << uptime
       << ",\"serves\":" << serve_count_.load()
       << ",\"config\":{\"shards\":" << config_.shards
       << ",\"fleet_pressure_fraction\":" << config_.fleet_pressure_fraction
       << ",\"cross_stream_batching\":"
       << (config_.shard.cross_stream_batching ? "true" : "false")
       << ",\"detect_workers\":" << config_.shard.detect_workers
       << "},\"shards\":[";
    {
      std::lock_guard<std::mutex> lock(shards_mutex_);
      for (std::size_t m = 0; m < shard_stream_names_.size(); ++m) {
        if (m != 0) os << ',';
        os << "{\"shard\":" << m
           << ",\"streams\":" << shard_stream_names_[m].size() << '}';
      }
    }
    os << "]}";
    return obs::HttpResponse{200, "application/json", os.str()};
  });
}

}  // namespace avd::runtime
