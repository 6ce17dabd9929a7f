#include "avd/runtime/sharded_server.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "avd/obs/metrics.hpp"
#include "ops_surface.hpp"

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
  if (config_.shard.ops.enabled)
    ops_ = std::make_unique<OpsSurface>("sharded-front-door", config_,
                                        serve_count_,
                                        [this] { return shard_views(); });
}

ShardedServer::~ShardedServer() = default;

obs::OpsServer* ShardedServer::ops_server() const {
  return ops_ ? &ops_->server() : nullptr;
}

int ShardedServer::shard_of(const std::string& name) const {
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
  const auto m_shards = static_cast<std::size_t>(config_.shards);
  serve_count_.fetch_add(1);

  // --- gather: deterministic placement ---------------------------------
  // Stream i is source local[i] of shard assignment[i].
  std::vector<int> assignment(streams.size());
  std::vector<std::size_t> local(streams.size());
  std::vector<std::vector<std::unique_ptr<FrameSource>>> shard_sources(
      m_shards);
  std::vector<std::vector<std::string>> shard_names(m_shards);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    assignment[i] = shard_of(streams[i].name);
    const auto um = static_cast<std::size_t>(assignment[i]);
    local[i] = shard_sources[um].size();
    shard_names[um].push_back(streams[i].name);
    shard_sources[um].push_back(std::move(streams[i].source));
  }

  // --- build this serve's shard servers --------------------------------
  // Published under the lock so the ops handlers never see a half-built
  // fleet; old servers (previous serve) are torn down here too.
  {
    std::lock_guard<std::mutex> lock(shards_mutex_);
    shard_servers_.clear();
    last_assignment_ = assignment;
    for (std::size_t m = 0; m < m_shards; ++m) {
      StreamServerConfig sc = config_.shard;
      sc.ops.enabled = false;
      sc.metric_labels.emplace_back("shard", std::to_string(m));
      sc.stream_names = shard_names[m];
      shard_servers_.push_back(std::make_unique<StreamServer>(*system_, sc));
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
  std::vector<std::vector<StreamResult>> shard_results(m_shards);
  std::vector<std::thread> shard_threads;
  for (std::size_t m = 0; m < m_shards; ++m)
    shard_threads.emplace_back([this, m, &shard_results, &shard_sources] {
      shard_results[m] = shard_servers_[m]->serve(std::move(shard_sources[m]));
    });
  for (std::thread& t : shard_threads) t.join();

  // Fold the shard= x stream= leaves into per-shard marginals and the
  // fleet base (idempotent on top of the per-shard serves' own rollups).
  obs::MetricsRegistry::global().rollup();

  // --- scatter: restore input order ------------------------------------
  std::vector<StreamResult> out(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    out[i] = std::move(
        shard_results[static_cast<std::size_t>(assignment[i])][local[i]]);
    out[i].stream = static_cast<int>(i);
  }
  return out;
}

std::vector<int> ShardedServer::last_assignment() const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  return last_assignment_;
}

std::vector<StreamServer::ObsView> ShardedServer::shard_views() const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  std::vector<StreamServer::ObsView> views;
  for (const auto& shard : shard_servers_) views.push_back(shard->obs_view());
  return views;
}

obs::HealthState ShardedServer::fleet_health() const {
  std::vector<obs::HealthState> all;
  for (const StreamServer::ObsView& view : shard_views())
    for (const StreamServer::StreamView& s : view.streams)
      all.push_back(s.health);
  return obs::worst_of(all);
}

// Fleet view: degraded-or-worse fraction across EVERY shard's streams, each
// shard read and written under its own lock (its serve() swaps the ladder).
void ShardedServer::update_fleet_pressure() {
  std::size_t total = 0, hot = 0;
  std::lock_guard<std::mutex> lock(shards_mutex_);
  for (const auto& shard : shard_servers_) {
    for (const StreamServer::StreamView& s : shard->obs_view().streams) {
      ++total;
      if (s.health != obs::HealthState::Healthy) ++hot;
    }
  }
  const bool pressure =
      total > 0 && static_cast<double>(hot) >=
                       config_.fleet_pressure_fraction *
                           static_cast<double>(total);
  for (const auto& shard : shard_servers_) shard->set_fleet_pressure(pressure);
}

}  // namespace avd::runtime
