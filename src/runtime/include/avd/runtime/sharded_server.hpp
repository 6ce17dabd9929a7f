// ShardedServer: the sharded front door over M StreamServer shards.
//
//                      ┌── shard 0: StreamServer ── streams a,d,…
//   named sources ──►──┼── shard 1: StreamServer ── streams b,e,…
//   (stable hash)      └── shard …                  (cross-stream batching
//                                                    inside each shard)
//        ▲                                 │
//        └──── one fleet ops surface ◄─────┘
//              /metricsz /metricsz.json /healthz /statusz /profilez
//              /tracez?shard=m /flightz?shard=m
//
// * Placement is deterministic: stable_stream_hash(name) % shards — a
//   64-bit FNV-1a over the stream's NAME, so the same fleet lands the same
//   way on every host and every run. There is no per-name override: a test
//   that needs a placement picks names that hash there.
// * Telemetry: every shard server publishes its per-stream series with a
//   shard=<m> label on top of stream=<name>, all into the one global
//   MetricsRegistry. Every snapshot of it folds the two-dimensional leaves
//   into per-shard marginals (runtime.frames{shard="1"}) and the fleet base
//   (runtime.frames) — the front door's /metricsz therefore answers for
//   the whole fleet in one scrape, and the sum of per-shard marginals
//   equals the base by construction (test-enforced).
// * Ops: ONE front-door listener, configured by the template's `ops`
//   block, answers a StreamServer's seven endpoints from the same code —
//   /healthz the fleet worst-of (503 when any stream is UNHEALTHY) with
//   per-shard rows, /statusz the topology, /metricsz the folded registry,
//   /tracez and /flightz one shard's sampler and recorder. Shard servers
//   run with their own ops plane disabled.
// * Admission: each shard's serve has its own AdmissionController (the
//   ladder is live on every serve, see stream_server.hpp); the front
//   door adds the cross-shard fleet_pressure signal — when at least
//   `fleet_pressure_fraction` of ALL fleet streams are degraded-or-worse,
//   every shard's controller escalates without the per-stream dwell, so a
//   drowning shard's neighbours tighten up too. It is the one fleet-pressure
//   rule: a single server that wants it runs as a 1-shard front door.
// * Determinism: sharding + cross-stream batching never touch the data
//   plane — per-stream results stay bit-identical to the sequential
//   AdaptiveSystem::run(), whatever the placement (test-enforced).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "avd/runtime/stream_server.hpp"

namespace avd::runtime {

/// 64-bit FNV-1a of a stream name: the stable placement hash. Pure function
/// of the bytes — identical across processes, platforms and library
/// versions (never use std::hash here; its value is unspecified).
[[nodiscard]] std::uint64_t stable_stream_hash(std::string_view name) noexcept;

struct ShardedServerConfig {
  /// Shard count M (clamped to >= 1): one StreamServer per shard.
  int shards = 2;
  /// Template applied to every shard's StreamServer. Fields the front door
  /// owns are overwritten per shard: `metric_labels` gains shard=<m>,
  /// `stream_names` becomes the shard's global stream names, and
  /// `ops.enabled` is forced off: `ops` configures the fleet's ONE ops
  /// surface instead, this server's, up from construction to destruction.
  StreamServerConfig shard;
  /// Fraction of ALL fleet streams degraded-or-worse that raises the
  /// cross-shard fleet_pressure signal on every shard's admission
  /// controller (0 = off). Recomputed on every health transition anywhere
  /// in the fleet; requires shard.slo.enabled for transitions to fire.
  double fleet_pressure_fraction = 0.0;
};

/// One named input stream. The name is the placement key and the value of
/// the stream= metric label; it need not be unique, but streams sharing a
/// name share a labeled series.
struct NamedStream {
  std::string name;
  std::unique_ptr<FrameSource> source;
};

class ShardedServer {
 public:
  /// Throws like StreamServer when the ops listener can't bind.
  explicit ShardedServer(const core::AdaptiveSystem& system,
                         ShardedServerConfig config = {});
  ~ShardedServer();
  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Placement of a stream name: stable_stream_hash(name) % shards.
  [[nodiscard]] int shard_of(const std::string& name) const;

  /// Serve every stream to completion, each on its assigned shard, all
  /// shards concurrently. Results are indexed like `streams` (the scatter
  /// restores input order; StreamResult::stream is the input index).
  [[nodiscard]] std::vector<StreamResult> serve(
      std::vector<NamedStream> streams);

  /// Convenience: name sequence i "s<i>" and serve it.
  [[nodiscard]] std::vector<StreamResult> serve_sequences(
      const std::vector<data::DriveSequence>& sequences);

  /// Input-index -> shard placement of the most recent serve() (empty
  /// before any).
  [[nodiscard]] std::vector<int> last_assignment() const;

  [[nodiscard]] const ShardedServerConfig& config() const { return config_; }
  /// Fleet health right now: worst-of across every shard's live per-stream
  /// health (what the front door's /healthz renders).
  [[nodiscard]] obs::HealthState fleet_health() const;
  /// The front-door ops listener (nullptr unless shard.ops.enabled).
  [[nodiscard]] obs::OpsServer* ops_server() const;

 private:
  /// Every shard's StreamServer::obs_view(), under shards_mutex_.
  [[nodiscard]] std::vector<StreamServer::ObsView> shard_views() const;
  /// Recompute the cross-shard pressure flag and push it to every shard's
  /// admission controller. Called from shard health callbacks.
  void update_fleet_pressure();

  const core::AdaptiveSystem* system_;
  ShardedServerConfig config_;
  /// Shard servers of the current/most recent serve(), guarded for the ops
  /// handler threads. Rebuilt per serve().
  mutable std::mutex shards_mutex_;
  std::vector<std::unique_ptr<StreamServer>> shard_servers_;
  std::vector<int> last_assignment_;
  std::atomic<std::uint64_t> serve_count_{0};
  /// Declared last, so destroyed first: its handlers walk shard_servers_.
  std::unique_ptr<OpsSurface> ops_;
};

}  // namespace avd::runtime
