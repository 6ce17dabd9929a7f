// OpsSurface: the one implementation of the live ops endpoints (see
// StreamOpsConfig). A StreamServer owns one as a fleet of one shard, itself;
// the sharded front door owns one over its shard servers. Handlers run on
// the listener's threads, concurrently with serve(), and read only the
// shard views the owner takes under its lock, the thread-safe registry,
// sampler, recorder and profiler, and configuration fixed at construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "avd/obs/ops_server.hpp"
#include "avd/obs/sample_profiler.hpp"
#include "avd/runtime/sharded_server.hpp"

namespace avd::runtime {

/// A shard's serving configuration as JSON object members (no braces).
[[nodiscard]] std::string config_json_fields(const StreamServerConfig& c);

class OpsSurface {
 public:
  /// Each of the owner's shards' obs_view(), taken under the owner's lock.
  using ShardViews = std::function<std::vector<StreamServer::ObsView>()>;

  /// Starts a listener shaped by fleet.shard.ops (std::runtime_error when it
  /// cannot bind); `serves` is the owner's serve counter.
  OpsSurface(std::string role, ShardedServerConfig fleet,
             const std::atomic<std::uint64_t>& serves, ShardViews shards);

  [[nodiscard]] obs::OpsServer& server() { return server_; }
  [[nodiscard]] obs::SampleProfiler& profiler() { return profiler_; }

 private:
  [[nodiscard]] obs::HttpResponse statusz() const;
  [[nodiscard]] obs::HttpResponse profilez(const obs::HttpRequest& req);
  void handle_shard(const char* path,
                    obs::HttpResponse (*render)(const StreamServer::ObsView&));

  const std::string role_;
  ShardedServerConfig fleet_;
  const std::atomic<std::uint64_t>& serves_;
  const ShardViews shards_;
  obs::SampleProfiler profiler_;
  /// Declared last, so stopped first: its handler threads read everything
  /// above and the owner's shards.
  obs::OpsServer server_;
};

}  // namespace avd::runtime
