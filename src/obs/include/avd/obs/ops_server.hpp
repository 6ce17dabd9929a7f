// OpsServer: the live introspection plane's front door.
//
// A small, dependency-free blocking HTTP/1.1 listener over POSIX sockets —
// the per-process scrape/health/debug surface a sharded fleet presupposes
// (Monarch-style pull exposition; you cannot operate a fleet you can only
// inspect post-mortem). Deliberately minimal:
//
//  * one acceptor thread (poll + accept, so stop() is prompt) feeding a
//    small handler pool through a bounded fd queue — connections beyond the
//    bound are closed, never buffered unboundedly;
//  * requests are size-bounded (413 beyond max_request_bytes) and
//    recv-timeout-bounded, so a stalled client cannot wedge a handler;
//  * GET only (405 otherwise), exact-path routing (404 otherwise),
//    Connection: close on every response — no keep-alive state machine;
//  * handlers run on the pool threads and must be thread-safe against the
//    process they introspect; a throwing handler becomes a 500, never a
//    dead handler thread.
//
// StreamServer and the sharded front door embed one (StreamServerConfig::ops)
// with the standard endpoints: /metricsz, /metricsz.json, /healthz,
// /tracez, /flightz, /statusz, /profilez. prometheus_response()/
// metrics_json_response() are the reusable scrape payloads, and http_get()
// is the matching minimal client used by tests, examples and smoke checks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace avd::obs {

class MetricsRegistry;

struct HttpRequest {
  std::string method;
  std::string path;  ///< request target before '?'
  /// Decoded query parameters. Duplicate keys are first-wins: the first
  /// occurrence in the raw query string is kept and later repeats are
  /// ignored, so `?seconds=1&seconds=999` yields `seconds=1` and a repeated
  /// param can never override an earlier clamp-relevant value.
  std::map<std::string, std::string> query;

  /// Value of one query parameter, or `fallback` when absent.
  [[nodiscard]] std::string query_value(const std::string& key,
                                        const std::string& fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct OpsServerConfig {
  /// Loopback by default: the ops plane is a debug surface, not a public API.
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read the result back via port().
  std::uint16_t port = 0;
  /// Handler pool size (>= 1). /profilez blocks its handler for the whole
  /// window, so keep at least 2 when profiling live systems.
  int handler_threads = 2;
  /// Requests larger than this are answered 413 and closed.
  std::size_t max_request_bytes = 8192;
  /// Per-connection receive timeout; a stalled client is dropped after it.
  int recv_timeout_ms = 2000;
  /// Accepted-but-unserved connections held; more are closed immediately.
  std::size_t max_pending_connections = 32;
};

class OpsServer {
 public:
  explicit OpsServer(OpsServerConfig config = {});
  ~OpsServer();  ///< stop()
  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  /// Register `handler` for exact-match `path`. Register before start();
  /// routes are not mutated while the server runs.
  void handle(std::string path, HttpHandler handler);

  /// Bind, listen, launch acceptor + handler pool. False when the socket
  /// cannot be bound (port taken, bad address). Idempotent while running.
  bool start();
  /// Close the listener, join every thread, drop pending connections.
  /// Idempotent.
  void stop();
  [[nodiscard]] bool running() const;

  /// The actually bound port (resolves ephemeral port 0); 0 before start().
  [[nodiscard]] std::uint16_t port() const;
  /// Responses completed (any status) since construction.
  [[nodiscard]] std::uint64_t requests_served() const;
  [[nodiscard]] const OpsServerConfig& config() const { return config_; }

 private:
  void accept_loop();
  void handler_loop();
  void serve_connection(int fd);

  OpsServerConfig config_;
  std::map<std::string, HttpHandler> routes_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint16_t> port_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  int listen_fd_ = -1;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a handler

  std::thread acceptor_;
  std::vector<std::thread> handlers_;
};

/// The standard Prometheus scrape payload: republished process identity,
/// then the text exposition of the folded snapshot (fleet view included)
/// under kPrometheusContentType with guaranteed trailing newline. One
/// implementation for StreamServer's /metricsz and every test that checks
/// wire conformance.
[[nodiscard]] HttpResponse prometheus_response(MetricsRegistry& registry);

/// The /metricsz.json payload: same refresh, the same folded snapshot as
/// JSON under application/json.
[[nodiscard]] HttpResponse metrics_json_response(MetricsRegistry& registry);

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1:`port` (the client half
/// of OpsServer, for tests/examples/smoke): returns the response, or
/// nullopt on connect/transport failure. `target` includes the query
/// string ("/profilez?seconds=1").
[[nodiscard]] std::optional<HttpResponse> http_get(std::uint16_t port,
                                                   const std::string& target,
                                                   int timeout_ms = 10000);

}  // namespace avd::obs
