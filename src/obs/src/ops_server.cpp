#include "avd/obs/ops_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <string_view>
#include <utility>

#include "avd/obs/build_info.hpp"
#include "avd/obs/metrics.hpp"

namespace avd::obs {
namespace {

constexpr int kAcceptPollMs = 100;  // stop() latency bound for the acceptor

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// %XX and '+' decoding for query components; malformed escapes pass through
// literally (this is a debug surface, not a web framework).
std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && hex_digit(s[i + 1]) >= 0 &&
               hex_digit(s[i + 2]) >= 0) {
      out.push_back(static_cast<char>(hex_digit(s[i + 1]) * 16 +
                                      hex_digit(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

// Duplicate keys are first-wins: a clamp-relevant value set early in the
// query string (`?seconds=1&seconds=999`) cannot be overridden by a later
// repeat. `std::map::emplace` is a no-op when the key already exists.
void parse_query(std::string_view raw, std::map<std::string, std::string>& out) {
  std::size_t pos = 0;
  while (pos < raw.size()) {
    std::size_t amp = raw.find('&', pos);
    if (amp == std::string_view::npos) amp = raw.size();
    const std::string_view pair = raw.substr(pos, amp - pos);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out.emplace(url_decode(pair), "");
      } else {
        out.emplace(url_decode(pair.substr(0, eq)),
                    url_decode(pair.substr(eq + 1)));
      }
    }
    pos = amp + 1;
  }
}

// Read from `fd` until the end of the header block or one of the bounds
// trips. Returns false (with `overflow` set accordingly) on failure.
bool read_request_head(int fd, std::size_t max_bytes, std::string& head,
                       bool& overflow) {
  overflow = false;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return false;  // peer closed, timeout or error
    head.append(buf, static_cast<std::size_t>(n));
    if (head.size() > max_bytes) {
      overflow = true;
      return false;
    }
  }
  return true;
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string render_response(const HttpResponse& res) {
  std::ostringstream os;
  os << "HTTP/1.1 " << res.status << ' ' << status_text(res.status) << "\r\n"
     << "Content-Type: " << res.content_type << "\r\n"
     << "Content-Length: " << res.body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << res.body;
  return os.str();
}

}  // namespace

std::string HttpRequest::query_value(const std::string& key,
                                     const std::string& fallback) const {
  const auto it = query.find(key);
  return it == query.end() ? fallback : it->second;
}

OpsServer::OpsServer(OpsServerConfig config) : config_(std::move(config)) {
  if (config_.handler_threads < 1) config_.handler_threads = 1;
  if (config_.max_request_bytes < 64) config_.max_request_bytes = 64;
  if (config_.max_pending_connections == 0) config_.max_pending_connections = 1;
}

OpsServer::~OpsServer() { stop(); }

void OpsServer::handle(std::string path, HttpHandler handler) {
  routes_[std::move(path)] = std::move(handler);
}

bool OpsServer::start() {
  if (running_.load()) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return false;
  }
  port_.store(ntohs(bound.sin_port));

  listen_fd_ = fd;
  stop_requested_.store(false);
  running_.store(true);
  acceptor_ = std::thread(&OpsServer::accept_loop, this);
  handlers_.reserve(static_cast<std::size_t>(config_.handler_threads));
  for (int i = 0; i < config_.handler_threads; ++i)
    handlers_.emplace_back(&OpsServer::handler_loop, this);
  return true;
}

void OpsServer::stop() {
  if (!running_.load()) return;
  {
    // Written under the mutex so a handler between its predicate check and
    // its wait cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_requested_.store(true);
  }
  queue_cv_.notify_all();
  // Wakes the acceptor's poll() at once where the platform reports a shut
  // down listener (Linux does); elsewhere it notices within kAcceptPollMs.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : handlers_)
    if (t.joinable()) t.join();
  handlers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }
  running_.store(false);
}

bool OpsServer::running() const { return running_.load(); }
std::uint16_t OpsServer::port() const { return port_.load(); }
std::uint64_t OpsServer::requests_served() const {
  return requests_served_.load();
}

void OpsServer::accept_loop() {
  while (!stop_requested_.load()) {
    pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, kAcceptPollMs);
    if (r <= 0 || !(p.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    timeval tv{};
    tv.tv_sec = config_.recv_timeout_ms / 1000;
    tv.tv_usec = (config_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (pending_.size() >= config_.max_pending_connections) {
      ::close(fd);  // shed load instead of queueing unboundedly
      continue;
    }
    pending_.push_back(fd);
    queue_cv_.notify_one();
  }
}

void OpsServer::handler_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stop_requested_.load() || !pending_.empty();
      });
      if (pending_.empty()) return;  // only on stop
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
    // Counted before close(): a client that has read to EOF sees its
    // response in requests_served().
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
  }
}

void OpsServer::serve_connection(int fd) {
  std::string head;
  bool overflow = false;
  if (!read_request_head(fd, config_.max_request_bytes, head, overflow)) {
    if (overflow) {
      HttpResponse res{413, "text/plain; charset=utf-8",
                       "request exceeds max_request_bytes\n"};
      send_all(fd, render_response(res));
    }
    return;  // unparseable / stalled: nothing sensible to answer
  }

  // Request line: METHOD SP target SP version.
  const std::size_t eol = head.find_first_of("\r\n");
  const std::string line = head.substr(0, eol);
  std::istringstream ls(line);
  std::string method, target, version;
  ls >> method >> target >> version;

  HttpResponse res;
  if (method.empty() || target.empty() || target[0] != '/') {
    res = {400, "text/plain; charset=utf-8", "malformed request line\n"};
  } else if (method != "GET") {
    res = {405, "text/plain; charset=utf-8", "only GET is supported\n"};
  } else {
    HttpRequest req;
    req.method = method;
    const std::size_t q = target.find('?');
    req.path = url_decode(target.substr(0, q));
    if (q != std::string::npos) parse_query(target.substr(q + 1), req.query);

    const auto it = routes_.find(req.path);
    if (it == routes_.end()) {
      res = {404, "text/plain; charset=utf-8", "no such endpoint: " + req.path +
                                                   "\n"};
    } else {
      try {
        res = it->second(req);
      } catch (const std::exception& e) {
        res = {500, "text/plain; charset=utf-8",
               std::string("handler error: ") + e.what() + "\n"};
      } catch (...) {
        res = {500, "text/plain; charset=utf-8", "handler error\n"};
      }
    }
  }
  send_all(fd, render_response(res));
}

namespace {

// The registry's folded snapshot with the process identity set in it, uptime
// as of this scrape; the registry itself is only read.
MetricsSnapshot scrape(const MetricsRegistry& registry) {
  MetricsSnapshot snap = registry.snapshot();
  publish_process_metrics(snap);
  return snap;
}

}  // namespace

HttpResponse prometheus_response(const MetricsRegistry& registry) {
  HttpResponse res;
  res.content_type = kPrometheusContentType;
  res.body = to_prometheus(scrape(registry));
  if (res.body.empty() || res.body.back() != '\n') res.body.push_back('\n');
  return res;
}

HttpResponse metrics_json_response(const MetricsRegistry& registry) {
  return {200, "application/json", to_json(scrape(registry))};
}

std::optional<HttpResponse> http_get(std::uint16_t port,
                                     const std::string& target,
                                     int timeout_ms) {
  // `timeout_ms` is an OVERALL deadline for the whole call, not a per-recv
  // allowance: a stalled or trickling handler (one byte every timeout-epsilon)
  // must not be able to hold the caller past it. The socket timeouts below
  // only bound connect/send; the receive loop polls against the deadline.
  const std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;

  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return std::nullopt;
  }

  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    return std::nullopt;
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      ::close(fd);
      return std::nullopt;  // overall deadline exceeded
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready <= 0) {
      ::close(fd);
      return std::nullopt;  // deadline hit (0) or poll error (<0)
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      ::close(fd);
      return std::nullopt;  // transport error mid-response
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // Split status line / headers / body.
  std::size_t head_end = raw.find("\r\n\r\n");
  std::size_t body_off = head_end + 4;
  if (head_end == std::string::npos) {
    head_end = raw.find("\n\n");
    body_off = head_end + 2;
    if (head_end == std::string::npos) return std::nullopt;
  }
  const std::string head = raw.substr(0, head_end);
  std::istringstream hs(head);
  std::string status_line;
  std::getline(hs, status_line);
  std::istringstream sl(status_line);
  std::string version;
  int status = 0;
  sl >> version >> status;
  if (status == 0) return std::nullopt;

  HttpResponse res;
  res.status = status;
  res.body = raw.substr(body_off);
  std::string header;
  while (std::getline(hs, header)) {
    if (!header.empty() && header.back() == '\r') header.pop_back();
    constexpr std::string_view kCt = "content-type:";
    if (header.size() > kCt.size()) {
      std::string lower = header.substr(0, kCt.size());
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      if (lower == kCt) {
        std::string v = header.substr(kCt.size());
        const std::size_t b = v.find_first_not_of(' ');
        res.content_type = b == std::string::npos ? "" : v.substr(b);
      }
    }
  }
  return res;
}

}  // namespace avd::obs
