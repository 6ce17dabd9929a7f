// OpsServer: lifecycle, routing, bounds and — scraped over a real socket —
// Prometheus exposition wire conformance.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/ops_server.hpp"

namespace avd::obs {
namespace {

/// Raw client for the shapes http_get cannot produce (non-GET methods,
/// oversized requests). Sends `request` verbatim, returns everything the
/// server answered.
std::string raw_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(OpsServer, StartStopIdempotentOnEphemeralPort) {
  OpsServer server;
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);

  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);  // kernel resolved port 0 to a real one
  EXPECT_TRUE(server.start());  // no-op while running

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent

  // A stopped server restarts cleanly (new socket, possibly new port).
  ASSERT_TRUE(server.start());
  EXPECT_NE(server.port(), 0);
  server.stop();
}

TEST(OpsServer, StartStopStressNeverHangs) {
  // stop() right after start() races handlers into their first wait: the
  // stop flag must be published under the queue mutex or a handler that
  // has just checked the predicate sleeps through the wakeup and join()
  // blocks forever.
  OpsServer server;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(server.start()) << "iteration " << i;
    server.stop();
    ASSERT_FALSE(server.running()) << "iteration " << i;
  }
}

TEST(OpsServer, BindFailureReturnsFalse) {
  OpsServer first;
  ASSERT_TRUE(first.start());

  OpsServerConfig taken;
  taken.port = first.port();
  OpsServer second(taken);
  EXPECT_FALSE(second.start());
  EXPECT_FALSE(second.running());
}

TEST(OpsServer, RoutesQueryParsingAndStatusCodes) {
  OpsServer server;
  server.handle("/hello", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "hi\n"};
  });
  server.handle("/echo", [](const HttpRequest& req) {
    std::ostringstream os;
    os << req.query_value("a") << '|' << req.query_value("b") << '|'
       << req.query_value("missing", "fallback");
    return HttpResponse{200, "text/plain; charset=utf-8", os.str()};
  });
  server.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("kaput");
  });
  ASSERT_TRUE(server.start());

  const auto hello = http_get(server.port(), "/hello");
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->status, 200);
  EXPECT_EQ(hello->body, "hi\n");

  // %XX and '+' decode; absent keys fall back.
  const auto echo = http_get(server.port(), "/echo?a=1&b=hello%20big+world");
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(echo->body, "1|hello big world|fallback");

  // Duplicate keys are first-wins: a repeated param cannot override an
  // earlier clamp-relevant value (even when the repeat is %-encoded).
  const auto dup = http_get(server.port(), "/echo?a=1&a=999&b=x&%61=7");
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->body, "1|x|fallback");

  const auto missing = http_get(server.port(), "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  // A throwing handler answers 500 and the pool thread survives to serve
  // the next request.
  const auto boom = http_get(server.port(), "/boom");
  ASSERT_TRUE(boom.has_value());
  EXPECT_EQ(boom->status, 500);
  EXPECT_NE(boom->body.find("kaput"), std::string::npos);
  const auto after = http_get(server.port(), "/hello");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200);

  const std::string post =
      raw_request(server.port(),
                  "POST /hello HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                  "Content-Length: 0\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);

  EXPECT_GE(server.requests_served(), 5u);
  server.stop();
}

TEST(OpsServer, OversizedRequestGets413) {
  OpsServerConfig config;
  config.max_request_bytes = 256;
  OpsServer server(config);
  server.handle("/x", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok"};
  });
  ASSERT_TRUE(server.start());

  const std::string huge =
      "GET /x HTTP/1.1\r\nX-Pad: " + std::string(1024, 'a') + "\r\n\r\n";
  const std::string answer = raw_request(server.port(), huge);
  EXPECT_NE(answer.find("413"), std::string::npos);
  server.stop();
}

TEST(OpsServer, ConcurrentRequestsAllAnswer) {
  std::atomic<int> handled{0};
  OpsServerConfig config;
  config.handler_threads = 3;
  OpsServer server(config);
  server.handle("/work", [&handled](const HttpRequest&) {
    handled.fetch_add(1);
    return HttpResponse{200, "text/plain; charset=utf-8", "done"};
  });
  ASSERT_TRUE(server.start());

  constexpr int kClients = 12;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &ok] {
      const auto res = http_get(server.port(), "/work");
      if (res.has_value() && res->status == 200 && res->body == "done")
        ok.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(handled.load(), kClients);
  EXPECT_GE(server.requests_served(), static_cast<std::uint64_t>(kClients));
  server.stop();
}

// http_get's timeout is an overall deadline, not a per-recv allowance: a
// handler that never answers must fail the client at ~timeout_ms, not hold
// it for the server's (much larger) recv timeout or forever.
TEST(OpsServer, HttpGetDeadlineBoundsAStalledHandler) {
  OpsServerConfig config;
  config.handler_threads = 2;  // the stalled handler must not wedge others
  OpsServer server(config);
  std::atomic<bool> release{false};
  server.handle("/stall", [&release](const HttpRequest&) {
    for (int i = 0; i < 300 && !release.load(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return HttpResponse{200, "text/plain; charset=utf-8", "finally"};
  });
  server.handle("/ok", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok"};
  });
  ASSERT_TRUE(server.start());

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = http_get(server.port(), "/stall", /*timeout_ms=*/300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_FALSE(res.has_value());      // gave up, did not wait out the stall
  EXPECT_GE(elapsed.count(), 250);    // ...but did honour the deadline
  EXPECT_LT(elapsed.count(), 1500);   // nowhere near the 3 s handler stall

  // The second pool thread still answers while the first is stalled.
  const auto ok = http_get(server.port(), "/ok", /*timeout_ms=*/2000);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->body, "ok");

  release.store(true);  // let the handler finish so stop() joins promptly
  server.stop();
}

TEST(OpsServer, PrometheusWireConformanceOverRealSocket) {
  // A registry exercising the exposition's edge cases: special double
  // values, a labeled family, and a base name whose HELP line needs \\ and
  // \n escaping.
  MetricsRegistry registry;
  registry.counter("wire.events").inc(7);
  registry.gauge("wire.pos_inf").set(std::numeric_limits<double>::infinity());
  registry.gauge("wire.neg_inf").set(-std::numeric_limits<double>::infinity());
  registry.gauge("wire.nan").set(std::nan(""));
  registry.gauge("wire.weird\nname\\x").set(1.0);
  registry.counter("wire.labeled", {{"stream", "0"}}).inc(3);
  registry.histogram("wire.lat_ns").record_ns(1000);

  OpsServer server;
  server.handle("/metricsz", [&registry](const HttpRequest&) {
    return prometheus_response(registry);
  });
  ASSERT_TRUE(server.start());

  const auto res = http_get(server.port(), "/metricsz");
  server.stop();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->status, 200);
  // The negotiated content type, exactly.
  EXPECT_EQ(res->content_type, kPrometheusContentType);
  const std::string& body = res->body;
  ASSERT_FALSE(body.empty());
  // Exposition format requires the final line to end in a newline.
  EXPECT_EQ(body.back(), '\n');

  // Special values spell +Inf / -Inf / NaN, never inf/nan.
  EXPECT_NE(body.find("wire_pos_inf +Inf\n"), std::string::npos);
  EXPECT_NE(body.find("wire_neg_inf -Inf\n"), std::string::npos);
  EXPECT_NE(body.find("wire_nan NaN\n"), std::string::npos);

  // HELP carries the raw name with backslash and newline escaped.
  EXPECT_NE(body.find("\\\\"), std::string::npos);
  EXPECT_NE(body.find("\\n"), std::string::npos);

  // Labeled series render base{label="value"}.
  EXPECT_NE(body.find("wire_labeled{stream=\"0\"} 3\n"), std::string::npos);

  // The default process-identity series ride along on every scrape.
  EXPECT_NE(body.find("process_uptime_seconds "), std::string::npos);
  EXPECT_NE(body.find("build_info{"), std::string::npos);

  // Re-parse the whole body: every line is a comment or `name{...} value`,
  // each # TYPE is one of the legal kinds, and no line is bare whitespace.
  std::istringstream lines(body);
  std::size_t samples = 0;
  for (std::string line; std::getline(lines, line);) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name;
      ls >> hash >> kind >> name;
      EXPECT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      EXPECT_FALSE(name.empty()) << line;
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        EXPECT_TRUE(type == "counter" || type == "gauge" ||
                    type == "summary" || type == "untyped")
            << line;
      }
      continue;
    }
    // Sample line: value is the last space-separated token; the name part
    // must start with a legal metric-name character.
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string value = line.substr(sp + 1);
    EXPECT_FALSE(value.empty()) << line;
    const char c0 = line[0];
    EXPECT_TRUE((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
                c0 == '_' || c0 == ':')
        << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(OpsServer, MetricsJsonResponseParsesStrictly) {
  MetricsRegistry registry;
  registry.counter("j.count").inc(2);
  registry.gauge("j.gauge").set(1.5);

  OpsServer server;
  server.handle("/metricsz.json", [&registry](const HttpRequest&) {
    return metrics_json_response(registry);
  });
  ASSERT_TRUE(server.start());
  const auto res = http_get(server.port(), "/metricsz.json");
  server.stop();

  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->status, 200);
  EXPECT_EQ(res->content_type, "application/json");
  const std::optional<json::Value> doc = json::parse(res->body);
  ASSERT_TRUE(doc.has_value());
  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* count = counters->find("j.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number, 2.0);
}

}  // namespace
}  // namespace avd::obs
