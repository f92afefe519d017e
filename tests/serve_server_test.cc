// End-to-end serving tests over real loopback sockets: keep-alive,
// pipelining, concurrent clients coalescing into batches (and batches
// running on several pool workers at once), 429 shedding,
// 504 deadlines, hostile wire input, and graceful drain. The engine is
// faked through ExpertSearchService's BatchExecuteFn seam, so these
// tests exercise every serving layer except the model itself.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"
#include "serve/http_server.h"
#include "serve/json_util.h"
#include "serve/service.h"

namespace kpef::serve {
namespace {

// --- Minimal blocking HTTP client ------------------------------------

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
};

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool SendRaw(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Post(const std::string& path, const std::string& body) {
    return SendRaw("POST " + path + " HTTP/1.1\r\ncontent-length: " +
                   std::to_string(body.size()) + "\r\n\r\n" + body);
  }

  bool PostWithHeaders(const std::string& path, const std::string& body,
                       const std::vector<std::string>& extra_headers) {
    std::string wire = "POST " + path + " HTTP/1.1\r\ncontent-length: " +
                       std::to_string(body.size()) + "\r\n";
    for (const std::string& h : extra_headers) wire += h + "\r\n";
    wire += "\r\n" + body;
    return SendRaw(wire);
  }

  bool Get(const std::string& path) {
    return SendRaw("GET " + path + " HTTP/1.1\r\n\r\n");
  }

  /// Reads exactly one response (headers + content-length body).
  bool ReadResponse(ClientResponse* out) {
    while (true) {
      const size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        return ParseAndFill(header_end, out);
      }
      if (!FillBuffer()) return false;
    }
  }

  /// True when the server closed the connection (EOF).
  bool WaitForClose() {
    while (true) {
      char c;
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET;
      buffer_.push_back(c);
    }
  }

 private:
  bool FillBuffer() {
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<size_t>(n));
    return true;
  }

  bool ParseAndFill(size_t header_end, ClientResponse* out) {
    const std::string head = buffer_.substr(0, header_end);
    out->status = std::atoi(head.c_str() + 9);  // "HTTP/1.1 NNN ..."
    out->headers.clear();
    size_t line_start = head.find("\r\n") + 2;
    while (line_start < head.size()) {
      size_t line_end = head.find("\r\n", line_start);
      if (line_end == std::string::npos) line_end = head.size();
      const std::string line = head.substr(line_start, line_end - line_start);
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string name = line.substr(0, colon);
        for (char& c : name) c = static_cast<char>(std::tolower(c));
        std::string value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.erase(0, 1);
        out->headers[name] = value;
      }
      line_start = line_end + 2;
    }
    const size_t content_length =
        static_cast<size_t>(std::atoll(out->headers["content-length"].c_str()));
    const size_t body_start = header_end + 4;
    while (buffer_.size() < body_start + content_length) {
      if (!FillBuffer()) return false;
    }
    out->body = buffer_.substr(body_start, content_length);
    buffer_.erase(0, body_start + content_length);
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

// --- Fake engine + service/server fixture ----------------------------

struct FakeEngine {
  std::mutex mutex;
  std::condition_variable cv;
  bool blocked = false;
  double sleep_ms = 0.0;
  std::vector<size_t> batch_sizes;

  BatchExecuteFn AsFn() {
    return [this](const std::vector<std::string>& texts, size_t top_n,
                  const BatchQueryOptions& options) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        batch_sizes.push_back(texts.size());
        cv.notify_all();
        cv.wait(lock, [this] { return !blocked; });
      }
      if (sleep_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
      // Simulate the real engine's per-query trace attribution so the
      // serving layers' key plumbing is testable without a model.
      for (size_t q = 0; q < options.trace_keys.size(); ++q) {
        obs::RecordSpan(options.trace_keys[q], "engine.fake",
                        obs::Tracer::Global().NowNanos(), 1000);
      }
      BatchResult result;
      result.stats.assign(texts.size(), QueryStats());
      result.experts.resize(texts.size());
      for (size_t q = 0; q < texts.size(); ++q) {
        for (size_t i = 0; i < top_n; ++i) {
          result.experts[q].push_back(
              ExpertScore{static_cast<NodeId>(100 + i), 1.0 / (1.0 + i)});
        }
      }
      result.label = [](NodeId id) { return "expert-" + std::to_string(id); };
      return result;
    };
  }

  void Block() {
    std::lock_guard<std::mutex> lock(mutex);
    blocked = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      blocked = false;
    }
    cv.notify_all();
  }
  std::vector<size_t> BatchSizes() {
    std::lock_guard<std::mutex> lock(mutex);
    return batch_sizes;
  }
  /// Blocks until `n` engine calls have entered.
  bool WaitForCalls(size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return batch_sizes.size() >= n; });
  }
};

/// Polls until the service's batcher holds `n` admitted-but-undispatched
/// requests (the bound only keeps a broken server from hanging a test).
bool WaitForPending(const ExpertSearchService& service, size_t n) {
  for (int i = 0; i < 5000; ++i) {
    if (service.PendingForTest() == n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Server + service pair on an ephemeral port. Declaration order
/// matters: the server must outlive the service's batcher callbacks.
struct Harness {
  FakeEngine engine;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<ExpertSearchService> service;

  explicit Harness(ServiceConfig service_config = ServiceConfig(),
                   HttpServerConfig server_config = HttpServerConfig()) {
    EngineInfo info;
    info.display_name = "fake";
    info.num_papers = 10;
    info.num_experts = 5;
    info.embedding_dim = 8;
    info.has_index = true;
    service = std::make_unique<ExpertSearchService>(service_config, info,
                                                    engine.AsFn());
    server = std::make_unique<HttpServer>(
        server_config, [this](const HttpRequest& request,
                              HttpServer::Responder respond) {
          service->Handle(request, std::move(respond));
        });
    const Status started = server->Start();
    if (!started.ok()) std::abort();
  }

  ~Harness() {
    server->ShutdownGracefully(2000.0);
    service->Drain();
  }

  uint16_t port() const { return server->port(); }
};

ServiceConfig FastConfig() {
  ServiceConfig config;
  config.batcher.max_batch_size = 8;
  return config;
}

TEST(ServeServerTest, HealthzMetricsAndKeepAlive) {
  Harness harness(FastConfig());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Get("/healthz"));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"engine\":\"fake\""), std::string::npos);
  EXPECT_EQ(response.headers["connection"], "keep-alive");

  // Same connection serves the next request (keep-alive).
  ASSERT_TRUE(client.Get("/metrics"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("serve_requests"), std::string::npos);
}

TEST(ServeServerTest, FindExpertsHappyPath) {
  Harness harness(FastConfig());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(
      client.Post("/v1/find_experts", R"({"query":"deep learning","n":3})"));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"experts\":[{\"id\":100,"),
            std::string::npos);
  EXPECT_NE(response.body.find("expert-100"), std::string::npos);
  EXPECT_NE(response.body.find("\"stats\":"), std::string::npos);
  // n=3 requested: exactly 3 expert objects.
  size_t count = 0;
  for (size_t pos = 0;
       (pos = response.body.find("\"id\":", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

// "n" past size_t's range must clamp to max_top_n, not wrap through an
// out-of-range double -> size_t cast into zero experts. Each clamp is
// counted in serve.top_n_clamped; an n at the cap is not a clamp.
TEST(ServeServerTest, HugeNClampsToMaxTopN) {
  ServiceConfig config = FastConfig();
  config.max_top_n = 7;
  Harness harness(config);
  obs::Counter& clamped =
      obs::MetricsRegistry::Global().GetCounter(obs::kServeTopNClamped);
  const uint64_t clamped_before = clamped.Value();
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  auto experts_for = [&client](const std::string& body) {
    EXPECT_TRUE(client.Post("/v1/find_experts", body));
    ClientResponse response;
    EXPECT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.status, 200) << body;
    size_t count = 0;
    for (size_t pos = 0;
         (pos = response.body.find("\"id\":", pos)) != std::string::npos;
         ++pos) {
      ++count;
    }
    return count;
  };
  const size_t at_cap = experts_for(R"({"query":"x","n":7})");
  EXPECT_EQ(at_cap, 7u);
  EXPECT_EQ(experts_for(R"({"query":"x","n":2e19})"), at_cap);
  EXPECT_EQ(experts_for(R"({"query":"x","n":1e300})"), at_cap);
  EXPECT_EQ(clamped.Value() - clamped_before, 2u);
}

TEST(ServeServerTest, UnknownRoutesAndMethods) {
  Harness harness(FastConfig());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ClientResponse response;
  ASSERT_TRUE(client.Get("/nope"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 404);
  ASSERT_TRUE(client.Get("/v1/find_experts"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 405);
}

TEST(ServeServerTest, ConcurrentClientsCoalesceIntoBatches) {
  ServiceConfig config;
  config.batcher.max_batch_size = 8;
  Harness harness(config);
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<TestClient>(harness.port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  // Wedge the engine on one request so the concurrent ones queue behind
  // it; the batcher then hands all of them to the next engine call.
  harness.engine.Block();
  TestClient plug(harness.port());
  ASSERT_TRUE(plug.Post("/v1/find_experts", R"({"query":"plug"})"));
  EXPECT_TRUE(harness.engine.WaitForCalls(1));
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      if (!clients[static_cast<size_t>(i)]->Post("/v1/find_experts",
                                                 R"({"query":"q"})")) {
        return;
      }
      ClientResponse response;
      if (clients[static_cast<size_t>(i)]->ReadResponse(&response) &&
          response.status == 200) {
        ok.fetch_add(1);
      }
    });
  }
  // EXPECT, not ASSERT: the engine must be released whatever happens.
  EXPECT_TRUE(WaitForPending(*harness.service, kClients));
  harness.engine.Release();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  ClientResponse response;
  ASSERT_TRUE(plug.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  // All eight concurrent requests rode one engine call.
  EXPECT_EQ(harness.engine.BatchSizes(), (std::vector<size_t>{1, kClients}));
}

TEST(ServeServerTest, ShedsWith429AndRetryAfter) {
  ServiceConfig config;
  config.batcher.max_batch_size = 1;
  config.batcher.max_pending = 1;
  Harness harness(config);
  harness.engine.Block();

  // First request occupies the engine; second fills the queue.
  TestClient first(harness.port());
  ASSERT_TRUE(first.Post("/v1/find_experts", R"({"query":"a"})"));
  // Wait for it to be popped into the (blocked) engine call.
  ASSERT_TRUE(harness.engine.WaitForCalls(1));
  TestClient second(harness.port());
  ASSERT_TRUE(second.Post("/v1/find_experts", R"({"query":"b"})"));
  // The queued request must be admitted before the overflow arrives.
  EXPECT_TRUE(WaitForPending(*harness.service, 1));

  TestClient third(harness.port());
  ASSERT_TRUE(third.Post("/v1/find_experts", R"({"query":"c"})"));
  ClientResponse shed;
  ASSERT_TRUE(third.ReadResponse(&shed));
  EXPECT_EQ(shed.status, 429);
  EXPECT_EQ(shed.headers["retry-after"], "1");

  harness.engine.Release();
  ClientResponse response;
  ASSERT_TRUE(first.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  ASSERT_TRUE(second.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
}

TEST(ServeServerTest, DeadlineReturns504WithPartialFlag) {
  ServiceConfig config;
  config.batcher.max_batch_size = 1;
  Harness harness(config);
  harness.engine.sleep_ms = 50.0;
  TestClient client(harness.port());
  ASSERT_TRUE(client.Post("/v1/find_experts",
                          R"({"query":"slow","deadline_ms":1})"));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("\"partial\":true"), std::string::npos);
  EXPECT_NE(response.body.find("\"deadline_exceeded\":true"),
            std::string::npos);
}

TEST(ServeServerTest, MalformedBodiesReturn400) {
  Harness harness(FastConfig());
  for (const std::string& body :
       {std::string("{\"query\":"), std::string("[1,2,3]"),
        std::string("{\"query\":\"\xff\xfe\"}"), std::string("{\"n\":3}"),
        std::string("{\"query\":\"x\",\"n\":0}"),
        std::string("{\"query\":\"x\",\"n\":1.5}"),
        std::string("{\"query\":\"x\",\"deadline_ms\":-1}")}) {
    TestClient client(harness.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Post("/v1/find_experts", body));
    ClientResponse response;
    ASSERT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.status, 400) << body;
  }
}

TEST(ServeServerTest, HostileWireInputGets400AndClose) {
  Harness harness(FastConfig());
  {
    // Huge declared Content-Length: rejected before any body arrives.
    TestClient client(harness.port());
    ASSERT_TRUE(client.SendRaw(
        "POST /v1/find_experts HTTP/1.1\r\ncontent-length: "
        "99999999999\r\n\r\n"));
    ClientResponse response;
    ASSERT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.status, 400);
    EXPECT_EQ(response.headers["connection"], "close");
    EXPECT_TRUE(client.WaitForClose());
  }
  {
    // Garbage request line.
    TestClient client(harness.port());
    ASSERT_TRUE(client.SendRaw("NONSENSE\r\n\r\n"));
    ClientResponse response;
    ASSERT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.status, 400);
    EXPECT_TRUE(client.WaitForClose());
  }
}

TEST(ServeServerTest, PipelinedRequestsAnsweredInOrder) {
  Harness harness(FastConfig());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  const std::string body = R"({"query":"q","n":1})";
  std::string wire;
  for (int i = 0; i < 2; ++i) {
    wire += "POST /v1/find_experts HTTP/1.1\r\ncontent-length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
  }
  wire += "GET /healthz HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(client.SendRaw(wire));
  ClientResponse response;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.ReadResponse(&response)) << i;
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("experts"), std::string::npos);
  }
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ServeServerTest, GracefulDrainFinishesInFlightThenCloses) {
  ServiceConfig config;
  config.batcher.max_batch_size = 1;
  Harness harness(config);
  harness.engine.Block();

  TestClient busy(harness.port());
  ASSERT_TRUE(busy.Post("/v1/find_experts", R"({"query":"inflight"})"));
  ASSERT_TRUE(harness.engine.WaitForCalls(1));
  TestClient idle(harness.port());  // keep-alive, nothing in flight
  ASSERT_TRUE(idle.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    harness.engine.Release();
  });
  harness.server->ShutdownGracefully(5000.0);
  drainer.join();
  EXPECT_TRUE(harness.server->draining());

  // The in-flight request got a real response, marked connection:close.
  ClientResponse response;
  ASSERT_TRUE(busy.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["connection"], "close");
  EXPECT_TRUE(busy.WaitForClose());
  // The idle keep-alive connection was closed without a response.
  EXPECT_TRUE(idle.WaitForClose());
  // New connections are refused (listener is gone).
  TestClient late(harness.port());
  ClientResponse none;
  EXPECT_FALSE(late.connected() && late.Get("/healthz") &&
               late.ReadResponse(&none));
}

// --- Request-scoped observability (PR 6) ------------------------------

/// Thread-safe collector for the access-log sink seam.
struct LogLines {
  std::mutex mutex;
  std::vector<std::string> lines;

  obs::RequestLog::Sink AsSink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    };
  }
  std::vector<std::string> Snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
  /// First line containing `needle`, or "".
  std::string Find(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mutex);
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) return line;
    }
    return "";
  }
};

TEST(ServeObsTest, EveryResponseEchoesRequestId) {
  Harness harness(FastConfig());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.PostWithHeaders("/v1/find_experts",
                                     R"({"query":"q","n":1})",
                                     {"x-request-id: my-req.01"}));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["x-request-id"], "my-req.01");
  EXPECT_NE(response.body.find("\"trace_id\":\"my-req.01\""),
            std::string::npos);

  // Without a client id, a server-generated one comes back.
  ASSERT_TRUE(client.Post("/v1/find_experts", R"({"query":"q","n":1})"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_FALSE(response.headers["x-request-id"].empty());
}

TEST(ServeObsTest, HostileRequestIdsAreSanitized) {
  Harness harness(FastConfig());
  struct Case {
    std::string raw;
    std::string expected;  // "" = server generates instead
  };
  const std::vector<Case> cases = {
      // Header-injection attempt: CR/LF cannot survive into the echoed
      // header (the parser rejects embedded CRLF outright, so test the
      // in-value control bytes that do parse).
      {"abc\tdef", "abcdef"},
      {"\xc3\xa9\xf0\x9f\x92\xa9", ""},  // UTF-8 junk: nothing survives
      {"{\"x\":1}", "x1"},               // JSON-injection attempt
      {std::string(200, 'a'), std::string(64, 'a')},  // over-long: clamped
  };
  for (const Case& c : cases) {
    TestClient client(harness.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.PostWithHeaders("/v1/find_experts",
                                       R"({"query":"q","n":1})",
                                       {"x-request-id: " + c.raw}));
    ClientResponse response;
    ASSERT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.status, 200);
    const std::string echoed = response.headers["x-request-id"];
    if (c.expected.empty()) {
      // Fully hostile ids are replaced by a generated one.
      EXPECT_EQ(echoed.rfind("req-", 0), 0u) << "raw: " << c.raw;
    } else {
      EXPECT_EQ(echoed, c.expected) << "raw: " << c.raw;
    }
    for (char ch : echoed) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) ||
                  ch == '-' || ch == '_' || ch == '.')
          << "unsanitized byte in echoed id: " << echoed;
    }
  }
}

TEST(ServeObsTest, AccessLogLineMatchesResponse) {
  LogLines log;
  ServiceConfig config = FastConfig();
  config.access_log_sink = log.AsSink();
  Harness harness(config);
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.PostWithHeaders("/v1/find_experts",
                                     R"({"query":"q","n":2})",
                                     {"x-request-id: log-me-1"}));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  // The line is written before the response is released, so it must be
  // visible now.
  const std::string line = log.Find("log-me-1");
  ASSERT_FALSE(line.empty()) << "no access-log line for the request";
  EXPECT_NE(line.find("\"status\":200"), std::string::npos) << line;
  EXPECT_NE(line.find("\"top_n\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"e2e_ms\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"queue_wait_ms\":"), std::string::npos) << line;
  // Startup header line carries the build stamp.
  const std::string header = log.Find("\"event\":\"start\"");
  ASSERT_FALSE(header.empty());
  EXPECT_NE(header.find("\"git\":"), std::string::npos) << header;

  // A 400 is logged too.
  ASSERT_TRUE(client.PostWithHeaders("/v1/find_experts", "not json",
                                     {"x-request-id: log-me-2"}));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 400);
  const std::string bad = log.Find("log-me-2");
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.find("\"status\":400"), std::string::npos) << bad;
}

TEST(ServeObsTest, SlowRequestLandsInDebugSlowAndTrace) {
  obs::Tracer::Global().ClearRequestTraces();
  ServiceConfig config = FastConfig();
  config.slow_e2e_ms = 0.0001;  // every request crosses the tail bar
  config.trace_head_every = 0;  // heads off: retention is tail-only
  Harness harness(config);
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.PostWithHeaders("/v1/find_experts",
                                     R"({"query":"needle query","n":1})",
                                     {"x-request-id: slow-req-7"}));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);

  // The slow ring has the request, newest first, with its phase split.
  ASSERT_TRUE(client.Get("/v1/debug/slow"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"trace_id\":\"slow-req-7\""),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"query\":\"needle query\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"e2e_ms\":"), std::string::npos);

  // Tail-based retention: the full span tree is queryable by id even
  // though the request was not head-sampled.
  ASSERT_TRUE(client.Get("/v1/debug/trace?id=slow-req-7"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"trace_id\": \"slow-req-7\""),
            std::string::npos);
  for (const char* span :
       {"server.request", "serve.queue", "serve.batch", "engine.fake"}) {
    EXPECT_NE(response.body.find(span), std::string::npos)
        << "missing span " << span << " in " << response.body;
  }

  // Chrome trace-event export of the same trace.
  ASSERT_TRUE(client.Get("/v1/debug/trace?id=slow-req-7&format=chrome"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(response.body.find("\"ph\": \"X\""), std::string::npos);
}

// The ring keeps at most 256 bytes of a slow query. A cut through a
// multi-byte character would make /v1/debug/slow invalid UTF-8 (and so
// invalid JSON); the cut must back up to a code-point boundary.
TEST(ServeObsTest, DebugSlowTruncatesQueryAtCodePointBoundary) {
  ServiceConfig config = FastConfig();
  config.slow_e2e_ms = 0.0001;  // every request lands in the ring
  Harness harness(config);
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  std::string euros;
  for (int i = 0; i < 100; ++i) euros += "\xE2\x82\xAC";  // U+20AC, 3 bytes
  ASSERT_TRUE(client.PostWithHeaders(
      "/v1/find_experts", "{\"query\":\"" + euros + "\",\"n\":1}",
      {"x-request-id: euro-1"}));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  ASSERT_EQ(response.status, 200) << response.body;

  ASSERT_TRUE(client.Get("/v1/debug/slow"));
  ASSERT_TRUE(client.ReadResponse(&response));
  ASSERT_EQ(response.status, 200);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(response.body, &doc, &error)) << error;
  const JsonValue* slow = doc.Find("slow");
  ASSERT_NE(slow, nullptr);
  ASSERT_FALSE(slow->array_items.empty());
  const JsonValue* query = slow->array_items[0].Find("query");
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->string_value, euros.substr(0, 85 * 3));
}

// Batches run on the serving pool, one per worker at once, so the
// completions of concurrent clients render on several workers together:
// the access log, the slow ring, the tracer and the responder all take
// completions from concurrent threads (the CI TSan job runs this).
TEST(ServeObsTest, ConcurrentBatchesCompleteOnSeveralPoolWorkers) {
  obs::Tracer::Global().ClearRequestTraces();
  ThreadPool pool(4);  // declared first: outlives the harness
  LogLines log;
  ServiceConfig config = FastConfig();
  config.batcher.pool = &pool;
  config.access_log_sink = log.AsSink();
  config.slow_e2e_ms = 0.0001;  // every request lands in the slow ring
  config.trace_mode = obs::TraceMode::kAlwaysOn;
  Harness harness(config);

  // Two batches inside the engine at once, released together. EXPECT,
  // not ASSERT, until the engine is released.
  harness.engine.Block();
  TestClient first(harness.port());
  TestClient second(harness.port());
  EXPECT_TRUE(first.Post("/v1/find_experts", R"({"query":"a","n":2})"));
  EXPECT_TRUE(harness.engine.WaitForCalls(1));
  EXPECT_TRUE(second.Post("/v1/find_experts", R"({"query":"b","n":2})"));
  EXPECT_TRUE(harness.engine.WaitForCalls(2));
  harness.engine.Release();
  for (TestClient* client : {&first, &second}) {
    ClientResponse response;
    ASSERT_TRUE(client->ReadResponse(&response));
    EXPECT_EQ(response.status, 200);
  }

  constexpr int kClients = 8;
  constexpr int kPerClient = 20;
  auto id_of = [](int client, int i) {
    return "storm-" + std::to_string(client) + "-" + std::to_string(i);
  };
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client(harness.port());
      for (int i = 0; i < kPerClient; ++i) {
        ClientResponse response;
        if (!client.PostWithHeaders("/v1/find_experts",
                                    R"({"query":"q","n":3})",
                                    {"x-request-id: " + id_of(c, i)}) ||
            !client.ReadResponse(&response)) {
          return;
        }
        if (response.status == 200 &&
            response.headers["x-request-id"] == id_of(c, i)) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  // Every request was logged once, under its own id.
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      EXPECT_FALSE(
          log.Find("\"trace_id\":\"" + id_of(c, i) + "\"").empty())
          << id_of(c, i);
    }
  }
  TestClient client(harness.port());
  ClientResponse response;
  ASSERT_TRUE(client.Get("/v1/debug/slow"));
  ASSERT_TRUE(client.ReadResponse(&response));
  ASSERT_EQ(response.status, 200);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(response.body, &doc, &error)) << error;
  const JsonValue* slow = doc.Find("slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_FALSE(slow->array_items.empty());
  // The tracer still retains a whole trace (the storm's own may already
  // be evicted from the bounded retention set).
  ASSERT_TRUE(client.PostWithHeaders("/v1/find_experts",
                                     R"({"query":"q","n":1})",
                                     {"x-request-id: after-storm"}));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  ASSERT_TRUE(client.Get("/v1/debug/trace?id=after-storm"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("engine.fake"), std::string::npos);
}

TEST(ServeObsTest, UnknownTraceIdReturns404) {
  Harness harness(FastConfig());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ClientResponse response;
  ASSERT_TRUE(client.Get("/v1/debug/trace?id=never-seen"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 404);
  ASSERT_TRUE(client.Get("/v1/debug/trace"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 400);
}

TEST(ServeObsTest, FastUnsampledRequestIsNotRetained) {
  obs::Tracer::Global().ClearRequestTraces();
  ServiceConfig config = FastConfig();
  config.trace_head_every = 0;   // no head sampling
  config.slow_e2e_ms = 1e9;      // tail bar unreachable
  config.slow_queue_wait_ms = 1e9;
  Harness harness(config);
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.PostWithHeaders("/v1/find_experts",
                                     R"({"query":"q","n":1})",
                                     {"x-request-id: dropped-req"}));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  ASSERT_TRUE(client.Get("/v1/debug/trace?id=dropped-req"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 404);
}

TEST(ServeObsTest, HealthzCarriesBuildStamp) {
  Harness harness(FastConfig());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ClientResponse response;
  ASSERT_TRUE(client.Get("/healthz"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"git\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"build\":"), std::string::npos);
}

TEST(ServeObsTest, MetricsExposeQuantilesAndProcessGauges) {
  Harness harness(FastConfig());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  // Drive one request so the latency histograms are populated.
  ASSERT_TRUE(client.Post("/v1/find_experts", R"({"query":"q","n":1})"));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  ASSERT_TRUE(client.Get("/metrics"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  for (const char* needle :
       {"serve_e2e_ms_quantile{quantile=\"0.99\"}",
        "serve_queue_wait_ms_quantile{quantile=\"0.5\"}",
        "process_rss_bytes", "process_open_fds", "process_uptime_seconds",
        "pool_queue_depth", "serve_traces_started"}) {
    EXPECT_NE(response.body.find(needle), std::string::npos)
        << "missing " << needle;
  }
}

}  // namespace
}  // namespace kpef::serve
