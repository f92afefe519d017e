// Acceptance tests for end-to-end request observability over a REAL
// EngineGroup (tiny artifacts, trained once per binary): a client-supplied
// X-Request-Id forced past the tail-latency threshold must come back
// from /v1/debug/trace?id= with the complete span tree — server ->
// queue -> batch -> encode -> search -> ranking — and the same trace id
// in the structured access log. Interleaving requests in one
// micro-batch must keep their spans separated per trace even though the
// engine fans their work across a shared thread pool.
//
// serve_server_test covers the serving layers with a fake engine; this
// file is the only place the engine's own span attribution is visible.

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
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/engine_group.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/queries.h"
#include "embed/pretrain.h"
#include "obs/trace.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "scoped_temp_dir.h"

namespace kpef::serve {
namespace {

// --- Minimal blocking HTTP client (loopback) --------------------------

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
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

  bool Post(const std::string& path, const std::string& body,
            const std::string& request_id = "") {
    std::string wire = "POST " + path + " HTTP/1.1\r\ncontent-length: " +
                       std::to_string(body.size()) + "\r\n";
    if (!request_id.empty()) wire += "x-request-id: " + request_id + "\r\n";
    wire += "\r\n" + body;
    return SendRaw(wire);
  }

  bool Get(const std::string& path) {
    return SendRaw("GET " + path + " HTTP/1.1\r\n\r\n");
  }

  bool ReadResponse(ClientResponse* out) {
    while (true) {
      const size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        return ParseAndFill(header_end, out);
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      buffer_.append(buf, static_cast<size_t>(n));
    }
  }

 private:
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

  bool ParseAndFill(size_t header_end, ClientResponse* out) {
    const std::string head = buffer_.substr(0, header_end);
    out->status = std::atoi(head.c_str() + 9);
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
    const size_t content_length = static_cast<size_t>(
        std::atoll(out->headers["content-length"].c_str()));
    const size_t body_start = header_end + 4;
    while (buffer_.size() < body_start + content_length) {
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      buffer_.append(buf, static_cast<size_t>(n));
    }
    out->body = buffer_.substr(body_start, content_length);
    buffer_.erase(0, body_start + content_length);
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

// --- Shared tiny engine group (trained once per binary) ---------------

class ServeTraceTest : public ::testing::Test {
 protected:
  struct Shared {
    Dataset dataset;
    Corpus corpus;
    QuerySet queries;
    ThreadPool pool{4};
    std::unique_ptr<EngineGroup> group;

    /// Builds and saves tiny artifacts, then serves them the way
    /// kpef_serve does: an EngineGroup loaded from the saved directory.
    Shared()
        : dataset(GenerateDataset(TinyProfile())),
          corpus(BuildPaperCorpus(dataset)),
          queries(GenerateQueries(dataset, 6, 23)) {
      PretrainConfig pretrain;
      pretrain.dim = 32;
      pretrain.epochs = 6;
      Matrix tokens =
          PretrainTokenEmbeddings(corpus, pretrain).token_embeddings;
      EngineConfig config;
      config.k = 3;
      config.seed_fraction = 0.2;
      config.encoder.dim = 32;
      config.trainer.epochs = 2;
      config.top_m = 60;
      config.pg_index.knn_k = 8;
      auto built =
          ExpertFindingEngine::Build(&dataset, &corpus, config, &tokens);
      if (!built.ok()) std::abort();
      // The loaded generation holds everything in memory, so the
      // artifact directory can go once Load returns.
      ScopedTempDir artifacts("serve_trace_test");
      if (!(*built)->SaveArtifacts(artifacts.path().string()).ok()) {
        std::abort();
      }
      EngineGroup::Options options;
      options.engine = config;
      auto loaded = EngineGroup::Load(&dataset, &corpus, options,
                                      artifacts.path().string());
      if (!loaded.ok()) std::abort();
      group = std::move(loaded).value();
    }
  };

  static Shared& shared() {
    static Shared* s = new Shared();
    return *s;
  }
};

/// Thread-safe access-log collector.
struct LogLines {
  std::mutex mutex;
  std::vector<std::string> lines;

  obs::RequestLog::Sink AsSink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    };
  }
  std::string Find(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mutex);
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) return line;
    }
    return "";
  }
};

struct Harness {
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<ExpertSearchService> service;

  /// Serves `group`, through `execute` when given (a wrapper around
  /// ExpertSearchService::ExecuteFor(group)).
  Harness(EngineGroup* group, ServiceConfig config,
          BatchExecuteFn execute = nullptr) {
    if (!execute) execute = ExpertSearchService::ExecuteFor(group);
    service = std::make_unique<ExpertSearchService>(config, group->Info(),
                                                    std::move(execute));
    server = std::make_unique<HttpServer>(
        HttpServerConfig(), [this](const HttpRequest& request,
                                   HttpServer::Responder respond) {
          service->Handle(request, std::move(respond));
        });
    if (!server->Start().ok()) std::abort();
  }
  ~Harness() {
    server->ShutdownGracefully(5000.0);
    service->Drain();
  }
  uint16_t port() const { return server->port(); }
};

// The PR's acceptance case: client X-Request-Id, forced past the tail
// threshold, retrieves the complete phase tree through the debug
// endpoint, and the access log carries the same trace id.
TEST_F(ServeTraceTest, SlowRequestYieldsCompleteSpanTree) {
  obs::Tracer::Global().ClearRequestTraces();
  LogLines log;
  ServiceConfig config;
  config.batcher.max_batch_size = 4;
  config.batcher.pool = &shared().pool;
  config.trace_head_every = 0;  // retention must come from the tail rule
  config.slow_e2e_ms = 0.0001;  // everything is "slow"
  config.access_log_sink = log.AsSink();
  Harness harness(shared().group.get(), config);

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  const std::string query = shared().queries.queries[0].text;
  ASSERT_TRUE(client.Post("/v1/find_experts",
                          "{\"query\":\"" + query + "\",\"n\":5}",
                          "e2e-trace-1"));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["x-request-id"], "e2e-trace-1");

  ASSERT_TRUE(client.Get("/v1/debug/trace?id=e2e-trace-1"));
  ASSERT_TRUE(client.ReadResponse(&response));
  ASSERT_EQ(response.status, 200) << response.body;
  for (const char* span :
       {"server.request", "serve.queue", "serve.batch", "engine.encode",
        "engine.search", "engine.ranking"}) {
    EXPECT_NE(response.body.find(span), std::string::npos)
        << "missing span " << span << " in " << response.body;
  }
  EXPECT_NE(response.body.find("\"kept_tail\": true"), std::string::npos)
      << response.body;

  // Same trace id in the structured access log, with the phase split.
  const std::string line = log.Find("e2e-trace-1");
  ASSERT_FALSE(line.empty());
  EXPECT_NE(line.find("\"status\":200"), std::string::npos) << line;
  EXPECT_NE(line.find("\"encode_ms\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"search_ms\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ranking_ms\":"), std::string::npos) << line;

  // Chrome export of the same trace loads as trace-event JSON.
  ASSERT_TRUE(client.Get("/v1/debug/trace?id=e2e-trace-1&format=chrome"));
  ASSERT_TRUE(client.ReadResponse(&response));
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(response.body.find("\"displayTimeUnit\": \"ms\""),
            std::string::npos);
}

/// Holds every engine call until Open(), counting arrivals: a request
/// parked here wedges the batcher so the next ones queue behind it.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  size_t entered = 0;

  void Pass() {
    std::unique_lock<std::mutex> lock(mutex);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  bool WaitEntered(size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return entered >= n; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
};

// Batchmates must not bleed spans into each other: N concurrent
// requests coalesced into one micro-batch — with engine work fanned
// across a shared pool — each retain a trace whose spans carry only that
// request's key, with exactly one encode span each.
TEST_F(ServeTraceTest, InterleavedBatchmatesKeepSpansSeparated) {
  obs::Tracer::Global().ClearRequestTraces();
  ServiceConfig config;
  config.batcher.max_batch_size = 8;
  config.batcher.pool = &shared().pool;
  config.trace_mode = obs::TraceMode::kAlwaysOn;
  // Batches run one per pool worker, so one "plug" request per worker
  // waits at the gate inside its engine call; the batchmates then queue
  // behind every busy slot and ride the next real batch together.
  Gate gate;
  BatchExecuteFn gated =
      [&gate, real = ExpertSearchService::ExecuteFor(shared().group.get())](
          const std::vector<std::string>& texts, size_t n,
          const BatchQueryOptions& options) {
        gate.Pass();
        return real(texts, n, options);
      };
  Harness harness(shared().group.get(), config, std::move(gated));

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<TestClient>(harness.port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  const size_t slots = shared().pool.num_threads();
  std::vector<std::unique_ptr<TestClient>> plugs;
  for (size_t i = 0; i < slots; ++i) {
    plugs.push_back(std::make_unique<TestClient>(harness.port()));
    ASSERT_TRUE(plugs.back()->Post(
        "/v1/find_experts",
        "{\"query\":\"" + shared().queries.queries[0].text + "\",\"n\":3}",
        "plug-" + std::to_string(i)));
    // Each plug is sent once the previous one holds its slot, so it
    // rides a batch of its own.
    EXPECT_TRUE(gate.WaitEntered(i + 1));
  }

  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const std::string query =
          shared().queries.queries[static_cast<size_t>(i) %
                                   shared().queries.queries.size()]
              .text;
      if (!clients[static_cast<size_t>(i)]->Post(
              "/v1/find_experts", "{\"query\":\"" + query + "\",\"n\":3}",
              "mate-" + std::to_string(i))) {
        return;
      }
      ClientResponse response;
      if (clients[static_cast<size_t>(i)]->ReadResponse(&response) &&
          response.status == 200 &&
          response.body.find("\"batch_size\":6") != std::string::npos) {
        ok.fetch_add(1);
      }
    });
  }
  // Open the gate only once all six are admitted (whatever happens, so
  // a failure cannot leave a slot parked).
  for (int wait = 0; wait < 5000 && harness.service->PendingForTest() <
                                        static_cast<size_t>(kClients);
       ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(harness.service->PendingForTest(), static_cast<size_t>(kClients));
  gate.Open();
  for (std::thread& t : threads) t.join();
  // Every batchmate answered 200 from the one six-request batch.
  ASSERT_EQ(ok.load(), kClients);
  for (const std::unique_ptr<TestClient>& plug : plugs) {
    ClientResponse plug_response;
    ASSERT_TRUE(plug->ReadResponse(&plug_response));
    EXPECT_EQ(plug_response.status, 200);
  }

  const std::vector<obs::TraceSnapshot> retained =
      obs::Tracer::Global().RetainedSnapshots();
  std::set<std::string> seen_ids;
  int checked = 0;
  for (const obs::TraceSnapshot& trace : retained) {
    if (trace.id.rfind("mate-", 0) != 0) continue;
    EXPECT_TRUE(seen_ids.insert(trace.id).second) << trace.id;
    ++checked;
    size_t encodes = 0;
    for (const obs::SpanRecord& span : trace.spans) {
      // Every span in a retained trace belongs to that trace's key.
      EXPECT_EQ(span.trace_key, trace.key)
          << trace.id << " holds a foreign span " << span.name;
      if (std::string_view(span.name) == "engine.encode") ++encodes;
    }
    EXPECT_EQ(encodes, 1u) << trace.id;
  }
  EXPECT_EQ(checked, kClients);
}

// A deadline miss is a tail event: the trace is retained and the 504 is
// attributed in the slow ring even when nothing else crossed a bar.
TEST_F(ServeTraceTest, DeadlineMissIsTailRetained) {
  obs::Tracer::Global().ClearRequestTraces();
  ServiceConfig config;
  config.batcher.max_batch_size = 1;
  config.batcher.pool = &shared().pool;
  config.trace_head_every = 0;
  config.slow_e2e_ms = 1e9;  // only the deadline rule can fire
  config.slow_queue_wait_ms = 1e9;
  Harness harness(shared().group.get(), config);

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  const std::string query = shared().queries.queries[1].text;
  // A 0.0001ms deadline has expired long before dispatch.
  ASSERT_TRUE(client.Post(
      "/v1/find_experts",
      "{\"query\":\"" + query + "\",\"deadline_ms\":0.0001}", "late-1"));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  ASSERT_EQ(response.status, 504);
  EXPECT_EQ(response.headers["x-request-id"], "late-1");

  ASSERT_TRUE(client.Get("/v1/debug/trace?id=late-1"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"kept_tail\": true"), std::string::npos);

  ASSERT_TRUE(client.Get("/v1/debug/slow"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"trace_id\":\"late-1\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"deadline_exceeded\":true"),
            std::string::npos);
}

}  // namespace
}  // namespace kpef::serve
