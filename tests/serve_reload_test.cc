// Zero-downtime hot-swap, end to end: a REAL EngineGroup (tiny trained
// artifacts) behind ExpertSearchService + HttpServer on a
// loopback socket, with sustained find_experts traffic while
// POST /v1/admin/reload swaps the serving generation. The contract
// under test: no request is dropped or errored by the swap, the old
// generation is fully drained (destroyed) once its in-flight queries
// finish, and /healthz + the reload response report the new generation.
// Responses are rendered from the generation that answered them, even
// when a newer one is published before the names are written.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/engine_group.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/queries.h"
#include "embed/pretrain.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "scoped_temp_dir.h"

namespace kpef::serve {
namespace {

namespace fs = std::filesystem;

// --- Minimal blocking HTTP client (same shape as serve_server_test) ---

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

  bool Post(const std::string& path, const std::string& body) {
    return SendRaw("POST " + path + " HTTP/1.1\r\ncontent-length: " +
                   std::to_string(body.size()) + "\r\n\r\n" + body);
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
      if (!FillBuffer()) return false;
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

  bool FillBuffer() {
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<size_t>(n));
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
      if (!FillBuffer()) return false;
    }
    out->body = buffer_.substr(body_start, content_length);
    buffer_.erase(0, body_start + content_length);
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

// --- Real artifacts, shared across the binary -------------------------

struct SharedArtifacts {
  Dataset dataset;
  Corpus corpus;
  QuerySet queries;
  ScopedTempDir tmp{"serve_reload_test"};
  fs::path dir_a;
  fs::path dir_b;

  SharedArtifacts()
      : dataset(GenerateDataset(TinyProfile())),
        corpus(BuildPaperCorpus(dataset)),
        queries(GenerateQueries(dataset, 4, 7)) {
    Matrix tokens = [&] {
      PretrainConfig config;
      config.dim = 32;
      config.epochs = 6;
      return PretrainTokenEmbeddings(corpus, config).token_embeddings;
    }();
    EngineConfig config;
    config.k = 3;
    config.seed_fraction = 0.2;
    config.encoder.dim = 32;
    config.trainer.epochs = 2;
    config.top_m = 60;
    config.pg_index.knn_k = 8;
    auto built = ExpertFindingEngine::Build(&dataset, &corpus, config,
                                            &tokens);
    if (!built.ok()) std::abort();
    dir_a = tmp.path() / "gen_a";
    dir_b = tmp.path() / "gen_b";
    fs::create_directories(dir_a);
    if (!(*built)->SaveArtifacts(dir_a.string()).ok()) std::abort();
    std::error_code ec;
    fs::copy(dir_a, dir_b, fs::copy_options::recursive, ec);
    if (ec) std::abort();
  }

  static SharedArtifacts& Get() {
    static SharedArtifacts s;
    return s;
  }

  EngineConfig ServeConfig() const {
    EngineConfig config;
    config.k = 3;
    config.seed_fraction = 0.2;
    config.encoder.dim = 32;
    config.trainer.epochs = 2;
    config.top_m = 60;
    // Brute retrieval keeps the equivalence across generations exact.
    config.use_pg_index = false;
    return config;
  }
};

/// EngineGroup + service + server on an ephemeral loopback port.
struct Harness {
  std::unique_ptr<EngineGroup> group;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<ExpertSearchService> service;

  Harness() {
    SharedArtifacts& s = SharedArtifacts::Get();
    EngineGroup::Options options;
    options.engine = s.ServeConfig();
    auto loaded = EngineGroup::Load(&s.dataset, &s.corpus, options,
                                    s.dir_a.string());
    if (!loaded.ok()) std::abort();
    group = std::move(loaded).value();

    ServiceConfig service_config;
    service_config.batcher.max_batch_size = 4;
    service_config.batcher.max_pending = 4096;  // never shed in-test
    service_config.reload_dir = s.dir_a.string();
    service = ExpertSearchService::ForEngineGroup(group.get(),
                                                  service_config);
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

std::string FindExpertsBody(const std::string& query) {
  return "{\"query\":\"" + query + "\",\"n\":5}";
}

// --- Tests ------------------------------------------------------------

// The tentpole contract: sustained query traffic across a reload, with
// zero dropped or errored in-flight requests and the old generation
// fully drained afterwards.
TEST(ServeReloadTest, ReloadUnderSustainedTrafficDropsNothing) {
  SharedArtifacts& s = SharedArtifacts::Get();
  Harness harness;

  std::weak_ptr<const EngineGroup::Generation> old_gen =
      harness.group->Snapshot();

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> ok_count{0};
  std::atomic<int> error_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(harness.port());
      if (!client.connected()) {
        error_count.fetch_add(1);
        return;
      }
      const std::string text =
          s.queries.queries[static_cast<size_t>(c) %
                            s.queries.queries.size()]
              .text;
      while (!stop.load()) {
        ClientResponse response;
        if (!client.Post("/v1/find_experts", FindExpertsBody(text)) ||
            !client.ReadResponse(&response)) {
          error_count.fetch_add(1);
          return;
        }
        if (response.status == 200 &&
            response.body.find("\"experts\":[") != std::string::npos) {
          ok_count.fetch_add(1);
        } else {
          error_count.fetch_add(1);
        }
      }
    });
  }

  // Let traffic establish, then swap the generation mid-stream.
  while (ok_count.load() < 20 && error_count.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    TestClient admin(harness.port());
    ASSERT_TRUE(admin.connected());
    ASSERT_TRUE(admin.Post("/v1/admin/reload",
                           "{\"dir\":\"" + s.dir_b.string() + "\"}"));
    ClientResponse response;
    ASSERT_TRUE(admin.ReadResponse(&response));
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find("\"generation\":2"), std::string::npos)
        << response.body;
  }
  // Keep traffic flowing on the new generation before stopping.
  const int after_reload_floor = ok_count.load() + 20;
  while (ok_count.load() < after_reload_floor && error_count.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(error_count.load(), 0);
  EXPECT_GE(ok_count.load(), 40);
  EXPECT_EQ(harness.group->generation(), 2u);

  // Every in-flight query on the old generation has finished, so the
  // RCU grace period is over and the generation was destroyed.
  EXPECT_TRUE(old_gen.expired());

  // /healthz reports the swap.
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Get("/healthz"));
  ClientResponse health;
  ASSERT_TRUE(client.ReadResponse(&health));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"generation\":2"), std::string::npos)
      << health.body;
}

TEST(ServeReloadTest, ReloadFailureKeeps500AndOldGenerationServing) {
  Harness harness;
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Post("/v1/admin/reload",
                          "{\"dir\":\"/nonexistent/model/dir\"}"));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 500) << response.body;
  EXPECT_EQ(harness.group->generation(), 1u);

  // Old generation still answers.
  SharedArtifacts& s = SharedArtifacts::Get();
  ASSERT_TRUE(client.Post("/v1/find_experts",
                          FindExpertsBody(s.queries.queries[0].text)));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
}

TEST(ServeReloadTest, ReloadRejectsMalformedBodyAndWrongMethod) {
  Harness harness;
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Post("/v1/admin/reload", "{\"dir\": 42}"));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 400);

  ASSERT_TRUE(client.Get("/v1/admin/reload"));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 405);
}

// An empty body falls back to ServiceConfig::reload_dir (the serving
// directory), so operators can re-load in place after overwriting
// artifacts (what --reload-watch automates).
TEST(ServeReloadTest, EmptyBodyReloadsServingDirectory) {
  Harness harness;
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Post("/v1/admin/reload", ""));
  ClientResponse response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(harness.group->generation(), 2u);
  EXPECT_EQ(harness.group->Snapshot()->artifact_dir,
            SharedArtifacts::Get().dir_a.string());
}

/// `graph` with every author's label prefixed by "renamed " (same ids,
/// edges and edge order).
HeteroGraph RenameAuthors(const HeteroGraph& graph, NodeTypeId author) {
  HeteroGraphBuilder builder(graph.schema());
  for (NodeId v = 0; static_cast<size_t>(v) < graph.NumNodes(); ++v) {
    builder.AddNode(graph.TypeOf(v), graph.TypeOf(v) == author
                                         ? "renamed " + graph.Label(v)
                                         : graph.Label(v));
  }
  for (const HeteroGraph::EdgeRecord& e : graph.Edges()) {
    if (!builder.AddEdge(e.type, e.src, e.dst).ok()) std::abort();
  }
  return std::move(builder).Build();
}

size_t Count(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

// A publish that lands after a batch was scored but before its response
// is rendered must not change the names in that response: they come
// from the answering generation, which the label view keeps alive.
TEST(ServeReloadTest, NamesRenderFromTheAnsweringGeneration) {
  SharedArtifacts& s = SharedArtifacts::Get();
  EngineGroup::Options options;
  options.engine = s.ServeConfig();
  auto loaded =
      EngineGroup::Load(&s.dataset, &s.corpus, options, s.dir_a.string());
  ASSERT_TRUE(loaded.ok());
  EngineGroup* group = loaded->get();

  // The next generation scores exactly like the first but names every
  // author "renamed ...", so each name shows which generation wrote it.
  auto next = std::make_shared<EngineGroup::Generation>();
  auto renamed = std::make_shared<Dataset>(s.dataset);
  renamed->graph = RenameAuthors(s.dataset.graph, s.dataset.ids.author);
  next->owned_dataset = renamed;
  const ExpertFindingEngine& first_engine = *group->Snapshot()->engine;
  auto engine = ExpertFindingEngine::FromParts(
      renamed.get(), &s.corpus, options.engine, first_engine.encoder(),
      Matrix(first_engine.embeddings()), nullptr);
  ASSERT_TRUE(engine.ok());
  next->engine = std::move(engine).value();

  // A fake execute: the real group call, then the publish, before the
  // batcher hands the result to the rendering completion.
  BatchExecuteFn publish_after =
      [&next, group, real = ExpertSearchService::ExecuteFor(group)](
          const std::vector<std::string>& texts, size_t n,
          const BatchQueryOptions& batch_options) {
        BatchResult result = real(texts, n, batch_options);
        if (next != nullptr) {
          EXPECT_TRUE(group->PublishExternal(std::move(next)).ok());
          next = nullptr;
        }
        return result;
      };
  ExpertSearchService service(ServiceConfig(), group->Info(),
                              std::move(publish_after));
  const auto ask = [&] {
    HttpRequest request;
    request.method = "POST";
    request.target = "/v1/find_experts";
    request.body = FindExpertsBody(s.queries.queries[0].text);
    std::promise<HttpResponse> done;
    std::future<HttpResponse> response = done.get_future();
    service.Handle(request, [&done](HttpResponse r) {
      done.set_value(std::move(r));
    });
    return response.get();
  };

  const HttpResponse first = ask();
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(group->generation(), 2u);  // published before rendering
  EXPECT_EQ(Count(first.body, "\"name\":\"author"), 5u) << first.body;
  EXPECT_EQ(Count(first.body, "renamed"), 0u) << first.body;

  // Answered by generation 2, so rendered from it.
  const HttpResponse second = ask();
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(Count(second.body, "\"name\":\"renamed author"), 5u)
      << second.body;
  service.Drain();
}

}  // namespace
}  // namespace kpef::serve
