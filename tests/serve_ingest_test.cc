// Streaming ingestion, end to end: a REAL EngineGroup + IngestCoordinator
// behind ExpertSearchService + HttpServer on a loopback socket, with
// sustained find_experts traffic while POST /v1/admin/ingest folds a
// held-out drip tail into the serving state (including a delta merge).
// The contract under test: zero dropped or errored queries across every
// ingest publish, the new papers' authors become findable, /healthz
// reports the ingest state, and the degraded paths (no coordinator,
// malformed batches, concurrent ingest) answer 503/400/409 — never
// crashing the serving path. Reload is refused (503) while ingest is
// live, since it would drop the ingested papers.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
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
#include "data/drip.h"
#include "data/queries.h"
#include "embed/pretrain.h"
#include "ingest/coordinator.h"
#include "serve/http_server.h"
#include "serve/service.h"

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

// --- JSON batch building ----------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

std::string IngestBody(const std::vector<DripPaper>& papers) {
  std::string out = "{\"papers\":[";
  for (size_t i = 0; i < papers.size(); ++i) {
    const DripPaper& p = papers[i];
    if (i > 0) out += ",";
    out += "{\"text\":\"" + JsonEscape(p.text) + "\"";
    out += ",\"authors\":" + JsonList(p.authors);
    if (!p.venue.empty()) out += ",\"venue\":\"" + JsonEscape(p.venue) + "\"";
    out += ",\"topics\":" + JsonList(p.topics);
    out += ",\"cites\":" + JsonList(p.cites);
    out += "}";
  }
  return out + "]}";
}

// --- Real artifacts, shared across the binary -------------------------

struct SharedArtifacts {
  Dataset full;
  DripSplit split;
  Corpus corpus;
  QuerySet queries;
  fs::path dir;
  fs::path root;

  SharedArtifacts() : full(GenerateDataset(TinyProfile())) {
    auto made = MakeDripSplit(full, /*holdout=*/36);
    if (!made.ok()) std::abort();
    split = std::move(made).value();
    corpus = BuildPaperCorpus(split.base);
    queries = GenerateQueries(split.base, 4, 7);
    Matrix tokens = [&] {
      PretrainConfig config;
      config.dim = 32;
      config.epochs = 6;
      return PretrainTokenEmbeddings(corpus, config).token_embeddings;
    }();
    auto built =
        ExpertFindingEngine::Build(&split.base, &corpus, Config(), &tokens);
    if (!built.ok()) std::abort();
    root = fs::temp_directory_path() /
           ("kpef_serve_ingest_test_" + std::to_string(::getpid()));
    dir = root / "artifacts";
    fs::create_directories(dir);
    if (!(*built)->SaveArtifacts(dir.string()).ok()) std::abort();
  }

  static EngineConfig Config() {
    EngineConfig config;
    config.k = 3;
    config.seed_fraction = 0.2;
    config.encoder.dim = 32;
    config.trainer.epochs = 2;
    config.top_m = 60;
    config.use_pg_index = false;  // brute keeps cross-publish answers exact
    return config;
  }

  static SharedArtifacts& Get() {
    static SharedArtifacts* s = new SharedArtifacts();
    return *s;
  }
};

/// EngineGroup (+ optional coordinator) + service + server on loopback.
struct Harness {
  std::unique_ptr<EngineGroup> group;
  std::unique_ptr<IngestCoordinator> coordinator;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<ExpertSearchService> service;

  explicit Harness(bool with_ingest, const std::string& wal_tag = "",
                   size_t merge_budget =
                       IngestOptions{}.merge_pending_edge_budget) {
    SharedArtifacts& s = SharedArtifacts::Get();
    EngineGroup::Options options;
    options.engine = SharedArtifacts::Config();
    auto loaded =
        EngineGroup::Load(&s.split.base, &s.corpus, options, s.dir.string());
    if (!loaded.ok()) std::abort();
    group = std::move(loaded).value();

    if (with_ingest) {
      IngestOptions ingest_options;
      ingest_options.wal_path =
          (s.root / ("serve_wal_" + wal_tag + ".log")).string();
      // A fresh log per harness: a repeated in-process run (e.g.
      // --gtest_repeat) would otherwise replay the previous run's WAL.
      fs::remove(ingest_options.wal_path);
      ingest_options.merge_pending_edge_budget = merge_budget;
      auto created = IngestCoordinator::Create(
          group.get(), SharedArtifacts::Config(), ingest_options);
      if (!created.ok()) std::abort();
      coordinator = std::move(created).value();
    }

    ServiceConfig service_config;
    service_config.batcher.max_batch_size = 4;
    service_config.batcher.max_pending = 4096;  // never shed in-test
    service = ExpertSearchService::ForEngineGroup(group.get(), service_config,
                                                  coordinator.get());
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
  return "{\"query\":\"" + JsonEscape(query) + "\",\"n\":10}";
}

/// The "generation" field of a /healthz body (-1 when absent).
long long HealthGeneration(const std::string& body) {
  const std::string key = "\"generation\":";
  const size_t at = body.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + key.size());
}

/// True when `body` names at least one of `paper`'s authors.
bool NamesAnAuthor(const std::string& body, const DripPaper& paper) {
  for (const std::string& author : paper.authors) {
    if (body.find("\"" + JsonEscape(author) + "\"") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// --- Tests ------------------------------------------------------------

// The tentpole e2e contract: sustained query traffic while the whole
// drip tail streams in over HTTP (merge budget forced low so at least
// one delta compaction happens mid-traffic), with zero query errors and
// the ingested papers' authors findable afterwards.
TEST(ServeIngestTest, IngestUnderSustainedTrafficDropsNothing) {
  SharedArtifacts& s = SharedArtifacts::Get();
  // Each 9-paper batch adds ~80 graph overlay edges: 150 trips after the
  // second batch and again after the fourth.
  Harness harness(/*with_ingest=*/true, "traffic", /*merge_budget=*/150);

  constexpr int kClients = 3;
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
          s.queries.queries[static_cast<size_t>(c) % s.queries.queries.size()]
              .text;
      while (!stop.load()) {
        ClientResponse response;
        if (!client.Post("/v1/find_experts", FindExpertsBody(text)) ||
            !client.ReadResponse(&response)) {
          error_count.fetch_add(1);
          return;
        }
        if (response.status == 200) {
          ok_count.fetch_add(1);
        } else {
          error_count.fetch_add(1);
        }
      }
    });
  }

  // Stream the whole tail while the clients hammer away. Each POST is
  // answered only after WAL append + apply + publish, so serially
  // posting them is the steady-state ingest pattern.
  TestClient ingest_client(harness.port());
  ASSERT_TRUE(ingest_client.connected());
  size_t applied = 0;
  bool merged = false;
  for (const auto& batch :
       DripBatches(std::vector<DripPaper>(s.split.tail), 9)) {
    ClientResponse response;
    ASSERT_TRUE(
        ingest_client.Post("/v1/admin/ingest", IngestBody(batch)) &&
        ingest_client.ReadResponse(&response));
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find("\"applied\":"), std::string::npos);
    applied += batch.size();
    if (response.body.find("\"merged\":true") != std::string::npos) {
      merged = true;
    }
  }
  EXPECT_EQ(applied, s.split.tail.size());
  EXPECT_TRUE(merged) << "merge budget 150 should have tripped mid-stream";

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(error_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);

  // The ingested papers are now served: querying a tail paper's exact
  // text must surface one of its authors.
  const DripPaper& probe = s.split.tail.back();
  ClientResponse found;
  ASSERT_TRUE(ingest_client.Post("/v1/find_experts",
                                 FindExpertsBody(probe.text)) &&
              ingest_client.ReadResponse(&found));
  ASSERT_EQ(found.status, 200);
  EXPECT_TRUE(NamesAnAuthor(found.body, probe))
      << "no author of the probe paper in: " << found.body;

  // /healthz reports the ingest state.
  ClientResponse health;
  ASSERT_TRUE(ingest_client.Get("/healthz") &&
              ingest_client.ReadResponse(&health));
  ASSERT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"ingest_records\":" +
                             std::to_string(s.split.tail.size())),
            std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"ingest_wal_bytes\":"), std::string::npos);
  EXPECT_NE(health.body.find("\"ingest_pending_delta_edges\":"),
            std::string::npos);

  const IngestStats stats = harness.coordinator->Stats();
  EXPECT_EQ(stats.records_applied, s.split.tail.size());
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.wal_bytes, 0u);
}

TEST(ServeIngestTest, WithoutCoordinatorAnswers503) {
  Harness harness(/*with_ingest=*/false);
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  ClientResponse response;
  ASSERT_TRUE(client.Post("/v1/admin/ingest",
                          "{\"papers\":[{\"text\":\"x\"}]}") &&
              client.ReadResponse(&response));
  EXPECT_EQ(response.status, 503);
}

// A reload publishes the base artifacts, so under live ingest it would
// drop every ingested paper (and the next ingest publish would undo the
// reload). The service therefore refuses it: 503, same generation, and
// the ingested papers keep being served.
TEST(ServeIngestTest, ReloadIsRefusedWhileIngestIsLive) {
  SharedArtifacts& s = SharedArtifacts::Get();
  Harness harness(/*with_ingest=*/true, "reload");
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  const std::vector<DripPaper> batch(s.split.tail.begin(),
                                     s.split.tail.begin() + 9);
  ClientResponse ingested;
  ASSERT_TRUE(client.Post("/v1/admin/ingest", IngestBody(batch)) &&
              client.ReadResponse(&ingested));
  ASSERT_EQ(ingested.status, 200) << ingested.body;
  ClientResponse before;
  ASSERT_TRUE(client.Get("/healthz") && client.ReadResponse(&before));
  const long long generation = HealthGeneration(before.body);
  ASSERT_GT(generation, 1) << before.body;

  ClientResponse reload;
  ASSERT_TRUE(client.Post("/v1/admin/reload", "{}") &&
              client.ReadResponse(&reload));
  EXPECT_EQ(reload.status, 503) << reload.body;

  ClientResponse after;
  ASSERT_TRUE(client.Get("/healthz") && client.ReadResponse(&after));
  EXPECT_EQ(HealthGeneration(after.body), generation) << after.body;
  const DripPaper& probe = batch.back();
  ClientResponse found;
  ASSERT_TRUE(client.Post("/v1/find_experts", FindExpertsBody(probe.text)) &&
              client.ReadResponse(&found));
  ASSERT_EQ(found.status, 200);
  EXPECT_TRUE(NamesAnAuthor(found.body, probe))
      << "no author of the ingested paper in: " << found.body;
}

TEST(ServeIngestTest, MalformedBatchesAnswer400AndKeepServing) {
  SharedArtifacts& s = SharedArtifacts::Get();
  Harness harness(/*with_ingest=*/true, "malformed");
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  const std::vector<std::string> bad_bodies = {
      "not json at all",
      "{\"papers\":\"should be a list\"}",
      "{\"papers\":[{\"authors\":[\"a\"]}]}",          // missing text
      "{\"papers\":[{\"text\":\"\"}]}",                // empty text
      "{\"papers\":[{\"text\":\"x\",\"authors\":\"nope\"}]}",
      "{}",
  };
  for (const std::string& body : bad_bodies) {
    ClientResponse response;
    ASSERT_TRUE(client.Post("/v1/admin/ingest", body) &&
                client.ReadResponse(&response));
    EXPECT_EQ(response.status, 400) << body << " -> " << response.body;
  }
  // GET on the ingest endpoint is a 405, not a crash.
  ClientResponse get_response;
  ASSERT_TRUE(client.Get("/v1/admin/ingest") &&
              client.ReadResponse(&get_response));
  EXPECT_EQ(get_response.status, 405);

  // The serving path is untouched and a valid batch still lands.
  ClientResponse good;
  ASSERT_TRUE(
      client.Post("/v1/admin/ingest",
                  IngestBody({s.split.tail.begin(), s.split.tail.begin() + 2}))
      && client.ReadResponse(&good));
  EXPECT_EQ(good.status, 200) << good.body;
  ClientResponse query;
  ASSERT_TRUE(client.Post("/v1/find_experts",
                          FindExpertsBody(s.queries.queries[0].text)) &&
              client.ReadResponse(&query));
  EXPECT_EQ(query.status, 200);
}

}  // namespace
}  // namespace kpef::serve
