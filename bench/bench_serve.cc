// PR-5 acceptance bench: the serving subsystem under closed-loop load.
//
// Boots a real ExpertSearchService + epoll HttpServer (ephemeral port)
// over an engine built on the tiny synthetic profile, then drives it
// with closed-loop keep-alive HTTP clients:
//
//   1. Batching sweep: 1/4/16 clients against batch<=16, plus a
//      16-client run with batching disabled (batch size 1) as the
//      baseline. Records throughput, p50/p99 latency, and the mean
//      batch size observed by the engine (the acceptance bar is
//      mean > 1 under concurrent load).
//   2. Shedding: a deliberately slowed engine behind a 4-deep admission
//      queue; counts 200 vs 429 under 16 clients.
//
// Writes BENCH_pr5.json into the current working directory. Run from
// the repo root so the artifact lands next to the sources:
//
//   ./build/bench/bench_serve

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/engine.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "serve/http_server.h"
#include "serve/service.h"

namespace {

using namespace kpef;
using Clock = std::chrono::steady_clock;

// --- Minimal blocking keep-alive client ------------------------------

class BenchClient {
 public:
  explicit BenchClient(uint16_t port) {
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
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// One POST /v1/find_experts round trip. Returns the HTTP status
  /// (0 on transport error) and the response's "batch_size" field.
  int RoundTrip(const std::string& body, double* batch_size) {
    const std::string wire =
        "POST /v1/find_experts HTTP/1.1\r\ncontent-length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return 0;
      sent += static_cast<size_t>(n);
    }
    // Read one response: headers, then content-length body bytes.
    while (true) {
      const size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const int status = std::atoi(buffer_.c_str() + 9);
        const size_t body_len = HeaderNumber(header_end, "content-length:");
        const size_t total = header_end + 4 + body_len;
        while (buffer_.size() < total) {
          if (!Fill()) return 0;
        }
        if (batch_size != nullptr) {
          *batch_size = BodyNumber(header_end + 4, total, "\"batch_size\":");
        }
        buffer_.erase(0, total);
        return status;
      }
      if (!Fill()) return 0;
    }
  }

 private:
  bool Fill() {
    char buf[8192];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<size_t>(n));
    return true;
  }

  size_t HeaderNumber(size_t header_end, const char* key) const {
    // Case-insensitive scan of the (lowercase-emitted) response head.
    const std::string head = buffer_.substr(0, header_end);
    std::string lower = head;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const size_t at = lower.find(key);
    if (at == std::string::npos) return 0;
    return static_cast<size_t>(
        std::atoll(head.c_str() + at + std::strlen(key)));
  }

  double BodyNumber(size_t begin, size_t end, const char* key) const {
    const size_t at = buffer_.find(key, begin);
    if (at == std::string::npos || at >= end) return 0.0;
    return std::atof(buffer_.c_str() + at + std::strlen(key));
  }

  int fd_ = -1;
  std::string buffer_;
};

// --- Closed-loop scenario runner -------------------------------------

struct ScenarioResult {
  std::string name;
  size_t clients = 0;
  size_t batch_limit = 0;
  double seconds = 0.0;
  size_t ok = 0;
  size_t shed = 0;
  size_t errors = 0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch_size = 0.0;
};

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  const size_t at = std::min(
      sorted->size() - 1, static_cast<size_t>(q * (sorted->size() - 1)));
  return (*sorted)[at];
}

/// Runs `clients` closed-loop threads for `seconds` of wall clock
/// against the service described by `config`, built over `execute`.
ScenarioResult RunScenario(const std::string& name, const EngineInfo& info,
                           serve::BatchExecuteFn execute,
                           serve::ServiceConfig config, size_t clients,
                           double seconds) {
  auto service = std::make_unique<serve::ExpertSearchService>(
      config, info, std::move(execute));
  serve::HttpServer server(
      serve::HttpServerConfig(),
      [&service](const serve::HttpRequest& request,
                 serve::HttpServer::Responder respond) {
        service->Handle(request, std::move(respond));
      });
  KPEF_CHECK(server.Start().ok());

  const std::vector<std::string> queries = {
      R"({"query": "graph community search", "n": 10})",
      R"({"query": "neural network embedding", "n": 10})",
      R"({"query": "database query optimization", "n": 10})",
      R"({"query": "expert finding heterogeneous graph", "n": 10})",
  };

  struct PerThread {
    size_t ok = 0, shed = 0, errors = 0;
    double batch_sum = 0.0;
    std::vector<double> latencies_ms;
  };
  std::vector<PerThread> stats(clients);
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  const auto start = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      BenchClient client(server.port());
      if (!client.ok()) return;
      size_t i = c;  // stagger query rotation across clients
      while (!stop.load(std::memory_order_relaxed)) {
        const auto sent = Clock::now();
        double batch = 0.0;
        const int status =
            client.RoundTrip(queries[i++ % queries.size()], &batch);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count();
        if (status == 200) {
          stats[c].ok++;
          stats[c].batch_sum += batch;
          stats[c].latencies_ms.push_back(ms);
        } else if (status == 429) {
          stats[c].shed++;
        } else {
          stats[c].errors++;
          if (status == 0) return;  // transport broken: stop this client
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  server.ShutdownGracefully(2000.0);
  service->Drain();

  ScenarioResult result;
  result.name = name;
  result.clients = clients;
  result.batch_limit = config.batcher.max_batch_size;
  result.seconds = elapsed;
  std::vector<double> latencies;
  double batch_sum = 0.0;
  for (const PerThread& t : stats) {
    result.ok += t.ok;
    result.shed += t.shed;
    result.errors += t.errors;
    batch_sum += t.batch_sum;
    latencies.insert(latencies.end(), t.latencies_ms.begin(),
                     t.latencies_ms.end());
  }
  result.throughput_rps = static_cast<double>(result.ok) / elapsed;
  result.p50_ms = Percentile(&latencies, 0.50);
  result.p99_ms = Percentile(&latencies, 0.99);
  result.mean_batch_size =
      result.ok > 0 ? batch_sum / static_cast<double>(result.ok) : 0.0;
  std::printf(
      "%-28s clients=%2zu batch<=%2zu  %7.0f req/s  p50 %6.3fms  "
      "p99 %6.3fms  mean_batch %.2f  ok=%zu shed=%zu err=%zu\n",
      name.c_str(), clients, result.batch_limit, result.throughput_rps,
      result.p50_ms, result.p99_ms, result.mean_batch_size, result.ok,
      result.shed, result.errors);
  return result;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kError);

  Dataset dataset = GenerateDataset(TinyProfile());
  const Corpus corpus = BuildPaperCorpus(dataset);
  EngineConfig engine_config;
  engine_config.k = 3;
  engine_config.seed_fraction = 0.2;
  engine_config.encoder.dim = 32;
  engine_config.trainer.epochs = 2;
  engine_config.top_m = 60;
  engine_config.pg_index.knn_k = 8;
  auto built = ExpertFindingEngine::Build(&dataset, &corpus, engine_config);
  KPEF_CHECK(built.ok());
  ExpertFindingEngine* engine = built->get();
  const EngineInfo info = engine->Info();
  const serve::BatchExecuteFn execute =
      serve::ExpertSearchService::ExecuteFor(engine);

  const double kSeconds = 1.5;
  std::vector<ScenarioResult> results;

  // 1. Baseline: batching disabled, 16 concurrent closed-loop clients.
  {
    serve::ServiceConfig config;
    config.batcher.max_batch_size = 1;
    results.push_back(
        RunScenario("unbatched", info, execute, config, 16, kSeconds));
  }

  // 2. Batching sweep: same knobs, growing concurrency.
  for (const size_t clients : {size_t{1}, size_t{4}, size_t{16}}) {
    serve::ServiceConfig config;
    config.batcher.max_batch_size = 16;
    results.push_back(RunScenario("batch16_c" + std::to_string(clients),
                                  info, execute, config, clients, kSeconds));
  }

  // 3. Shedding: slow the engine to 5ms per batch behind a 4-deep
  //    admission queue; 16 closed-loop clients must see 429s while the
  //    server keeps answering the admitted fraction.
  {
    serve::BatchExecuteFn slow_execute =
        [execute](const std::vector<std::string>& texts, size_t n,
                  const BatchQueryOptions& options) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return execute(texts, n, options);
        };
    serve::ServiceConfig config;
    config.batcher.max_batch_size = 4;
    config.batcher.max_pending = 4;
    results.push_back(RunScenario("shed_pending4_slow5ms", info, slow_execute,
                                  config, 16, kSeconds));
  }

  const ScenarioResult& loaded = results[3];  // batch16_c16
  const ScenarioResult& shed = results.back();
  std::printf("\nacceptance: mean batch under 16 clients = %.2f (> 1: %s), "
              "sheds at full queue = %zu (> 0: %s)\n",
              loaded.mean_batch_size,
              loaded.mean_batch_size > 1.0 ? "yes" : "NO",
              shed.shed, shed.shed > 0 ? "yes" : "NO");

  FILE* out = std::fopen("BENCH_pr5.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_pr5.json for writing\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"scenarios\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"clients\": %zu, \"batch_limit\": %zu, "
        "\"seconds\": %.3f, \"ok\": %zu, \"shed\": %zu, "
        "\"errors\": %zu, \"throughput_rps\": %.1f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"mean_batch_size\": %.3f}%s\n",
        r.name.c_str(), r.clients, r.batch_limit, r.seconds, r.ok,
        r.shed, r.errors, r.throughput_rps, r.p50_ms, r.p99_ms,
        r.mean_batch_size, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"acceptance\": {\"mean_batch_gt_1\": %s, "
               "\"sheds_when_full\": %s}\n}\n",
               loaded.mean_batch_size > 1.0 ? "true" : "false",
               shed.shed > 0 ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_pr5.json\n");
  return 0;
}
