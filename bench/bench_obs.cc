// PR-6 acceptance bench: what does request observability cost?
//
// Boots the real service + epoll server over a tiny-profile engine and
// drives it with closed-loop keep-alive clients three times, identical
// except for the observability configuration:
//
//   off      trace mode kOff, no access log — the PR-5 fast path
//   sampled  kSampled (head 1/64 + tail keep) + access log to a
//            discarding sink — the production default
//   always   kAlwaysOn (every trace retained) + access log
//
// Each mode runs kRepeats times round-robin (decorrelates clock-speed
// drift); the best run per mode is compared. The documented budget is
// sampled overhead < 2% of off-mode throughput (DESIGN.md §12).
//
// Writes BENCH_pr6.json into the current working directory. Run from
// the repo root:
//
//   ./build/bench/bench_obs

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
#include "common/thread_pool.h"
#include "core/engine.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "obs/trace.h"
#include "serve/http_server.h"
#include "serve/service.h"

namespace {

using namespace kpef;
using Clock = std::chrono::steady_clock;

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

  /// One POST round trip; returns the HTTP status (0 on transport error).
  int RoundTrip(const std::string& body) {
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
    while (true) {
      const size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const int status = std::atoi(buffer_.c_str() + 9);
        const size_t body_len = ContentLength(header_end);
        const size_t total = header_end + 4 + body_len;
        while (buffer_.size() < total) {
          if (!Fill()) return 0;
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

  size_t ContentLength(size_t header_end) const {
    std::string lower = buffer_.substr(0, header_end);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const size_t at = lower.find("content-length:");
    if (at == std::string::npos) return 0;
    return static_cast<size_t>(std::atoll(lower.c_str() + at + 15));
  }

  int fd_ = -1;
  std::string buffer_;
};

struct ModeResult {
  std::string name;
  double seconds = 0.0;
  size_t ok = 0;
  size_t errors = 0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t log_lines = 0;
  uint64_t traces_retained = 0;
};

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  const size_t at = std::min(
      sorted->size() - 1, static_cast<size_t>(q * (sorted->size() - 1)));
  return (*sorted)[at];
}

ModeResult RunMode(const std::string& name, const EngineInfo& info,
                   serve::BatchExecuteFn execute,
                   serve::ServiceConfig config, size_t clients,
                   double seconds) {
  obs::Tracer::Global().ClearRequestTraces();
  const uint64_t retained_before = obs::Tracer::Global().TracesRetained();
  std::atomic<uint64_t> log_lines{0};
  if (config.trace_mode != obs::TraceMode::kOff) {
    // Production-shaped: the structured log is on whenever tracing is.
    // The sink discards the rendered line, so the cost measured is
    // rendering + locking, not disk.
    config.access_log_sink = [&log_lines](const std::string&) {
      log_lines.fetch_add(1, std::memory_order_relaxed);
    };
  }

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
    size_t ok = 0, errors = 0;
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
      size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto sent = Clock::now();
        const int status = client.RoundTrip(queries[i++ % queries.size()]);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count();
        if (status == 200) {
          stats[c].ok++;
          stats[c].latencies_ms.push_back(ms);
        } else {
          stats[c].errors++;
          if (status == 0) return;
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

  ModeResult result;
  result.name = name;
  result.seconds = elapsed;
  std::vector<double> latencies;
  for (const PerThread& t : stats) {
    result.ok += t.ok;
    result.errors += t.errors;
    latencies.insert(latencies.end(), t.latencies_ms.begin(),
                     t.latencies_ms.end());
  }
  result.throughput_rps = static_cast<double>(result.ok) / elapsed;
  result.p50_ms = Percentile(&latencies, 0.50);
  result.p99_ms = Percentile(&latencies, 0.99);
  result.log_lines = log_lines.load();
  result.traces_retained =
      obs::Tracer::Global().TracesRetained() - retained_before;
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

  auto config_for = [](obs::TraceMode mode) {
    serve::ServiceConfig config;
    config.batcher.max_batch_size = 16;
    config.trace_mode = mode;
    config.trace_head_every = 64;
    return config;
  };
  const struct {
    const char* name;
    obs::TraceMode mode;
  } kModes[] = {
      {"off", obs::TraceMode::kOff},
      {"sampled", obs::TraceMode::kSampled},
      {"always", obs::TraceMode::kAlwaysOn},
  };

  constexpr size_t kClients = 8;
  constexpr double kSeconds = 1.2;
  constexpr int kRepeats = 3;

  // Warmup (discarded): page in the engine and the allocator.
  RunMode("warmup", info, execute, config_for(obs::TraceMode::kOff), kClients,
          0.4);

  // Round-robin repeats so slow drift (thermal, noisy neighbours) hits
  // every mode equally; keep each mode's best run.
  ModeResult best[3];
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (int m = 0; m < 3; ++m) {
      ModeResult r = RunMode(kModes[m].name, info, execute,
                             config_for(kModes[m].mode), kClients, kSeconds);
      std::printf("rep%d %-8s %7.0f req/s  p50 %6.3fms  p99 %6.3fms  "
                  "ok=%zu log_lines=%llu retained=%llu\n",
                  rep, r.name.c_str(), r.throughput_rps, r.p50_ms, r.p99_ms,
                  r.ok, static_cast<unsigned long long>(r.log_lines),
                  static_cast<unsigned long long>(r.traces_retained));
      if (r.throughput_rps > best[m].throughput_rps) best[m] = r;
    }
  }

  const double off_rps = best[0].throughput_rps;
  double overhead_pct[3] = {0.0, 0.0, 0.0};
  for (int m = 1; m < 3; ++m) {
    overhead_pct[m] =
        off_rps > 0.0
            ? (off_rps - best[m].throughput_rps) / off_rps * 100.0
            : 0.0;
  }
  const bool sampled_ok = overhead_pct[1] < 2.0;
  std::printf("\nacceptance: sampled overhead %.2f%% vs off "
              "(budget < 2%%: %s); always-on %.2f%%\n",
              overhead_pct[1], sampled_ok ? "yes" : "NO", overhead_pct[2]);

  FILE* out = std::fopen("BENCH_pr6.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_pr6.json for writing\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"clients\": %zu, \"seconds_per_run\": %.1f, "
                    "\"repeats\": %d,\n  \"modes\": [\n",
               kClients, kSeconds, kRepeats);
  for (int m = 0; m < 3; ++m) {
    const ModeResult& r = best[m];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"throughput_rps\": %.1f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"ok\": %zu, \"errors\": %zu, "
        "\"log_lines\": %llu, \"traces_retained\": %llu, "
        "\"overhead_pct_vs_off\": %.2f}%s\n",
        r.name.c_str(), r.throughput_rps, r.p50_ms, r.p99_ms, r.ok, r.errors,
        static_cast<unsigned long long>(r.log_lines),
        static_cast<unsigned long long>(r.traces_retained), overhead_pct[m],
        m < 2 ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"acceptance\": "
               "{\"sampled_overhead_within_2pct\": %s}\n}\n",
               sampled_ok ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_pr6.json\n");
  return 0;
}
