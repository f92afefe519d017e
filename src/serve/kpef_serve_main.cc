// kpef_serve: network-facing serving binary. Loads the artifacts that
// `kpef_cli build` persisted and serves /v1/find_experts, /healthz, and
// /metrics over HTTP with dynamic micro-batching (DESIGN.md §11).
//
//   kpef_serve --graph graph.kg --model-dir model [--address 127.0.0.1]
//              [--port 8080] [--threads 0]
//              [--reload-watch 0] [--batch-size 16] [--max-pending 256]
//              [--default-n 10] [--max-n 400] [--default-deadline-ms 0]
//              [--metrics-out path]
//              [--access-log path|-] [--trace-mode off|sampled|always]
//              [--trace-head-every 64] [--slow-ms 100] [--slow-queue-ms 50]
//              [--wal path]
//
// Every flag takes one value. Ranges: `--port` is an integer in
// [0, 65535] (0 = an ephemeral port); `--threads` is in [0, 256];
// `--batch-size`, `--max-pending` and `--max-n` are integers >= 1;
// `--default-n` is an integer in [1, --max-n] (default 10, or --max-n
// when that is smaller); `--trace-head-every` is an integer >= 0;
// `--reload-watch`, `--default-deadline-ms`, `--slow-ms` and
// `--slow-queue-ms` are finite numbers >= 0. An unknown, repeated or
// valueless flag, a stray argument, a malformed or out-of-range value,
// or a conflicting pair (below) exits 1 naming the flag, before any
// file is read.
//
// --wal PATH enables streaming ingestion: the WAL at PATH is replayed
// over the loaded artifacts at startup (creating the file when absent),
// and POST /v1/admin/ingest accepts JSON paper batches that are logged,
// folded into the serving state, and published as new generations while
// queries keep running. Incompatible with --reload-watch, and POST
// /v1/admin/reload answers 503 under it (a reload would drop the
// ingested papers). The graph and PG-Index delta overlays are compacted
// back into flat CSR whenever together they pass
// IngestOptions::merge_pending_edge_budget edges.
//
// Each generation serves one PG-Index of the whole corpus
// (EngineGroup); POST /v1/admin/reload hot-swaps the artifact
// generation with zero downtime, and --reload-watch S polls the model
// dir every S seconds (0 = off) and reloads automatically when an
// artifact file's mtime changes. --threads N sizes the serving pool
// (0 = hardware concurrency): batches run on it, at most N in flight,
// and so do their per-query tasks.
//
// The micro-batcher is work-conserving: it hands the engine a batch the
// moment a pool worker is free to run one, so a lone request is never
// held back, and under load a batch is what queued while every worker
// was busy (at most --batch-size requests).
//
// SIGTERM/SIGINT drain gracefully: stop accepting, flush queued batches,
// answer in-flight requests, then exit 0.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/build_info.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/engine_group.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "graph/graph_io.h"
#include "obs/export.h"
#include "obs/pipeline_metrics.h"
#include "ingest/coordinator.h"
#include "serve/http_server.h"
#include "serve/service.h"

namespace {

using namespace kpef;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kInfo);
  auto parsed = Flags::Parse(argc, argv, 1);
  if (!parsed.ok()) return Fail(parsed.status());
  Flags& flags = *parsed;
  const std::string graph_path = flags.String("graph", "graph.kg");
  const std::string model_dir = flags.String("model-dir", "model");
  const std::string wal_path = flags.String("wal", "");
  const double watch_seconds = flags.Double("reload-watch", 0.0, 0.0);
  const size_t threads = flags.Int<size_t>("threads", 0, 0, 256);
  const std::string metrics_out = flags.String("metrics-out", "");

  serve::ServiceConfig service_config;
  service_config.batcher.max_batch_size =
      flags.Int<size_t>("batch-size", 16, 1);
  service_config.batcher.max_pending =
      flags.Int<size_t>("max-pending", 256, 1);
  service_config.reload_dir = model_dir;
  // The one cap on a request's n; the default n is never clamped, so it
  // must fit under the cap.
  service_config.max_top_n = flags.Int<size_t>("max-n", 400, 1);
  service_config.default_top_n = flags.Int<size_t>(
      "default-n", std::min<size_t>(10, service_config.max_top_n), 1,
      service_config.max_top_n);
  service_config.default_deadline_ms =
      flags.Double("default-deadline-ms", 0.0, 0.0);
  service_config.access_log_path = flags.String("access-log", "");
  const std::string trace_mode =
      flags.Choice("trace-mode", "sampled", {"off", "sampled", "always"});
  if (trace_mode == "off") {
    service_config.trace_mode = obs::TraceMode::kOff;
  } else if (trace_mode == "always") {
    service_config.trace_mode = obs::TraceMode::kAlwaysOn;
  }
  service_config.trace_head_every =
      flags.Int<uint32_t>("trace-head-every", 64, 0);
  service_config.slow_e2e_ms = flags.Double("slow-ms", 100.0, 0.0);
  service_config.slow_queue_wait_ms =
      flags.Double("slow-queue-ms", 50.0, 0.0);

  serve::HttpServerConfig server_config;
  server_config.address = flags.String("address", "127.0.0.1");
  server_config.port =
      static_cast<uint16_t>(flags.Int<int>("port", 8080, 0, 65535));

  if (const Status s = flags.Finish(); !s.ok()) return Fail(s);
  // Reload would publish the base artifacts without the ingested papers
  // (and the next ingest publish would undo the reload), so the two
  // never run together.
  if (!wal_path.empty() && watch_seconds > 0) {
    return Fail(Status::InvalidArgument(
        "--reload-watch cannot be combined with --wal (a reload would "
        "drop the ingested papers)"));
  }

  // Block the shutdown signals before any thread spawns, so they are
  // delivered to the sigwait below, never to a worker.
  sigset_t sigset;
  sigemptyset(&sigset);
  sigaddset(&sigset, SIGTERM);
  sigaddset(&sigset, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigset, nullptr);

  obs::WarmPipelineMetrics();

  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  auto dataset = DatasetFromGraph(std::move(graph).value(), graph_path);
  if (!dataset.ok()) return Fail(dataset.status());
  const Corpus corpus = BuildPaperCorpus(*dataset);

  EngineGroup::Options group_options;
  group_options.engine.top_m = TopMForCorpus(dataset->Papers().size());
  auto group = EngineGroup::Load(&*dataset, &corpus, group_options, model_dir);
  if (!group.ok()) return Fail(group.status());
  const EngineInfo info = (*group)->Info();
  std::printf("kpef_serve %s (%s build)\n", BuildGitHash(), BuildType());
  std::printf(
      "loaded %s: %zu papers, %zu experts, dim %zu, index=%s, "
      "generation=%llu\n",
      model_dir.c_str(), info.num_papers, info.num_experts,
      info.embedding_dim,
      info.has_index ? "pg" : "brute",
      static_cast<unsigned long long>(info.generation));

  // --wal: streaming-ingest coordinator (replays the log before the
  // server opens its socket, so the first query already sees the
  // caught-up generation).
  std::unique_ptr<IngestCoordinator> ingest;
  if (!wal_path.empty()) {
    IngestOptions ingest_options;
    ingest_options.wal_path = wal_path;
    auto coordinator = IngestCoordinator::Create(
        group->get(), group_options.engine, std::move(ingest_options));
    if (!coordinator.ok()) return Fail(coordinator.status());
    ingest = std::move(coordinator).value();
    const IngestStats ingest_stats = ingest->Stats();
    std::printf("wal %s: %llu records replayed, %llu durable bytes\n",
                wal_path.c_str(),
                static_cast<unsigned long long>(ingest_stats.replayed_records),
                static_cast<unsigned long long>(ingest_stats.wal_bytes));
  }

  // The serving pool: the micro-batcher runs its batches on it, one per
  // worker at once, and hands it to FindExpertsBatch, whose per-query
  // encode -> search -> rank tasks run on it too.
  ThreadPool serving_pool(threads);
  service_config.batcher.pool = &serving_pool;

  // The server's handler references `service`, so `service` must be
  // declared first (destroyed last). That is safe only because the
  // explicit drain below runs server.ShutdownGracefully() and then
  // service->Drain() before either destructor: by destruction time the
  // batcher has no in-flight completions left to route.
  auto service = serve::ExpertSearchService::ForEngineGroup(
      group->get(), service_config, ingest.get());
  serve::HttpServer server(
      server_config,
      [&service](const serve::HttpRequest& request,
                 serve::HttpServer::Responder respond) {
        service->Handle(request, std::move(respond));
      });
  const Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("serving on http://%s:%u (batch<=%zu, queue<=%zu)\n",
              server_config.address.c_str(), server.port(),
              service_config.batcher.max_batch_size,
              service_config.batcher.max_pending);
  std::fflush(stdout);

  // --reload-watch S: poll the artifact files every S seconds and
  // hot-swap the generation when any mtime changes (the push-based
  // /v1/admin/reload endpoint stays available either way; both are off
  // under --wal).
  std::mutex watch_mutex;
  std::condition_variable watch_cv;
  bool watch_stop = false;
  std::thread watcher;
  if (watch_seconds > 0) {
    watcher = std::thread([&] {
      namespace fs = std::filesystem;
      const char* kArtifacts[] = {"encoder.bin", "embeddings.bin",
                                  "pgindex.bin"};
      auto stamp = [&] {
        // min(), not {}: the file clock's zero point can postdate every
        // real mtime (libstdc++ anchors it in the future), so a {}-
        // initialized max would swallow all timestamps.
        auto latest = fs::file_time_type::min();
        for (const char* name : kArtifacts) {
          std::error_code ec;
          const auto t = fs::last_write_time(fs::path(model_dir) / name, ec);
          if (!ec && t > latest) latest = t;
        }
        return latest;
      };
      auto last = stamp();
      const auto period = std::chrono::duration<double>(watch_seconds);
      std::unique_lock<std::mutex> lock(watch_mutex);
      while (!watch_cv.wait_for(lock, period, [&] { return watch_stop; })) {
        lock.unlock();
        const auto now_stamp = stamp();
        if (now_stamp > last) {
          last = now_stamp;
          const Status s = (*group)->Reload(model_dir);
          if (s.ok()) {
            std::printf("reload-watch: published generation %llu\n",
                        static_cast<unsigned long long>((*group)->generation()));
          } else {
            std::fprintf(stderr, "reload-watch: reload failed: %s\n",
                         s.ToString().c_str());
          }
          std::fflush(stdout);
        }
        lock.lock();
      }
    });
  }

  int sig = 0;
  sigwait(&sigset, &sig);
  std::printf("received %s, draining...\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);

  // Drain order: stop the reload watcher, stop accepting and let
  // in-flight requests finish (the batcher is still running and answers
  // them), then stop the batcher + any in-flight admin reload.
  if (watcher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watch_mutex);
      watch_stop = true;
    }
    watch_cv.notify_all();
    watcher.join();
  }
  server.ShutdownGracefully(/*timeout_ms=*/15000.0);
  service->Drain();

  if (!metrics_out.empty()) {
    const Status s = obs::WriteMetricsFile(metrics_out);
    if (!s.ok()) return Fail(s);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  std::printf("drained, bye\n");
  return 0;
}
