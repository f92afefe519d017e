// servebench: end-to-end benchmark of kpef_serve over loopback.
//
//   servebench --workload query_light|query_heavy|query_ingest --seed N
//              --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//              [--scale 1.0] [--trace-out PATH]
//
// Set-up (timed as setup_s): generate the fixed Aminer-profile corpus,
// hold out a drip tail (MakeDripSplit), run the offline build with the
// deterministic trainer schedule, save the artifacts, and start the real
// kpef_serve on them until /healthz answers 200. Then one client process
// drives the workload, checks every answer against an in-process
// reference engine loaded from the same artifacts, and prints one JSON
// result line last: the end-to-end metrics with --trace 0, the per-layer
// metrics of a replay through each layer's public functions with
// --trace 1. Progress and provenance go to stderr / earlier lines.

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common/build_info.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/engine.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/drip.h"
#include "data/queries.h"
#include "embed/vector_ops.h"
#include "eval/metrics.h"
#include "graph/graph_io.h"
#include "layers.h"
#include "serve/json_util.h"
#include "trace.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using kpef::ExpertScore;

/// One traffic mix. Every workload serves the same base corpus, so their
/// set-up does the same work.
struct Workload {
  const char* name;
  /// Poisson arrivals at `query_rate`/s, timed from their due time
  /// (independent users); false = closed loop (callers that wait).
  bool open_loop;
  double query_rate;
  /// Query connections (= client threads); the ingest feeder, when it
  /// runs beside them, takes the last of the nproc = 4 connections.
  size_t connections;
  /// kpef_serve runs with --wal and the drip feeder POSTs the held-out
  /// tail during the query window at kFeedRate.
  bool ingest;
};

// query_light: the rate keeps coalesced batches rare, so latency shows
//   the per-request floor (mostly the batcher's max_queue_age_ms hold).
// query_heavy: CPU-bound serving; throughput is set by batching, pool
//   fan-out, SQ8 search and ranking.
// query_ingest: the only mix where WAL, apply, index insert, compaction
//   and per-batch publish run while queries are answered.
constexpr Workload kWorkloads[] = {
    {"query_light", true, 40.0, 4, false},
    {"query_heavy", false, 0.0, 4, false},
    {"query_ingest", true, 150.0, 3, true},
};
/// The corpus is one fixed input, like a published dataset, so that
/// figures compare across runs; --seed varies the workload (query pool,
/// order and arrival times).
constexpr uint64_t kCorpusSeed = 1;
/// The quality set is fixed too, so quality_map and exact_overlap_at_10
/// repeat exactly; the load pool is drawn from --seed.
constexpr uint64_t kQualitySeed = 1;
constexpr size_t kQualitySetSize = 500;
constexpr size_t kPoolSize = 200;        // distinct load queries
constexpr double kFeedRate = 6.0;        // drip batches per second
constexpr size_t kDripBatchPapers = 16;  // papers per ingest batch
constexpr double kHoldoutShare = 0.32;   // of the generated papers
constexpr size_t kTopN = 10;             // experts per query (§VI-A)
constexpr size_t kMaxConnections = 4;    // = nproc of the bench host
constexpr size_t kWarmupQueries = 64;
constexpr size_t kReplayCap = 600;       // requests replayed per layer
/// Latency recorded for a failed request: it misses any latency limit.
constexpr double kFailedMs = std::numeric_limits<double>::infinity();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string serve_bin;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    flags[argv[i] + 2] = argv[i + 1];
  }
  const auto get = [&](const char* key, const std::string& fallback) {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  args->workload = get("workload", "");
  args->seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  args->seconds = std::atof(get("seconds", "10").c_str());
  args->trace = get("trace", "0") == "1";
  args->scale = std::atof(get("scale", "1").c_str());
  args->serve_bin = get("serve-bin", "");
  args->work_dir = get("work-dir", "");
  args->trace_out = get("trace-out", "");
  return !args->workload.empty() && !args->serve_bin.empty() &&
         !args->work_dir.empty() && args->seconds > 0 && args->scale > 0;
}

double SecondsSince(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

void Progress(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Progress(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::fputs("servebench: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

/// Host-wide CPU time from /proc/stat, in ticks.
struct HostCpu {
  double total = 0.0;
  double steal = 0.0;  // taken by the hypervisor for other guests
};

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu out;
  double value = 0.0;
  for (int field = 1; field <= 8 && in >> value; ++field) {
    out.total += value;
    if (field == 8) out.steal = value;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Nearest-rank percentile; failed requests (infinite) sort last.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return kFailedMs;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

// --- Wire formats ----------------------------------------------------------

std::string QueryBody(const std::string& text) {
  std::string body = "{\"query\":";
  kpef::serve::AppendJsonString(text, &body);
  body.append(",\"n\":").append(std::to_string(kTopN)).append("}");
  return body;
}

void AppendStringList(const std::vector<std::string>& items,
                      std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->push_back(',');
    kpef::serve::AppendJsonString(items[i], out);
  }
  out->push_back(']');
}

std::string IngestBody(const kpef::IngestBatch& batch) {
  std::string body = "{\"papers\":[";
  for (size_t i = 0; i < batch.papers.size(); ++i) {
    const kpef::IngestPaper& p = batch.papers[i];
    if (i > 0) body.push_back(',');
    body.append("{\"text\":");
    kpef::serve::AppendJsonString(p.text, &body);
    body.append(",\"authors\":");
    AppendStringList(p.authors, &body);
    body.append(",\"venue\":");
    kpef::serve::AppendJsonString(p.venue, &body);
    body.append(",\"topics\":");
    AppendStringList(p.topics, &body);
    body.append(",\"cites\":");
    AppendStringList(p.cites, &body);
    body.push_back('}');
  }
  body.append("]}");
  return body;
}

/// A /v1/find_experts answer as the server rendered it.
struct Served {
  std::vector<ExpertScore> experts;
  std::vector<std::string> names;
  double queue_wait_ms = 0.0;
  double engine_ms = 0.0;  // retrieval (encode + search) + ranking
  double batch_size = 0.0;
};

bool ParseServed(const std::string& body, Served* out) {
  kpef::serve::JsonValue doc;
  std::string error;
  if (!kpef::serve::ParseJson(body, &doc, &error) || !doc.is_object()) {
    return false;
  }
  const auto* experts = doc.Find("experts");
  const auto* stats = doc.Find("stats");
  const auto* batch = doc.Find("batch_size");
  const auto* queue = doc.Find("queue_wait_ms");
  if (experts == nullptr || stats == nullptr || batch == nullptr ||
      queue == nullptr) {
    return false;
  }
  for (const auto& e : experts->array_items) {
    const auto* id = e.Find("id");
    const auto* name = e.Find("name");
    const auto* score = e.Find("score");
    if (id == nullptr || name == nullptr || score == nullptr ||
        !(id->number_value >= 0.0 && id->number_value < 2147483647.0)) {
      return false;
    }
    out->experts.push_back(ExpertScore{
        static_cast<kpef::NodeId>(id->number_value), score->number_value});
    out->names.push_back(name->string_value);
  }
  const auto* retrieval = stats->Find("retrieval_ms");
  const auto* ranking = stats->Find("ranking_ms");
  if (retrieval == nullptr || ranking == nullptr) return false;
  out->engine_ms = retrieval->number_value + ranking->number_value;
  out->queue_wait_ms = queue->number_value;
  out->batch_size = batch->number_value;
  return true;
}

// --- Load generation -------------------------------------------------------

/// One request/response exchange; times in seconds since the run epoch.
struct Exchange {
  size_t item = 0;  // pool query index, or drip batch index
  std::string request_id;
  double due = 0.0;
  double send = 0.0;
  double recv = 0.0;
  HttpReply reply;
};

Exchange Send(HttpConnection& conn, Clock::time_point epoch, const char* path,
              const std::string& body, size_t item, std::string request_id,
              double due) {
  Exchange x;
  x.item = item;
  x.request_id = std::move(request_id);
  x.due = due;
  x.send = SecondsSince(epoch);
  x.reply = conn.Call("POST", path, body, x.request_id);
  x.recv = SecondsSince(epoch);
  return x;
}

Clock::time_point At(Clock::time_point epoch, double seconds) {
  return epoch + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Open loop: request i is due at `due[i]` (seconds since the epoch) and
/// goes out on whichever of `connections` connections is idle; a request
/// that finds none idle is sent late and still timed from its due time.
std::vector<Exchange> RunOpenLoop(uint16_t port, Clock::time_point epoch,
                                  const std::vector<double>& due,
                                  const std::vector<size_t>& items,
                                  const std::vector<std::string>& bodies,
                                  size_t connections) {
  std::vector<Exchange> out(due.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      HttpConnection conn(port);
      for (size_t i = next++; i < due.size(); i = next++) {
        std::this_thread::sleep_until(At(epoch, due[i]));
        out[i] = Send(conn, epoch, "/v1/find_experts", bodies[items[i]],
                      items[i], "q" + std::to_string(i), due[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

/// Closed loop: each connection sends its next request as soon as the
/// previous reply arrives, until `end` (seconds since the epoch).
std::vector<Exchange> RunClosedLoop(uint16_t port, Clock::time_point epoch,
                                    double end,
                                    const std::vector<size_t>& order,
                                    const std::vector<std::string>& bodies,
                                    size_t connections) {
  std::vector<std::vector<Exchange>> per_thread(connections);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      HttpConnection conn(port);
      while (SecondsSince(epoch) < end) {
        const size_t i = next++;
        const size_t item = order[i % order.size()];
        const double now = SecondsSince(epoch);
        per_thread[c].push_back(Send(conn, epoch, "/v1/find_experts",
                                     bodies[item], item,
                                     "q" + std::to_string(i), now));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Exchange> out;
  for (auto& v : per_thread) {
    for (Exchange& x : v) out.push_back(std::move(x));
  }
  std::sort(out.begin(), out.end(),
            [](const Exchange& a, const Exchange& b) {
              return a.send < b.send;
            });
  return out;
}

/// The single-flight ingest feeder: batch b is due at start + b / rate
/// and goes at max(due, last ack).
std::vector<Exchange> RunFeeder(uint16_t port, Clock::time_point epoch,
                                double start, double rate,
                                const std::vector<std::string>& bodies) {
  std::vector<Exchange> out;
  HttpConnection conn(port);
  for (size_t b = 0; b < bodies.size(); ++b) {
    const double due = start + static_cast<double>(b) / rate;
    std::this_thread::sleep_until(At(epoch, due));
    out.push_back(Send(conn, epoch, "/v1/admin/ingest", bodies[b], b,
                       "i" + std::to_string(b), due));
  }
  return out;
}

// --- Output ----------------------------------------------------------------

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out.append(", ");
    kpef::serve::AppendJsonString(metrics[i].name, &out);
    // A percentile over failed requests only is infinite; it prints as
    // 1e9 so that the line stays JSON.
    std::snprintf(buf, sizeof(buf), ": {\"value\": %.17g, \"unit\": ",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 1e9);
    out.append(buf);
    kpef::serve::AppendJsonString(metrics[i].unit, &out);
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    Progress("unknown workload '%s'", args.workload.c_str());
    return 2;
  }
  const Clock::time_point epoch = Clock::now();
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  SpanLog spans(args.trace, epoch);
  const std::string work = args.work_dir;
  fs::create_directories(work + "/model");
  const std::string graph_path = work + "/graph.kg";
  const std::string model_dir = work + "/model";

  // ---- Set-up: corpus, offline build, artifacts, server until healthy.
  const Clock::time_point setup_start = Clock::now();
  kpef::DatasetConfig corpus_config = kpef::AminerProfile();
  if (args.scale != 1.0) {
    corpus_config = corpus_config.ScaledCopy(args.scale, "");
  }
  corpus_config.seed = kCorpusSeed;
  const size_t holdout = std::max<size_t>(
      kDripBatchPapers,
      static_cast<size_t>(kHoldoutShare *
                          static_cast<double>(corpus_config.num_papers)) /
          kDripBatchPapers * kDripBatchPapers);
  auto split =
      kpef::MakeDripSplit(kpef::GenerateDataset(corpus_config), holdout);
  if (!split.ok()) throw std::runtime_error(split.status().ToString());
  if (auto s = kpef::SaveGraph(split->base.graph, graph_path); !s.ok()) {
    throw std::runtime_error(s.ToString());
  }
  // Serve and reference from the graph file, exactly as kpef_serve reads it.
  auto graph = kpef::LoadGraph(graph_path);
  if (!graph.ok()) throw std::runtime_error(graph.status().ToString());
  auto base_or = kpef::DatasetFromGraph(std::move(graph).value(), graph_path);
  if (!base_or.ok()) throw std::runtime_error(base_or.status().ToString());
  const kpef::Dataset base = std::move(base_or).value();
  const kpef::Corpus corpus = kpef::BuildPaperCorpus(base);

  kpef::EngineConfig build_config = ServingOptions(base, 1).engine;
  build_config.trainer.num_threads = nproc;
  build_config.trainer.deterministic = true;
  kpef::EngineBuildReport report;
  {
    auto built = kpef::ExpertFindingEngine::Build(&base, &corpus, build_config,
                                                  nullptr, &report);
    if (!built.ok()) throw std::runtime_error(built.status().ToString());
    if (auto s = (*built)->SaveArtifacts(model_dir); !s.ok()) {
      throw std::runtime_error(s.ToString());
    }
  }
  ServerProcess server;
  const Clock::time_point load_start = Clock::now();
  std::string error;
  std::vector<std::string> serve_argv = {args.serve_bin, "--graph",
                                         graph_path,      "--model-dir",
                                         model_dir,       "--port",
                                         "0"};
  if (workload->ingest) {
    serve_argv.insert(serve_argv.end(), {"--wal", work + "/serve.wal"});
  }
  if (!server.Start(serve_argv, work + "/serve.log", 120.0, &error)) {
    throw std::runtime_error(error);
  }
  const double load_s = SecondsSince(load_start);
  const double setup_s = SecondsSince(setup_start);
  Progress("%s: set-up %.2fs (%zu base papers, %zu held out, build %.2fs)",
           workload->name, setup_s, base.Papers().size(), holdout,
           report.total_seconds);

  // ---- Inputs and reference answers (not timed).
  const uint64_t workload_seed = args.seed;
  std::vector<std::string> texts, bodies;
  for (const kpef::Query& q :
       kpef::GenerateQueries(base, std::min(kPoolSize, base.Papers().size()),
                             workload_seed)
           .queries) {
    texts.push_back(q.text);
    bodies.push_back(QueryBody(q.text));
  }
  const size_t pool_size = texts.size();
  std::vector<std::string> quality_texts, quality_bodies;
  std::vector<std::vector<kpef::NodeId>> truths;
  for (const kpef::Query& q :
       kpef::GenerateQueries(
           base, std::min(kQualitySetSize, base.Papers().size()), kQualitySeed)
           .queries) {
    quality_texts.push_back(q.text);
    quality_bodies.push_back(QueryBody(q.text));
    truths.push_back(q.ground_truth);
  }
  const size_t quality_size = quality_texts.size();
  const auto reference_group = LoadServingGroup(base, corpus, model_dir, 1);
  const auto exact_answers = [&](const kpef::ExpertFindingEngine& engine,
                                 const kpef::Dataset* dataset,
                                 const kpef::Corpus* corpus_ptr) {
    // Brute-force retrieval + full-scan ranking over the same embeddings.
    kpef::EngineConfig exact = engine.config();
    exact.use_pg_index = false;
    exact.use_ta = false;
    auto e = kpef::ExpertFindingEngine::FromParts(
        dataset, corpus_ptr, exact, engine.encoder(), engine.embeddings(),
        nullptr);
    if (!e.ok()) throw std::runtime_error(e.status().ToString());
    return (*e)->FindExpertsBatch(quality_texts, kTopN);
  };
  const std::vector<std::vector<ExpertScore>> reference =
      reference_group->FindExpertsBatch(texts, kTopN);
  std::vector<std::vector<ExpertScore>> quality_reference =
      reference_group->FindExpertsBatch(quality_texts, kTopN);
  std::vector<std::vector<ExpertScore>> quality_exact =
      exact_answers(*reference_group->Snapshot()->engine, &base, &corpus);

  std::vector<kpef::IngestBatch> drip;
  std::vector<std::string> drip_bodies;
  for (auto& papers : kpef::DripBatches(std::move(split->tail),
                                        kDripBatchPapers)) {
    kpef::IngestBatch batch;
    for (kpef::DripPaper& p : papers) {
      batch.papers.push_back(kpef::IngestPaper{p.text, p.authors, p.venue,
                                               p.topics, p.cites});
    }
    drip_bodies.push_back(IngestBody(batch));
    drip.push_back(std::move(batch));
  }

  kpef::Rng rng(workload_seed);
  std::vector<size_t> order(pool_size);
  for (size_t i = 0; i < pool_size; ++i) order[i] = i;
  for (size_t i = pool_size; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }

  size_t attempted = 0;
  size_t failed = 0;
  const auto check = [&](bool ok, const char* what, const std::string& id) {
    ++attempted;
    if (ok) return true;
    if (failed++ < 5) Progress("FAILED %s (%s)", what, id.c_str());
    return false;
  };

  // ---- Warm-up (caches, lazy set-up), not measured.
  {
    HttpConnection conn(server.port());
    for (size_t i = 0; i < kWarmupQueries; ++i) {
      const size_t item = order[i % pool_size];
      const HttpReply r = conn.Call("POST", "/v1/find_experts", bodies[item],
                                    "w" + std::to_string(i));
      check(r.status == 200, "warm-up query", "w" + std::to_string(i));
    }
  }

  // ---- Measured window.
  const HostCpu host_start = ReadHostCpu();
  const double cpu_start = server.CpuSeconds();
  const double window_start = SecondsSince(epoch) + 0.01;
  const double window_end = window_start + args.seconds;
  std::vector<Exchange> queries;
  std::vector<Exchange> feed;
  std::vector<double> schedule;
  if (workload->open_loop) {
    // A Poisson process conditioned on its count: rate * seconds arrivals
    // at uniformly random times, so the offered load is the same in
    // every run while the arrivals stay memoryless.
    const size_t arrivals =
        static_cast<size_t>(std::llround(workload->query_rate * args.seconds));
    for (size_t i = 0; i < arrivals; ++i) {
      schedule.push_back(window_start + rng.UniformDouble() * args.seconds);
    }
    std::sort(schedule.begin(), schedule.end());
    std::vector<size_t> items(schedule.size());
    for (size_t i = 0; i < items.size(); ++i) items[i] = order[i % pool_size];
    std::thread feeder;
    if (workload->ingest) {
      feeder = std::thread([&] {
        feed = RunFeeder(server.port(), epoch, window_start, kFeedRate,
                         drip_bodies);
      });
    }
    queries = RunOpenLoop(server.port(), epoch, schedule, items, bodies,
                          workload->connections);
    if (feeder.joinable()) feeder.join();
  } else {
    queries = RunClosedLoop(server.port(), epoch, window_end, order, bodies,
                            workload->connections);
  }
  double last_recv = window_start;
  for (const Exchange& x : queries) last_recv = std::max(last_recv, x.recv);
  const double window_s = last_recv - window_start;
  const double cpu_s = server.CpuSeconds() - cpu_start;
  const HostCpu host_end = ReadHostCpu();
  const double steal_share =
      host_end.total > host_start.total
          ? (host_end.steal - host_start.steal) /
                (host_end.total - host_start.total)
          : 0.0;

  // Per-request checks. Without ingest the corpus is the base one, so
  // every answer must equal the in-process reference; under ingest the
  // corpus grows, so answers are checked non-empty here and resolvable
  // against the final corpus once it is known.
  std::vector<double> latency_ms;
  std::vector<Served> served(queries.size());
  size_t answered = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Exchange& x = queries[i];
    bool ok = x.reply.status == 200 && ParseServed(x.reply.body, &served[i]) &&
              !served[i].experts.empty();
    if (ok && !workload->ingest) {
      ok = SameAnswer(served[i].experts, reference[x.item]);
    }
    if (check(ok, "window query", x.request_id + " " + x.reply.error)) {
      ++answered;
    }
    latency_ms.push_back(ok ? (x.recv - x.due) * 1e3 : kFailedMs);
  }
  std::vector<double> lateness_ms;
  for (const Exchange& x : queries) {
    lateness_ms.push_back((x.send - x.due) * 1e3);
  }

  // Every ingest batch is acknowledged in full, and none is a duplicate.
  std::vector<double> ack_ms;
  for (const Exchange& x : feed) {
    kpef::serve::JsonValue doc;
    std::string parse_error;
    const auto& batch = drip[x.item];
    const bool ok =
        x.reply.status == 200 &&
        kpef::serve::ParseJson(x.reply.body, &doc, &parse_error) &&
        doc.Find("applied") != nullptr && doc.Find("duplicates") != nullptr &&
        doc.Find("applied")->number_value ==
            static_cast<double>(batch.papers.size()) &&
        doc.Find("duplicates")->number_value == 0.0;
    check(ok, "ingest batch", x.request_id + " " + x.reply.error);
    ack_ms.push_back(ok ? (x.recv - x.due) * 1e3 : kFailedMs);
  }
  size_t tail_papers = 0;
  for (const auto& b : drip) tail_papers += b.papers.size();
  if (workload->ingest) {
    HttpConnection conn(server.port());
    const HttpReply health = conn.Call("GET", "/healthz", "");
    kpef::serve::JsonValue doc;
    std::string parse_error;
    const bool ok = health.status == 200 &&
                    kpef::serve::ParseJson(health.body, &doc, &parse_error) &&
                    doc.Find("ingest_records") != nullptr &&
                    doc.Find("ingest_records")->number_value ==
                        static_cast<double>(tail_papers);
    check(ok, "every tail paper applied", "/healthz");
  }

  // ---- Quality pass: every quality-set query once, after the window and,
  // under ingest, after the drain. Compared below once the reference is
  // known.
  std::vector<Served> quality(quality_size);
  std::vector<char> quality_ok(quality_size, 0);
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kMaxConnections; ++c) {
      threads.emplace_back([&] {
        HttpConnection conn(server.port());
        for (size_t q = next++; q < quality_size; q = next++) {
          const HttpReply r = conn.Call("POST", "/v1/find_experts",
                                        quality_bodies[q],
                                        "v" + std::to_string(q));
          quality_ok[q] = r.status == 200 &&
                          ParseServed(r.body, &quality[q]) &&
                          !quality[q].experts.empty();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double peak_rss_mb = server.PeakRssMb();
  check(server.Stop(), "kpef_serve drained and exited 0", "SIGTERM");

  // ---- In-process ingest replay: the post-ingest reference for
  // query_ingest, and the ingest layer's figures in a traced run.
  Metrics layer_metrics;
  std::optional<IngestReplay> ingested;
  if (workload->ingest || args.trace) {
    auto r = ReplayIngest(base, corpus, model_dir, work + "/replay.wal", drip,
                          &spans, args.trace ? &layer_metrics : nullptr);
    if (!r.ok()) throw std::runtime_error(r.status().ToString());
    ingested = std::move(r).value();
    check(ingested->applied == tail_papers, "in-process ingest of the tail",
          "replay");
  }
  if (workload->ingest) {
    const auto generation = ingested->group->Snapshot();
    const kpef::Dataset& grown = *generation->owned_dataset;
    quality_reference = ingested->group->FindExpertsBatch(quality_texts, kTopN);
    quality_exact =
        exact_answers(*generation->engine, generation->owned_dataset.get(),
                      generation->owned_corpus.get());
    for (size_t i = 0; i < queries.size(); ++i) {
      bool ok = true;
      for (size_t k = 0; k < served[i].experts.size(); ++k) {
        const kpef::NodeId id = served[i].experts[k].author;
        ok = ok && id >= 0 &&
             static_cast<size_t>(id) < grown.graph.NumNodes() &&
             grown.graph.TypeOf(id) == grown.ids.author &&
             grown.graph.Label(id) == served[i].names[k];
      }
      if (!served[i].experts.empty()) {
        check(ok, "window answer ids resolve", queries[i].request_id);
      }
    }
  }
  std::vector<std::vector<kpef::NodeId>> rankings(quality_size);
  uint64_t overlap = 0, served_experts = 0;
  for (size_t q = 0; q < quality_size; ++q) {
    const bool ok =
        quality_ok[q] && SameAnswer(quality[q].experts, quality_reference[q]);
    check(ok, "quality-pass answer equals reference", "v" + std::to_string(q));
    for (const ExpertScore& e : quality[q].experts) {
      rankings[q].push_back(e.author);
      ++served_experts;
      for (const ExpertScore& x : quality_exact[q]) {
        overlap += x.author == e.author;
      }
    }
  }

  // ---- Provenance (one earlier stdout line; also in the result file).
  std::sort(lateness_ms.begin(), lateness_ms.end());
  const auto summary = [](const std::vector<double>& v) {
    if (v.empty()) return std::string("null");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"n\": %zu, \"p50\": %.4f, \"p90\": %.4f, \"p95\": %.4f, "
                  "\"p99\": %.4f, \"max\": %.4f}",
                  v.size(), Percentile(v, 0.5), Percentile(v, 0.9),
                  Percentile(v, 0.95), Percentile(v, 0.99), Percentile(v, 1.0));
    return std::string(buf);
  };
  char provenance[4096];
  std::snprintf(
      provenance, sizeof(provenance),
      "{\"provenance\": {\"workload\": \"%s\", \"nproc\": %zu, \"cpu_model\": "
      "\"%s\", \"distance_kernel\": \"%s\", \"build_type\": \"%s\", "
      "\"git\": \"%s\", \"corpus_seed\": %llu, \"workload_seed\": %llu, "
      "\"scale\": %g, \"base_papers\": %zu, \"tail_papers\": %zu, "
      "\"query_pool\": %zu, \"quality_set\": %zu, \"loop\": \"%s\", "
      "\"offered_query_rps\": %g, "
      "\"connections\": %zu, \"offered_ingest_batches_per_s\": %g, "
      "\"ingest\": %s, "
      "\"window_s\": %.3f, \"queries_sent\": %zu, \"ingest_batches\": %zu, "
      "\"generator_late_p50_ms\": %.4f, \"generator_late_p99_ms\": %.4f, "
      "\"generator_late_max_ms\": %.4f, \"query_latency_ms\": %s, "
      "\"ingest_ack_ms\": %s, \"host_steal_share\": %.4f, "
      "\"traced\": %s}}",
      workload->name, nproc, CpuModel().c_str(),
      kpef::ActiveKernel().name, kpef::BuildType(), kpef::BuildGitHash(),
      static_cast<unsigned long long>(kCorpusSeed),
      static_cast<unsigned long long>(workload_seed), args.scale,
      base.Papers().size(), tail_papers, pool_size, quality_size,
      workload->open_loop ? "open" : "closed", workload->query_rate,
      workload->connections,
      kFeedRate, workload->ingest ? "true" : "false", window_s,
      queries.size(),
      feed.size(), Percentile(lateness_ms, 0.5), Percentile(lateness_ms, 0.99),
      lateness_ms.empty() ? 0.0 : lateness_ms.back(),
      summary(latency_ms).c_str(), summary(ack_ms).c_str(), steal_share,
      args.trace ? "true" : "false");
  std::printf("%s\n", provenance);

  Metrics metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"query_p50_ms", Percentile(latency_ms, 0.5), "ms"},
        {"query_rps", static_cast<double>(answered) / window_s, "1/s"},
        {"quality_map", kpef::MeanAveragePrecision(rankings, truths), "ratio"},
        {"exact_overlap_at_10",
         served_experts == 0 ? 0.0
                             : static_cast<double>(overlap) /
                                   static_cast<double>(served_experts),
         "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"cpu_ms_per_query",
         answered == 0 ? kFailedMs
                       : cpu_s * 1e3 / static_cast<double>(answered),
         "ms"},
    };
  } else {
    // serve: from each response's own fields, measured on the live run.
    std::vector<double> queue, engine, overhead, round_trip;
    double batch_sum = 0.0;
    size_t live = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const Exchange& x = queries[i];
      if (x.reply.status != 200 || served[i].experts.empty()) continue;
      const Served& s = served[i];
      const double rtt_ms = (x.recv - x.send) * 1e3;
      queue.push_back(s.queue_wait_ms);
      engine.push_back(s.engine_ms);
      overhead.push_back(rtt_ms - s.queue_wait_ms - s.engine_ms);
      round_trip.push_back(rtt_ms);
      batch_sum += s.batch_size;
      ++live;
      const double send_us = x.send * 1e6;
      const int64_t root =
          spans.Add("serve.request", send_us, x.recv * 1e6, -1, x.request_id);
      spans.Add("serve.queue", send_us, send_us + s.queue_wait_ms * 1e3, root,
                x.request_id);
      spans.Add("core.engine", send_us + s.queue_wait_ms * 1e3,
                send_us + (s.queue_wait_ms + s.engine_ms) * 1e3, root,
                x.request_id);
    }
    metrics = {
        {"serve.queue_wait_ms", Median(queue), "ms"},
        {"serve.batch_size", live == 0 ? 0.0 : batch_sum / live, "count"},
        {"serve.engine_ms", Median(engine), "ms"},
        {"serve.overhead_ms", Median(overhead), "ms"},
        {"serve.round_trip_ms", Median(round_trip), "ms"},
    };

    // Batch compositions: requests the server coalesced started their
    // batch together (send + queue wait); group them in that order.
    std::vector<size_t> by_start;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].reply.status == 200 && !served[i].experts.empty()) {
        by_start.push_back(i);
      }
    }
    const auto batch_start = [&](size_t i) {
      return queries[i].send + served[i].queue_wait_ms / 1e3;
    };
    std::stable_sort(by_start.begin(), by_start.end(), [&](size_t a, size_t b) {
      return batch_start(a) < batch_start(b);
    });
    QueryStream stream;
    for (size_t k = 0;
         k < by_start.size() && stream.texts.size() < kReplayCap;) {
      const size_t size = std::max<size_t>(
          1, static_cast<size_t>(served[by_start[k]].batch_size));
      std::vector<size_t> batch;
      for (size_t j = 0; j < size && k < by_start.size(); ++j, ++k) {
        const Exchange& x = queries[by_start[k]];
        batch.push_back(stream.texts.size());
        stream.texts.push_back(texts[x.item]);
        stream.request_ids.push_back(x.request_id);
      }
      stream.batches.push_back(std::move(batch));
    }
    const size_t mismatches =
        ReplayQueryLayers(stream, base, corpus, model_dir, nproc, kTopN,
                          &spans, &metrics);
    attempted += stream.texts.size();
    failed += mismatches;
    if (mismatches > 0) {
      Progress("FAILED %zu replayed answers differ from FindExpertsBatch",
               mismatches);
    }
    for (Metric& m : layer_metrics) metrics.push_back(std::move(m));

    const std::map<std::string, double> self = spans.SelfMsByLayer();
    const auto per = [&](const char* layer, size_t count) {
      const auto it = self.find(layer);
      return it == self.end() || count == 0
                 ? 0.0
                 : it->second / static_cast<double>(count);
    };
    const size_t replayed = stream.texts.size();
    metrics.push_back({"serve.self_ms", per("serve", live), "ms"});
    metrics.push_back({"core.self_ms", per("core", live), "ms"});
    metrics.push_back({"embed.self_ms", per("embed", replayed), "ms"});
    metrics.push_back({"ann.self_ms", per("ann", replayed), "ms"});
    metrics.push_back({"ranking.self_ms", per("ranking", replayed), "ms"});
    metrics.push_back({"ingest.self_ms", per("ingest", drip.size()), "ms"});

    const double sampling_s =
        report.total_seconds - report.pretrain_seconds -
        report.training.train_seconds - report.embed_seconds -
        report.index.build_seconds;
    metrics.push_back({"build.pretrain_s", report.pretrain_seconds, "s"});
    metrics.push_back({"build.sampling_s", sampling_s, "s"});
    metrics.push_back({"build.train_s", report.training.train_seconds, "s"});
    metrics.push_back({"build.embed_s", report.embed_seconds, "s"});
    metrics.push_back({"build.index_s", report.index.build_seconds, "s"});
    metrics.push_back({"build.triples",
                       static_cast<double>(report.sampling.triples.size()),
                       "count"});
    metrics.push_back({"build.index_edges",
                       static_cast<double>(report.index.edges_final), "count"});
    metrics.push_back({"setup.load_s", load_s, "s"});
    if (!args.trace_out.empty() && !spans.WriteJson(args.trace_out)) {
      Progress("cannot write %s", args.trace_out.c_str());
    }
  }

  const bool correct = failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  kpef::SetLogLevel(kpef::LogLevel::kError);
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload W --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --work-dir DIR\n");
    return 2;
  }
  try {
    return servebench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: error: %s\n", e.what());
    return 1;
  }
}
