// kpef_cli: end-to-end command-line driver for the library, demonstrating
// the offline-build / online-serve split with persisted artifacts.
//
//   kpef_cli generate --out graph.kg [--profile aminer|dblp|acm|tiny]
//                     [--scale 0.5]
//   kpef_cli stats    --graph graph.kg
//   kpef_cli texts    --graph graph.kg [--count 1] [--skip 0]
//   kpef_cli build    --graph graph.kg --model-dir dir [--k 4]
//                     [--train-threads N]
//   kpef_cli query    --graph graph.kg --model-dir dir --text "..."
//                     [--n 10]
//
// `--train-threads N` fine-tunes the encoder with N workers (default 0 =
// all cores). The trained parameters, and so every artifact, are
// byte-identical for any N.
//
// `build` persists the fine-tuned encoder, the paper embeddings, and the
// PG-Index; `query` reloads them into the serving engine and answers
// without retraining.
//
// Global flags (any command):
//   --metrics-out <path>   dump the metrics registry after the command
//                          (.prom/.txt -> Prometheus text, else JSON)
//   --trace-out <path>     enable span tracing, dump flame-style JSON

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "common/logging.h"
#include "common/timer.h"
#include "core/engine.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "graph/graph_io.h"
#include "obs/export.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"

namespace {

using namespace kpef;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc;) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    // A flag followed by another --flag (or nothing) reads as "1".
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[i + 1];
      i += 2;
    } else {
      flags[key] = "1";
      i += 1;
    }
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

DatasetConfig ProfileByName(const std::string& name) {
  if (name == "dblp") return DblpProfile();
  if (name == "acm") return AcmProfile();
  if (name == "tiny") return TinyProfile();
  return AminerProfile();
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string out = FlagOr(flags, "out", "graph.kg");
  DatasetConfig config = ProfileByName(FlagOr(flags, "profile", "aminer"));
  const double scale = std::atof(FlagOr(flags, "scale", "1.0").c_str());
  if (scale > 0 && scale != 1.0) config = config.ScaledCopy(scale, "");
  const Dataset dataset = GenerateDataset(config);
  const Status saved = SaveGraph(dataset.graph, out);
  if (!saved.ok()) return Fail(saved);
  const DatasetStats stats = ComputeStats(dataset);
  std::printf("wrote %s: %zu papers, %zu experts, %zu venues, %zu topics, "
              "%zu relations\n",
              out.c_str(), stats.papers, stats.experts, stats.venues,
              stats.topics, stats.relations);
  return 0;
}

StatusOr<Dataset> LoadDataset(const std::map<std::string, std::string>& flags) {
  const std::string path = FlagOr(flags, "graph", "graph.kg");
  KPEF_ASSIGN_OR_RETURN(HeteroGraph graph, LoadGraph(path));
  return DatasetFromGraph(std::move(graph), path);
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  const DatasetStats stats = ComputeStats(*dataset);
  std::printf("papers=%zu experts=%zu venues=%zu topics=%zu relations=%zu\n",
              stats.papers, stats.experts, stats.venues, stats.topics,
              stats.relations);
  return 0;
}

int CmdTexts(const std::map<std::string, std::string>& flags) {
  // Print paper texts from a graph, one per line. Scripted clients (the
  // CI ingest smoke) use this to craft in-vocabulary ingest payloads:
  // the serving encoder's vocabulary is frozen at build time, so a
  // query can only retrieve an ingested paper whose tokens overlap the
  // offline corpus.
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  const size_t count = static_cast<size_t>(
      std::atoi(FlagOr(flags, "count", "1").c_str()));
  const size_t skip = static_cast<size_t>(
      std::atoi(FlagOr(flags, "skip", "0").c_str()));
  const auto& papers = dataset->Papers();
  for (size_t i = skip; i < papers.size() && i < skip + count; ++i) {
    std::printf("%s\n", dataset->graph.Label(papers[i]).c_str());
  }
  return 0;
}

// Retrieval depth m. kpef_serve computes the same value, so `build`,
// `query` and the server search the index the same way.
size_t TopM(const Dataset& dataset) {
  return std::max<size_t>(50, dataset.Papers().size() / 10);
}

int CmdBuild(const std::map<std::string, std::string>& flags) {
  // Checked before the graph loads: a negative count cast to size_t would
  // ask the trainer for one thread per triple.
  const std::string threads = FlagOr(flags, "train-threads", "0");
  size_t train_threads = 0;
  const auto [end, ec] = std::from_chars(
      threads.data(), threads.data() + threads.size(), train_threads);
  if (ec != std::errc() || end != threads.data() + threads.size()) {
    std::fprintf(stderr,
                 "error: --train-threads must be a non-negative integer, "
                 "got \"%s\"\n",
                 threads.c_str());
    return 1;
  }
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  const std::string model_dir = FlagOr(flags, "model-dir", "model");
  const Corpus corpus = BuildPaperCorpus(*dataset);

  EngineConfig config;
  config.k = std::atoi(FlagOr(flags, "k", "4").c_str());
  config.top_m = TopM(*dataset);
  config.trainer.num_threads = train_threads;
  Timer timer;
  EngineBuildReport report;
  auto engine = ExpertFindingEngine::Build(&*dataset, &corpus, config,
                                           nullptr, &report);
  if (!engine.ok()) return Fail(engine.status());
  std::printf("built pipeline in %.1fs (%zu triples, %zu index edges)\n",
              timer.ElapsedSeconds(), report.sampling.triples.size(),
              report.index.edges_final);
  std::printf(
      "trained %zu triples at %.0f triples/s, merge %.2fs (%zu worker%s)\n",
      report.training.num_triples, report.training.triples_per_sec,
      report.training.merge_seconds, report.training.workers,
      report.training.workers == 1 ? "" : "s");

  const Status s = (*engine)->SaveArtifacts(model_dir);
  if (!s.ok()) return Fail(s);
  std::printf("saved encoder.bin, embeddings.bin, pgindex.bin under %s/\n",
              model_dir.c_str());
  return 0;
}

int CmdQuery(const std::map<std::string, std::string>& flags) {
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  const std::string model_dir = FlagOr(flags, "model-dir", "model");
  const std::string text = FlagOr(flags, "text", "");
  const size_t n =
      static_cast<size_t>(std::atoi(FlagOr(flags, "n", "10").c_str()));
  if (text.empty()) {
    std::fprintf(stderr, "query requires --text\n");
    return 1;
  }
  const Corpus corpus = BuildPaperCorpus(*dataset);
  EngineConfig config;
  config.top_m = TopM(*dataset);
  auto engine = ExpertFindingEngine::LoadFromArtifacts(&*dataset, &corpus,
                                                       config, model_dir);
  if (!engine.ok()) return Fail(engine.status());

  Timer timer;
  const std::vector<ExpertScore> experts = (*engine)->FindExperts(text, n);
  std::printf("top-%zu experts (%.2f ms):\n", experts.size(),
              timer.ElapsedMillis());
  for (size_t i = 0; i < experts.size(); ++i) {
    std::printf("  %2zu. %-16s R(a)=%.4f\n", i + 1,
                dataset->graph.Label(experts[i].author).c_str(),
                experts[i].score);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  kpef::SetLogLevel(kpef::LogLevel::kWarning);
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: kpef_cli <generate|stats|texts|build|query> [--flag "
                 "value]...\n");
    return 1;
  }
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  const std::string metrics_out = FlagOr(flags, "metrics-out", "");
  const std::string trace_out = FlagOr(flags, "trace-out", "");
  if (!metrics_out.empty()) {
    // Pre-register the canonical schema so the export always carries the
    // full set of pipeline keys, even for commands that exercise only a
    // few stages.
    kpef::obs::WarmPipelineMetrics();
  }
  if (!trace_out.empty()) kpef::obs::Tracer::Global().SetEnabled(true);

  int rc = 1;
  if (command == "generate") {
    rc = CmdGenerate(flags);
  } else if (command == "stats") {
    rc = CmdStats(flags);
  } else if (command == "texts") {
    rc = CmdTexts(flags);
  } else if (command == "build") {
    rc = CmdBuild(flags);
  } else if (command == "query") {
    rc = CmdQuery(flags);
  } else {
    std::fprintf(stderr, "unknown command \"%s\"\n", command.c_str());
    return 1;
  }
  if (rc == 0 && !metrics_out.empty()) {
    const kpef::Status s = kpef::obs::WriteMetricsFile(metrics_out);
    if (!s.ok()) return Fail(s);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  if (rc == 0 && !trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", trace_out.c_str());
      return 1;
    }
    out << kpef::obs::Tracer::Global().DumpJson();
    std::printf("wrote %zu trace spans to %s\n",
                kpef::obs::Tracer::Global().NumSpans(), trace_out.c_str());
  }
  return rc;
}
