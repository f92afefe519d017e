// kpef_cli: end-to-end command-line driver for the library, demonstrating
// the offline-build / online-serve split with persisted artifacts.
//
//   kpef_cli generate --out graph.kg [--profile aminer|dblp|acm|tiny]
//                     [--scale 1.0]
//   kpef_cli stats    --graph graph.kg
//   kpef_cli texts    --graph graph.kg [--count 1] [--skip 0]
//   kpef_cli build    --graph graph.kg --model-dir dir [--k 4]
//                     [--train-threads 0]
//   kpef_cli query    --graph graph.kg --model-dir dir --text "..."
//                     [--n 10]
//
// Every flag takes one value. `--scale` is a finite number > 0; `--k` is
// an integer >= 1; `--count`, `--skip` and `--n` are integers >= 0;
// `--train-threads` is an integer in [0, 256]. A command accepts only the
// flags it lists above, plus the global ones below. An unknown, repeated
// or valueless flag, a stray argument, or a malformed or out-of-range
// value exits 1 naming it, before any file is read.
//
// `--train-threads N` fine-tunes the encoder with N workers (0 = all
// cores). The trained parameters, and so every artifact, are
// byte-identical for any N.
//
// `build` creates `--model-dir` and persists the fine-tuned encoder, the
// paper embeddings, and the PG-Index there; `query` reloads them into the
// serving engine and answers without retraining.
//
// Global flags (any command):
//   --metrics-out <path>   dump the metrics registry after the command
//                          (.prom/.txt -> Prometheus text, else JSON)
//   --trace-out <path>     enable span tracing, dump flame-style JSON

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/flags.h"
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

int CmdGenerate(Flags& flags) {
  const std::string out = flags.String("out", "graph.kg");
  const std::string profile =
      flags.Choice("profile", "aminer", {"aminer", "dblp", "acm", "tiny"});
  const double scale = flags.Double("scale", 1.0, 0.0, /*exclusive=*/true);
  if (const Status s = flags.Finish(); !s.ok()) return Fail(s);
  DatasetConfig config = ProfileByName(profile);
  if (scale != 1.0) config = config.ScaledCopy(scale, "");
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

StatusOr<Dataset> LoadDataset(const std::string& path) {
  KPEF_ASSIGN_OR_RETURN(HeteroGraph graph, LoadGraph(path));
  return DatasetFromGraph(std::move(graph), path);
}

int CmdStats(Flags& flags) {
  const std::string graph = flags.String("graph", "graph.kg");
  if (const Status s = flags.Finish(); !s.ok()) return Fail(s);
  auto dataset = LoadDataset(graph);
  if (!dataset.ok()) return Fail(dataset.status());
  const DatasetStats stats = ComputeStats(*dataset);
  std::printf("papers=%zu experts=%zu venues=%zu topics=%zu relations=%zu\n",
              stats.papers, stats.experts, stats.venues, stats.topics,
              stats.relations);
  return 0;
}

int CmdTexts(Flags& flags) {
  // Print paper texts from a graph, one per line. Scripted clients (the
  // CI ingest smoke) use this to craft in-vocabulary ingest payloads:
  // the serving encoder's vocabulary is frozen at build time, so a
  // query can only retrieve an ingested paper whose tokens overlap the
  // offline corpus.
  const std::string graph = flags.String("graph", "graph.kg");
  const size_t count = flags.Int<size_t>("count", 1, 0);
  const size_t skip = flags.Int<size_t>("skip", 0, 0);
  if (const Status s = flags.Finish(); !s.ok()) return Fail(s);
  auto dataset = LoadDataset(graph);
  if (!dataset.ok()) return Fail(dataset.status());
  const auto& papers = dataset->Papers();
  for (size_t i = skip; i < papers.size() && i - skip < count; ++i) {
    std::printf("%s\n", dataset->graph.Label(papers[i]).c_str());
  }
  return 0;
}

int CmdBuild(Flags& flags) {
  const std::string graph = flags.String("graph", "graph.kg");
  const std::string model_dir = flags.String("model-dir", "model");
  EngineConfig config;
  config.k = flags.Int<int32_t>("k", 4, 1);
  config.trainer.num_threads = flags.Int<size_t>("train-threads", 0, 0, 256);
  if (const Status s = flags.Finish(); !s.ok()) return Fail(s);
  // Created before the graph loads, so an unwritable directory fails
  // before training rather than after it.
  std::error_code ec;
  std::filesystem::create_directories(model_dir, ec);
  if (ec) {
    return Fail(Status::IOError("cannot create --model-dir " + model_dir +
                                ": " + ec.message()));
  }
  auto dataset = LoadDataset(graph);
  if (!dataset.ok()) return Fail(dataset.status());
  const Corpus corpus = BuildPaperCorpus(*dataset);

  config.top_m = TopMForCorpus(dataset->Papers().size());
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

int CmdQuery(Flags& flags) {
  const std::string graph = flags.String("graph", "graph.kg");
  const std::string model_dir = flags.String("model-dir", "model");
  const std::string text = flags.String("text", "");
  const size_t n = flags.Int<size_t>("n", 10, 0);
  if (const Status s = flags.Finish(); !s.ok()) return Fail(s);
  if (text.empty()) {
    return Fail(Status::InvalidArgument("query requires --text"));
  }
  auto dataset = LoadDataset(graph);
  if (!dataset.ok()) return Fail(dataset.status());
  const Corpus corpus = BuildPaperCorpus(*dataset);
  EngineConfig config;
  config.top_m = TopMForCorpus(dataset->Papers().size());
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
  auto parsed = kpef::Flags::Parse(argc, argv, 2);
  if (!parsed.ok()) return Fail(parsed.status());
  kpef::Flags& flags = *parsed;
  const std::string metrics_out = flags.String("metrics-out", "");
  const std::string trace_out = flags.String("trace-out", "");
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
