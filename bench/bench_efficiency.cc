// Figure 7: efficiency of expert finding over three datasets.
//
// Compares the per-query response time of the seven baselines against the
// four variants of our solution:
//   Ours-1: w/ PG-Index, w/ TA
//   Ours-2: w/ PG-Index, w/o TA (the engine's serving path)
//   Ours-3: w/o PG-Index, w/ TA
//   Ours-4: w/o PG-Index, w/o TA
// The engine ranks by a one-pass full scan, so the TA variants time TA
// outside it: RetrievePapers -> BuildRankedLists -> ThresholdTopN.
// Expected shape: the PG-Index variants fastest; TA adds no gain at these
// m (EXPERIMENTS.md, Figure 7).

#include <cstdio>

#include "bench_common.h"
#include "common/logging.h"
#include "common/timer.h"
#include "ranking/top_n_finder.h"

namespace {

using namespace kpef;

// The engine's retrieval followed by TA over the ranked lists.
class TaVariant : public RetrievalModel {
 public:
  explicit TaVariant(ExpertFindingEngine* engine) : engine_(engine) {}

  std::string name() const override { return engine_->name(); }

  std::vector<ExpertScore> FindExperts(const std::string& query_text,
                                       size_t n) override {
    const EngineConfig& config = engine_->config();
    const Dataset& data = engine_->dataset();
    return ThresholdTopN(
        BuildRankedLists(data.graph, data.ids.write,
                         engine_->RetrievePapers(query_text, config.top_m),
                         config.contribution_weighting),
        n);
  }

 private:
  ExpertFindingEngine* engine_;
};

}  // namespace

int main() {
  using namespace kpef;
  using namespace kpef::bench;
  SetLogLevel(LogLevel::kError);

  PrintHeader("Figure 7: efficiency of expert finding (ms/query)");
  for (const DatasetConfig& profile : PaperProfiles()) {
    const BenchDataset data(profile);
    const Evaluator evaluator(&data.dataset, &data.queries, &data.corpus,
                              &data.tfidf, &data.tokens);
    const size_t top_m = DefaultTopM(data);
    std::printf("--- dataset: %s (%zu papers, m=%zu)\n", profile.name.c_str(),
                data.dataset.Papers().size(), top_m);
    std::printf("%-12s %12s %8s\n", "Method", "ms/query", "MAP");

    for (auto& model : BuildBaselines(data, top_m)) {
      const EvaluationResult r = evaluator.Evaluate(*model, 20);
      std::printf("%-12s %12.3f %8.3f\n", r.model.c_str(),
                  r.mean_response_ms, r.map);
    }

    EngineConfig config = DefaultEngineConfig(data);
    auto engine_pg = BuildEngine(data, config);
    config.use_pg_index = false;
    auto engine_flat = BuildEngine(data, config);
    TaVariant ta_pg(engine_pg.get()), ta_flat(engine_flat.get());
    const struct {
      const char* name;
      RetrievalModel* model;
    } variants[] = {
        {"Ours-1", &ta_pg},
        {"Ours-2", engine_pg.get()},
        {"Ours-3", &ta_flat},
        {"Ours-4", engine_flat.get()},
    };
    for (const auto& v : variants) {
      // The evaluator reports the engine's display name; print the
      // variant name instead.
      const EvaluationResult r = evaluator.Evaluate(*v.model, 20);
      std::printf("%-12s %12.3f %8.3f\n", v.name, r.mean_response_ms, r.map);
    }
    std::printf("\n");
  }
  return 0;
}
