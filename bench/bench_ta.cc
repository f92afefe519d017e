// Ablation A3: TA-based top-n expert finding vs full scan.
//
// Synthetic ranked lists with a controllable number of papers (m) and
// candidate experts. Expected shape: TA touches fewer list entries and
// terminates early, with identical results (verified in tests).
//
// BM_RankAxisBound asks whether a bound along the paper-rank axis could
// end ranking early instead: S(a, p) = w(a, p) / I(p), so after the
// first r retrieved papers no author can gain more than
// sum_{j>r} max_w(p_j) / j. It reports how early that bound settles the
// top-10 at m = N/10 on the Aminer profile (EXPERIMENTS.md, Figure 7).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "obs/export.h"
#include "obs/pipeline_metrics.h"

#include "common/rng.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/queries.h"
#include "ranking/expert_score.h"
#include "ranking/top_n_finder.h"
#include "text/tfidf.h"

namespace {

using namespace kpef;

// Mirrors the engine's ranked lists: each "paper" has 1-5 authors drawn
// with Zipf-skewed popularity (prolific experts recur across lists), and
// scores follow Eq. 4: Zipf author weight scaled by the paper rank.
RankedLists MakeLists(size_t num_papers, size_t author_pool, uint64_t seed) {
  Rng rng(seed);
  RankedLists lists;
  lists.lists.resize(num_papers);
  lists.papers.resize(num_papers);
  std::set<NodeId> candidates;
  for (size_t j = 0; j < num_papers; ++j) {
    lists.papers[j] = static_cast<NodeId>(j);
    const size_t num_authors = 1 + rng.Uniform(5);
    std::set<NodeId> used;
    for (size_t rank = 1; rank <= num_authors; ++rank) {
      const NodeId author =
          static_cast<NodeId>(rng.Zipf(author_pool, 1.3) - 1);
      if (!used.insert(author).second) continue;
      const double score = ZipfContribution(used.size(), num_authors) /
                           static_cast<double>(j + 1);
      lists.lists[j].push_back({author, score});
      candidates.insert(author);
    }
    std::sort(lists.lists[j].begin(), lists.lists[j].end(),
              [](const ExpertScore& x, const ExpertScore& y) {
                if (x.score != y.score) return x.score > y.score;
                return x.author < y.author;
              });
  }
  lists.num_candidates = candidates.size();
  return lists;
}

const RankedLists& ListsFor(int64_t m) {
  static auto* cache = new std::map<int64_t, RankedLists>();
  auto it = cache->find(m);
  if (it == cache->end()) {
    it = cache->emplace(
                  m, MakeLists(static_cast<size_t>(m),
                               static_cast<size_t>(m) * 2, 99))
             .first;
  }
  return it->second;
}

void BM_ThresholdTopN(benchmark::State& state) {
  const RankedLists& lists = ListsFor(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  TopNStats stats;
  for (auto _ : state) {
    const auto top = ThresholdTopN(lists, n, &stats);
    benchmark::DoNotOptimize(top.data());
  }
  state.counters["entries"] = static_cast<double>(stats.entries_accessed);
  state.counters["early"] = stats.early_terminated ? 1.0 : 0.0;
}

void BM_FullScanTopN(benchmark::State& state) {
  const RankedLists& lists = ListsFor(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  TopNStats stats;
  for (auto _ : state) {
    const auto top = FullScanTopN(lists, n, &stats);
    benchmark::DoNotOptimize(top.data());
  }
  state.counters["entries"] = static_cast<double>(stats.entries_accessed);
}

// First r (1-based) after which the top-10 of the partial sums R_r can no
// longer change membership: the 10th score beats the 11th (0 when fewer
// than 11 authors are seen; unseen authors have 0) by more than the
// remaining bound suffix[r]. Returns m when that never happens before m.
size_t SettledAt(const HeteroGraph& graph, EdgeTypeId write_type,
                 const std::vector<NodeId>& top,
                 const std::vector<double>& suffix,
                 std::unordered_map<NodeId, double>& totals,
                 std::vector<double>& scratch) {
  constexpr size_t kTop = 10;
  const size_t m = top.size();
  totals.clear();
  for (size_t j = 0; j < m; ++j) {
    ForEachContribution(graph, write_type, top[j], j,
                        ContributionWeighting::kZipf,
                        [&](NodeId author, double score) {
                          totals[author] += score;
                        });
    if (j + 1 == m || totals.size() < kTop) continue;
    scratch.clear();
    for (const auto& [author, total] : totals) scratch.push_back(total);
    std::nth_element(scratch.begin(), scratch.begin() + kTop,
                     scratch.end(), std::greater<double>());
    const double tenth = *std::min_element(scratch.begin(),
                                           scratch.begin() + kTop);
    const double eleventh = scratch.size() > kTop ? scratch[kTop] : 0.0;
    if (tenth > eleventh + suffix[j + 1]) return j + 1;
  }
  return m;
}

void BM_RankAxisBound(benchmark::State& state) {
  static const Dataset* dataset = new Dataset(GenerateDataset(AminerProfile()));
  static const Corpus* corpus = new Corpus(BuildPaperCorpus(*dataset));
  static const TfIdfModel* tfidf = new TfIdfModel(*corpus);
  constexpr size_t kQueries = 500;
  const QuerySet queries = GenerateQueries(*dataset, kQueries, 7);
  const auto& papers = dataset->Papers();
  const size_t m = papers.size() / 10;
  size_t early_apriori = 0, early_per_paper = 0;
  double ratio_apriori = 0.0, ratio_per_paper = 0.0;
  for (auto _ : state) {
    early_apriori = early_per_paper = 0;
    ratio_apriori = ratio_per_paper = 0.0;
    std::unordered_map<NodeId, double> totals;
    std::vector<double> scratch;
    for (const Query& q : queries.queries) {
      // Top-m papers by TF-IDF (ties by document id), best first.
      const std::vector<float> scores =
          tfidf->ScoreAll(tfidf->Vectorize(corpus->EncodeQuery(q.text)));
      std::vector<size_t> order(scores.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::partial_sort(order.begin(), order.begin() + m, order.end(),
                        [&](size_t a, size_t b) {
                          if (scores[a] != scores[b]) {
                            return scores[a] > scores[b];
                          }
                          return a < b;
                        });
      std::vector<NodeId> top(m);
      for (size_t j = 0; j < m; ++j) top[j] = papers[order[j]];
      // suffix[r] = sum_{j>r} max_w(p_j) / j, a-priori (max_w = 1) and
      // with each paper's own largest Zipf weight (its first author's).
      std::vector<double> apriori(m + 1, 0.0), per_paper(m + 1, 0.0);
      for (size_t j = m; j-- > 0;) {
        const size_t k =
            dataset->graph.NeighborSegments(top[j], dataset->ids.write)
                .size();
        const double max_w = k == 0 ? 0.0 : ZipfContribution(1, k);
        apriori[j] = apriori[j + 1] + 1.0 / static_cast<double>(j + 1);
        per_paper[j] = per_paper[j + 1] + max_w / static_cast<double>(j + 1);
      }
      const size_t r_apriori = SettledAt(dataset->graph, dataset->ids.write,
                                         top, apriori, totals, scratch);
      const size_t r_per_paper = SettledAt(
          dataset->graph, dataset->ids.write, top, per_paper, totals, scratch);
      early_apriori += r_apriori < m;
      early_per_paper += r_per_paper < m;
      ratio_apriori += static_cast<double>(r_apriori) / m;
      ratio_per_paper += static_cast<double>(r_per_paper) / m;
    }
    benchmark::DoNotOptimize(ratio_apriori);
    benchmark::DoNotOptimize(ratio_per_paper);
  }
  const double nq = static_cast<double>(queries.queries.size());
  state.counters["m"] = static_cast<double>(m);
  state.counters["queries"] = nq;
  state.counters["apriori_early"] = static_cast<double>(early_apriori);
  state.counters["apriori_r_over_m"] = ratio_apriori / nq;
  state.counters["per_paper_early"] = static_cast<double>(early_per_paper);
  state.counters["per_paper_r_over_m"] = ratio_per_paper / nq;
}

}  // namespace

BENCHMARK(BM_RankAxisBound)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThresholdTopN)
    ->Args({100, 20})
    ->Args({400, 20})
    ->Args({1000, 20})
    ->Args({1000, 5})
    ->Args({1000, 100});
BENCHMARK(BM_FullScanTopN)
    ->Args({100, 20})
    ->Args({400, 20})
    ->Args({1000, 20})
    ->Args({1000, 5})
    ->Args({1000, 100});

// Custom main (instead of BENCHMARK_MAIN) so the run ends with a dump
// of the pipeline metrics accumulated across all benchmark iterations.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  kpef::obs::WarmPipelineMetrics();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::printf("\n### metrics (JSON)\n\n%s",
              kpef::obs::ExportMetricsJson().c_str());
  return 0;
}
