// Ablation A2: PG-Index refinement and search.
//
// Measures search latency and recall for the index variants of
// Algorithm 2 — plain kNN graph, +long-distance extension, +redundant
// removal — and brute force, across candidate-pool sizes. Expected shape:
// the refined index needs fewer hops/distance computations than the plain
// kNN graph at equal recall, and all graph variants beat brute force.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "obs/export.h"
#include "obs/pipeline_metrics.h"

#include "ann/brute_force.h"
#include "ann/pg_index.h"
#include "common/logging.h"
#include "common/rng.h"

namespace {

using namespace kpef;

constexpr size_t kNumPoints = 4000;
constexpr size_t kDim = 64;
constexpr size_t kTopK = 10;

const Matrix& Points() {
  static const Matrix* points = [] {
    SetLogLevel(LogLevel::kError);
    Rng rng(5150);
    // Clustered points resembling paper embeddings.
    Matrix centers(40, kDim);
    for (size_t r = 0; r < centers.rows(); ++r) {
      for (float& v : centers.Row(r)) v = static_cast<float>(rng.Normal(0, 3));
    }
    auto* m = new Matrix(kNumPoints, kDim);
    for (size_t i = 0; i < kNumPoints; ++i) {
      const size_t c = rng.Uniform(40);
      for (size_t k = 0; k < kDim; ++k) {
        m->At(i, k) = centers.At(c, k) + static_cast<float>(rng.Normal(0, 1));
      }
    }
    return m;
  }();
  return *points;
}

const PGIndex& IndexVariant(int variant) {
  static std::map<int, PGIndex>* cache = new std::map<int, PGIndex>();
  auto it = cache->find(variant);
  if (it == cache->end()) {
    PGIndexConfig config;
    config.knn_k = 10;
    config.extend_neighbors = variant >= 1;
    config.remove_redundant = variant >= 2;
    it = cache->emplace(variant, PGIndex::Build(Points(), config)).first;
  }
  return it->second;
}

std::vector<float> QueryFor(size_t i) {
  Rng rng(777 + i);
  const Matrix& points = Points();
  std::vector<float> q(kDim);
  const size_t anchor = rng.Uniform(points.rows());
  for (size_t k = 0; k < kDim; ++k) {
    q[k] = points.At(anchor, k) + static_cast<float>(rng.Normal(0, 0.5));
  }
  return q;
}

void BM_PGSearch(benchmark::State& state, int variant) {
  const PGIndex& index = IndexVariant(variant);
  const size_t ef = static_cast<size_t>(state.range(0));
  size_t query_id = 0;
  double recall = 0.0, dists = 0.0, hops = 0.0;
  size_t samples = 0;
  for (auto _ : state) {
    const std::vector<float> q = QueryFor(query_id++ % 32);
    PGIndex::SearchStats stats;
    const auto result = index.Search(q, kTopK, ef, &stats);
    benchmark::DoNotOptimize(result.data());
    state.PauseTiming();
    const auto exact = BruteForceSearch(Points(), q, kTopK);
    recall += ComputeRecall(result, exact);
    dists += static_cast<double>(stats.distance_computations);
    hops += static_cast<double>(stats.hops);
    ++samples;
    state.ResumeTiming();
  }
  state.counters["recall"] = recall / static_cast<double>(samples);
  state.counters["dist_comp"] = dists / static_cast<double>(samples);
  state.counters["hops"] = hops / static_cast<double>(samples);
}

void BM_PGSearchBatch(benchmark::State& state) {
  const PGIndex& index = IndexVariant(2);
  constexpr size_t kBatch = 32;
  Matrix queries(kBatch, kDim);
  std::vector<std::vector<Neighbor>> truth(kBatch);
  for (size_t q = 0; q < kBatch; ++q) {
    const std::vector<float> v = QueryFor(q);
    std::copy(v.begin(), v.end(), queries.Row(q).begin());
    truth[q] = BruteForceSearch(Points(), v, kTopK);
  }
  const size_t ef = static_cast<size_t>(state.range(0));
  double recall = 0.0;
  for (auto _ : state) {
    const auto results = index.SearchBatch(queries, kTopK, ef);
    benchmark::DoNotOptimize(results.data());
    state.PauseTiming();
    recall = 0.0;  // steady-state recall: same queries every iteration
    for (size_t q = 0; q < kBatch; ++q) {
      recall += ComputeRecall(results[q], truth[q]);
    }
    recall /= static_cast<double>(kBatch);
    state.ResumeTiming();
  }
  state.counters["recall"] = recall;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}

void BM_BruteForce(benchmark::State& state) {
  size_t query_id = 0;
  for (auto _ : state) {
    const std::vector<float> q = QueryFor(query_id++ % 32);
    const auto result = BruteForceSearch(Points(), q, kTopK);
    benchmark::DoNotOptimize(result.data());
  }
  state.counters["dist_comp"] = static_cast<double>(kNumPoints);
}

void BM_IndexBuild(benchmark::State& state, int variant) {
  PGIndexConfig config;
  config.knn_k = 10;
  config.extend_neighbors = variant >= 1;
  config.remove_redundant = variant >= 2;
  for (auto _ : state) {
    const PGIndex index = PGIndex::Build(Points(), config);
    benchmark::DoNotOptimize(index.NumEdges());
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_PGSearch, knn_only, 0)->Arg(10)->Arg(40)->Arg(100);
BENCHMARK_CAPTURE(BM_PGSearch, with_extension, 1)->Arg(10)->Arg(40)->Arg(100);
BENCHMARK_CAPTURE(BM_PGSearch, full_refined, 2)->Arg(10)->Arg(40)->Arg(100);
BENCHMARK(BM_PGSearchBatch)->Arg(40)->Arg(100);
BENCHMARK(BM_BruteForce);
BENCHMARK_CAPTURE(BM_IndexBuild, knn_only, 0)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_IndexBuild, full_refined, 2)
    ->Unit(benchmark::kMillisecond);

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
