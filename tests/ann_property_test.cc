// Parameterized property sweeps over the ANN structures: for a grid of
// dataset shapes and search budgets, the graph indexes must respect their
// recall/extra-work contracts against brute force.

#include <functional>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "ann/brute_force.h"
#include "ann/pg_index.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace kpef {
namespace {

struct Shape {
  size_t n;
  size_t dim;
  size_t clusters;
  uint64_t seed;
};

Matrix MakePoints(const Shape& shape) {
  Rng rng(shape.seed);
  Matrix centers(shape.clusters, shape.dim);
  for (size_t r = 0; r < centers.rows(); ++r) {
    for (float& v : centers.Row(r)) v = static_cast<float>(rng.Normal(0, 4));
  }
  Matrix points(shape.n, shape.dim);
  for (size_t i = 0; i < shape.n; ++i) {
    const size_t c = rng.Uniform(shape.clusters);
    for (size_t k = 0; k < shape.dim; ++k) {
      points.At(i, k) = centers.At(c, k) + static_cast<float>(rng.Normal(0, 1));
    }
  }
  return points;
}

// Shared point sets per shape (index construction is the slow part).
const Matrix& PointsFor(const Shape& shape) {
  static auto* cache = new std::map<std::tuple<size_t, size_t, size_t, uint64_t>,
                                    Matrix>();
  const auto key = std::make_tuple(shape.n, shape.dim, shape.clusters,
                                   shape.seed);
  auto it = cache->find(key);
  if (it == cache->end()) it = cache->emplace(key, MakePoints(shape)).first;
  return it->second;
}

double MeanRecall(const Matrix& points,
                  const std::function<std::vector<Neighbor>(
                      std::span<const float>)>& search,
                  uint64_t seed, int num_queries = 12, size_t k = 10) {
  Rng rng(seed);
  double total = 0.0;
  for (int q = 0; q < num_queries; ++q) {
    std::vector<float> query(points.cols());
    const size_t anchor = rng.Uniform(points.rows());
    for (size_t i = 0; i < query.size(); ++i) {
      query[i] = points.At(anchor, i) + static_cast<float>(rng.Normal(0, 0.5));
    }
    total += ComputeRecall(search(query), BruteForceSearch(points, query, k));
  }
  return total / num_queries;
}

class AnnRecallSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(AnnRecallSweep, PGIndexRecallContract) {
  const Matrix& points = PointsFor(GetParam());
  PGIndexConfig config;
  config.knn_k = 10;
  const PGIndex index = PGIndex::Build(points, config);
  const double recall = MeanRecall(
      points,
      [&](std::span<const float> q) { return index.Search(q, 10, 60); },
      GetParam().seed + 1);
  EXPECT_GT(recall, 0.85) << "n=" << GetParam().n;
}

TEST_P(AnnRecallSweep, NNDescentRecallContract) {
  const Matrix& points = PointsFor(GetParam());
  NNDescentConfig config;
  config.k = 10;
  const KnnGraph graph = BuildKnnGraph(points, config);
  EXPECT_GT(KnnGraphRecall(points, graph), 0.85) << "n=" << GetParam().n;
}

TEST_P(AnnRecallSweep, GraphSearchBeatsBruteForceWork) {
  const Matrix& points = PointsFor(GetParam());
  PGIndexConfig config;
  config.knn_k = 10;
  const PGIndex index = PGIndex::Build(points, config);
  Rng rng(GetParam().seed + 3);
  std::vector<float> query(points.cols());
  for (float& v : query) v = static_cast<float>(rng.Normal(0, 2));
  PGIndex::SearchStats stats;
  index.Search(query, 10, 40, &stats);
  EXPECT_LT(stats.distance_computations, points.rows());
}

// The parallel NNDescent build promises bit-identical output for any
// pool size (nndescent.h): every stochastic choice is per-node seeded and
// updates apply in a fixed order, so graphs — including float distances,
// iteration counts, and distance tallies — must match exactly.
TEST(NNDescentDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const Matrix& points = PointsFor(Shape{600, 24, 8, 77});
  NNDescentConfig config;
  config.k = 10;
  ThreadPool pool1(1), pool2(2), pool8(8);
  config.pool = &pool1;
  const KnnGraph g1 = BuildKnnGraph(points, config);
  config.pool = &pool2;
  const KnnGraph g2 = BuildKnnGraph(points, config);
  config.pool = &pool8;
  const KnnGraph g8 = BuildKnnGraph(points, config);
  EXPECT_EQ(g1.iterations_run, g2.iterations_run);
  EXPECT_EQ(g1.iterations_run, g8.iterations_run);
  EXPECT_EQ(g1.distance_computations, g2.distance_computations);
  EXPECT_EQ(g1.distance_computations, g8.distance_computations);
  EXPECT_EQ(g1.neighbors, g2.neighbors);  // Neighbor == is exact (id+float)
  EXPECT_EQ(g1.neighbors, g8.neighbors);
}

// The full PG-Index build rides on the same guarantee: same graph, same
// navigating node, same adjacency regardless of the pool.
TEST(NNDescentDeterminismTest, PGIndexBuildDeterministicAcrossThreadCounts) {
  const Matrix& points = PointsFor(Shape{500, 16, 8, 2});
  PGIndexConfig config;
  config.knn_k = 10;
  ThreadPool pool1(1), pool8(8);
  config.nndescent.pool = &pool1;
  const PGIndex a = PGIndex::Build(points, config);
  config.nndescent.pool = &pool8;
  const PGIndex b = PGIndex::Build(points, config);
  ASSERT_EQ(a.NumPoints(), b.NumPoints());
  EXPECT_EQ(a.navigating_node(), b.navigating_node());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  for (size_t v = 0; v < a.NumPoints(); ++v) {
    EXPECT_EQ(a.NeighborsOf(static_cast<int32_t>(v)),
              b.NeighborsOf(static_cast<int32_t>(v)))
        << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AnnRecallSweep,
    ::testing::Values(Shape{200, 8, 4, 1}, Shape{500, 16, 8, 2},
                      Shape{800, 32, 6, 3}, Shape{400, 64, 10, 4},
                      Shape{1000, 12, 16, 5}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.n) + "_d" +
             std::to_string(info.param.dim) + "_c" +
             std::to_string(info.param.clusters);
    });

}  // namespace
}  // namespace kpef
