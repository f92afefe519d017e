#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "ann/brute_force.h"
#include "ann/nndescent.h"
#include "ann/pg_index.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "embed/vector_ops.h"

namespace kpef {
namespace {

Matrix RandomPoints(size_t n, size_t d, uint64_t seed,
                    size_t num_clusters = 8) {
  // Clustered points: ANN structures behave realistically on clustered
  // data (embeddings are clustered by construction).
  Rng rng(seed);
  Matrix centers(num_clusters, d);
  for (size_t r = 0; r < centers.rows(); ++r) {
    for (float& v : centers.Row(r)) v = static_cast<float>(rng.Normal(0, 5));
  }
  Matrix points(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.Uniform(num_clusters);
    for (size_t k = 0; k < d; ++k) {
      points.At(i, k) =
          centers.At(c, k) + static_cast<float>(rng.Normal(0, 1));
    }
  }
  return points;
}

TEST(BruteForceTest, FindsExactNearest) {
  Matrix points(5, 1);
  for (size_t i = 0; i < 5; ++i) points.At(i, 0) = static_cast<float>(i);
  const std::vector<float> query = {2.2f};
  const auto result = BruteForceSearch(points, query, 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 2);
  EXPECT_EQ(result[1].id, 3);
  EXPECT_EQ(result[2].id, 1);
  EXPECT_NEAR(result[0].distance, 0.2f, 1e-5);
}

TEST(BruteForceTest, KLargerThanN) {
  Matrix points(3, 2, 1.0f);
  const auto result = BruteForceSearch(points, std::vector<float>{0, 0}, 10);
  EXPECT_EQ(result.size(), 3u);
}

TEST(BruteForceTest, ResultsSortedByDistance) {
  const Matrix points = RandomPoints(200, 8, 3);
  const auto result =
      BruteForceSearch(points, std::vector<float>(8, 0.0f), 50);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
}

TEST(RecallTest, ComputesFraction) {
  std::vector<Neighbor> truth = {{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  std::vector<Neighbor> result = {{1, 0}, {3, 0}, {9, 0}};
  EXPECT_DOUBLE_EQ(ComputeRecall(result, truth), 0.5);
  EXPECT_DOUBLE_EQ(ComputeRecall(result, {}), 1.0);
}

TEST(NNDescentTest, ConvergesToHighRecall) {
  const Matrix points = RandomPoints(400, 12, 7);
  NNDescentConfig config;
  config.k = 10;
  const KnnGraph graph = BuildKnnGraph(points, config);
  ASSERT_EQ(graph.neighbors.size(), 400u);
  EXPECT_GT(KnnGraphRecall(points, graph), 0.90);
}

TEST(NNDescentTest, NeighborListsValid) {
  const Matrix points = RandomPoints(150, 6, 9);
  NNDescentConfig config;
  config.k = 8;
  const KnnGraph graph = BuildKnnGraph(points, config);
  for (size_t v = 0; v < graph.neighbors.size(); ++v) {
    const auto& nbrs = graph.neighbors[v];
    EXPECT_LE(nbrs.size(), 8u);
    std::set<int32_t> seen;
    for (const Neighbor& nb : nbrs) {
      EXPECT_NE(nb.id, static_cast<int32_t>(v)) << "self loop";
      EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate neighbor";
      EXPECT_GE(nb.id, 0);
      EXPECT_LT(nb.id, 150);
    }
    // Sorted ascending by distance.
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LE(nbrs[i - 1].distance, nbrs[i].distance);
    }
  }
}

TEST(NNDescentTest, ExactGraphIsPerfect) {
  const Matrix points = RandomPoints(120, 4, 11);
  const KnnGraph graph = BuildExactKnnGraph(points, 5);
  EXPECT_DOUBLE_EQ(KnnGraphRecall(points, graph), 1.0);
}

TEST(NNDescentTest, TinyInputs) {
  Matrix empty(0, 4);
  EXPECT_TRUE(BuildKnnGraph(empty, {}).neighbors.empty());
  Matrix one(1, 4, 1.0f);
  const KnnGraph g1 = BuildKnnGraph(one, {});
  EXPECT_TRUE(g1.neighbors[0].empty());
}

class PGIndexTest : public ::testing::Test {
 protected:
  PGIndexTest() : points_(RandomPoints(500, 10, 13)) {
    config_.knn_k = 10;
    index_ = std::make_unique<PGIndex>(PGIndex::Build(points_, config_, &stats_));
  }

  Matrix points_;
  PGIndexConfig config_;
  PGIndexBuildStats stats_;
  std::unique_ptr<PGIndex> index_;
};

TEST_F(PGIndexTest, NavigatingNodeIsNearestToCentroid) {
  std::vector<float> centroid(points_.cols(), 0.0f);
  for (size_t i = 0; i < points_.rows(); ++i) {
    for (size_t k = 0; k < points_.cols(); ++k) {
      centroid[k] += points_.At(i, k);
    }
  }
  for (float& c : centroid) c /= static_cast<float>(points_.rows());
  const auto nearest = BruteForceSearch(points_, centroid, 1);
  EXPECT_EQ(index_->navigating_node(), nearest[0].id);
}

TEST_F(PGIndexTest, AdjacencyInvariants) {
  for (size_t v = 0; v < index_->NumPoints(); ++v) {
    const auto& nbrs = index_->NeighborsOf(static_cast<int32_t>(v));
    // The reverse-edge pass respects the degree cap; the navigating
    // node additionally carries connectivity highways.
    const size_t allowed =
        config_.max_degree +
        (static_cast<int32_t>(v) == index_->navigating_node()
             ? stats_.connectivity_edges
             : 0);
    EXPECT_LE(nbrs.size(), allowed);
    std::set<int32_t> seen;
    for (int32_t u : nbrs) {
      EXPECT_NE(u, static_cast<int32_t>(v));
      EXPECT_TRUE(seen.insert(u).second);
      EXPECT_GE(u, 0);
      EXPECT_LT(u, static_cast<int32_t>(index_->NumPoints()));
    }
  }
}

TEST_F(PGIndexTest, SearchRecallAboveNinety) {
  Rng rng(17);
  double total_recall = 0.0;
  const int num_queries = 20;
  for (int q = 0; q < num_queries; ++q) {
    std::vector<float> query(points_.cols());
    const size_t anchor = rng.Uniform(points_.rows());
    for (size_t k = 0; k < query.size(); ++k) {
      query[k] = points_.At(anchor, k) + static_cast<float>(rng.Normal(0, 0.5));
    }
    const auto approx = index_->Search(query, 10, 40);
    const auto exact = BruteForceSearch(points_, query, 10);
    total_recall += ComputeRecall(approx, exact);
  }
  EXPECT_GT(total_recall / num_queries, 0.9);
}

TEST_F(PGIndexTest, SearchVisitsFewerPointsThanBruteForce) {
  std::vector<float> query(points_.cols(), 0.0f);
  PGIndex::SearchStats stats;
  index_->Search(query, 10, 20, &stats);
  EXPECT_LT(stats.distance_computations, points_.rows());
  EXPECT_GT(stats.hops, 0u);
}

TEST_F(PGIndexTest, LargerPoolImprovesOrMaintainsRecall) {
  Rng rng(19);
  std::vector<float> query(points_.cols());
  for (float& v : query) v = static_cast<float>(rng.Normal(0, 3));
  const auto exact = BruteForceSearch(points_, query, 10);
  const auto small = index_->Search(query, 10, 10);
  const auto large = index_->Search(query, 10, 100);
  EXPECT_GE(ComputeRecall(large, exact), ComputeRecall(small, exact));
}

TEST_F(PGIndexTest, ResultsSortedAndBounded) {
  std::vector<float> query(points_.cols(), 1.0f);
  const auto result = index_->Search(query, 7);
  EXPECT_LE(result.size(), 7u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
}

TEST_F(PGIndexTest, SearchBatchMatchesSearch) {
  Rng rng(23);
  const size_t batch = 9;
  Matrix queries(batch, points_.cols());
  for (size_t q = 0; q < batch; ++q) {
    const size_t anchor = rng.Uniform(points_.rows());
    for (size_t k = 0; k < points_.cols(); ++k) {
      queries.At(q, k) =
          points_.At(anchor, k) + static_cast<float>(rng.Normal(0, 0.5));
    }
  }
  ThreadPool pool(4);
  std::vector<PGIndex::SearchStats> batch_stats;
  const auto batched =
      index_->SearchBatch(queries, 10, 40, &batch_stats, &pool);
  ASSERT_EQ(batched.size(), batch);
  ASSERT_EQ(batch_stats.size(), batch);
  for (size_t q = 0; q < batch; ++q) {
    PGIndex::SearchStats single_stats;
    const auto single = index_->Search(queries.Row(q), 10, 40, &single_stats);
    EXPECT_EQ(batched[q], single) << "query " << q;  // exact, incl. floats
    EXPECT_EQ(batch_stats[q].distance_computations,
              single_stats.distance_computations);
    EXPECT_EQ(batch_stats[q].hops, single_stats.hops);
  }
}

TEST_F(PGIndexTest, BatchMatchesSerialForAnyPoolAndComposition) {
  // SearchBatch fans its queries over the pool, each running Search's
  // greedy loop on its worker's reused arena. It must return
  // byte-identical results and counters to per-query Search for every
  // thread count and batch size: batches narrower and wider than the
  // pool, and arenas reused across queries of different batches.
  const size_t dim = points_.cols();
  Rng rng(31);
  constexpr size_t kBatch = 21;
  Matrix queries(kBatch, dim);
  for (size_t q = 0; q < kBatch; ++q) {
    for (float& v : queries.Row(q)) v = static_cast<float>(rng.Normal(0, 4));
  }
  const size_t m = 10, ef = 40;
  std::vector<std::vector<Neighbor>> serial(kBatch);
  std::vector<PGIndex::SearchStats> serial_stats(kBatch);
  for (size_t q = 0; q < kBatch; ++q) {
    serial[q] = index_->Search(queries.Row(q), m, ef, &serial_stats[q]);
  }
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (size_t prefix : {1u, 2u, 3u, 4u, 5u, 8u, 13u, 21u}) {
      Matrix sub(prefix, dim);
      for (size_t q = 0; q < prefix; ++q) {
        const auto src = queries.Row(q);
        std::copy(src.begin(), src.end(), sub.Row(q).begin());
      }
      std::vector<PGIndex::SearchStats> stats;
      const auto batched = index_->SearchBatch(sub, m, ef, &stats, &pool);
      ASSERT_EQ(batched.size(), prefix);
      ASSERT_EQ(stats.size(), prefix);
      for (size_t q = 0; q < prefix; ++q) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " prefix=" << prefix
                                          << " q=" << q);
        ASSERT_EQ(batched[q].size(), serial[q].size());
        for (size_t i = 0; i < serial[q].size(); ++i) {
          EXPECT_EQ(batched[q][i].id, serial[q][i].id);
          EXPECT_EQ(batched[q][i].distance, serial[q][i].distance);
        }
        EXPECT_EQ(stats[q].hops, serial_stats[q].hops);
        EXPECT_EQ(stats[q].distance_computations,
                  serial_stats[q].distance_computations);
      }
    }
  }
}

TEST_F(PGIndexTest, RelabelPermutationKeepsExternalContract) {
  const size_t n = points_.rows();
  const auto& perm = index_->permutation();
  ASSERT_EQ(perm.size(), n);
  // A valid permutation whose row i of the internal matrix is the
  // external point perm[i].
  std::vector<char> hit(n, 0);
  for (int32_t e : perm) {
    ASSERT_GE(e, 0);
    ASSERT_LT(static_cast<size_t>(e), n);
    ASSERT_FALSE(hit[e]) << "duplicate external id " << e;
    hit[e] = 1;
  }
  for (size_t i = 0; i < n; ++i) {
    const auto internal = index_->points().Row(i);
    const auto original = points_.Row(perm[i]);
    ASSERT_TRUE(std::equal(internal.begin(), internal.end(),
                           original.begin()));
  }
  // The navigating node is relabeled to internal row 0 (BFS root), but
  // its public id stays external.
  EXPECT_EQ(perm[0], index_->navigating_node());
  // Neighbors are reported as external ids.
  for (size_t v = 0; v < n; ++v) {
    for (int32_t u : index_->NeighborsOf(static_cast<int32_t>(v))) {
      EXPECT_GE(u, 0);
      EXPECT_LT(static_cast<size_t>(u), n);
    }
  }
}

TEST_F(PGIndexTest, SearchBatchEmptyBatch) {
  const Matrix no_queries(0, points_.cols());
  std::vector<PGIndex::SearchStats> stats(3);
  EXPECT_TRUE(index_->SearchBatch(no_queries, 10, 40, &stats).empty());
  EXPECT_TRUE(stats.empty());
}

TEST_F(PGIndexTest, BuildStatsPopulated) {
  EXPECT_GT(stats_.build_seconds, 0.0);
  EXPECT_GT(stats_.distance_computations, 0u);
  EXPECT_GT(stats_.edges_after_knn, 0u);
  EXPECT_GE(stats_.edges_after_extension, stats_.edges_after_knn);
  EXPECT_LE(stats_.edges_final, stats_.edges_after_extension);
  EXPECT_EQ(stats_.edges_final, index_->NumEdges());
  EXPECT_GT(index_->MemoryUsageBytes(), points_.PaddedSize() * sizeof(float));
}

TEST(PGIndexRefinementTest, RedundantRemovalPrunesEdges) {
  const Matrix points = RandomPoints(300, 8, 23);
  PGIndexConfig with_removal;
  with_removal.knn_k = 8;
  PGIndexConfig without_removal = with_removal;
  without_removal.remove_redundant = false;
  without_removal.max_degree = 1u << 20;  // effectively uncapped
  const PGIndex pruned = PGIndex::Build(points, with_removal);
  const PGIndex unpruned = PGIndex::Build(points, without_removal);
  EXPECT_LT(pruned.NumEdges(), unpruned.NumEdges());
}

TEST(PGIndexRefinementTest, ExtensionAddsEdges) {
  const Matrix points = RandomPoints(300, 8, 29);
  PGIndexConfig base;
  base.knn_k = 8;
  base.remove_redundant = false;
  base.max_degree = 1u << 20;
  PGIndexConfig no_ext = base;
  no_ext.extend_neighbors = false;
  const PGIndex extended = PGIndex::Build(points, base);
  const PGIndex plain = PGIndex::Build(points, no_ext);
  EXPECT_GT(extended.NumEdges(), plain.NumEdges());
}

TEST(PGIndexRefinementTest, ExactKnnOptionWorks) {
  const Matrix points = RandomPoints(120, 6, 31);
  PGIndexConfig config;
  config.knn_k = 6;
  config.exact_knn = true;
  const PGIndex index = PGIndex::Build(points, config);
  const auto exact = BruteForceSearch(points, points.Row(0), 5);
  const auto approx = index.Search(points.Row(0), 5, 30);
  EXPECT_GE(ComputeRecall(approx, exact), 0.8);
}

TEST(PGIndexConnectivityTest, AllNodesReachableFromNavigatingNode) {
  // Two far-apart clusters: the raw kNN graph is disconnected, the
  // repaired index must not be.
  Rng rng(37);
  Matrix points(200, 4);
  for (size_t i = 0; i < 200; ++i) {
    const float base = i < 100 ? 0.0f : 1000.0f;
    for (size_t k = 0; k < 4; ++k) {
      points.At(i, k) = base + static_cast<float>(rng.Normal(0, 1));
    }
  }
  PGIndexConfig config;
  config.knn_k = 6;
  PGIndexBuildStats stats;
  const PGIndex index = PGIndex::Build(points, config, &stats);
  EXPECT_GT(stats.connectivity_edges, 0u);
  // BFS from the navigating node reaches everything.
  std::vector<char> seen(200, 0);
  std::vector<int32_t> stack = {index.navigating_node()};
  seen[index.navigating_node()] = 1;
  size_t count = 0;
  while (!stack.empty()) {
    const int32_t v = stack.back();
    stack.pop_back();
    ++count;
    for (int32_t u : index.NeighborsOf(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        stack.push_back(u);
      }
    }
  }
  EXPECT_EQ(count, 200u);
  // And search can now find points in the far cluster.
  std::vector<float> far_query(4, 1000.0f);
  const auto result = index.Search(far_query, 5, 20);
  ASSERT_FALSE(result.empty());
  EXPECT_GE(result[0].id, 100);
}

TEST(PGIndexEdgeCaseTest, EmptyAndSingleton) {
  Matrix empty(0, 4);
  const PGIndex e = PGIndex::Build(empty, {});
  EXPECT_TRUE(e.Search(std::vector<float>{0, 0, 0, 0}, 5).empty());
  Matrix one(1, 4, 2.0f);
  const PGIndex s = PGIndex::Build(one, {});
  const auto result = s.Search(std::vector<float>{0, 0, 0, 0}, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0);
}

}  // namespace
}  // namespace kpef
