// SQ8 quantization + quantized PG-Index traversal (DESIGN.md §12):
// encode/decode error bounds, kernel path agreement, the BFS-relabel
// permutation contract, batched-vs-serial determinism for any pool size
// and batch composition, and the recall contract of the fp32 rerank.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ann/brute_force.h"
#include "ann/pg_index.h"
#include "ann/sq8.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "embed/matrix.h"
#include "embed/vector_ops.h"

namespace kpef {
namespace {

Matrix ClusteredPoints(size_t n, size_t d, uint64_t seed,
                       size_t num_clusters = 8) {
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

// --- Quantizer properties.

TEST(Sq8CodesTest, EncodeDecodeErrorBoundedByStep) {
  const Matrix points = ClusteredPoints(300, 19, 42);  // odd dim: tail path
  const Sq8Codes codes = Sq8Codes::Encode(points);
  ASSERT_EQ(codes.rows(), points.rows());
  ASSERT_EQ(codes.cols(), points.cols());
  std::vector<float> decoded(points.cols());
  for (size_t r = 0; r < points.rows(); ++r) {
    codes.DecodeRow(r, decoded);
    const auto row = points.Row(r);
    for (size_t k = 0; k < points.cols(); ++k) {
      // Rounding to the nearest code keeps every value within one step
      // of its reconstruction (half a step plus float slack).
      EXPECT_LE(std::abs(row[k] - decoded[k]), codes.StepOf(k))
          << "row " << r << " dim " << k;
    }
  }
}

TEST(Sq8CodesTest, ConstantDimensionDecodesExactly) {
  Matrix points(50, 4);
  Rng rng(7);
  for (size_t r = 0; r < points.rows(); ++r) {
    points.At(r, 0) = 3.25f;  // constant dim: step 0, code 0
    for (size_t k = 1; k < 4; ++k) {
      points.At(r, k) = static_cast<float>(rng.Normal());
    }
  }
  const Sq8Codes codes = Sq8Codes::Encode(points);
  EXPECT_EQ(codes.StepOf(0), 0.0f);
  std::vector<float> decoded(4);
  for (size_t r = 0; r < points.rows(); ++r) {
    codes.DecodeRow(r, decoded);
    EXPECT_EQ(decoded[0], 3.25f);
  }
}

TEST(Sq8CodesTest, RowsAreCacheLineAlignedAndPadded) {
  const Matrix points = ClusteredPoints(17, 33, 5);
  const Sq8Codes codes = Sq8Codes::Encode(points);
  EXPECT_EQ(codes.stride() % 64, 0u);
  EXPECT_GE(codes.stride(), codes.cols());
  for (size_t r = 0; r < codes.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(codes.RowPtr(r)) % 64, 0u);
    const auto row = codes.Row(r);
    for (size_t k = codes.cols(); k < codes.stride(); ++k) {
      EXPECT_EQ(row[k], 0u);  // zero padding: exact zero distance terms
    }
  }
}

TEST(Sq8CodesTest, EncodingCommutesWithRowPermutation) {
  const Matrix points = ClusteredPoints(64, 12, 9);
  // Deterministic shuffle of row ids.
  std::vector<int32_t> order(points.rows());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int32_t>(i);
  }
  Rng rng(13);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  Matrix permuted(points.rows(), points.cols());
  for (size_t i = 0; i < points.rows(); ++i) {
    const auto src = points.Row(order[i]);
    std::copy(src.begin(), src.end(), permuted.Row(i).begin());
  }
  const Sq8Codes direct = Sq8Codes::Encode(permuted);
  const Sq8Codes via_permute = Sq8Codes::Permuted(Sq8Codes::Encode(points),
                                                  order);
  ASSERT_EQ(direct.rows(), via_permute.rows());
  for (size_t r = 0; r < direct.rows(); ++r) {
    const auto a = direct.Row(r);
    const auto b = via_permute.Row(r);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "row " << r;
  }
}

// --- Kernel path agreement: the asymmetric int8 distance must be
// bit-identical between the scalar baseline and whatever ActiveKernel()
// dispatched to (AVX2 on supporting hardware), per the accumulation
// contract in vector_ops.h.

TEST(Sq8KernelTest, ScalarAndDispatchedPathsAgreeBitForBit) {
  Rng rng(21);
  const DistanceKernel& scalar = ScalarKernel();
  const DistanceKernel* avx2 = Avx2KernelOrNull();
  for (size_t n : {1u, 7u, 8u, 9u, 16u, 31u, 64u, 96u, 128u, 333u}) {
    std::vector<float> qt(n), step(n);
    std::vector<uint8_t> codes(n);
    for (size_t i = 0; i < n; ++i) {
      qt[i] = static_cast<float>(rng.Normal(0, 2));
      step[i] = static_cast<float>(std::abs(rng.Normal(0, 0.05)));
      codes[i] = static_cast<uint8_t>(rng.Uniform(256));
    }
    const float s = scalar.sq8_asym_l2(qt.data(), step.data(), codes.data(), n);
    const float a = ActiveKernel().sq8_asym_l2(qt.data(), step.data(),
                                               codes.data(), n);
    EXPECT_EQ(s, a) << "n=" << n;
    if (avx2 != nullptr) {
      const float v = avx2->sq8_asym_l2(qt.data(), step.data(), codes.data(),
                                        n);
      EXPECT_EQ(s, v) << "n=" << n;
    }
  }
}

TEST(Sq8KernelTest, MatchesDoublePrecisionReference) {
  Rng rng(22);
  const size_t n = 96;
  std::vector<float> qt(n), step(n);
  std::vector<uint8_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    qt[i] = static_cast<float>(rng.Normal(0, 2));
    step[i] = static_cast<float>(std::abs(rng.Normal(0, 0.05)));
    codes[i] = static_cast<uint8_t>(rng.Uniform(256));
  }
  double ref = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(qt[i]) -
                     static_cast<double>(step[i]) * codes[i];
    ref += d * d;
  }
  const float got = Sq8AsymmetricSquaredL2(qt, step, codes);
  EXPECT_NEAR(got, ref, 1e-3 * std::max(1.0, std::abs(ref)));
}

// --- Quantized index behavior.

class Sq8IndexTest : public ::testing::Test {
 protected:
  static constexpr size_t kN = 600;
  static constexpr size_t kDim = 24;

  Sq8IndexTest() : points_(ClusteredPoints(kN, kDim, 77)) {
    PGIndexConfig config;
    config.knn_k = 8;
    index_ = std::make_unique<PGIndex>(PGIndex::Build(points_, config));
  }

  std::vector<float> RandomQuery(Rng& rng) const {
    std::vector<float> q(kDim);
    for (float& v : q) v = static_cast<float>(rng.Normal(0, 4));
    return q;
  }

  Matrix points_;
  std::unique_ptr<PGIndex> index_;
};

TEST_F(Sq8IndexTest, BuildQuantizesByDefault) {
  EXPECT_TRUE(index_->quantized());
  EXPECT_DOUBLE_EQ(index_->rerank_factor(), 2.0);
}

TEST_F(Sq8IndexTest, RelabelPermutationKeepsExternalContract) {
  const auto& perm = index_->permutation();
  ASSERT_EQ(perm.size(), kN);
  // A valid permutation whose row i of the internal matrix is the
  // external point perm[i].
  std::vector<char> hit(kN, 0);
  for (int32_t e : perm) {
    ASSERT_GE(e, 0);
    ASSERT_LT(static_cast<size_t>(e), kN);
    ASSERT_FALSE(hit[e]) << "duplicate external id " << e;
    hit[e] = 1;
  }
  for (size_t i = 0; i < kN; ++i) {
    const auto internal = index_->points().Row(i);
    const auto original = points_.Row(perm[i]);
    ASSERT_TRUE(std::equal(internal.begin(), internal.end(),
                           original.begin()));
  }
  // The navigating node is relabeled to internal row 0 (BFS root), but
  // its public id stays external.
  EXPECT_EQ(perm[0], index_->navigating_node());
  // Neighbors are reported as external ids.
  for (size_t v = 0; v < kN; ++v) {
    for (int32_t u : index_->NeighborsOf(static_cast<int32_t>(v))) {
      EXPECT_GE(u, 0);
      EXPECT_LT(static_cast<size_t>(u), kN);
    }
  }
}

TEST_F(Sq8IndexTest, BatchMatchesSerialForAnyPoolAndComposition) {
  // SearchBatch fans its queries over the pool, each running Search's
  // greedy loop on its worker's reused arena. It must return
  // byte-identical results and counters to per-query Search for every
  // thread count and batch size: batches narrower and wider than the
  // pool, and arenas reused across queries of different batches.
  Rng rng(31);
  constexpr size_t kBatch = 21;
  Matrix queries(kBatch, kDim);
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
      Matrix sub(prefix, kDim);
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
        EXPECT_EQ(stats[q].sq8_distance_computations,
                  serial_stats[q].sq8_distance_computations);
        EXPECT_EQ(stats[q].distance_computations,
                  serial_stats[q].distance_computations);
        EXPECT_EQ(stats[q].rerank_candidates,
                  serial_stats[q].rerank_candidates);
      }
    }
  }
}

TEST_F(Sq8IndexTest, ForceExactMatchesUnquantizedBuild) {
  PGIndexConfig config;
  config.knn_k = 8;
  config.quantize = false;
  const PGIndex exact = PGIndex::Build(points_, config);
  EXPECT_FALSE(exact.quantized());
  Rng rng(5);
  PGIndex::SearchParams params;
  params.m = 10;
  params.ef = 40;
  params.force_exact = true;
  for (int q = 0; q < 10; ++q) {
    const auto query = RandomQuery(rng);
    const auto a = index_->Search(query, params);
    const auto b = exact.Search(query, 10, 40);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST_F(Sq8IndexTest, StatsSplitTraversalAndRerank) {
  Rng rng(6);
  PGIndex::SearchStats stats;
  const auto result = index_->Search(RandomQuery(rng), 10, 40, &stats);
  ASSERT_FALSE(result.empty());
  EXPECT_GT(stats.sq8_distance_computations, 0u);   // traversal on codes
  EXPECT_GT(stats.rerank_candidates, 0u);           // fp32 rerank ran
  // Every fp32 evaluation belongs to the rerank on the quantized path.
  EXPECT_EQ(stats.distance_computations, stats.rerank_candidates);
  EXPECT_LE(stats.rerank_candidates, 2 * 10u);      // rerank_factor * m
}

TEST(Sq8RecallTest, QuantizedRecallWithinFractionOfFp32) {
  const size_t n = 2000, dim = 32, m = 10;
  const Matrix points = ClusteredPoints(n, dim, 123);
  PGIndexConfig config;
  config.knn_k = 10;
  const PGIndex index = PGIndex::Build(points, config);
  ASSERT_TRUE(index.quantized());
  Rng rng(17);
  double sq8_recall = 0.0, fp32_recall = 0.0;
  const int kQueries = 50;
  PGIndex::SearchParams quant{.m = m, .ef = 60};
  PGIndex::SearchParams exact{.m = m, .ef = 60, .force_exact = true};
  for (int q = 0; q < kQueries; ++q) {
    std::vector<float> query(dim);
    for (float& v : query) v = static_cast<float>(rng.Normal(0, 4));
    const auto truth = BruteForceSearch(points, query, m);
    sq8_recall += ComputeRecall(index.Search(query, quant), truth);
    fp32_recall += ComputeRecall(index.Search(query, exact), truth);
  }
  sq8_recall /= kQueries;
  fp32_recall /= kQueries;
  // The exact rerank restores nearly all of the fp32 path's recall.
  EXPECT_GE(sq8_recall, 0.95 * fp32_recall)
      << "sq8 " << sq8_recall << " vs fp32 " << fp32_recall;
  EXPECT_GE(sq8_recall, 0.85);  // and it is good in absolute terms
}

}  // namespace
}  // namespace kpef
