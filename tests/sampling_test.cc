#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "kpcore/multi_path.h"
#include "metapath/meta_path.h"
#include "metapath/p_neighbor.h"
#include "sampling/training_data.h"

namespace kpef {
namespace {

class SamplingTest : public ::testing::Test {
 protected:
  SamplingTest() : dataset_(GenerateDataset(TinyProfile())) {
    paths_.push_back(*MetaPath::Parse(dataset_.graph.schema(), "P-A-P"));
  }

  Dataset dataset_;
  std::vector<MetaPath> paths_;
};

TEST_F(SamplingTest, SeedCountFollowsFraction) {
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  SamplingConfig config;
  config.seed_fraction = 0.25;
  config.k = 2;
  const SamplingResult result = generator.Generate(config);
  const size_t expected =
      static_cast<size_t>(0.25 * dataset_.Papers().size());
  EXPECT_EQ(result.num_seeds, expected);
  EXPECT_LE(result.num_productive_seeds, result.num_seeds);
}

TEST_F(SamplingTest, SeedCountClampedToPaperCount) {
  // Regression: seed_fraction > 1 used to request more seeds than there
  // are papers, sampling phantom indices. Now it clamps.
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  for (double fraction : {1.0, 1.5, 100.0}) {
    SamplingConfig config;
    config.seed_fraction = fraction;
    config.k = 2;
    const SamplingResult result = generator.Generate(config);
    EXPECT_EQ(result.num_seeds, dataset_.Papers().size())
        << "fraction " << fraction;
  }
}

TEST_F(SamplingTest, TriplesReferenceValidDocuments) {
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  SamplingConfig config;
  config.k = 2;
  const SamplingResult result = generator.Generate(config);
  ASSERT_GT(result.triples.size(), 0u);
  const int32_t n = static_cast<int32_t>(dataset_.Papers().size());
  for (const Triple& t : result.triples) {
    EXPECT_GE(t.seed, 0);
    EXPECT_LT(t.seed, n);
    EXPECT_GE(t.positive, 0);
    EXPECT_LT(t.positive, n);
    EXPECT_GE(t.negative, 0);
    EXPECT_LT(t.negative, n);
    EXPECT_NE(t.positive, t.seed);
    EXPECT_NE(t.negative, t.seed);
    EXPECT_NE(t.negative, t.positive);
  }
}

TEST_F(SamplingTest, PositivesInsideCommunityNegativesOutside) {
  // Re-derive each seed's community and check sample membership.
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  SamplingConfig config;
  config.k = 3;
  config.seed_fraction = 0.05;
  config.strategy = NegativeStrategy::kRandom;
  const SamplingResult result = generator.Generate(config);
  const auto& papers = dataset_.Papers();
  // Group triples by seed.
  std::set<int32_t> seeds;
  for (const Triple& t : result.triples) seeds.insert(t.seed);
  for (int32_t seed_doc : seeds) {
    const NodeId seed = papers[seed_doc];
    const KPCoreCommunity community =
        MultiPathKPCoreSearch(dataset_.graph, paths_, seed, config.k);
    const std::vector<NodeId> members = community.Members();
    for (const Triple& t : result.triples) {
      if (t.seed != seed_doc) continue;
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                     papers[t.positive]));
      EXPECT_FALSE(std::binary_search(members.begin(), members.end(),
                                      papers[t.negative]));
    }
  }
}

TEST_F(SamplingTest, NegativesPerPositiveMultiplier) {
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  for (size_t s : {1u, 2u, 3u}) {
    SamplingConfig config;
    config.k = 2;
    config.seed_fraction = 0.1;
    config.negatives_per_positive = s;
    config.strategy = NegativeStrategy::kRandom;
    const SamplingResult result = generator.Generate(config);
    // Random negatives nearly never fail, so the ratio should hold.
    EXPECT_NEAR(static_cast<double>(result.triples.size()),
                static_cast<double>(result.total_positives * s),
                result.total_positives * 0.05 + 1);
  }
}

TEST_F(SamplingTest, NearNegativesDrawFromDeleteQueuesFirst) {
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  SamplingConfig config;
  config.k = 3;
  config.seed_fraction = 0.05;
  config.strategy = NegativeStrategy::kNear;
  const SamplingResult result = generator.Generate(config);
  const auto& papers = dataset_.Papers();
  std::set<int32_t> seeds;
  for (const Triple& t : result.triples) seeds.insert(t.seed);
  size_t from_d = 0, checked_seeds = 0;
  for (int32_t seed_doc : seeds) {
    const KPCoreCommunity community = MultiPathKPCoreSearch(
        dataset_.graph, paths_, papers[seed_doc], config.k);
    if (community.near_negatives.empty()) continue;  // fell back to random
    ++checked_seeds;
    const std::vector<NodeId> members = community.Members();
    size_t seed_from_d = 0;
    for (const Triple& t : result.triples) {
      if (t.seed != seed_doc) continue;
      // Every negative is outside the community; up to
      // |D| * max_near_reuse of them come from the delete queue, the rest
      // fall back to random.
      EXPECT_FALSE(std::binary_search(members.begin(), members.end(),
                                      papers[t.negative]));
      seed_from_d += std::binary_search(community.near_negatives.begin(),
                                        community.near_negatives.end(),
                                        papers[t.negative]);
    }
    EXPECT_GT(seed_from_d, 0u) << "seed " << seed_doc;
    from_d += seed_from_d;
  }
  if (checked_seeds > 0) {
    EXPECT_GT(from_d, 0u);
  }
}

TEST_F(SamplingTest, MaxPositivesCapBounds) {
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  SamplingConfig config;
  config.k = 1;
  config.seed_fraction = 0.1;
  config.max_positives_per_seed = 4;
  config.negatives_per_positive = 1;
  const SamplingResult result = generator.Generate(config);
  // Per-seed triple count <= cap * s.
  std::map<int32_t, size_t> per_seed;
  for (const Triple& t : result.triples) ++per_seed[t.seed];
  for (const auto& [seed, count] : per_seed) EXPECT_LE(count, 4u);
}

TEST_F(SamplingTest, DeterministicForSameSeed) {
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  SamplingConfig config;
  config.k = 2;
  config.rng_seed = 99;
  const SamplingResult a = generator.Generate(config);
  const SamplingResult b = generator.Generate(config);
  EXPECT_EQ(a.triples, b.triples);
}

TEST_F(SamplingTest, NoCoreModeUsesDirectNeighbors) {
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  SamplingConfig config;
  config.use_core = false;
  config.seed_fraction = 0.05;
  config.strategy = NegativeStrategy::kRandom;
  const SamplingResult result = generator.Generate(config);
  EXPECT_GT(result.triples.size(), 0u);
  // Every positive must be a direct P-neighbor of its seed.
  PNeighborFinder finder(dataset_.graph, paths_[0]);
  const auto& papers = dataset_.Papers();
  for (const Triple& t : result.triples) {
    const auto nbrs = finder.Neighbors(papers[t.seed]);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), papers[t.positive]),
              nbrs.end());
  }
}

TEST_F(SamplingTest, ByteIdenticalAcrossThreadCounts) {
  // The determinism contract: per-seed MixSeed RNG streams plus the
  // seed-ordered merge make Generate's output independent of worker
  // count and chunking.
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  ThreadPool wide(8);
  SamplingConfig sequential;
  sequential.k = 2;
  sequential.seed_fraction = 0.3;
  sequential.num_threads = 1;
  SamplingConfig parallel = sequential;
  parallel.pool = &wide;
  parallel.num_threads = 0;
  const SamplingResult a = generator.Generate(sequential);
  const SamplingResult b = generator.Generate(parallel);
  EXPECT_EQ(a.triples, b.triples);
  EXPECT_EQ(a.num_productive_seeds, b.num_productive_seeds);
  EXPECT_EQ(a.total_positives, b.total_positives);
  EXPECT_EQ(a.near_fallbacks, b.near_fallbacks);
  ThreadPool three(3);
  SamplingConfig odd = sequential;
  odd.pool = &three;
  odd.num_threads = 0;
  EXPECT_EQ(a.triples, generator.Generate(odd).triples);
}

TEST_F(SamplingTest, NearFallbacksCountOnlyGenuineFallbacks) {
  TrainingDataGenerator generator(dataset_.graph, paths_, dataset_.ids.paper);
  // Regression: draws that were random by plan (near_fraction) used to
  // count as fallbacks. With near_fraction = 0 every draw is random by
  // plan, so the count must be exactly zero.
  SamplingConfig no_near;
  no_near.k = 2;
  no_near.seed_fraction = 0.2;
  no_near.strategy = NegativeStrategy::kNear;
  no_near.near_fraction = 0.0;
  EXPECT_EQ(generator.Generate(no_near).near_fallbacks, 0u);
  // Random strategy never wants near draws either.
  SamplingConfig random_strategy = no_near;
  random_strategy.near_fraction = 1.0;
  random_strategy.strategy = NegativeStrategy::kRandom;
  EXPECT_EQ(generator.Generate(random_strategy).near_fallbacks, 0u);
  // Sanity: genuine fallbacks (empty delete queues at high k with full
  // near_fraction) are still counted.
  SamplingConfig full_near = no_near;
  full_near.near_fraction = 1.0;
  const SamplingResult result = generator.Generate(full_near);
  EXPECT_LE(result.near_fallbacks,
            result.total_positives * full_near.negatives_per_positive);
}

TEST_F(SamplingTest, MultiPathSamplingWorks) {
  std::vector<MetaPath> both = paths_;
  both.push_back(*MetaPath::Parse(dataset_.graph.schema(), "P-T-P"));
  TrainingDataGenerator generator(dataset_.graph, both, dataset_.ids.paper);
  SamplingConfig config;
  config.k = 2;
  config.seed_fraction = 0.1;
  const SamplingResult result = generator.Generate(config);
  EXPECT_GT(result.num_seeds, 0u);
  // Intersection communities are smaller, so triples should not exceed the
  // single-path count for the same parameters.
  TrainingDataGenerator single(dataset_.graph, paths_, dataset_.ids.paper);
  const SamplingResult single_result = single.Generate(config);
  EXPECT_LE(result.total_positives, single_result.total_positives);
}

}  // namespace
}  // namespace kpef
