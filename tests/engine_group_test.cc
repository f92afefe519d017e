// EngineGroup tests: the sharded-retrieval equivalence contract
// (DESIGN.md §14 — N-shard scatter + merge is bit-identical to one
// engine over the same corpus) and the RCU generation hot-swap
// (publish, drain, failure keeps the old generation serving).

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/engine_group.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/queries.h"
#include "embed/pretrain.h"
#include "scoped_temp_dir.h"

namespace kpef {
namespace {

namespace fs = std::filesystem;

// One tiny trained engine persisted once for the whole binary; every
// test loads groups from its artifact directory.
class EngineGroupTest : public ::testing::Test {
 protected:
  struct Shared {
    Dataset dataset;
    Corpus corpus;
    QuerySet queries;
    ScopedTempDir tmp{"engine_group_test"};
    fs::path dir_a;   // primary artifact directory
    fs::path dir_b;   // byte-identical copy (a "new" generation)
    fs::path dir_bad; // exists but holds no artifacts

    Shared()
        : dataset(GenerateDataset(TinyProfile())),
          corpus(BuildPaperCorpus(dataset)),
          queries(GenerateQueries(dataset, 6, 23)) {
      Matrix tokens = [&] {
        PretrainConfig config;
        config.dim = 32;
        config.epochs = 6;
        return PretrainTokenEmbeddings(corpus, config).token_embeddings;
      }();
      auto built = ExpertFindingEngine::Build(&dataset, &corpus,
                                              SmallConfig(), &tokens);
      if (!built.ok()) std::abort();
      dir_a = tmp.path() / "gen_a";
      dir_b = tmp.path() / "gen_b";
      dir_bad = tmp.path() / "empty";
      fs::create_directories(dir_a);
      fs::create_directories(dir_bad);
      if (!(*built)->SaveArtifacts(dir_a.string()).ok()) std::abort();
      std::error_code ec;
      fs::copy(dir_a, dir_b, fs::copy_options::recursive, ec);
      if (ec) std::abort();
    }

    static EngineConfig SmallConfig() {
      EngineConfig config;
      config.k = 3;
      config.seed_fraction = 0.2;
      config.encoder.dim = 32;
      config.trainer.epochs = 2;
      config.top_m = 60;
      config.pg_index.knn_k = 8;
      return config;
    }

    std::vector<std::string> Texts() const {
      std::vector<std::string> texts;
      for (const Query& q : queries.queries) texts.push_back(q.text);
      return texts;
    }
  };

  static Shared& shared() {
    static Shared s;
    return s;
  }

  /// Serving config whose retrieval is exact, so sharded results must be
  /// bit-identical: brute mode scans every row; PG mode disables SQ8 and
  /// searches with an exhaustive candidate pool.
  static EngineConfig ExactConfig(bool use_pg_index) {
    EngineConfig config = Shared::SmallConfig();
    config.use_pg_index = use_pg_index;
    if (use_pg_index) {
      config.pg_index.quantize = false;
      config.search_ef = shared().dataset.Papers().size();
    }
    return config;
  }

  static std::unique_ptr<EngineGroup> LoadGroup(const EngineConfig& config,
                                                size_t shards,
                                                const fs::path& dir) {
    EngineGroup::Options options;
    options.engine = config;
    options.num_shards = shards;
    auto group = EngineGroup::Load(&shared().dataset, &shared().corpus,
                                   options, dir.string());
    EXPECT_TRUE(group.ok()) << group.status().ToString();
    return group.ok() ? std::move(group).value() : nullptr;
  }

  static void ExpectBitIdentical(
      const std::vector<std::vector<ExpertScore>>& got,
      const std::vector<std::vector<ExpertScore>>& want,
      const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t q = 0; q < want.size(); ++q) {
      ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
      for (size_t i = 0; i < want[q].size(); ++i) {
        EXPECT_EQ(got[q][i].author, want[q][i].author)
            << label << " query " << q << " rank " << i;
        // Bit-exact, not approximate: the merged retrieval feeds the TA
        // ranking the same lists a single engine builds.
        EXPECT_EQ(got[q][i].score, want[q][i].score)
            << label << " query " << q << " rank " << i;
      }
    }
  }
};

// --- Equivalence contract.

TEST_F(EngineGroupTest, ShardedBruteForceMatchesSingleEngineBitExact) {
  Shared& s = shared();
  const EngineConfig config = ExactConfig(/*use_pg_index=*/false);
  auto single = ExpertFindingEngine::LoadFromArtifacts(&s.dataset, &s.corpus,
                                                       config, s.dir_a.string());
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ThreadPool pool(4);
  const auto want = (*single)->FindExpertsBatch(s.Texts(), 8, nullptr, &pool);
  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    auto group = LoadGroup(config, shards, s.dir_a);
    ASSERT_NE(group, nullptr);
    std::vector<QueryStats> stats;
    const auto got = group->FindExpertsBatch(s.Texts(), 8, &stats, &pool);
    ExpectBitIdentical(got, want, "brute shards=" + std::to_string(shards));
    ASSERT_EQ(stats.size(), s.Texts().size());
    for (const QueryStats& st : stats) {
      EXPECT_FALSE(st.deadline_exceeded);
      EXPECT_GT(st.distance_computations, 0u);
    }
  }
}

TEST_F(EngineGroupTest, ShardedPGIndexMatchesSingleEngineBitExact) {
  Shared& s = shared();
  const EngineConfig config = ExactConfig(/*use_pg_index=*/true);
  auto single = ExpertFindingEngine::LoadFromArtifacts(&s.dataset, &s.corpus,
                                                       config, s.dir_a.string());
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ThreadPool pool(4);
  const auto want = (*single)->FindExpertsBatch(s.Texts(), 8, nullptr, &pool);
  for (const size_t shards : {2u, 4u}) {
    auto group = LoadGroup(config, shards, s.dir_a);
    ASSERT_NE(group, nullptr);
    const auto got = group->FindExpertsBatch(s.Texts(), 8, nullptr, &pool);
    ExpectBitIdentical(got, want, "pg shards=" + std::to_string(shards));
  }
}

TEST_F(EngineGroupTest, SingleShardDelegatesToLoadedEngine) {
  Shared& s = shared();
  auto group = LoadGroup(Shared::SmallConfig(), 1, s.dir_a);
  ASSERT_NE(group, nullptr);
  auto snapshot = group->Snapshot();
  EXPECT_TRUE(snapshot->shards.empty());
  EXPECT_NE(snapshot->engine->index(), nullptr);
  const auto results = group->FindExpertsBatch(s.Texts(), 5);
  ASSERT_EQ(results.size(), s.Texts().size());
  for (const auto& r : results) EXPECT_GT(r.size(), 0u);
}

// --- Generation lifecycle.

TEST_F(EngineGroupTest, ReloadPublishesNewGenerationAndDrainsOld) {
  Shared& s = shared();
  auto group = LoadGroup(ExactConfig(false), 2, s.dir_a);
  ASSERT_NE(group, nullptr);
  const auto before = group->FindExpertsBatch(s.Texts(), 6);

  auto old_gen = group->Snapshot();
  EXPECT_EQ(old_gen->id, 1u);
  std::weak_ptr<const EngineGroup::Generation> old_weak = old_gen;

  const Status reloaded = group->Reload(s.dir_b.string());
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
  EXPECT_EQ(group->generation(), 2u);
  EXPECT_EQ(group->Snapshot()->artifact_dir, s.dir_b.string());

  // The old generation survives exactly as long as someone holds it
  // (an in-flight batch); releasing the last snapshot destroys it.
  EXPECT_FALSE(old_weak.expired());
  old_gen.reset();
  EXPECT_TRUE(old_weak.expired());

  // dir_b is a byte-copy of dir_a, so the swap is invisible to results.
  const auto after = group->FindExpertsBatch(s.Texts(), 6);
  ExpectBitIdentical(after, before, "post-reload");
}

TEST_F(EngineGroupTest, FailedReloadKeepsServingOldGeneration) {
  Shared& s = shared();
  auto group = LoadGroup(ExactConfig(false), 2, s.dir_a);
  ASSERT_NE(group, nullptr);
  const auto before = group->FindExpertsBatch(s.Texts(), 6);
  const uint64_t gen_before = group->generation();

  const Status failed = group->Reload(s.dir_bad.string());
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(group->generation(), gen_before);

  const auto after = group->FindExpertsBatch(s.Texts(), 6);
  ExpectBitIdentical(after, before, "post-failed-reload");

  // A later good reload still gets the next consecutive id: the failed
  // attempt must not burn a generation number.
  ASSERT_TRUE(group->Reload(s.dir_a.string()).ok());
  EXPECT_EQ(group->generation(), gen_before + 1);
}

TEST_F(EngineGroupTest, InfoCarriesGenerationShardsAndQueryTally) {
  Shared& s = shared();
  auto group = LoadGroup(ExactConfig(false), 4, s.dir_a);
  ASSERT_NE(group, nullptr);
  EngineInfo info = group->Info();
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.num_shards, 4u);
  EXPECT_EQ(info.artifact_dir, s.dir_a.string());
  EXPECT_EQ(info.generation_queries, 0u);
  EXPECT_EQ(info.num_papers, s.dataset.Papers().size());

  (void)group->FindExpertsBatch(s.Texts(), 5);
  info = group->Info();
  EXPECT_EQ(info.generation_queries, s.Texts().size());

  // The tally is per generation: a reload starts a fresh counter.
  ASSERT_TRUE(group->Reload(s.dir_b.string()).ok());
  info = group->Info();
  EXPECT_EQ(info.generation, 2u);
  EXPECT_EQ(info.generation_queries, 0u);
}

}  // namespace
}  // namespace kpef
