// EngineGroup tests: the group answers exactly as the engine it loaded,
// and the RCU generation hot swap (publish, drain, failure keeps the old
// generation serving, one id sequence across every publish path).

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

  /// Serving config whose retrieval is exact: brute mode scans every
  /// row; PG mode searches with an exhaustive candidate pool.
  static EngineConfig ExactConfig(bool use_pg_index) {
    EngineConfig config = Shared::SmallConfig();
    config.use_pg_index = use_pg_index;
    if (use_pg_index) {
      config.search_ef = shared().dataset.Papers().size();
    }
    return config;
  }

  static std::unique_ptr<EngineGroup> LoadGroup(const EngineConfig& config,
                                                const fs::path& dir) {
    EngineGroup::Options options;
    options.engine = config;
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
        // Bit-exact, not approximate: the group adds no stage of its own.
        EXPECT_EQ(got[q][i].score, want[q][i].score)
            << label << " query " << q << " rank " << i;
      }
    }
  }
};

// --- Equivalence contract.

TEST_F(EngineGroupTest, SingleShardDelegatesToLoadedEngine) {
  Shared& s = shared();
  ThreadPool pool(4);
  for (const bool use_pg_index : {false, true}) {
    EngineConfig serving = Shared::SmallConfig();
    serving.use_pg_index = use_pg_index;
    auto engine = ExpertFindingEngine::LoadFromArtifacts(
        &s.dataset, &s.corpus, serving, s.dir_a.string());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::vector<QueryStats> want_stats;
    const auto want =
        (*engine)->FindExpertsBatch(s.Texts(), 8, &want_stats, &pool);
    const std::string label = use_pg_index ? "pg" : "brute";
    auto group = LoadGroup(serving, s.dir_a);
    ASSERT_NE(group, nullptr);
    EXPECT_EQ(group->Snapshot()->engine->index() != nullptr, use_pg_index)
        << label;
    std::vector<QueryStats> stats;
    const auto got = group->FindExpertsBatch(s.Texts(), 8, &stats, &pool);
    ExpectBitIdentical(got, want, label);
    ASSERT_EQ(stats.size(), want_stats.size()) << label;
    for (size_t q = 0; q < stats.size(); ++q) {
      EXPECT_FALSE(stats[q].deadline_exceeded) << label;
      EXPECT_EQ(stats[q].distance_computations,
                want_stats[q].distance_computations)
          << label << " query " << q;
      EXPECT_EQ(stats[q].ranking_entries_accessed,
                want_stats[q].ranking_entries_accessed)
          << label << " query " << q;
    }
  }
}

// --- Generation lifecycle.

TEST_F(EngineGroupTest, ReloadPublishesNewGenerationAndDrainsOld) {
  Shared& s = shared();
  auto group = LoadGroup(ExactConfig(false), s.dir_a);
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
  auto group = LoadGroup(ExactConfig(false), s.dir_a);
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
  auto group = LoadGroup(ExactConfig(false), s.dir_a);
  ASSERT_NE(group, nullptr);
  EngineInfo info = group->Info();
  EXPECT_EQ(info.generation, 1u);
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

// Load, Reload and PublishExternal share one publish step: ids run
// 1, 2, 3, ... in publish order, a failed reload takes none, and the
// snapshot and Info() describe the same generation after each step.
TEST_F(EngineGroupTest, EveryPublishPathStampsTheNextConsecutiveId) {
  Shared& s = shared();
  const EngineConfig config = ExactConfig(false);
  auto group = LoadGroup(config, s.dir_a);
  ASSERT_NE(group, nullptr);
  const auto expect_serving = [&](uint64_t id, const std::string& dir) {
    const auto snapshot = group->Snapshot();
    const EngineInfo info = group->Info();
    EXPECT_EQ(snapshot->id, id);
    EXPECT_EQ(group->generation(), id);
    EXPECT_EQ(info.generation, id);
    EXPECT_EQ(snapshot->artifact_dir, dir);
    EXPECT_EQ(info.artifact_dir, dir);
  };
  const auto publish_external = [&](const fs::path& dir) {
    auto generation = std::make_shared<EngineGroup::Generation>();
    generation->artifact_dir = dir.string();
    auto engine = ExpertFindingEngine::LoadFromArtifacts(
        &s.dataset, &s.corpus, config, dir.string());
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    generation->engine = std::move(engine).value();
    const EngineGroup::Generation* raw = generation.get();
    const StatusOr<uint64_t> id = group->PublishExternal(std::move(generation));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(group->Snapshot().get(), raw);
    EXPECT_EQ(raw->id, id.ok() ? *id : 0u);
    return id.ok() ? *id : 0u;
  };

  expect_serving(1, s.dir_a.string());
  EXPECT_EQ(publish_external(s.dir_b), 2u);
  expect_serving(2, s.dir_b.string());
  EXPECT_FALSE(group->Reload(s.dir_bad.string()).ok());
  expect_serving(2, s.dir_b.string());
  ASSERT_TRUE(group->Reload(s.dir_a.string()).ok());
  expect_serving(3, s.dir_a.string());
  EXPECT_EQ(publish_external(s.dir_b), 4u);
  expect_serving(4, s.dir_b.string());
}

}  // namespace
}  // namespace kpef
