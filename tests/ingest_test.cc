// IngestCoordinator: the PR-10 determinism contract and recovery paths.
//
//  - Snapshot equivalence: after draining a drip-fed tail, the published
//    generation is query-equivalent to a full offline FromParts assembly
//    over the unioned graph (exact top-n on the brute path; same top-n
//    with fp-tolerant scores on the PG rerank path).
//  - Duplicate papers are skipped, never double-applied — including
//    across a WAL replay.
//  - A restart (new coordinator over the same WAL + base artifacts)
//    reconstructs the exact pre-restart serving state.
//  - Merge-budget compaction is behavior-invariant: compacting after
//    every batch serves the same answers as never compacting, and the
//    pending count the budget reads is exactly the published graph and
//    index overlays.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/engine_group.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/drip.h"
#include "data/queries.h"
#include "embed/pretrain.h"
#include "ingest/coordinator.h"
#include "scoped_temp_dir.h"

#include <unordered_map>

namespace kpef {
namespace {

namespace fs = std::filesystem;

constexpr size_t kHoldout = 40;
constexpr size_t kBatchSize = 12;
constexpr size_t kTopN = 10;

IngestBatch ToIngestBatch(const std::vector<DripPaper>& papers) {
  IngestBatch batch;
  for (const DripPaper& p : papers) {
    batch.papers.push_back(
        IngestPaper{p.text, p.authors, p.venue, p.topics, p.cites});
  }
  return batch;
}

/// Flat offline union: base graph rebuilt node-for-node, then the tail
/// papers appended in drip order with the same per-paper edge order the
/// coordinator applies (write in rank order, publish, mention, cite).
Dataset BuildUnionDataset(const Dataset& base,
                          const std::vector<DripPaper>& tail) {
  const HeteroGraph& g = base.graph;
  const AcademicSchema& ids = base.ids;
  AcademicSchema fresh = AcademicSchema::Make();
  HeteroGraphBuilder builder(fresh.schema);
  std::unordered_map<std::string, NodeId> authors, venues, topics, papers;
  std::unordered_map<NodeId, NodeId> remap;
  for (NodeId v : g.NodesOfType(ids.author)) {
    remap[v] = builder.AddNode(fresh.author, g.Label(v));
    authors[g.Label(v)] = remap[v];
  }
  for (NodeId v : g.NodesOfType(ids.venue)) {
    remap[v] = builder.AddNode(fresh.venue, g.Label(v));
    venues[g.Label(v)] = remap[v];
  }
  for (NodeId v : g.NodesOfType(ids.topic)) {
    remap[v] = builder.AddNode(fresh.topic, g.Label(v));
    topics[g.Label(v)] = remap[v];
  }
  const std::vector<NodeId>& base_papers = g.NodesOfType(ids.paper);
  for (NodeId v : base_papers) {
    remap[v] = builder.AddNode(fresh.paper, g.Label(v));
    papers[g.Label(v)] = remap[v];
  }
  for (size_t i = 0; i < base_papers.size(); ++i) {
    const NodeId p = base_papers[i];
    for (NodeId a : g.Neighbors(p, ids.write)) {
      EXPECT_TRUE(builder.AddEdge(fresh.write, remap[a], remap[p]).ok());
    }
    for (NodeId v : g.Neighbors(p, ids.publish)) {
      EXPECT_TRUE(builder.AddEdge(fresh.publish, remap[p], remap[v]).ok());
    }
    for (NodeId t : g.Neighbors(p, ids.mention)) {
      EXPECT_TRUE(builder.AddEdge(fresh.mention, remap[p], remap[t]).ok());
    }
    for (NodeId q : g.Neighbors(p, ids.cite)) {
      if (g.LocalIndex(q) < i) {
        EXPECT_TRUE(builder.AddEdge(fresh.cite, remap[p], remap[q]).ok());
      }
    }
  }
  for (const DripPaper& paper : tail) {
    const NodeId p = builder.AddNode(fresh.paper, paper.text);
    papers[paper.text] = p;
    for (const std::string& a : paper.authors) {
      auto it = authors.find(a);
      EXPECT_NE(it, authors.end()) << "drip tail introduced author " << a;
      if (it != authors.end()) {
        EXPECT_TRUE(builder.AddEdge(fresh.write, it->second, p).ok());
      }
    }
    if (!paper.venue.empty()) {
      EXPECT_TRUE(
          builder.AddEdge(fresh.publish, p, venues.at(paper.venue)).ok());
    }
    for (const std::string& t : paper.topics) {
      EXPECT_TRUE(builder.AddEdge(fresh.mention, p, topics.at(t)).ok());
    }
    for (const std::string& c : paper.cites) {
      auto it = papers.find(c);
      if (it != papers.end() && it->second != p) {
        EXPECT_TRUE(builder.AddEdge(fresh.cite, p, it->second).ok());
      }
    }
  }
  auto dataset = DatasetFromGraph(std::move(builder).Build(), "union");
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  Dataset result = std::move(dataset).value();
  DatasetConfig config = base.config;
  config.name = "union";
  config.num_papers = result.Papers().size();
  result.config = std::move(config);
  return result;
}

struct SharedIngest {
  Dataset full;
  DripSplit split;
  Corpus corpus;  // over split.base
  QuerySet queries;
  Matrix tokens;
  ScopedTempDir tmp{"ingest_test"};
  fs::path dir_brute;
  fs::path dir_pg;

  SharedIngest() : full(GenerateDataset(TinyProfile())) {
    auto made = MakeDripSplit(full, kHoldout);
    if (!made.ok()) std::abort();
    split = std::move(made).value();
    corpus = BuildPaperCorpus(split.base);
    queries = GenerateQueries(split.base, 6, 23);
    PretrainConfig pc;
    pc.dim = 32;
    pc.epochs = 6;
    tokens = PretrainTokenEmbeddings(corpus, pc).token_embeddings;

    dir_brute = tmp.path() / "brute";
    dir_pg = tmp.path() / "pg";
    fs::create_directories(dir_brute);
    fs::create_directories(dir_pg);
    Persist(BruteConfig(), dir_brute);
    Persist(PgConfig(), dir_pg);
  }

  void Persist(const EngineConfig& config, const fs::path& dir) {
    auto built =
        ExpertFindingEngine::Build(&split.base, &corpus, config, &tokens);
    if (!built.ok()) std::abort();
    if (!(*built)->SaveArtifacts(dir.string()).ok()) std::abort();
  }

  static EngineConfig BruteConfig() {
    EngineConfig config;
    config.k = 3;
    config.seed_fraction = 0.2;
    config.encoder.dim = 32;
    config.trainer.epochs = 2;
    config.top_m = 60;
    config.use_pg_index = false;
    return config;
  }

  /// PG configuration whose retrieval is exact (unquantized, exhaustive
  /// ef), so the rerank path's top-n must match brute up to fp noise.
  static EngineConfig PgConfig() {
    EngineConfig config = BruteConfig();
    config.use_pg_index = true;
    config.pg_index.knn_k = 8;
    config.pg_index.quantize = false;
    config.search_ef = 4096;
    return config;
  }

  static SharedIngest& Get() {
    static SharedIngest s;
    return s;
  }

  std::vector<std::string> Texts() const {
    std::vector<std::string> texts;
    for (const Query& q : queries.queries) texts.push_back(q.text);
    return texts;
  }

  std::unique_ptr<EngineGroup> LoadGroup(const EngineConfig& config,
                                         const fs::path& dir) {
    EngineGroup::Options options;
    options.engine = config;
    auto group = EngineGroup::Load(&split.base, &corpus, options, dir.string());
    EXPECT_TRUE(group.ok()) << group.status().ToString();
    return group.ok() ? std::move(group).value() : nullptr;
  }

  /// A fresh (removed) log path per call, so a repeated in-process run
  /// (e.g. --gtest_repeat) never replays the previous run's WAL.
  fs::path WalPath(const std::string& tag) const {
    fs::path path = tmp.path() / ("wal_" + tag + ".log");
    fs::remove(path);
    return path;
  }
};

/// Drains the whole tail through `coordinator` in drip batches.
void DrainTail(IngestCoordinator* coordinator, const SharedIngest& s) {
  size_t applied = 0;
  for (const auto& batch :
       DripBatches(std::vector<DripPaper>(s.split.tail), kBatchSize)) {
    auto result = coordinator->Apply(ToIngestBatch(batch));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    applied += result->applied;
  }
  EXPECT_EQ(applied, kHoldout);
}

/// Offline reference over the union, sharing the persisted encoder and
/// frozen-vocabulary growth so the comparison isolates the incremental
/// machinery (graph deltas, index insertion).
struct OfflineReference {
  Dataset dataset;
  Corpus corpus;
  std::unique_ptr<ExpertFindingEngine> engine;

  OfflineReference(const SharedIngest& s, const EngineConfig& config,
                   const fs::path& dir) {
    auto base = ExpertFindingEngine::LoadFromArtifacts(&s.split.base, &s.corpus,
                                                       config, dir.string());
    if (!base.ok()) std::abort();
    dataset = BuildUnionDataset(s.split.base, s.split.tail);
    corpus = s.corpus;
    Matrix embeddings = (*base)->embeddings();
    for (const DripPaper& paper : s.split.tail) {
      const size_t doc = corpus.AddDocumentFrozen(paper.text);
      embeddings.AppendRow((*base)->encoder().Encode(corpus.Document(doc)));
    }
    auto built = ExpertFindingEngine::FromParts(
        &dataset, &corpus, config, DocumentEncoder((*base)->encoder()),
        std::move(embeddings), nullptr);
    if (!built.ok()) std::abort();
    engine = std::move(built).value();
  }
};

TEST(IngestTest, BruteSnapshotEquivalentToOfflineUnionRebuild) {
  SharedIngest& s = SharedIngest::Get();
  auto group = s.LoadGroup(SharedIngest::BruteConfig(), s.dir_brute);
  ASSERT_NE(group, nullptr);
  IngestOptions options;
  options.wal_path = s.WalPath("brute_eq").string();
  auto coordinator = IngestCoordinator::Create(
      group.get(), SharedIngest::BruteConfig(), options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  DrainTail(coordinator->get(), s);

  OfflineReference reference(s, SharedIngest::BruteConfig(), s.dir_brute);
  const std::vector<std::string> texts = s.Texts();
  const auto got = group->FindExpertsBatch(texts, kTopN);
  for (size_t q = 0; q < texts.size(); ++q) {
    const auto want = reference.engine->FindExperts(texts[q], kTopN);
    ASSERT_EQ(got[q].size(), want.size()) << "query " << q;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[q][i].author, want[i].author)
          << "query " << q << " rank " << i;
      EXPECT_NEAR(got[q][i].score, want[i].score, 1e-5)
          << "query " << q << " rank " << i;
    }
  }

  // The drained snapshot serves the union paper count.
  const auto snapshot = group->Snapshot();
  ASSERT_NE(snapshot->owned_dataset, nullptr);
  EXPECT_EQ(snapshot->owned_dataset->Papers().size(), s.full.Papers().size());
}

TEST(IngestTest, PgRerankPathMatchesBruteReferenceWithinTolerance) {
  SharedIngest& s = SharedIngest::Get();
  auto group = s.LoadGroup(SharedIngest::PgConfig(), s.dir_pg);
  ASSERT_NE(group, nullptr);
  IngestOptions options;
  options.wal_path = s.WalPath("pg_eq").string();
  auto coordinator =
      IngestCoordinator::Create(group.get(), SharedIngest::PgConfig(), options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  DrainTail(coordinator->get(), s);

  // Brute reference over the union: with an unquantized, exhaustive-ef
  // index the PG retrieval is exact, so the reranked top-n must match.
  OfflineReference reference(s, SharedIngest::BruteConfig(), s.dir_brute);
  const std::vector<std::string> texts = s.Texts();
  const auto got = group->FindExpertsBatch(texts, kTopN);
  for (size_t q = 0; q < texts.size(); ++q) {
    const auto want = reference.engine->FindExperts(texts[q], kTopN);
    ASSERT_EQ(got[q].size(), want.size()) << "query " << q;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[q][i].author, want[i].author)
          << "query " << q << " rank " << i;
      EXPECT_NEAR(got[q][i].score, want[i].score, 1e-4)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(IngestTest, DuplicatesNeverDoubleApply) {
  SharedIngest& s = SharedIngest::Get();
  auto group = s.LoadGroup(SharedIngest::BruteConfig(), s.dir_brute);
  ASSERT_NE(group, nullptr);
  IngestOptions options;
  options.wal_path = s.WalPath("dups").string();
  auto coordinator = IngestCoordinator::Create(
      group.get(), SharedIngest::BruteConfig(), options);
  ASSERT_TRUE(coordinator.ok());

  std::vector<DripPaper> first(s.split.tail.begin(), s.split.tail.begin() + 8);
  auto once = (*coordinator)->Apply(ToIngestBatch(first));
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(once->applied, 8u);
  EXPECT_EQ(once->duplicates, 0u);
  const size_t papers_after =
      group->Snapshot()->owned_dataset->Papers().size();

  auto twice = (*coordinator)->Apply(ToIngestBatch(first));
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->applied, 0u);
  EXPECT_EQ(twice->duplicates, 8u);
  EXPECT_EQ(group->Snapshot()->owned_dataset->Papers().size(), papers_after);

  // A batch mixing known and new papers applies only the new ones.
  std::vector<DripPaper> mixed(s.split.tail.begin() + 6,
                               s.split.tail.begin() + 10);
  auto mix = (*coordinator)->Apply(ToIngestBatch(mixed));
  ASSERT_TRUE(mix.ok());
  EXPECT_EQ(mix->applied, 2u);
  EXPECT_EQ(mix->duplicates, 2u);
  EXPECT_EQ(group->Snapshot()->owned_dataset->Papers().size(),
            papers_after + 2);
}

TEST(IngestTest, WalReplayReconstructsServingState) {
  SharedIngest& s = SharedIngest::Get();
  const fs::path wal = s.WalPath("replay");
  const std::vector<std::string> texts = s.Texts();

  std::vector<std::vector<ExpertScore>> before;
  {
    auto group = s.LoadGroup(SharedIngest::BruteConfig(), s.dir_brute);
    ASSERT_NE(group, nullptr);
    IngestOptions options;
    options.wal_path = wal.string();
    auto coordinator = IngestCoordinator::Create(
        group.get(), SharedIngest::BruteConfig(), options);
    ASSERT_TRUE(coordinator.ok());
    DrainTail(coordinator->get(), s);
    before = group->FindExpertsBatch(texts, kTopN);
  }  // crash-equivalent: coordinator and group torn down, WAL survives

  auto group = s.LoadGroup(SharedIngest::BruteConfig(), s.dir_brute);
  ASSERT_NE(group, nullptr);
  IngestOptions options;
  options.wal_path = wal.string();
  auto coordinator = IngestCoordinator::Create(
      group.get(), SharedIngest::BruteConfig(), options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  EXPECT_EQ((*coordinator)->Stats().replayed_records, kHoldout);
  EXPECT_GT(group->generation(), 1u);  // replay published a caught-up gen
  EXPECT_EQ(group->Snapshot()->owned_dataset->Papers().size(),
            s.full.Papers().size());

  const auto after = group->FindExpertsBatch(texts, kTopN);
  ASSERT_EQ(after.size(), before.size());
  for (size_t q = 0; q < before.size(); ++q) {
    ASSERT_EQ(after[q].size(), before[q].size()) << "query " << q;
    for (size_t i = 0; i < before[q].size(); ++i) {
      EXPECT_EQ(after[q][i].author, before[q][i].author)
          << "query " << q << " rank " << i;
      EXPECT_EQ(after[q][i].score, before[q][i].score)
          << "query " << q << " rank " << i;
    }
  }

  // Replaying is idempotent: the duplicates are skipped, not re-added.
  auto again = (*coordinator)->Apply(
      ToIngestBatch({s.split.tail.begin(), s.split.tail.begin() + 4}));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->applied, 0u);
  EXPECT_EQ(again->duplicates, 4u);
}

TEST(IngestTest, MergeEveryBatchServesSameAnswersAsNeverMerging) {
  SharedIngest& s = SharedIngest::Get();
  auto group_lazy = s.LoadGroup(SharedIngest::BruteConfig(), s.dir_brute);
  auto group_eager = s.LoadGroup(SharedIngest::BruteConfig(), s.dir_brute);
  ASSERT_NE(group_lazy, nullptr);
  ASSERT_NE(group_eager, nullptr);

  IngestOptions lazy_options;
  lazy_options.wal_path = s.WalPath("merge_lazy").string();
  lazy_options.merge_pending_edge_budget = 1u << 30;  // never trips
  auto lazy = IngestCoordinator::Create(group_lazy.get(),
                                        SharedIngest::BruteConfig(),
                                        lazy_options);
  ASSERT_TRUE(lazy.ok());

  IngestOptions eager_options;
  eager_options.wal_path = s.WalPath("merge_eager").string();
  eager_options.merge_pending_edge_budget = 0;  // trips every batch
  auto eager = IngestCoordinator::Create(group_eager.get(),
                                         SharedIngest::BruteConfig(),
                                         eager_options);
  ASSERT_TRUE(eager.ok());

  DrainTail(lazy->get(), s);
  DrainTail(eager->get(), s);

  EXPECT_EQ((*lazy)->Stats().merges, 0u);
  EXPECT_GT((*lazy)->Stats().pending_delta_edges, 0u);
  // The budget counts only the overlays serving reads.
  const auto lazy_snapshot = group_lazy->Snapshot();
  size_t overlay_edges =
      lazy_snapshot->owned_dataset->graph.PendingDeltaEdges();
  if (const PGIndex* index = lazy_snapshot->engine->index()) {
    overlay_edges += index->PendingDeltaEdges();
  }
  EXPECT_EQ((*lazy)->Stats().pending_delta_edges, overlay_edges);
  EXPECT_GT((*eager)->Stats().merges, 0u);
  EXPECT_EQ((*eager)->Stats().pending_delta_edges, 0u);

  const std::vector<std::string> texts = s.Texts();
  const auto lazy_results = group_lazy->FindExpertsBatch(texts, kTopN);
  const auto eager_results = group_eager->FindExpertsBatch(texts, kTopN);
  for (size_t q = 0; q < texts.size(); ++q) {
    ASSERT_EQ(lazy_results[q].size(), eager_results[q].size());
    for (size_t i = 0; i < lazy_results[q].size(); ++i) {
      EXPECT_EQ(lazy_results[q][i].author, eager_results[q][i].author)
          << "query " << q << " rank " << i;
      EXPECT_NEAR(lazy_results[q][i].score, eager_results[q][i].score, 1e-5)
          << "query " << q << " rank " << i;
    }
  }
}

// A batch is validated whole before it is logged: [valid, empty-text]
// must change neither the log nor staging, so the valid paper still
// applies later (not as a duplicate) and the log replays cleanly.
TEST(IngestTest, InvalidBatchLeavesLogAndStagingUntouched) {
  SharedIngest& s = SharedIngest::Get();
  const fs::path wal = s.WalPath("invalid_batch");
  IngestOptions options;
  options.wal_path = wal.string();
  const DripPaper& valid = s.split.tail[0];
  {
    auto group = s.LoadGroup(SharedIngest::PgConfig(), s.dir_pg);
    ASSERT_NE(group, nullptr);
    auto coordinator = IngestCoordinator::Create(
        group.get(), SharedIngest::PgConfig(), options);
    ASSERT_TRUE(coordinator.ok());
    const IngestStats before = (*coordinator)->Stats();
    const uint64_t generation = group->generation();

    IngestBatch bad = ToIngestBatch({valid});
    bad.papers.push_back(IngestPaper{"", {"someone"}, "", {}, {}});
    const auto rejected = (*coordinator)->Apply(bad);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ((*coordinator)->Stats().wal_bytes, before.wal_bytes);
    EXPECT_EQ((*coordinator)->Stats().records_applied,
              before.records_applied);
    EXPECT_EQ(group->generation(), generation);

    auto applied = (*coordinator)->Apply(ToIngestBatch({valid}));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->applied, 1u);
    EXPECT_EQ(applied->duplicates, 0u);
  }

  auto group = s.LoadGroup(SharedIngest::PgConfig(), s.dir_pg);
  ASSERT_NE(group, nullptr);
  auto replayed = IngestCoordinator::Create(
      group.get(), SharedIngest::PgConfig(), options);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ((*replayed)->Stats().replayed_records, 1u);
  EXPECT_EQ(group->Snapshot()->owned_dataset->Papers().size(),
            s.split.base.Papers().size() + 1);
}

TEST(IngestTest, RejectsEmptyTextAndShardedGroups) {
  SharedIngest& s = SharedIngest::Get();
  auto group = s.LoadGroup(SharedIngest::BruteConfig(), s.dir_brute);
  ASSERT_NE(group, nullptr);
  IngestOptions options;
  options.wal_path = s.WalPath("rejects").string();
  auto coordinator = IngestCoordinator::Create(
      group.get(), SharedIngest::BruteConfig(), options);
  ASSERT_TRUE(coordinator.ok());

  IngestBatch bad;
  bad.papers.push_back(IngestPaper{"", {"someone"}, "", {}, {}});
  EXPECT_FALSE((*coordinator)->Apply(bad).ok());

  // Still serving and still ingesting after the rejected batch.
  auto ok = (*coordinator)->Apply(
      ToIngestBatch({s.split.tail.begin(), s.split.tail.begin() + 2}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->applied, 2u);

  // Sharded groups are rejected at Create.
  EngineGroup::Options sharded;
  sharded.engine = SharedIngest::BruteConfig();
  sharded.num_shards = 2;
  auto sharded_group = EngineGroup::Load(&s.split.base, &s.corpus, sharded,
                                         s.dir_brute.string());
  ASSERT_TRUE(sharded_group.ok());
  IngestOptions sharded_options;
  sharded_options.wal_path = s.WalPath("sharded").string();
  auto rejected = IngestCoordinator::Create(
      sharded_group->get(), SharedIngest::BruteConfig(), sharded_options);
  EXPECT_FALSE(rejected.ok());
}

}  // namespace
}  // namespace kpef
