#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/explain.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/queries.h"
#include "embed/model_io.h"
#include "eval/evaluation.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "ranking/top_n_finder.h"
#include "text/tfidf.h"
#include "scoped_temp_dir.h"

namespace kpef {
namespace {

// One shared tiny pipeline for the whole binary (training is the slow
// part; individual tests probe different aspects of the built engine).
class EngineTest : public ::testing::Test {
 protected:
  struct Shared {
    Dataset dataset;
    Corpus corpus;
    TfIdfModel tfidf;
    Matrix tokens;
    QuerySet queries;
    EngineBuildReport report;
    std::unique_ptr<ExpertFindingEngine> engine;

    Shared()
        : dataset(GenerateDataset(TinyProfile())),
          corpus(BuildPaperCorpus(dataset)),
          tfidf(corpus),
          tokens([&] {
            PretrainConfig config;
            config.dim = 32;
            config.epochs = 6;
            return PretrainTokenEmbeddings(corpus, config).token_embeddings;
          }()),
          queries(GenerateQueries(dataset, 6, 23)) {
      auto built = ExpertFindingEngine::Build(&dataset, &corpus,
                                              SmallConfig(), &tokens, &report);
      if (!built.ok()) std::abort();
      engine = std::move(built).value();
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
  };

  static Shared& shared() {
    static Shared* s = new Shared();
    return *s;
  }
};

TEST_F(EngineTest, BuildReportPopulated) {
  const EngineBuildReport& r = shared().report;
  EXPECT_GT(r.sampling.triples.size(), 0u);
  EXPECT_GT(r.sampling.num_seeds, 0u);
  EXPECT_EQ(r.training.num_triples, r.sampling.triples.size());
  EXPECT_FALSE(r.training.epoch_loss.empty());
  EXPECT_GT(r.index.build_seconds, 0.0);
  EXPECT_GT(r.total_seconds, 0.0);
}

TEST_F(EngineTest, EmbeddingsCoverEveryPaper) {
  Shared& s = shared();
  EXPECT_EQ(s.engine->embeddings().rows(), s.dataset.Papers().size());
  EXPECT_EQ(s.engine->embeddings().cols(), 32u);
  EXPECT_NE(s.engine->index(), nullptr);
}

TEST_F(EngineTest, FindExpertsReturnsRankedAuthors) {
  Shared& s = shared();
  const auto experts = s.engine->FindExperts(s.queries.queries[0].text, 10);
  EXPECT_LE(experts.size(), 10u);
  EXPECT_GT(experts.size(), 0u);
  double prev = 1e30;
  std::set<NodeId> seen;
  for (const ExpertScore& e : experts) {
    EXPECT_EQ(s.dataset.graph.TypeOf(e.author), s.dataset.ids.author);
    EXPECT_TRUE(seen.insert(e.author).second);
    EXPECT_LE(e.score, prev);
    prev = e.score;
  }
}

// The batched path fans queries across a pool but must return exactly
// what the serial per-query path returns: each query runs its own
// encode -> search -> rank task, so neither the pool width nor the batch
// a query rides in may change its answer or its counters.
TEST_F(EngineTest, FindExpertsBatchMatchesSerial) {
  Shared& s = shared();
  std::vector<std::string> texts;
  for (const Query& q : s.queries.queries) texts.push_back(q.text);
  std::vector<std::vector<ExpertScore>> serial;
  std::vector<QueryStats> serial_stats(texts.size());
  for (size_t q = 0; q < texts.size(); ++q) {
    serial.push_back(
        s.engine->FindExpertsWithStats(texts[q], 8, &serial_stats[q]));
  }
  for (const size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    for (const size_t batch_size : {size_t{1}, size_t{3}, texts.size()}) {
      for (size_t start = 0; start < texts.size(); start += batch_size) {
        const size_t end = std::min(texts.size(), start + batch_size);
        const std::vector<std::string> part(texts.begin() + start,
                                            texts.begin() + end);
        std::vector<QueryStats> stats;
        const auto batched = s.engine->FindExpertsBatch(part, 8, &stats, &pool);
        ASSERT_EQ(batched.size(), part.size());
        ASSERT_EQ(stats.size(), part.size());
        for (size_t i = 0; i < part.size(); ++i) {
          const size_t q = start + i;
          const std::string label = "pool " + std::to_string(threads) +
                                    " batch " + std::to_string(batch_size) +
                                    " query " + std::to_string(q);
          ASSERT_EQ(batched[i].size(), serial[q].size()) << label;
          for (size_t r = 0; r < serial[q].size(); ++r) {
            EXPECT_EQ(batched[i][r].author, serial[q][r].author)
                << label << " rank " << r;
            EXPECT_EQ(batched[i][r].score, serial[q][r].score)
                << label << " rank " << r;
          }
          EXPECT_EQ(stats[i].distance_computations,
                    serial_stats[q].distance_computations)
              << label;
          EXPECT_EQ(stats[i].ranking_entries_accessed,
                    serial_stats[q].ranking_entries_accessed)
              << label;
          EXPECT_FALSE(stats[i].deadline_exceeded) << label;
          EXPECT_GT(stats[i].retrieval_ms, 0.0) << label;
          EXPECT_GE(stats[i].retrieval_ms, stats[i].encode_ms) << label;
        }
      }
    }
  }
}

TEST_F(EngineTest, FindExpertsBatchEmpty) {
  Shared& s = shared();
  std::vector<QueryStats> stats(2);
  EXPECT_TRUE(s.engine->FindExpertsBatch({}, 5, &stats).empty());
  EXPECT_TRUE(stats.empty());
}

// Regression for the smeared batch average: retrieval_ms must be this
// query's own wall-clock time (encode + search), not the batch phase
// time divided by the batch size, so it is comparable to ranking_ms.
TEST_F(EngineTest, FindExpertsBatchReportsPerQueryRetrievalTime) {
  Shared& s = shared();
  std::vector<std::string> texts;
  for (const Query& q : s.queries.queries) texts.push_back(q.text);
  ThreadPool pool(4);
  std::vector<QueryStats> stats;
  s.engine->FindExpertsBatch(texts, 8, &stats, &pool);
  ASSERT_EQ(stats.size(), texts.size());
  for (size_t q = 0; q < stats.size(); ++q) {
    EXPECT_GT(stats[q].retrieval_ms, 0.0) << "query " << q;
    EXPECT_FALSE(stats[q].deadline_exceeded) << "query " << q;
  }
}

TEST_F(EngineTest, ExpiredDeadlineReturnsFlaggedPartialBatch) {
  Shared& s = shared();
  std::vector<std::string> texts;
  for (const Query& q : s.queries.queries) texts.push_back(q.text);
  ThreadPool pool(4);
  BatchQueryOptions options;
  options.pool = &pool;
  options.deadlines.assign(texts.size(), std::chrono::steady_clock::now() -
                                             std::chrono::milliseconds(1));
  std::vector<QueryStats> stats;
  // Must return promptly with every query flagged, not wedge.
  const auto results = s.engine->FindExpertsBatch(texts, 8, options, &stats);
  ASSERT_EQ(results.size(), texts.size());
  ASSERT_EQ(stats.size(), texts.size());
  for (size_t q = 0; q < texts.size(); ++q) {
    EXPECT_TRUE(stats[q].deadline_exceeded) << "query " << q;
    EXPECT_TRUE(results[q].empty()) << "query " << q;
  }
}

TEST_F(EngineTest, TinyDeadlineFlagsOvertakenQueriesOnly) {
  Shared& s = shared();
  std::vector<std::string> texts;
  for (const Query& q : s.queries.queries) texts.push_back(q.text);
  ThreadPool pool(4);
  BatchQueryOptions options;
  options.pool = &pool;
  // Every odd slot's deadline has already passed; the even slots have a
  // live one-minute budget, so exactly the odd ones are overtaken.
  const auto now = std::chrono::steady_clock::now();
  for (size_t q = 0; q < texts.size(); ++q) {
    options.deadlines.push_back(q % 2 == 1 ? now - std::chrono::milliseconds(1)
                                           : now + std::chrono::minutes(1));
  }
  std::vector<QueryStats> stats;
  const auto results = s.engine->FindExpertsBatch(texts, 8, options, &stats);
  ASSERT_EQ(results.size(), texts.size());
  // The contract: flagged queries are empty, unflagged queries carry the
  // same answer the serial path gives.
  for (size_t q = 0; q < texts.size(); ++q) {
    EXPECT_EQ(stats[q].deadline_exceeded, q % 2 == 1) << "query " << q;
    if (stats[q].deadline_exceeded) {
      EXPECT_TRUE(results[q].empty()) << "query " << q;
    } else {
      const auto serial = s.engine->FindExperts(texts[q], 8);
      ASSERT_EQ(results[q].size(), serial.size()) << "query " << q;
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(results[q][i].author, serial[i].author);
      }
    }
  }
}

// Per-slot deadlines (PR 8): an expired slot is skipped at every phase
// boundary and flagged, while its batchmates — including ones with no
// deadline at all — come back identical to the serial path.
TEST_F(EngineTest, PerSlotDeadlineSkipsOnlyTheExpiredQuery) {
  Shared& s = shared();
  std::vector<std::string> texts;
  for (const Query& q : s.queries.queries) texts.push_back(q.text);
  ASSERT_GE(texts.size(), 2u);
  ThreadPool pool(4);
  BatchQueryOptions options;
  options.pool = &pool;
  options.deadlines.assign(texts.size(),
                           std::chrono::steady_clock::time_point::max());
  options.deadlines[0] =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  std::vector<QueryStats> stats;
  const auto results = s.engine->FindExpertsBatch(texts, 8, options, &stats);
  ASSERT_EQ(results.size(), texts.size());
  ASSERT_EQ(stats.size(), texts.size());
  EXPECT_TRUE(stats[0].deadline_exceeded);
  EXPECT_TRUE(results[0].empty());
  for (size_t q = 1; q < texts.size(); ++q) {
    EXPECT_FALSE(stats[q].deadline_exceeded) << "query " << q;
    const auto serial = s.engine->FindExperts(texts[q], 8);
    ASSERT_EQ(results[q].size(), serial.size()) << "query " << q;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(results[q][i].author, serial[i].author)
          << "query " << q << " rank " << i;
      EXPECT_EQ(results[q][i].score, serial[i].score)
          << "query " << q << " rank " << i;
    }
  }
}

#ifndef KPEF_METRICS_DISABLED
TEST_F(EngineTest, DeadlineExceededQueriesCounted) {
  Shared& s = shared();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t before =
      registry.GetCounter(obs::kEngineQueriesDeadlineExceeded).Value();
  std::vector<std::string> texts;
  for (const Query& q : s.queries.queries) texts.push_back(q.text);
  ThreadPool pool(2);
  BatchQueryOptions options;
  options.pool = &pool;
  options.deadlines.assign(texts.size(), std::chrono::steady_clock::now() -
                                             std::chrono::milliseconds(1));
  s.engine->FindExpertsBatch(texts, 8, options);
  const uint64_t after =
      registry.GetCounter(obs::kEngineQueriesDeadlineExceeded).Value();
  EXPECT_EQ(after - before, texts.size());
}
#endif  // KPEF_METRICS_DISABLED

TEST_F(EngineTest, RetrievePapersReturnsPapers) {
  Shared& s = shared();
  QueryStats stats;
  const auto papers =
      s.engine->RetrievePapers(s.queries.queries[1].text, 25, &stats);
  EXPECT_EQ(papers.size(), 25u);
  for (NodeId p : papers) {
    EXPECT_EQ(s.dataset.graph.TypeOf(p), s.dataset.ids.paper);
  }
  EXPECT_GT(stats.distance_computations, 0u);
  // The PG-Index should touch far fewer points than the corpus size.
  EXPECT_LT(stats.distance_computations, s.dataset.Papers().size());
}

TEST_F(EngineTest, SelfQueryRetrievesOwnPaper) {
  Shared& s = shared();
  const Query& q = s.queries.queries[2];
  const auto papers = s.engine->RetrievePapers(q.text, 20);
  EXPECT_NE(std::find(papers.begin(), papers.end(), q.query_paper),
            papers.end());
}

// The engine ranks by one-pass full scan; TA over the ranked lists of
// the same retrieved papers must give the same answer bit for bit.
TEST_F(EngineTest, TaAndFullScanAgree) {
  Shared& s = shared();
  const EngineConfig& config = s.engine->config();
  for (const Query& q : s.queries.queries) {
    const auto served = s.engine->FindExperts(q.text, 8);
    const RankedLists lists = BuildRankedLists(
        s.dataset.graph, s.dataset.ids.write,
        s.engine->RetrievePapers(q.text, config.top_m),
        config.contribution_weighting);
    const auto ta = ThresholdTopN(lists, 8);
    ASSERT_EQ(served.size(), ta.size());
    for (size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(served[i].author, ta[i].author) << "rank " << i;
      EXPECT_EQ(served[i].score, ta[i].score) << "rank " << i;
    }
  }
}

TEST_F(EngineTest, BruteForceVariantFindsSimilarExperts) {
  Shared& s = shared();
  EngineConfig config = Shared::SmallConfig();
  config.use_pg_index = false;
  auto brute = ExpertFindingEngine::Build(&s.dataset, &s.corpus, config,
                                          &s.tokens, nullptr);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ((*brute)->index(), nullptr);
  // Approximate retrieval should still share most experts with exact.
  size_t overlap = 0, total = 0;
  for (const Query& q : s.queries.queries) {
    const auto approx = s.engine->FindExperts(q.text, 10);
    const auto exact = (*brute)->FindExperts(q.text, 10);
    std::set<NodeId> exact_set;
    for (const auto& e : exact) exact_set.insert(e.author);
    for (const auto& e : approx) overlap += exact_set.count(e.author);
    total += exact.size();
  }
  EXPECT_GT(static_cast<double>(overlap) / total, 0.6);
}

TEST_F(EngineTest, DeterministicRebuild) {
  Shared& s = shared();
  auto again = ExpertFindingEngine::Build(&s.dataset, &s.corpus,
                                          Shared::SmallConfig(), &s.tokens);
  ASSERT_TRUE(again.ok());
  const auto a = s.engine->FindExperts(s.queries.queries[0].text, 5);
  const auto b = (*again)->FindExperts(s.queries.queries[0].text, 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].author, b[i].author);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST_F(EngineTest, RejectsBadMetaPath) {
  Shared& s = shared();
  EngineConfig config = Shared::SmallConfig();
  config.meta_paths = {"P-X-P"};
  auto result =
      ExpertFindingEngine::Build(&s.dataset, &s.corpus, config, &s.tokens);
  EXPECT_FALSE(result.ok());
  config.meta_paths = {"A-P-A"};  // wrong endpoints
  EXPECT_FALSE(
      ExpertFindingEngine::Build(&s.dataset, &s.corpus, config, &s.tokens)
          .ok());
  config.meta_paths = {};
  EXPECT_FALSE(
      ExpertFindingEngine::Build(&s.dataset, &s.corpus, config, &s.tokens)
          .ok());
}

TEST_F(EngineTest, QueryStatsReported) {
  Shared& s = shared();
  QueryStats stats;
  const auto experts = s.engine->FindExpertsWithStats(
      s.queries.queries[3].text, 10, &stats);
  EXPECT_GT(experts.size(), 0u);
  EXPECT_GT(stats.retrieval_ms, 0.0);
  EXPECT_GT(stats.ranking_ms, 0.0);
  EXPECT_GT(stats.ranking_entries_accessed, 0u);
}

#ifndef KPEF_METRICS_DISABLED
TEST_F(EngineTest, PipelineMetricsPopulatedAfterBuildAndQuery) {
  Shared& s = shared();  // Build ran in the fixture.
  s.engine->FindExperts(s.queries.queries[0].text, 5);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GT(snapshot.counters.at(obs::kKpcoreSearchesTotal), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kKpcoreNodesVisited), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kSamplingTriplesTotal), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kTrainerEpochsTotal), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kPgindexBuildsTotal), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kPgindexSearchesTotal), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kPgindexDistanceComputations), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kRankingFullScansTotal), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kRankingFullScanEntriesAccessed), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kEngineBuildsTotal), 0u);
  EXPECT_GT(snapshot.counters.at(obs::kEngineQueriesTotal), 0u);
  EXPECT_GT(snapshot.histograms.at(obs::kPgindexSearchHops).total_count, 0u);
  EXPECT_GT(snapshot.histograms.at(obs::kEngineQueryLatencyMs).total_count,
            0u);
}

TEST_F(EngineTest, RegistryDeltasMatchQueryStats) {
  Shared& s = shared();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Pre-register the schema: the query-stage counters may not exist yet
  // when this test runs before any query.
  obs::WarmPipelineMetrics();
  auto counters = [&registry] {
    return registry.Snapshot().counters;
  };
  const auto before = counters();
  QueryStats stats;
  s.engine->FindExpertsWithStats(s.queries.queries[4].text, 10, &stats);
  const auto after = counters();
  auto delta = [&](const char* name) {
    return after.at(name) - before.at(name);
  };
  // The registry is fed from the same per-query locals as QueryStats, so
  // for a single serial query the deltas must agree exactly. QueryStats
  // sums the SQ8 traversal and the fp32 rerank; the registry splits them
  // across two counters.
  EXPECT_EQ(delta(obs::kPgindexDistanceComputations) +
                delta(obs::kPgindexSq8DistanceComputations),
            stats.distance_computations);
  EXPECT_EQ(delta(obs::kRankingFullScanEntriesAccessed),
            stats.ranking_entries_accessed);
  EXPECT_EQ(delta(obs::kRankingFullScansTotal), 1u);
  EXPECT_EQ(delta(obs::kEngineQueriesTotal), 1u);
}

TEST_F(EngineTest, ConcurrentQueriesMergeStatsExactly) {
  Shared& s = shared();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t dist_before =
      registry.GetCounter(obs::kPgindexDistanceComputations).Value() +
      registry.GetCounter(obs::kPgindexSq8DistanceComputations).Value();
  const uint64_t entries_before =
      registry.GetCounter(obs::kRankingFullScanEntriesAccessed).Value();
  constexpr size_t kRounds = 4;
  const size_t num_queries = s.queries.queries.size() * kRounds;
  std::vector<QueryStats> stats(num_queries);
  ThreadPool pool(4);
  for (size_t i = 0; i < num_queries; ++i) {
    pool.Submit([&s, &stats, i] {
      const Query& q = s.queries.queries[i % s.queries.queries.size()];
      s.engine->FindExpertsWithStats(q.text, 10, &stats[i]);
    });
  }
  pool.Wait();
  // Per-query tallies are accumulated in locals and merged once at the
  // end, so concurrent queries must neither lose nor double-count: the
  // registry delta equals the sum over all per-query stats.
  uint64_t dist_sum = 0, entries_sum = 0;
  for (const QueryStats& st : stats) {
    EXPECT_GT(st.ranking_entries_accessed, 0u);
    dist_sum += st.distance_computations;
    entries_sum += st.ranking_entries_accessed;
  }
  EXPECT_EQ(
      registry.GetCounter(obs::kPgindexDistanceComputations).Value() +
          registry.GetCounter(obs::kPgindexSq8DistanceComputations).Value() -
          dist_before,
      dist_sum);
  EXPECT_EQ(registry.GetCounter(obs::kRankingFullScanEntriesAccessed).Value() -
                entries_before,
            entries_sum);
}
#endif  // KPEF_METRICS_DISABLED

TEST_F(EngineTest, EngineBeatsTextOnlyBaselineOnPlantedData) {
  // The central claim at miniature scale: core-based fine-tuning should
  // beat the raw pre-trained text embedding on topic-expert retrieval.
  Shared& s = shared();
  const Evaluator evaluator(&s.dataset, &s.queries, &s.corpus, &s.tfidf);
  const EvaluationResult ours = evaluator.Evaluate(*s.engine, 10);
  EXPECT_GT(ours.p_at_5, 0.2);
  EXPECT_GT(ours.map, 0.05);
}

TEST_F(EngineTest, ArtifactRoundTripServesIdenticalResults) {
  Shared& s = shared();
  const ScopedTempDir tmp("engine_test");
  const std::string dir = tmp.path().string();
  ASSERT_TRUE(s.engine->SaveArtifacts(dir).ok());
  auto loaded = ExpertFindingEngine::LoadFromArtifacts(
      &s.dataset, &s.corpus, Shared::SmallConfig(), dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const Query& q : s.queries.queries) {
    const auto a = s.engine->FindExperts(q.text, 8);
    const auto b = (*loaded)->FindExperts(q.text, 8);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].author, b[i].author);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
}

TEST_F(EngineTest, LoadFromArtifactsRejectsMissingFiles) {
  Shared& s = shared();
  auto loaded = ExpertFindingEngine::LoadFromArtifacts(
      &s.dataset, &s.corpus, Shared::SmallConfig(), "/nonexistent/dir");
  EXPECT_FALSE(loaded.ok());
}

// A mismatched artifact set (e.g. an encoder from a different build next
// to stale embeddings) must be rejected at load time, not discovered as
// garbage distances at query time.
TEST_F(EngineTest, LoadFromArtifactsRejectsDimensionMismatch) {
  Shared& s = shared();
  const ScopedTempDir tmp("engine_test");
  const std::string dir = tmp.path().string();
  ASSERT_TRUE(s.engine->SaveArtifacts(dir).ok());

  // Encoder whose output dimension disagrees with the embeddings.
  EncoderConfig narrow;
  narrow.dim = 16;
  DocumentEncoder wrong_encoder(s.corpus.vocabulary().size(), narrow);
  ASSERT_TRUE(SaveEncoder(wrong_encoder, dir + "/encoder.bin").ok());
  auto encoder_mismatch = ExpertFindingEngine::LoadFromArtifacts(
      &s.dataset, &s.corpus, Shared::SmallConfig(), dir);
  ASSERT_FALSE(encoder_mismatch.ok());
  EXPECT_EQ(encoder_mismatch.status().code(),
            StatusCode::kFailedPrecondition);

  // Encoder and embeddings agree with each other (16-d) but not with
  // the PG-Index still on disk (32-d): the index cross-check must trip.
  ASSERT_TRUE(SaveMatrix(Matrix(s.corpus.NumDocuments(), 16),
                         dir + "/embeddings.bin")
                  .ok());
  auto index_mismatch = ExpertFindingEngine::LoadFromArtifacts(
      &s.dataset, &s.corpus, Shared::SmallConfig(), dir);
  ASSERT_FALSE(index_mismatch.ok());
  EXPECT_EQ(index_mismatch.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, UniformWeightingChangesScoresNotValidity) {
  Shared& s = shared();
  EngineConfig config = Shared::SmallConfig();
  config.contribution_weighting = ContributionWeighting::kUniform;
  auto uniform = ExpertFindingEngine::Build(&s.dataset, &s.corpus, config,
                                            &s.tokens);
  ASSERT_TRUE(uniform.ok());
  const auto experts = (*uniform)->FindExperts(s.queries.queries[0].text, 8);
  EXPECT_GT(experts.size(), 0u);
}

TEST_F(EngineTest, ExplanationDecomposesScoreExactly) {
  Shared& s = shared();
  const Query& q = s.queries.queries[0];
  const auto experts = s.engine->FindExperts(q.text, 5);
  ASSERT_FALSE(experts.empty());
  for (const ExpertScore& expert : experts) {
    const ExpertExplanation explanation =
        ExplainExpert(*s.engine, q.text, expert.author);
    EXPECT_NEAR(explanation.total_score, expert.score, 1e-9);
    ASSERT_FALSE(explanation.evidence.empty());
    double sum = 0.0;
    for (const ExpertEvidence& e : explanation.evidence) {
      EXPECT_GE(e.paper_rank, 1u);
      EXPECT_GE(e.author_rank, 1u);
      EXPECT_LE(e.author_rank, e.num_authors);
      EXPECT_GT(e.score_share, 0.0);
      // The evidence paper really lists this author at that rank.
      const auto authors =
          s.dataset.graph.Neighbors(e.paper, s.dataset.ids.write);
      ASSERT_LE(e.author_rank, authors.size());
      EXPECT_EQ(authors[e.author_rank - 1], expert.author);
      sum += e.score_share;
    }
    EXPECT_NEAR(sum, explanation.total_score, 1e-12);
  }
}

TEST_F(EngineTest, ExplanationForUnrelatedAuthorIsEmpty) {
  Shared& s = shared();
  // An author with no retrieved papers gets zero evidence.
  const Query& q = s.queries.queries[1];
  const auto papers = s.engine->RetrievePapers(q.text, 60);
  std::set<NodeId> retrieved_authors;
  for (NodeId p : papers) {
    for (NodeId a : s.dataset.graph.Neighbors(p, s.dataset.ids.write)) {
      retrieved_authors.insert(a);
    }
  }
  NodeId outsider = kInvalidNode;
  for (NodeId a : s.dataset.Authors()) {
    if (!retrieved_authors.count(a)) {
      outsider = a;
      break;
    }
  }
  ASSERT_NE(outsider, kInvalidNode);
  const ExpertExplanation explanation =
      ExplainExpert(*s.engine, q.text, outsider);
  EXPECT_TRUE(explanation.evidence.empty());
  EXPECT_DOUBLE_EQ(explanation.total_score, 0.0);
}

TEST_F(EngineTest, ExpertProfileCountsMatchGraph) {
  Shared& s = shared();
  const NodeId author = s.dataset.Authors()[3];
  const ExpertProfile profile = BuildExpertProfile(s.dataset, author);
  EXPECT_EQ(profile.num_papers,
            s.dataset.graph.Degree(author, s.dataset.ids.write));
  size_t topic_total = 0;
  for (const auto& [topic, count] : profile.topics) {
    EXPECT_EQ(s.dataset.graph.TypeOf(topic), s.dataset.ids.topic);
    topic_total += count;
  }
  // One mention per paper in the synthetic data.
  EXPECT_EQ(topic_total, profile.num_papers);
  EXPECT_LE(profile.num_venues, profile.num_papers);
}

TEST_F(EngineTest, WithoutCoreStillBuilds) {
  Shared& s = shared();
  EngineConfig config = Shared::SmallConfig();
  config.use_kpcore = false;
  config.seed_fraction = 0.1;
  EngineBuildReport report;
  auto engine = ExpertFindingEngine::Build(&s.dataset, &s.corpus, config,
                                           &s.tokens, &report);
  ASSERT_TRUE(engine.ok());
  EXPECT_GT(report.sampling.triples.size(), 0u);
  EXPECT_GT((*engine)->FindExperts(s.queries.queries[0].text, 5).size(), 0u);
}

}  // namespace
}  // namespace kpef
