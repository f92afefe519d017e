// ExpertFindingEngine: the paper's full pipeline behind one facade.
//
// Offline (Build): meta-path (k, P)-core communities -> triple sampling ->
// triplet fine-tuning of the document encoder -> paper embeddings E ->
// PG-Index. Online (FindExperts): encode query -> top-m papers via
// PG-Index (or brute force) -> top-n experts by a one-pass full scan
// (RankExperts). TA (ThresholdTopN) returns the same answer but never
// stops early at serving m, so it stays off the engine path (DESIGN.md).

#ifndef KPEF_CORE_ENGINE_H_
#define KPEF_CORE_ENGINE_H_

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ann/pg_index.h"
#include "common/status.h"
#include "data/dataset.h"
#include "embed/document_encoder.h"
#include "embed/pretrain.h"
#include "embed/trainer.h"
#include "eval/retrieval_model.h"
#include "ranking/expert_score.h"
#include "sampling/training_data.h"
#include "text/corpus.h"

namespace kpef {

/// Full pipeline configuration; defaults follow §VI-A scaled to the
/// synthetic corpora (top-m is proportionally smaller because the corpora
/// are ~500x smaller than the paper's).
struct EngineConfig {
  /// Meta-paths between papers; several entries activate the §V
  /// intersection. Default: the paper's best setting P-A-P ∩ P-T-P ("AT").
  std::vector<std::string> meta_paths = {"P-A-P", "P-T-P"};
  int32_t k = 4;

  // --- Sampling (§III-B).
  double seed_fraction = 0.3;
  bool use_kpcore = true;  // Table IV row 1 when false
  /// The paper defaults to kNear; with our from-scratch encoder the
  /// hard-only near negatives collapse the global geometry (documented in
  /// DESIGN.md §5 and measured by bench_negative_sampling), so the engine
  /// defaults to random negatives.
  NegativeStrategy negative_strategy = NegativeStrategy::kRandom;
  size_t negatives_per_positive = 3;
  /// See SamplingConfig::near_fraction.
  double near_fraction = 1.0;
  size_t max_positives_per_seed = 128;
  KPCoreSearchOptions core_options;

  // --- Embedding (§III-C).
  PretrainConfig pretrain;
  EncoderConfig encoder;
  /// Use frequency-weighted (SIF) pooling instead of the plain mean —
  /// our analog of a contextual encoder's attention; downweights
  /// background words. Overrides encoder.pooling when true.
  bool use_weighted_pooling = true;
  /// SIF weight parameter: w(t) = sif_a / (sif_a + p(t)).
  double sif_a = 1e-3;
  TrainerConfig trainer;

  // --- Retrieval (§IV).
  /// Author-contribution weighting of Eq. 4 (Zipf per the paper, or
  /// uniform = reciprocal-rank scoring for ablation).
  ContributionWeighting contribution_weighting = ContributionWeighting::kZipf;
  PGIndexConfig pg_index;
  size_t top_m = 400;
  /// Candidate-pool size of the greedy search (0 = top_m).
  size_t search_ef = 0;
  bool use_pg_index = true;  // Ours-3/4 of Figure 7 when false
  /// Unread: the engine always ranks by one-pass full scan. Kept only so
  /// servebench, which sets it, still builds; delete it with servebench's
  /// next change.
  bool use_ta = false;

  uint64_t seed = 1234;
  /// Display name in result tables.
  std::string display_name = "Ours";
};

/// Retrieval depth m (EngineConfig::top_m) for a corpus of `num_papers`
/// papers. `kpef_cli build`, `kpef_cli query` and `kpef_serve` all use it,
/// so loaded artifacts serve with the depth they were built for.
inline size_t TopMForCorpus(size_t num_papers) {
  return std::max<size_t>(50, num_papers / 10);
}

/// Offline build diagnostics, one per phase.
struct EngineBuildReport {
  double pretrain_seconds = 0.0;
  SamplingResult sampling;
  TrainStats training;
  PGIndexBuildStats index;
  double embed_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Lightweight serving-time summary of a built/loaded engine — what a
/// health endpoint or a serving binary's startup banner needs, without
/// exposing the artifact objects themselves.
struct EngineInfo {
  std::string display_name;
  size_t num_papers = 0;
  size_t num_experts = 0;
  size_t embedding_dim = 0;
  bool has_index = false;
  /// The index traverses SQ8 codes with fp32 rerank (PGIndexConfig
  /// quantize / the loaded artifact's codes).
  bool quantized_index = false;
  size_t top_m = 0;
  /// Build stamp (common/build_info.h): short git hash and build type.
  std::string git_hash;
  std::string build_type;
  /// Artifact generation serving queries (EngineGroup hot-swap; a bare
  /// engine is generation 1 of itself). Monotonic per process.
  uint64_t generation = 1;
  /// Corpus partitions the retrieval scatters over (1 = unsharded).
  size_t num_shards = 1;
  /// Directory the serving generation's artifacts were loaded from
  /// (empty for a freshly built, never-persisted engine).
  std::string artifact_dir;
  /// Queries answered by the serving generation since it was published.
  uint64_t generation_queries = 0;
};

/// Per-query online statistics. Both timing fields are the query's own
/// wall-clock times (its task runs every stage), so they are comparable.
struct QueryStats {
  double retrieval_ms = 0.0;
  /// Query-encoding share of retrieval_ms (retrieval_ms = encode +
  /// index/brute-force search).
  double encode_ms = 0.0;
  double ranking_ms = 0.0;
  /// All retrieval distance evaluations: SQ8 traversal + fp32 rerank on
  /// a quantized index, plain fp32 otherwise — comparable across modes.
  uint64_t distance_computations = 0;
  /// S(a, p) entries the one-pass ranking summed.
  size_t ranking_entries_accessed = 0;
  /// True when the query's own deadline (BatchQueryOptions::deadlines)
  /// passed before it completed; its result list is empty and the
  /// timing fields cover only the phases that ran.
  bool deadline_exceeded = false;
};

/// Replaces the engine's own retrieval (index or brute-force scan) in
/// FindExpertsBatch — the seam EngineGroup uses to scatter one query's
/// search across per-shard indexes while sharing the engine's encode,
/// deadline, and ranking stages. Receives the encoded query, the
/// retrieval depth `m` and the candidate-pool `ef`; must return the
/// query's top-m neighbors ascending by (distance, id), with ids
/// indexing the engine's paper rows, and fill `*stats` (non-null).
using BatchSearchFn = std::function<std::vector<Neighbor>(
    std::span<const float> query, size_t m, size_t ef,
    PGIndex::SearchStats* stats)>;

/// Per-call knobs for FindExpertsBatch beyond the query list itself.
struct BatchQueryOptions {
  /// Pool the batch fans out over (nullptr = ThreadPool::Default()).
  ThreadPool* pool = nullptr;
  /// Per-query absolute deadlines (time_point::max() = none for that
  /// slot). When non-empty, must match the query list's size. Checked
  /// before each of the query's stages: an expired query skips the rest
  /// and comes back empty with QueryStats::deadline_exceeded set, so one
  /// tight budget never keeps consuming engine time for a result nobody
  /// will read, and never holds back its batchmates.
  std::vector<std::chrono::steady_clock::time_point> deadlines;
  /// Per-query retrieval override for EngineGroup's shard scatter (see
  /// BatchSearchFn). Null = the engine's own index / brute-force search.
  BatchSearchFn search;
  /// Per-query request-trace keys (obs::Tracer::BeginTrace). When
  /// non-empty, must match the query list's size; query q's encode /
  /// search / ranking spans are recorded into trace_keys[q] (0 entries
  /// skip recording). Empty = no request tracing.
  std::vector<uint64_t> trace_keys;
};

class ExpertFindingEngine : public RetrievalModel {
 public:
  /// Builds the full offline pipeline. `pretrained_tokens`, when provided,
  /// skips GloVe pre-training (lets benches share one pre-training run
  /// across methods). The dataset and corpus must outlive the engine.
  static StatusOr<std::unique_ptr<ExpertFindingEngine>> Build(
      const Dataset* dataset, const Corpus* corpus, const EngineConfig& config,
      const Matrix* pretrained_tokens = nullptr,
      EngineBuildReport* report = nullptr);

  /// Persists the offline artifacts (encoder.bin, embeddings.bin and,
  /// when built with an index, pgindex.bin) under `dir` (must exist).
  Status SaveArtifacts(const std::string& dir) const;

  /// Reconstructs a serving engine from artifacts written by
  /// SaveArtifacts, skipping sampling and training entirely: reads
  /// encoder.bin, embeddings.bin and (when config.use_pg_index)
  /// pgindex.bin, then assembles them through FromParts. The dataset
  /// and corpus must be the ones the artifacts were built from.
  static StatusOr<std::unique_ptr<ExpertFindingEngine>> LoadFromArtifacts(
      const Dataset* dataset, const Corpus* corpus, const EngineConfig& config,
      const std::string& dir);

  /// Assembles a serving engine directly from in-memory parts — the
  /// streaming-ingest path, where the coordinator extends a loaded
  /// encoder/embedding/index set with appended rows and publishes the
  /// result as a new generation without touching disk. Cross-checks:
  /// encoder vocab == corpus vocab, embedding rows == corpus documents,
  /// encoder dim == embedding dim, index (when present) matching the
  /// embedding shape. The dataset and corpus must outlive the engine.
  static StatusOr<std::unique_ptr<ExpertFindingEngine>> FromParts(
      const Dataset* dataset, const Corpus* corpus, const EngineConfig& config,
      DocumentEncoder encoder, Matrix embeddings,
      std::unique_ptr<PGIndex> index, std::string artifact_dir = "");

  std::string name() const override { return config_.display_name; }

  std::vector<ExpertScore> FindExperts(const std::string& query_text,
                                       size_t n) override;

  /// FindExperts with per-phase timing (efficiency benches): a batch of
  /// one through FindExpertsBatch on ThreadPool::Default().
  std::vector<ExpertScore> FindExpertsWithStats(const std::string& query_text,
                                                size_t n, QueryStats* stats);

  /// Answers every query in one call: one pool task per query (nullptr =
  /// ThreadPool::Default()) encodes it, retrieves its top-m papers (one
  /// greedy PG-Index search, or a brute-force scan), and ranks them with
  /// RankExperts.
  /// result[q] does not depend on the batch it rides in; per-query stats
  /// land in `*stats` (resized to the batch).
  std::vector<std::vector<ExpertScore>> FindExpertsBatch(
      const std::vector<std::string>& query_texts, size_t n,
      std::vector<QueryStats>* stats = nullptr, ThreadPool* pool = nullptr);

  /// FindExpertsBatch with per-query deadlines (see BatchQueryOptions).
  /// Queries their deadline overtakes return empty with
  /// QueryStats::deadline_exceeded set; the rest are identical to an
  /// unbounded call.
  std::vector<std::vector<ExpertScore>> FindExpertsBatch(
      const std::vector<std::string>& query_texts, size_t n,
      const BatchQueryOptions& options,
      std::vector<QueryStats>* stats = nullptr);

  /// Top-m semantically similar papers for a query (§IV-B), best first —
  /// the retrieval half of FindExperts (the same per-query encode +
  /// search FindExpertsBatch runs), for callers that rank the papers
  /// themselves (explain, Figure 7's TA variants).
  std::vector<NodeId> RetrievePapers(const std::string& query_text, size_t m,
                                     QueryStats* stats = nullptr);

  /// Adjusts the retrieval depth m without rebuilding (Figure 8(c)).
  void set_top_m(size_t m) { config_.top_m = m; }

  /// Serving-time summary (dimensions, corpus sizes, active retrieval
  /// paths) for health endpoints and startup logs.
  EngineInfo Info() const;

  const Dataset& dataset() const { return *dataset_; }
  const Corpus& corpus() const { return *corpus_; }
  const Matrix& embeddings() const { return embeddings_; }
  const DocumentEncoder& encoder() const { return *encoder_; }
  const PGIndex* index() const { return index_.get(); }
  const EngineConfig& config() const { return config_; }

 private:
  ExpertFindingEngine(const Dataset* dataset, const Corpus* corpus,
                      EngineConfig config)
      : dataset_(dataset), corpus_(corpus), config_(std::move(config)) {}

  /// Encode + search for query `q` of a batch, shared by
  /// FindExpertsBatch's per-query task and RetrievePapers: its top-m
  /// paper rows, ascending by (distance, row), through options.search or
  /// the engine's own index / brute-force scan. Checks q's slot deadline
  /// before each stage and returns nullopt once it passed. Fills the
  /// timing and distance fields of `*stats`.
  std::optional<std::vector<Neighbor>> RetrieveQuery(
      const std::string& query_text, size_t m,
      const BatchQueryOptions& options, size_t q, QueryStats* stats) const;

  const Dataset* dataset_;
  const Corpus* corpus_;
  EngineConfig config_;
  std::unique_ptr<DocumentEncoder> encoder_;
  Matrix embeddings_;
  std::unique_ptr<PGIndex> index_;
  /// Set by LoadFromArtifacts; empty for a freshly built engine.
  std::string artifact_dir_;
};

}  // namespace kpef

#endif  // KPEF_CORE_ENGINE_H_
