#include "core/engine.h"

#include <algorithm>

#include "ann/brute_force.h"
#include "embed/model_io.h"
#include "common/build_info.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "metapath/meta_path.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"
#include "ranking/top_n_finder.h"

namespace kpef {

namespace {

// True when query q must skip its remaining stages: its own deadline
// (BatchQueryOptions::deadlines) passed.
bool Stopped(const BatchQueryOptions& options, size_t q) {
  return !options.deadlines.empty() &&
         std::chrono::steady_clock::now() >= options.deadlines[q];
}

// Query q's request-trace key (0 = untraced); its task installs it as
// the thread's context so its spans land in the right request.
uint64_t TraceKey(const BatchQueryOptions& options, size_t q) {
  return q < options.trace_keys.size() ? options.trace_keys[q] : 0;
}

}  // namespace

StatusOr<std::unique_ptr<ExpertFindingEngine>> ExpertFindingEngine::Build(
    const Dataset* dataset, const Corpus* corpus, const EngineConfig& config,
    const Matrix* pretrained_tokens, EngineBuildReport* report) {
  KPEF_TRACE_SPAN("engine.build");
  Timer total_timer;
  EngineBuildReport local_report;
  if (config.meta_paths.empty()) {
    return Status::InvalidArgument("at least one meta-path is required");
  }
  std::vector<MetaPath> paths;
  for (const std::string& text : config.meta_paths) {
    KPEF_ASSIGN_OR_RETURN(MetaPath path,
                          MetaPath::Parse(dataset->graph.schema(), text));
    if (path.SourceType() != dataset->ids.paper ||
        path.TargetType() != dataset->ids.paper) {
      return Status::InvalidArgument("meta-path " + text +
                                     " must connect papers");
    }
    paths.push_back(std::move(path));
  }

  auto engine = std::unique_ptr<ExpertFindingEngine>(
      new ExpertFindingEngine(dataset, corpus, config));

  // --- Pre-trained encoder (Θ_B).
  EncoderConfig encoder_config = config.encoder;
  Matrix tokens;
  {
    KPEF_TRACE_SPAN("engine.pretrain");
    ScopedTimer pretrain_timer(&local_report.pretrain_seconds);
    if (pretrained_tokens != nullptr) {
      tokens = *pretrained_tokens;
      encoder_config.dim = tokens.cols();
    } else {
      PretrainConfig pretrain = config.pretrain;
      pretrain.dim = encoder_config.dim;
      tokens = PretrainTokenEmbeddings(*corpus, pretrain).token_embeddings;
    }
  }
  if (config.use_weighted_pooling) {
    encoder_config.pooling = Pooling::kWeightedMean;
  }
  auto encoder = std::make_shared<DocumentEncoder>(
      corpus->vocabulary().size(), encoder_config);
  encoder->SetTokenEmbeddings(tokens);
  if (config.use_weighted_pooling) {
    const Vocabulary& vocab = corpus->vocabulary();
    const double n_docs =
        std::max<size_t>(1, corpus->NumDocuments());
    std::vector<float> weights(vocab.size());
    for (size_t t = 0; t < vocab.size(); ++t) {
      const double p =
          vocab.DocumentFrequency(static_cast<TokenId>(t)) / n_docs;
      weights[t] = static_cast<float>(config.sif_a / (config.sif_a + p));
    }
    encoder->SetTokenWeights(std::move(weights));
  }

  // --- (k, P)-core based training data (§III-A/B).
  TrainingDataGenerator generator(dataset->graph, paths, dataset->ids.paper);
  SamplingConfig sampling;
  sampling.seed_fraction = config.seed_fraction;
  sampling.k = config.k;
  sampling.use_core = config.use_kpcore;
  sampling.strategy = config.negative_strategy;
  sampling.negatives_per_positive = config.negatives_per_positive;
  sampling.near_fraction = config.near_fraction;
  sampling.max_positives_per_seed = config.max_positives_per_seed;
  sampling.core_options = config.core_options;
  sampling.rng_seed = config.seed;
  {
    KPEF_TRACE_SPAN("engine.sampling");
    local_report.sampling = generator.Generate(sampling);
  }

  // --- Triplet fine-tuning (§III-C).
  TrainerConfig trainer_config = config.trainer;
  trainer_config.seed = config.seed + 1;
  TripletTrainer trainer(encoder.get(), corpus);
  {
    KPEF_TRACE_SPAN("engine.training");
    local_report.training =
        trainer.Train(local_report.sampling.triples, trainer_config);
  }

  // --- Paper embeddings E.
  {
    KPEF_TRACE_SPAN("engine.encode_corpus");
    ScopedTimer embed_timer(&local_report.embed_seconds);
    engine->embeddings_ = encoder->EncodeCorpus(*corpus);
    engine->embeddings_.ShareRowsOnCopy();
  }
  engine->encoder_ = std::move(encoder);

  // --- PG-Index (§IV-A).
  if (config.use_pg_index) {
    engine->index_ = std::make_unique<PGIndex>(PGIndex::Build(
        engine->embeddings_, config.pg_index, &local_report.index));
  }
  local_report.total_seconds = total_timer.ElapsedSeconds();
  KPEF_COUNTER_ADD(obs::kEngineBuildsTotal, 1);
  if (report) *report = local_report;
  return engine;
}

Status ExpertFindingEngine::SaveArtifacts(const std::string& dir) const {
  KPEF_RETURN_IF_ERROR(SaveEncoder(*encoder_, dir + "/encoder.bin"));
  KPEF_RETURN_IF_ERROR(SaveMatrix(embeddings_, dir + "/embeddings.bin"));
  if (index_) {
    KPEF_RETURN_IF_ERROR(index_->Save(dir + "/pgindex.bin"));
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<ExpertFindingEngine>>
ExpertFindingEngine::LoadFromArtifacts(const Dataset* dataset,
                                       const Corpus* corpus,
                                       const EngineConfig& config,
                                       const std::string& dir) {
  KPEF_ASSIGN_OR_RETURN(DocumentEncoder encoder,
                        LoadEncoder(dir + "/encoder.bin"));
  KPEF_ASSIGN_OR_RETURN(Matrix embeddings, LoadMatrix(dir + "/embeddings.bin"));
  std::unique_ptr<PGIndex> index;
  if (config.use_pg_index) {
    KPEF_ASSIGN_OR_RETURN(PGIndex loaded, PGIndex::Load(dir + "/pgindex.bin"));
    index = std::make_unique<PGIndex>(std::move(loaded));
  }
  return FromParts(dataset, corpus, config, std::move(encoder),
                   std::move(embeddings), std::move(index), dir);
}

StatusOr<std::unique_ptr<ExpertFindingEngine>> ExpertFindingEngine::FromParts(
    const Dataset* dataset, const Corpus* corpus, const EngineConfig& config,
    DocumentEncoder encoder, Matrix embeddings, std::unique_ptr<PGIndex> index,
    std::string artifact_dir) {
  return FromParts(dataset, corpus, config,
                   std::make_shared<const DocumentEncoder>(std::move(encoder)),
                   std::move(embeddings), std::move(index),
                   std::move(artifact_dir));
}

StatusOr<std::unique_ptr<ExpertFindingEngine>> ExpertFindingEngine::FromParts(
    const Dataset* dataset, const Corpus* corpus, const EngineConfig& config,
    std::shared_ptr<const DocumentEncoder> shared_encoder, Matrix embeddings,
    std::unique_ptr<PGIndex> index, std::string artifact_dir) {
  const DocumentEncoder& encoder = *shared_encoder;
  auto engine = std::unique_ptr<ExpertFindingEngine>(
      new ExpertFindingEngine(dataset, corpus, config));
  if (encoder.vocab_size() != corpus->vocabulary().size()) {
    return Status::FailedPrecondition(
        "encoder vocabulary does not match the corpus");
  }
  if (embeddings.rows() != corpus->NumDocuments()) {
    return Status::FailedPrecondition(
        "embedding count does not match the corpus");
  }
  // Cross-check every artifact's dimensionality: a mismatched set (e.g.
  // an encoder.bin from a different build next to stale embeddings)
  // would otherwise load fine and serve garbage distances.
  if (encoder.dim() != embeddings.cols()) {
    return Status::FailedPrecondition(
        "encoder dimension does not match the embeddings");
  }
  if (index != nullptr) {
    if (index->NumPoints() != embeddings.rows()) {
      return Status::FailedPrecondition(
          "index size does not match the embeddings");
    }
    if (index->points().cols() != embeddings.cols()) {
      return Status::FailedPrecondition(
          "index dimension does not match the embeddings");
    }
  }
  engine->encoder_ = std::move(shared_encoder);
  engine->embeddings_ = std::move(embeddings);
  engine->embeddings_.ShareRowsOnCopy();
  engine->index_ = std::move(index);
  engine->artifact_dir_ = std::move(artifact_dir);
  return engine;
}

EngineInfo ExpertFindingEngine::Info() const {
  EngineInfo info;
  info.display_name = config_.display_name;
  info.num_papers = dataset_->Papers().size();
  info.num_experts = dataset_->Authors().size();
  info.embedding_dim = embeddings_.cols();
  info.has_index = index_ != nullptr;
  info.top_m = config_.top_m;
  info.git_hash = BuildGitHash();
  info.build_type = BuildType();
  info.artifact_dir = artifact_dir_;
  return info;
}

std::vector<NodeId> ExpertFindingEngine::RetrievePapers(
    const std::string& query_text, size_t m, QueryStats* stats) {
  KPEF_TRACE_SPAN("engine.retrieve_papers");
  QueryStats local;
  const std::vector<Neighbor> neighbors =
      *RetrieveQuery(query_text, m, BatchQueryOptions(), 0, &local);
  const auto& papers = dataset_->Papers();
  std::vector<NodeId> result;
  result.reserve(neighbors.size());
  for (const Neighbor& nb : neighbors) result.push_back(papers[nb.id]);
  if (stats) *stats = local;
  return result;
}

std::vector<ExpertScore> ExpertFindingEngine::FindExpertsWithStats(
    const std::string& query_text, size_t n, QueryStats* stats) {
  KPEF_TRACE_SPAN("engine.find_experts");
  std::vector<QueryStats> batch_stats;
  std::vector<std::vector<ExpertScore>> experts =
      FindExpertsBatch({query_text}, n, &batch_stats);
  if (stats) *stats = batch_stats[0];
  return std::move(experts[0]);
}

std::vector<ExpertScore> ExpertFindingEngine::FindExperts(
    const std::string& query_text, size_t n) {
  return FindExpertsWithStats(query_text, n, nullptr);
}

std::vector<std::vector<ExpertScore>> ExpertFindingEngine::FindExpertsBatch(
    const std::vector<std::string>& query_texts, size_t n,
    std::vector<QueryStats>* stats, ThreadPool* pool) {
  BatchQueryOptions options;
  options.pool = pool;
  return FindExpertsBatch(query_texts, n, options, stats);
}

std::optional<std::vector<Neighbor>> ExpertFindingEngine::RetrieveQuery(
    const std::string& query_text, size_t m, const BatchQueryOptions& options,
    size_t q, QueryStats* stats) const {
  if (Stopped(options, q)) return std::nullopt;
  std::vector<float> query;
  {
    KPEF_TRACE_SPAN("engine.encode");
    Timer encode_timer;
    query = encoder_->Encode(corpus_->EncodeQuery(query_text));
    // Encoding counts toward retrieval time.
    stats->encode_ms = encode_timer.ElapsedMillis();
    stats->retrieval_ms = stats->encode_ms;
  }
  if (Stopped(options, q)) return std::nullopt;
  KPEF_TRACE_SPAN("engine.search");
  Timer search_timer;
  const size_t ef = config_.search_ef == 0 ? m : config_.search_ef;
  PGIndex::SearchStats search_stats;
  std::vector<Neighbor> neighbors;
  if (index_) {
    neighbors = index_->Search(query, m, ef, &search_stats);
  } else {
    neighbors = BruteForceSearch(embeddings_, query, m);
    search_stats.distance_computations = embeddings_.rows();
  }
  stats->distance_computations = search_stats.distance_computations;
  stats->retrieval_ms += search_timer.ElapsedMillis();
  return neighbors;
}

std::vector<std::vector<ExpertScore>> ExpertFindingEngine::FindExpertsBatch(
    const std::vector<std::string>& query_texts, size_t n,
    const BatchQueryOptions& options, std::vector<QueryStats>* stats) {
  KPEF_TRACE_SPAN("engine.find_experts_batch");
  Timer batch_timer;
  const size_t batch = query_texts.size();
  std::vector<std::vector<ExpertScore>> results(batch);
  // A query stays flagged unless its task finishes every stage.
  std::vector<QueryStats> local(batch, QueryStats{.deadline_exceeded = true});
  if (batch == 0) {
    if (stats) stats->clear();
    return results;
  }
  ThreadPool& workers =
      options.pool != nullptr ? *options.pool : ThreadPool::Default();
  KPEF_CHECK(options.deadlines.empty() || options.deadlines.size() == batch)
      << "BatchQueryOptions::deadlines must match the query list";

  // One task per query: encode -> search -> rank. Each stage first checks
  // the query's own deadline, so an expired query stops costing work
  // without waiting on, or holding back, its batchmates. Ranking reads
  // the shared (read-only) graph.
  const auto& papers = dataset_->Papers();
  ParallelFor(workers, batch, [&](size_t q) {
    obs::ScopedTraceContext trace_scope(TraceKey(options, q));
    Timer query_timer;
    const std::optional<std::vector<Neighbor>> neighbors =
        RetrieveQuery(query_texts[q], config_.top_m, options, q, &local[q]);
    if (neighbors && !Stopped(options, q)) {
      KPEF_TRACE_SPAN("engine.ranking");
      Timer ranking_timer;
      std::vector<NodeId> top_papers;
      top_papers.reserve(neighbors->size());
      for (const Neighbor& nb : *neighbors) {
        top_papers.push_back(papers[nb.id]);
      }
      TopNStats top_stats;
      results[q] = RankExperts(dataset_->graph, dataset_->ids.write,
                               top_papers, config_.contribution_weighting, n,
                               &top_stats);
      local[q].ranking_ms = ranking_timer.ElapsedMillis();
      local[q].ranking_entries_accessed = top_stats.entries_accessed;
      local[q].deadline_exceeded = false;
    }
    KPEF_HISTOGRAM_OBSERVE(obs::kEngineQueryLatencyMs,
                           query_timer.ElapsedMillis());
  });

  const uint64_t exceeded =
      std::count_if(local.begin(), local.end(),
                    [](const QueryStats& s) { return s.deadline_exceeded; });
  if (exceeded > 0) {
    KPEF_COUNTER_ADD(obs::kEngineQueriesDeadlineExceeded, exceeded);
  }
  KPEF_COUNTER_ADD(obs::kEngineQueriesTotal, batch);
  KPEF_COUNTER_ADD(obs::kEngineBatchQueriesTotal, 1);
  KPEF_HISTOGRAM_OBSERVE(obs::kEngineBatchSize, batch);
  KPEF_HISTOGRAM_OBSERVE(obs::kEngineBatchLatencyMs,
                         batch_timer.ElapsedMillis());
  if (stats) *stats = std::move(local);
  return results;
}

}  // namespace kpef
