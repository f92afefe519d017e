#include "core/engine_group.h"

#include <algorithm>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "ann/brute_force.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"

namespace kpef {

namespace {

/// Scatter one encoded query across the generation's shards and merge
/// the per-shard neighbors into the global top-m by (distance, global
/// row). Exactness: each shard returns its local top-m under the same
/// distance kernel on bit-identical rows, and the global top-m is a
/// subset of the union of shard-local top-m lists, so sorting the union
/// by Neighbor's (distance, id) order and truncating reproduces the
/// single-engine result exactly whenever the per-shard retrieval is
/// exact. Stats sum across the shards, which run one after another.
std::vector<Neighbor> ScatterSearch(const EngineGroup::Generation& gen,
                                    std::span<const float> query, size_t m,
                                    size_t ef, PGIndex::SearchStats* stats) {
  std::vector<Neighbor> merged;
  merged.reserve(gen.shards.size() * m);
  PGIndex::SearchStats total;
  for (const EngineGroup::Shard& shard : gen.shards) {
    PGIndex::SearchStats st;
    std::vector<Neighbor> found;
    if (shard.index) {
      found = shard.index->Search(query, m, ef, &st);
    } else {
      found = BruteForceSearch(shard.embeddings, query, m);
      st.distance_computations = shard.embeddings.rows();
    }
    total.distance_computations += st.distance_computations;
    total.sq8_distance_computations += st.sq8_distance_computations;
    total.rerank_candidates += st.rerank_candidates;
    total.hops += st.hops;
    total.search_ms += st.search_ms;
    for (const Neighbor& nb : found) {
      merged.push_back(Neighbor{shard.rows[nb.id], nb.distance});
    }
  }
  std::sort(merged.begin(), merged.end());
  if (merged.size() > m) merged.resize(m);
  *stats = total;
  return merged;
}

}  // namespace

StatusOr<std::unique_ptr<EngineGroup>> EngineGroup::Load(
    const Dataset* dataset, const Corpus* corpus, Options options,
    const std::string& dir) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  auto group = std::unique_ptr<EngineGroup>(
      new EngineGroup(dataset, corpus, std::move(options)));
  KPEF_ASSIGN_OR_RETURN(
      std::shared_ptr<const Generation> generation,
      group->BuildGeneration(dir, group->next_generation_.fetch_add(1) ));
  group->Publish(std::move(generation));
  return group;
}

StatusOr<std::shared_ptr<const EngineGroup::Generation>>
EngineGroup::BuildGeneration(const std::string& dir, uint64_t id) const {
  Timer timer;
  auto generation = std::make_shared<Generation>();
  generation->id = id;
  generation->artifact_dir = dir;

  // A sharded generation never loads the persisted full-corpus index:
  // the engine carries encoder + embeddings + ranking config, and the
  // retrieval runs through the per-shard indexes built below.
  EngineConfig inner = options_.engine;
  if (options_.num_shards > 1) inner.use_pg_index = false;
  KPEF_ASSIGN_OR_RETURN(
      generation->engine,
      ExpertFindingEngine::LoadFromArtifacts(dataset_, corpus_, inner, dir));

  if (options_.num_shards > 1) {
    const Matrix& embeddings = generation->engine->embeddings();
    const size_t n = embeddings.rows();
    const size_t dim = embeddings.cols();
    const size_t ns = std::min(options_.num_shards, std::max<size_t>(n, 1));
    generation->shards.resize(ns);
    for (size_t s = 0; s < ns; ++s) {
      Shard& shard = generation->shards[s];
      for (size_t r = s; r < n; r += ns) {
        shard.rows.push_back(static_cast<int32_t>(r));
      }
      shard.embeddings = Matrix(shard.rows.size(), dim);
      for (size_t local = 0; local < shard.rows.size(); ++local) {
        const auto src = embeddings.Row(shard.rows[local]);
        std::copy(src.begin(), src.end(),
                  shard.embeddings.Row(local).begin());
      }
      if (options_.engine.use_pg_index && !shard.rows.empty()) {
        shard.index = std::make_unique<PGIndex>(
            PGIndex::Build(shard.embeddings, options_.engine.pg_index));
        shard.index->set_rerank_factor(options_.engine.pg_index.rerank_factor);
        // The index owns its own copy of the rows; the staging block
        // only stays for brute-mode shards.
        shard.embeddings = Matrix();
      }
    }
  }
  generation->load_seconds = timer.ElapsedSeconds();
  return std::shared_ptr<const Generation>(std::move(generation));
}

void EngineGroup::Publish(std::shared_ptr<const Generation> generation) {
  std::lock_guard<std::mutex> lock(current_mutex_);
  current_ = std::move(generation);
}

std::shared_ptr<const EngineGroup::Generation> EngineGroup::Snapshot() const {
  std::lock_guard<std::mutex> lock(current_mutex_);
  return current_;
}

StatusOr<uint64_t> EngineGroup::PublishExternal(
    std::shared_ptr<Generation> generation) {
  if (generation == nullptr || generation->engine == nullptr) {
    return Status::InvalidArgument("external generation must carry an engine");
  }
  if (options_.num_shards > 1) {
    return Status::FailedPrecondition(
        "streaming ingest requires an unsharded group");
  }
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  const uint64_t id = next_generation_.fetch_add(1);
  generation->id = id;
  Publish(std::shared_ptr<const Generation>(std::move(generation)));
#ifdef __GLIBC__
  // Every ingest publish deep-copies the serving state and retires the
  // previous copy. glibc keeps such freed blocks cached in the
  // allocating thread's arena (its dynamic mmap threshold rises past
  // their size), so without a trim peak RSS grows with the publish
  // rate. Returning them here is cheap next to the copy itself.
  malloc_trim(0);
#endif
  return id;
}

Status EngineGroup::Reload(const std::string& dir) {
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  std::string target = dir;
  if (target.empty()) target = Snapshot()->artifact_dir;
  auto built = BuildGeneration(target, next_generation_.load());
  if (!built.ok()) return built.status();
  // The id is consumed only on success so a failed load never burns a
  // generation number (health checks count published generations).
  next_generation_.fetch_add(1);
  Publish(std::move(built).value());
  return Status::OK();
}

std::vector<std::vector<ExpertScore>> EngineGroup::FindExpertsBatch(
    const std::vector<std::string>& query_texts, size_t n,
    const BatchQueryOptions& options, std::vector<QueryStats>* stats,
    std::shared_ptr<const Generation>* answered) {
  // The snapshot keeps the generation (engine, shards, indexes) alive
  // for the whole call even if a reload publishes mid-batch.
  std::shared_ptr<const Generation> gen = Snapshot();
  Timer timer;
  std::vector<std::vector<ExpertScore>> results;
  if (gen->shards.empty()) {
    results = gen->engine->FindExpertsBatch(query_texts, n, options, stats);
  } else {
    BatchQueryOptions scatter = options;
    const Generation* raw = gen.get();
    scatter.search = [raw](std::span<const float> query, size_t m, size_t ef,
                           PGIndex::SearchStats* search_stats) {
      return ScatterSearch(*raw, query, m, ef, search_stats);
    };
    results = gen->engine->FindExpertsBatch(query_texts, n, scatter, stats);
  }
  gen->queries.fetch_add(query_texts.size(), std::memory_order_relaxed);
  gen->latency_us.fetch_add(
      static_cast<uint64_t>(timer.ElapsedMillis() * 1000.0),
      std::memory_order_relaxed);
  if (answered != nullptr) *answered = std::move(gen);
  return results;
}

std::vector<std::vector<ExpertScore>> EngineGroup::FindExpertsBatch(
    const std::vector<std::string>& query_texts, size_t n,
    std::vector<QueryStats>* stats, ThreadPool* pool) {
  BatchQueryOptions options;
  options.pool = pool;
  return FindExpertsBatch(query_texts, n, options, stats);
}

EngineInfo EngineGroup::Info() const {
  const std::shared_ptr<const Generation> gen = Snapshot();
  EngineInfo info = gen->engine->Info();
  info.generation = gen->id;
  info.num_shards = std::max<size_t>(1, gen->shards.size());
  info.artifact_dir = gen->artifact_dir;
  info.generation_queries = gen->queries.load(std::memory_order_relaxed);
  if (!gen->shards.empty()) {
    info.has_index = gen->shards.front().index != nullptr;
    info.quantized_index =
        info.has_index && gen->shards.front().index->quantized();
  }
  return info;
}

void EngineGroup::SampleMetrics() const {
  const std::shared_ptr<const Generation> gen = Snapshot();
  const uint64_t queries = gen->queries.load(std::memory_order_relaxed);
  const uint64_t latency_us = gen->latency_us.load(std::memory_order_relaxed);
  KPEF_GAUGE_SET(obs::kServeGeneration, static_cast<double>(gen->id));
  KPEF_GAUGE_SET(obs::kServeShards,
                 static_cast<double>(std::max<size_t>(1, gen->shards.size())));
  KPEF_GAUGE_SET(obs::kServeGenerationQueries, static_cast<double>(queries));
  KPEF_GAUGE_SET(obs::kServeGenerationLatencyMsMean,
                 queries == 0 ? 0.0
                              : latency_us / 1000.0 /
                                    static_cast<double>(queries));
  KPEF_GAUGE_SET(obs::kServeGenerationLoadSeconds, gen->load_seconds);
}

}  // namespace kpef
