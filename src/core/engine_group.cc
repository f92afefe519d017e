#include "core/engine_group.h"

#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"

namespace kpef {

StatusOr<std::unique_ptr<EngineGroup>> EngineGroup::Load(
    const Dataset* dataset, const Corpus* corpus, Options options,
    const std::string& dir) {
  auto group = std::unique_ptr<EngineGroup>(
      new EngineGroup(dataset, corpus, std::move(options)));
  KPEF_ASSIGN_OR_RETURN(std::shared_ptr<Generation> generation,
                        group->LoadGeneration(dir));
  std::lock_guard<std::mutex> lock(group->publish_mutex_);
  group->PublishLocked(std::move(generation));
  return group;
}

StatusOr<std::shared_ptr<EngineGroup::Generation>>
EngineGroup::LoadGeneration(const std::string& dir) const {
  Timer timer;
  auto generation = std::make_shared<Generation>();
  generation->artifact_dir = dir;
  KPEF_ASSIGN_OR_RETURN(generation->engine,
                        ExpertFindingEngine::LoadFromArtifacts(
                            dataset_, corpus_, options_.engine, dir));
  generation->load_seconds = timer.ElapsedSeconds();
  return generation;
}

uint64_t EngineGroup::PublishLocked(std::shared_ptr<Generation> generation) {
  const uint64_t id = next_generation_++;
  generation->id = id;
  std::lock_guard<std::mutex> lock(current_mutex_);
  current_ = std::move(generation);
  return id;
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
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return PublishLocked(std::move(generation));
}

Status EngineGroup::Reload(const std::string& dir) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  // A failed load returns before PublishLocked, so it never burns a
  // generation number (health checks count published generations).
  KPEF_ASSIGN_OR_RETURN(
      std::shared_ptr<Generation> generation,
      LoadGeneration(dir.empty() ? Snapshot()->artifact_dir : dir));
  PublishLocked(std::move(generation));
  return Status::OK();
}

std::vector<std::vector<ExpertScore>> EngineGroup::FindExpertsBatch(
    const std::vector<std::string>& query_texts, size_t n,
    const BatchQueryOptions& options, std::vector<QueryStats>* stats,
    std::shared_ptr<const Generation>* answered) {
  // The snapshot keeps the generation (engine, index) alive for the
  // whole call even if a reload publishes mid-batch.
  std::shared_ptr<const Generation> gen = Snapshot();
  Timer timer;
  std::vector<std::vector<ExpertScore>> results =
      gen->engine->FindExpertsBatch(query_texts, n, options, stats);
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
  info.artifact_dir = gen->artifact_dir;
  info.generation_queries = gen->queries.load(std::memory_order_relaxed);
  return info;
}

void EngineGroup::SampleMetrics() const {
  const std::shared_ptr<const Generation> gen = Snapshot();
  const uint64_t queries = gen->queries.load(std::memory_order_relaxed);
  const uint64_t latency_us = gen->latency_us.load(std::memory_order_relaxed);
  KPEF_GAUGE_SET(obs::kServeGeneration, static_cast<double>(gen->id));
  KPEF_GAUGE_SET(obs::kServeGenerationQueries, static_cast<double>(queries));
  KPEF_GAUGE_SET(obs::kServeGenerationLatencyMsMean,
                 queries == 0 ? 0.0
                              : latency_us / 1000.0 /
                                    static_cast<double>(queries));
  KPEF_GAUGE_SET(obs::kServeGenerationLoadSeconds, gen->load_seconds);
}

}  // namespace kpef
