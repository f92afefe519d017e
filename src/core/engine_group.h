// EngineGroup: hot-swappable serving facade over ExpertFindingEngine
// (DESIGN.md §14). Each generation serves one engine, and with it one
// PG-Index (or brute-force scan) of the whole corpus, as in the paper's
// online phase.
//
// Hot swap: each artifact load or ingest publish produces an immutable
// Generation behind a std::shared_ptr<const Generation>. Queries
// snapshot the pointer for the duration of one batch; Reload() builds
// the next generation on the calling thread, and every publish (Load,
// Reload, PublishExternal) ends in one private step that stamps the
// next id and stores the pointer. In-flight batches drain on the old
// generation, which is destroyed when the last snapshot releases — RCU
// semantics with shared_ptr as the grace period, no reader-side locks
// beyond one mutex-guarded pointer copy.

#ifndef KPEF_CORE_ENGINE_GROUP_H_
#define KPEF_CORE_ENGINE_GROUP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"

namespace kpef {

class EngineGroup {
 public:
  struct Options {
    /// Serving configuration applied to every generation (retrieval
    /// depth, pool size, ...). use_pg_index selects the persisted
    /// PG-Index vs a brute-force scan.
    EngineConfig engine;
    /// Unread: kept only so servebench, which sets it, still builds;
    /// delete it with servebench's next change. Any value serves the
    /// one index.
    size_t num_shards = 1;
  };

  /// An immutable, atomically published generation. Public so tests
  /// can hold snapshots and assert drain behavior (weak_ptr expiry).
  struct Generation {
    uint64_t id = 0;
    std::string artifact_dir;
    double load_seconds = 0.0;
    /// Streaming-ingest generations own snapshots of the grown
    /// dataset/corpus: copies that share every appended array's prefix
    /// with the coordinator's staging state and the base CSRs with the
    /// previous generation, so they cost O(batch), and that nothing
    /// writes to once published (a reload from disk serves the base ones
    /// via the group's pointers instead and these stay null). Declared
    /// before `engine`, which holds raw pointers into them, so
    /// destruction order (reverse declaration) tears the engine down
    /// first.
    std::shared_ptr<const Dataset> owned_dataset;
    std::shared_ptr<const Corpus> owned_corpus;
    /// The loaded engine: encoder + embeddings + the persisted index.
    std::unique_ptr<ExpertFindingEngine> engine;
    // Per-generation serving tallies (relaxed; exported as gauges).
    mutable std::atomic<uint64_t> queries{0};
    mutable std::atomic<uint64_t> latency_us{0};
  };

  /// Loads generation 1 from `dir` (artifacts written by SaveArtifacts /
  /// `kpef_cli build`). The dataset and corpus must be the ones the
  /// artifacts were built from and must outlive the group.
  static StatusOr<std::unique_ptr<EngineGroup>> Load(const Dataset* dataset,
                                                     const Corpus* corpus,
                                                     Options options,
                                                     const std::string& dir);

  /// Builds the next generation from `dir` ("" = the current
  /// generation's directory) and atomically publishes it; in-flight
  /// queries finish on the old generation. On failure the current
  /// generation keeps serving untouched. Concurrent Reload() calls are
  /// serialized; safe to call from any thread while queries run.
  Status Reload(const std::string& dir);

  /// Atomically publishes an externally assembled generation (the
  /// streaming-ingest path: the IngestCoordinator builds a Generation
  /// holding snapshots of its staging dataset/corpus plus an engine over
  /// them, then swaps it in here). Assigns the next generation id
  /// (written into generation->id) under the same serialization as
  /// Reload and returns it.
  StatusOr<uint64_t> PublishExternal(std::shared_ptr<Generation> generation);

  /// Same contract as ExpertFindingEngine::FindExpertsBatch, answered
  /// by the current generation's engine (snapshotted once per call), so
  /// the answers are bit-identical to that engine's. `answered`, when
  /// non-null, receives that generation, so the caller can keep reading
  /// the data that scored the batch (e.g. expert names) after a newer
  /// publish.
  std::vector<std::vector<ExpertScore>> FindExpertsBatch(
      const std::vector<std::string>& query_texts, size_t n,
      const BatchQueryOptions& options,
      std::vector<QueryStats>* stats = nullptr,
      std::shared_ptr<const Generation>* answered = nullptr);

  std::vector<std::vector<ExpertScore>> FindExpertsBatch(
      const std::vector<std::string>& query_texts, size_t n,
      std::vector<QueryStats>* stats = nullptr, ThreadPool* pool = nullptr);

  /// The current generation (never null after a successful Load).
  std::shared_ptr<const Generation> Snapshot() const;

  /// Serving summary of the current generation, including generation id,
  /// artifact dir, and per-generation query tally.
  EngineInfo Info() const;

  /// Exports the generation gauges (serve.generation, per-generation
  /// request/latency) to the metrics registry; call at scrape time.
  void SampleMetrics() const;

  uint64_t generation() const { return Snapshot()->id; }
  const Dataset& dataset() const { return *dataset_; }

 private:
  EngineGroup(const Dataset* dataset, const Corpus* corpus, Options options)
      : dataset_(dataset), corpus_(corpus), options_(std::move(options)) {}

  /// Loads one generation from `dir` (does not publish).
  StatusOr<std::shared_ptr<Generation>> LoadGeneration(
      const std::string& dir) const;

  /// The one publish step: stamps the next generation id into
  /// `generation`, makes it current and returns the id. The caller
  /// holds publish_mutex_.
  uint64_t PublishLocked(std::shared_ptr<Generation> generation);

  const Dataset* dataset_;
  const Corpus* corpus_;
  const Options options_;

  /// Serializes publishers (a reload is expensive; overlapping ones
  /// would thrash memory) and guards next_generation_, so ids are
  /// assigned only at publish and stay consecutive.
  std::mutex publish_mutex_;
  uint64_t next_generation_ = 1;

  /// Guards only the pointer copy; readers hold it for nanoseconds.
  mutable std::mutex current_mutex_;
  std::shared_ptr<const Generation> current_;
};

}  // namespace kpef

#endif  // KPEF_CORE_ENGINE_GROUP_H_
