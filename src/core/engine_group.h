// EngineGroup: sharded, hot-swappable serving facade over
// ExpertFindingEngine (DESIGN.md §14).
//
// Sharding: the paper corpus is partitioned round-robin over N shards
// (global row r lives in shard r % N), each shard carrying its own
// PG-Index (or brute-force row block). Each query of a batch runs in its
// own pool task (ExpertFindingEngine::FindExpertsBatch): it encodes
// once, searches every shard in turn, and merges the per-shard neighbor
// lists by (distance, global row) into the global top-m *before* ranking —
// the expert ranking then sees exactly the retrieval a single engine
// would have produced, so the sharded top-n is bit-identical to the
// single-engine path (equivalence contract; proof sketch in DESIGN.md
// §14).
//
// Hot swap: each artifact load produces an immutable Generation behind
// a std::shared_ptr<const Generation>. Queries snapshot the pointer for
// the duration of one batch; Reload() builds the next generation on the
// calling thread and publishes it with one pointer store. In-flight
// batches drain on the old generation, which is destroyed when the last
// snapshot releases — RCU semantics with shared_ptr as the grace
// period, no reader-side locks beyond one mutex-guarded pointer copy.

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
    /// depth, rerank factor, ...). use_pg_index selects
    /// per-shard PG-Indexes vs per-shard brute-force scans.
    EngineConfig engine;
    /// Corpus partitions (>= 1). One shard serves straight through the
    /// loaded engine; N > 1 rebuilds per-shard indexes at load time.
    size_t num_shards = 1;
  };

  /// One corpus partition of a generation. In PG mode the index owns
  /// the shard's rows; in brute mode the embedding block does.
  struct Shard {
    /// rows[local] = global paper row (strictly increasing).
    std::vector<int32_t> rows;
    Matrix embeddings;
    std::unique_ptr<PGIndex> index;
  };

  /// An immutable, atomically published artifact load. Public so tests
  /// can hold snapshots and assert drain behavior (weak_ptr expiry).
  struct Generation {
    uint64_t id = 0;
    std::string artifact_dir;
    double load_seconds = 0.0;
    /// Streaming-ingest generations own deep copies of the grown
    /// dataset/corpus (a reload from disk serves the base ones via the
    /// group's pointers instead and these stay null). Declared before
    /// `engine`, which holds raw pointers into them, so destruction
    /// order (reverse declaration) tears the engine down first.
    std::shared_ptr<const Dataset> owned_dataset;
    std::shared_ptr<const Corpus> owned_corpus;
    /// The loaded engine: encoder + embeddings + (for num_shards == 1)
    /// the persisted index. Sharded generations route retrieval through
    /// `shards` instead via the engine's BatchSearchFn seam.
    std::unique_ptr<ExpertFindingEngine> engine;
    std::vector<Shard> shards;  // empty when num_shards == 1
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
  /// holding deep copies of its staging dataset/corpus plus an engine
  /// over them, then swaps it in here). Assigns the next generation id
  /// (written into generation->id) under the same serialization as
  /// Reload and returns it. Restricted to unsharded groups — ingest
  /// appends rows, and re-sharding per batch would defeat the point.
  StatusOr<uint64_t> PublishExternal(std::shared_ptr<Generation> generation);

  /// Same contract as ExpertFindingEngine::FindExpertsBatch, answered
  /// by the current generation (snapshotted once per call). Sharded
  /// generations return bit-identical results to a single engine over
  /// the same corpus when the per-shard retrieval is exact (brute mode,
  /// or an exhaustive-ef unquantized index). `answered`, when non-null,
  /// receives that generation, so the caller can keep reading the data
  /// that scored the batch (e.g. expert names) after a newer publish.
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
  /// shard count, artifact dir, and per-generation query tally.
  EngineInfo Info() const;

  /// Exports the generation gauges (serve.generation, per-generation
  /// request/latency) to the metrics registry; call at scrape time.
  void SampleMetrics() const;

  uint64_t generation() const { return Snapshot()->id; }
  size_t num_shards() const { return options_.num_shards; }
  const Dataset& dataset() const { return *dataset_; }

 private:
  EngineGroup(const Dataset* dataset, const Corpus* corpus, Options options)
      : dataset_(dataset), corpus_(corpus), options_(std::move(options)) {}

  /// Loads + shards one generation (does not publish).
  StatusOr<std::shared_ptr<const Generation>> BuildGeneration(
      const std::string& dir, uint64_t id) const;

  void Publish(std::shared_ptr<const Generation> generation);

  const Dataset* dataset_;
  const Corpus* corpus_;
  const Options options_;

  /// Serializes loaders (a reload is expensive; overlapping ones would
  /// race on the generation counter and thrash memory).
  std::mutex reload_mutex_;
  std::atomic<uint64_t> next_generation_{1};

  /// Guards only the pointer copy; readers hold it for nanoseconds.
  mutable std::mutex current_mutex_;
  std::shared_ptr<const Generation> current_;
};

}  // namespace kpef

#endif  // KPEF_CORE_ENGINE_GROUP_H_
