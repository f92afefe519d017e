// IngestCoordinator: folds streaming ingest batches into live serving
// state (DESIGN.md §16).
//
// The coordinator owns a mutable *staging* copy of the base dataset,
// corpus, embeddings, and PG-Index. Applying a batch (after its WAL
// record is durable) appends to every layer serving reads, in lockstep:
//
//   graph — AppendNode/AppendEdge delta segments on the HeteroGraph
//   text  — Corpus::AddDocumentFrozen (vocabulary stays frozen)
//   embed — DocumentEncoder::Encode of the new doc -> Matrix row
//   ann   — PGIndex::InsertBatch local-join insertion (when indexed)
//
// and then publishes an immutable Generation (copies of the staging
// dataset/corpus/embeddings/index plus an ExpertFindingEngine::FromParts
// engine) through EngineGroup::PublishExternal. A publish costs
// O(batch), not O(corpus): the appended arrays are AppendStores whose
// copies share the prefix, and staging writes only past every length a
// generation reads; the encoder, the frozen vocabulary and the base
// CSRs are shared immutable; only the delta overlays, bounded by the
// merge budget, are copied (DESIGN.md §16). Nothing a generation reaches
// is written after it is published, so concurrent query traffic needs no
// locks (the RCU contract of DESIGN.md §14). When the graph and index
// delta overlays together cross the merge budget the coordinator
// compacts both back into flat CSRs before publishing; a compaction
// builds new CSRs and leaves the old ones to the generations that read
// them.
//
// (k,P)-cores and meta-path projections are offline training inputs
// (triple sampling, DESIGN.md §10); serving never reads them, so ingest
// does not maintain them.
//
// Determinism contract (asserted by ingest_test.cc): a drained snapshot
// is query-equivalent to a full offline assembly over the unioned graph
// — identical top-n on the brute-force path, scores within fp tolerance
// on the PG path.

#ifndef KPEF_INGEST_COORDINATOR_H_
#define KPEF_INGEST_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine_group.h"
#include "ingest/ingest_batch.h"
#include "ingest/wal.h"

namespace kpef {

struct IngestOptions {
  /// WAL file; created (with header) when absent, replayed when present.
  std::string wal_path;
  /// Pending delta edges (graph overlay + PG-Index overlay) that trigger
  /// a compaction before the next publish. 0 = compact every batch.
  size_t merge_pending_edge_budget = 3000;
  /// PG-Index insertion knobs (ignored on brute-force engines).
  PGIndex::InsertParams insert;
};

/// Monotonic ingest state, for /healthz and tests.
struct IngestStats {
  uint64_t records_applied = 0;
  uint64_t batches_applied = 0;
  uint64_t duplicates_skipped = 0;
  uint64_t replayed_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t pending_delta_edges = 0;
  uint64_t merges = 0;
  /// Generation id published by the most recent merge (0 = never).
  uint64_t last_merge_generation = 0;
  /// Generation id of the most recent publish (0 = base generation).
  uint64_t last_publish_generation = 0;
};

struct IngestApplyResult {
  size_t applied = 0;
  size_t duplicates = 0;
  bool merged = false;
  uint64_t generation = 0;
};

class IngestCoordinator {
 public:
  /// Builds the staging state from `group`'s current generation, opens
  /// (or creates) the WAL, replays any logged records into staging, and
  /// — when the replay applied anything — publishes the caught-up
  /// generation. `group` must outlive the coordinator; `config` must be
  /// the EngineConfig the group serves with (the published engines
  /// inherit it).
  static StatusOr<std::unique_ptr<IngestCoordinator>> Create(
      EngineGroup* group, const EngineConfig& config, IngestOptions options);

  /// Logs `batch` to the WAL, applies it to staging, maybe compacts,
  /// and publishes a new generation. Serialized internally; safe to
  /// call while queries run.
  StatusOr<IngestApplyResult> Apply(const IngestBatch& batch);

  IngestStats Stats() const;

 private:
  IngestCoordinator(const EngineConfig& config, IngestOptions options)
      : config_(config), options_(std::move(options)) {}

  Status InitStaging(EngineGroup* group);
  StatusOr<IngestApplyResult> ApplyLocked(const IngestBatch& batch,
                                          bool log_to_wal, bool publish);
  /// Appends one validated paper to every staging layer, and its
  /// embedding to `new_rows` (the index's insert batch); false =
  /// duplicate.
  StatusOr<bool> ApplyPaper(const IngestPaper& paper, Matrix* new_rows);
  size_t PendingDeltaEdges() const;
  void CompactAll();
  StatusOr<uint64_t> PublishSnapshot();

  const EngineConfig config_;
  const IngestOptions options_;
  EngineGroup* group_ = nullptr;
  std::string base_artifact_dir_;

  mutable std::mutex mutex_;
  // --- Staging state (guarded by mutex_; published as prefix-sharing
  // copies).
  std::shared_ptr<Dataset> dataset_;
  std::shared_ptr<Corpus> corpus_;
  std::shared_ptr<const DocumentEncoder> encoder_;
  Matrix embeddings_;
  std::unique_ptr<PGIndex> index_;
  /// Label -> node id per entity kind (papers key on their text).
  std::unordered_map<std::string, NodeId> paper_by_label_;
  std::unordered_map<std::string, NodeId> author_by_label_;
  std::unordered_map<std::string, NodeId> venue_by_label_;
  std::unordered_map<std::string, NodeId> topic_by_label_;

  WalWriter wal_;
  IngestStats stats_;
  /// A compaction ran since the last publish; the next published id
  /// becomes stats_.last_merge_generation.
  bool merged_since_publish_ = false;
};

}  // namespace kpef

#endif  // KPEF_INGEST_COORDINATOR_H_
