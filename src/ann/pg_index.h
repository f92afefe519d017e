// Proximity graph-based document index (§IV-A, Algorithm 2) and the
// greedy best-first search over it (§IV-B).
//
// Since PR 7 the index is laid out for the traversal's memory access
// pattern (DESIGN.md §13):
//  - nodes are relabeled into BFS order from the navigating node at
//    Build/Load finalization, so graph neighbors tend to be memory
//    neighbors (the permutation is kept internally; every public id —
//    navigating_node(), NeighborsOf(), search results — is an *external*
//    id, i.e. the row number of the original point matrix);
//  - adjacency is one flat CSR array instead of per-node vectors;
//  - the greedy loop scores the stored fp32 rows (32-byte aligned,
//    zero-padded) with the dispatched kernel, prefetching each hop's
//    fresh rows before scoring them;
//  - SearchBatch is a ParallelFor over Search's per-query body: one
//    greedy search per query on its worker's reused arena (no per-query
//    allocation). The engine itself calls Search, once per query task.
//
// Copying an index costs O(pending overlay edges): the points and
// permutation arrays are AppendStores (InsertBatch appends past every
// copy's rows), the base CSR is shared immutable until CompactDelta
// builds a new one, and only the overlay, keyed by node, is copied. So
// every ingest generation owns a copy that staging's later inserts never
// touch (DESIGN.md §16).

#ifndef KPEF_ANN_PG_INDEX_H_
#define KPEF_ANN_PG_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ann/neighbor.h"
#include "ann/nndescent.h"
#include "common/append_store.h"
#include "common/status.h"
#include "embed/matrix.h"

namespace kpef {

struct PGIndexConfig {
  /// kNN graph degree used for initialization.
  size_t knn_k = 10;
  NNDescentConfig nndescent;
  /// Build the initial kNN graph exactly (O(n^2); small corpora/tests).
  bool exact_knn = false;
  /// Algorithm 2 lines 7-8: add two-hop "highway" neighbors.
  bool extend_neighbors = true;
  /// Algorithm 2 lines 9-12: occlusion-prune redundant neighbors.
  bool remove_redundant = true;
  /// Hard cap on a node's out-degree after refinement.
  size_t max_degree = 48;
  /// Unread: the index has one traversal, with no rerank pass. Kept
  /// only so servebench, which sets it, still builds; delete it with
  /// servebench's next change.
  double rerank_factor = 2.0;
};

/// Build-time diagnostics (Table VI).
struct PGIndexBuildStats {
  double build_seconds = 0.0;
  double knn_seconds = 0.0;
  double refine_seconds = 0.0;
  uint64_t distance_computations = 0;
  size_t edges_after_knn = 0;
  size_t edges_after_extension = 0;
  size_t edges_final = 0;
  /// Highway edges added to connect otherwise-unreachable components
  /// (placed at the component's nearest reachable node, so individual
  /// nodes may exceed the refine degree cap by the highways they carry).
  size_t connectivity_edges = 0;
  /// Edges added by the reverse pass (p inserted into q's list for kept
  /// p->q while q had spare capacity under the degree cap).
  size_t reverse_edges = 0;
};

/// The index: a navigating entry node plus a pruned neighborhood graph
/// over the document embeddings (which it owns a copy of).
class PGIndex {
 public:
  /// Builds the index over the rows of `points` per Algorithm 2.
  static PGIndex Build(const Matrix& points, const PGIndexConfig& config,
                       PGIndexBuildStats* stats = nullptr);

  struct SearchStats {
    /// fp32 distance evaluations of the traversal.
    uint64_t distance_computations = 0;
    /// Always 0: kept only so servebench, which reads it, still builds;
    /// delete it with servebench's next change.
    uint64_t sq8_distance_computations = 0;
    /// Nodes whose adjacency lists were expanded.
    uint64_t hops = 0;
    /// Wall-clock time of this query's own greedy search.
    double search_ms = 0.0;
  };

  /// Per-call search knobs beyond the result count.
  struct SearchParams {
    /// Results returned (ascending by true L2 distance).
    size_t m = 10;
    /// Candidate-pool size of the greedy loop (clamped up to m).
    size_t ef = 0;
    /// Unread: there is one traversal. Kept only so servebench, which
    /// sets it, still builds; delete it with servebench's next change.
    bool force_exact = false;
  };

  /// Returns the approximate `m` nearest points to `query`, ascending by
  /// distance. `ef` is the candidate-pool size (clamped up to m).
  std::vector<Neighbor> Search(std::span<const float> query, size_t m,
                               size_t ef = 0, SearchStats* stats = nullptr) const;

  /// Search with explicit per-call knobs.
  std::vector<Neighbor> Search(std::span<const float> query,
                               const SearchParams& params,
                               SearchStats* stats = nullptr) const;

  /// Searches every row of `queries` (one query per row, same
  /// dimensionality as the indexed points), fanning the queries across
  /// `pool` (nullptr = ThreadPool::Default()). Each query runs the same
  /// greedy search as Search, so results and counters are identical to
  /// calling Search per row for any pool size and any batch
  /// composition. Per-query stats land in `*stats` (resized to the
  /// batch) and each query updates the metrics registry as Search does.
  std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, size_t m, size_t ef = 0,
      std::vector<SearchStats>* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  /// SearchBatch with explicit per-call knobs.
  std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, const SearchParams& params,
      std::vector<SearchStats>* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  int32_t navigating_node() const { return navigating_node_; }
  size_t NumPoints() const { return points_.rows(); }
  /// Out-neighbors of external node id `node`, as external ids, in the
  /// build's refinement order (returned by value: storage is internally
  /// relabeled).
  std::vector<int32_t> NeighborsOf(int32_t node) const;
  /// The stored embeddings in the *internal* (BFS-relabeled) row order;
  /// row i holds the point whose external id is permutation()[i]. Use
  /// rows()/cols() for shape checks.
  const Matrix& points() const { return points_; }
  /// Internal row -> external id mapping of the BFS relabeling.
  const AppendStore<int32_t>& permutation() const { return to_external_; }

  /// Persists the index (embeddings + adjacency + navigating node) in a
  /// host-endian binary format, enabling the paper's offline-build /
  /// online-serve split. Everything is written in external-id order, so
  /// the artifact is independent of the in-memory relabeling.
  Status Save(const std::string& path) const;
  Status Save(std::ostream& out) const;

  /// Loads an index written by Save. Only the current format version is
  /// accepted; any other version is refused by number (rebuild the
  /// artifact with `kpef_cli build`).
  static StatusOr<PGIndex> Load(const std::string& path);
  static StatusOr<PGIndex> Load(std::istream& in);

  /// Total directed edges in the refined graph (base CSR + overlay).
  size_t NumEdges() const { return adj_->targets.size() + extra_edges_; }
  /// Approximate heap footprint: embeddings + adjacency (Table VI).
  size_t MemoryUsageBytes() const;

  /// Per-insert knobs of the streaming append path.
  struct InsertParams {
    /// Degree cap of a new node's pruned out-list and of overlay growth
    /// on existing nodes (mirror of PGIndexConfig::max_degree).
    size_t max_degree = 48;
    /// Candidate-pool size of the locating search per new point.
    size_t ef = 64;
  };
  struct InsertStats {
    size_t inserted = 0;
    size_t edges_added = 0;
  };

  /// Appends every row of `new_points` to the index (external id == its
  /// new row number, preserving row identity for serialized prefixes).
  /// Each point is located by a greedy search from the navigating node,
  /// its candidate list occlusion-pruned with Algorithm 2's rule, and
  /// the surviving edges placed in a delta overlay on top of the frozen
  /// base CSR (reverse edges keep the new node reachable). NOT
  /// thread-safe against concurrent searches on this object; callers
  /// publish a copy (RCU), which later inserts leave untouched.
  Status InsertBatch(const Matrix& new_points, const InsertParams& params,
                     InsertStats* stats = nullptr);

  /// Directed overlay edges not yet folded into the base CSR.
  size_t PendingDeltaEdges() const { return extra_edges_; }

  /// Folds the overlay into a fresh base layout: re-runs the BFS
  /// relabeling + CSR flatten exactly as Build/Load finalization would
  /// on the merged graph. After this PendingDeltaEdges() == 0 and the
  /// hot path walks pure CSR again.
  void CompactDelta();

 private:
  PGIndex() = default;

  struct SearchArena;

  /// The base CSR over internal ids.
  struct Adjacency {
    std::vector<int64_t> offsets;
    std::vector<int32_t> targets;
  };

  /// Thread-local scratch (visited bitmap, heap storage) reused across
  /// searches on this thread.
  static SearchArena& LocalArena();

  /// Shared by Build, Load and CompactDelta: BFS-relabels the
  /// external-order graph into the cache-aware internal layout.
  void FinalizeLayout(const Matrix& ext_points,
                      std::vector<std::vector<int32_t>>&& ext_adjacency,
                      int32_t navigating_external);

  /// Search's body for an already padded query (SearchBatch's rows):
  /// the timed greedy search plus its metrics-registry update.
  std::vector<Neighbor> SearchPadded(std::span<const float> padded,
                                     const SearchParams& params,
                                     SearchStats* stats) const;

  /// One greedy best-first search (§IV-B) for the padded `query`:
  /// writes the top-m to `*out`, adds its counters to `*stats`, and
  /// returns the candidate-pool occupancy at termination.
  size_t GreedySearch(std::span<const float> query, const SearchParams& params,
                      SearchArena& arena, SearchStats* stats,
                      std::vector<Neighbor>* out) const;

  /// Base-CSR out-neighbors; empty span for nodes appended after the
  /// last finalization (their edges live only in the overlay).
  std::span<const int32_t> InternalNeighbors(int32_t internal) const {
    const std::vector<int64_t>& offsets = adj_->offsets;
    if (static_cast<size_t>(internal) + 1 >= offsets.size()) return {};
    return {adj_->targets.data() + offsets[internal],
            static_cast<size_t>(offsets[internal + 1] - offsets[internal])};
  }

  /// Overlay out-neighbors of `internal` (empty when no inserts pend).
  std::span<const int32_t> ExtraNeighbors(int32_t internal) const {
    if (extra_.empty()) return {};
    const auto it = extra_.find(internal);
    if (it == extra_.end()) return {};
    return {it->second.data(), it->second.size()};
  }

  /// Base + overlay concatenated into `scratch` when the overlay is
  /// non-empty for this node; otherwise the base span, copy-free.
  std::span<const int32_t> MergedNeighbors(int32_t internal,
                                           std::vector<int32_t>& scratch) const;

  Matrix points_;                      // internal (BFS) row order
  /// Never written once built; CompactDelta swaps in a new one.
  std::shared_ptr<const Adjacency> adj_ = std::make_shared<const Adjacency>();
  AppendStore<int32_t> to_external_;   // internal -> external
  AppendStore<int32_t> to_internal_;   // external -> internal
  /// Streaming-insert overlay: internal id -> out-edges appended since
  /// the last finalization (only nodes that have some).
  std::unordered_map<int32_t, std::vector<int32_t>> extra_;
  size_t extra_edges_ = 0;
  int32_t navigating_node_ = -1;  // external id
};

}  // namespace kpef

#endif  // KPEF_ANN_PG_INDEX_H_
