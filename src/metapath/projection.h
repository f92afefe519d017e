// Homogeneous projection: materializes the paper-paper graph induced by a
// meta-path (the "straightforward solution" of §III-A). Stored as a flat
// immutable CSR (offsets + neighbor array + degree array) so that the
// (k, P)-core searches can answer Degree / DegreeAtLeast in O(1) and walk
// a node's P-neighbors without re-running the meta-path BFS — the cost
// TrainingDataGenerator used to pay once per seed per path.

#ifndef KPEF_METAPATH_PROJECTION_H_
#define KPEF_METAPATH_PROJECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/hetero_graph.h"
#include "metapath/meta_path.h"

namespace kpef {

class ThreadPool;

/// Immutable homogeneous graph over the nodes of one type, in CSR form.
///
/// Rows are indexed by the node's LocalIndex within its type; each row
/// holds the node's distinct P-neighbors as local indices, sorted
/// ascending (local index order equals NodeId order within one type, so
/// every consumer sees the same canonical neighbor order as the sorted
/// PNeighborFinder path — the bit-identity contract of DESIGN.md §10).
/// A node is never its own P-neighbor.
class HomogeneousProjection {
 public:
  HomogeneousProjection() = default;

  /// Builds a projection from trusted CSR arrays. `offsets` must have
  /// `nodes.size() + 1` monotonically non-decreasing entries starting at
  /// 0 and ending at `neighbors.size()`; each row must already be a
  /// sorted, duplicate-free slice of valid local indices.
  static HomogeneousProjection FromCsr(NodeTypeId node_type,
                                       std::vector<NodeId> nodes,
                                       std::vector<int64_t> offsets,
                                       std::vector<int32_t> neighbors);

  /// Convenience for tests and small graphs: flattens adjacency lists
  /// (rows are sorted and deduplicated here, so callers may pass them in
  /// any order).
  static HomogeneousProjection FromAdjacency(
      NodeTypeId node_type, std::vector<NodeId> nodes,
      std::vector<std::vector<int32_t>> adjacency);

  /// Node type the projection covers (e.g., Paper).
  NodeTypeId node_type() const { return node_type_; }

  /// Global node id per local index.
  const std::vector<NodeId>& nodes() const { return nodes_; }
  NodeId GlobalId(int32_t local) const { return nodes_[local]; }

  size_t NumNodes() const { return nodes_.size(); }
  /// Undirected edge count (every edge appears in both endpoint rows).
  size_t NumEdges() const { return neighbors_.size() / 2; }
  /// Directed adjacency entries (= sum of all degrees).
  size_t NumEntries() const { return neighbors_.size(); }

  /// P-neighbors of `local`, as sorted local indices.
  std::span<const int32_t> Neighbors(int32_t local) const {
    const int64_t begin = offsets_[local];
    return {neighbors_.data() + begin,
            static_cast<size_t>(offsets_[local + 1] - begin)};
  }

  /// P-degree (Definition 5) in O(1).
  int32_t Degree(int32_t local) const { return degrees_[local]; }
  bool DegreeAtLeast(int32_t local, int32_t threshold) const {
    return degrees_[local] >= threshold;
  }

  /// Heap footprint of the CSR arrays, in bytes.
  size_t MemoryUsageBytes() const;

 private:
  NodeTypeId node_type_ = kInvalidNodeType;
  std::vector<NodeId> nodes_;
  std::vector<int64_t> offsets_;    // NumNodes() + 1
  std::vector<int32_t> degrees_;    // NumNodes(); == offsets_[i+1]-offsets_[i]
  std::vector<int32_t> neighbors_;  // flat rows, each sorted ascending
};

struct ProjectionOptions {
  /// Pool for the parallel count/fill passes (null = ThreadPool::Default()).
  ThreadPool* pool = nullptr;
};

/// Materializes the full homogeneous graph for `path` with a parallel
/// two-pass count/fill build. Deterministic: the CSR is bit-identical for
/// every pool size. Requires symmetric endpoints.
///
/// Expensive by design for a single search — this is exactly the cost
/// Algorithm 1 avoids — but built once it amortizes across the thousands
/// of per-seed searches of the sampling stage.
HomogeneousProjection ProjectHomogeneous(const HeteroGraph& graph,
                                         const MetaPath& path,
                                         const ProjectionOptions& options = {});

/// Union of several projections over the same node type (used by the
/// homogeneous-graph baselines, which merge all relations into one
/// paper-paper graph — the noise the paper's introduction criticizes).
/// Takes the inputs by value so callers can move them in; rows are merged
/// sorted-set-wise into an exactly-sized CSR (no re-sort of merged rows).
HomogeneousProjection UnionProjections(
    std::vector<HomogeneousProjection> projections);

}  // namespace kpef

#endif  // KPEF_METAPATH_PROJECTION_H_
