// Heterogeneous graph G = (V, E, L) (Definition 1) with CSR adjacency
// per edge type.

#ifndef KPEF_GRAPH_HETERO_GRAPH_H_
#define KPEF_GRAPH_HETERO_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/append_store.h"
#include "common/status.h"
#include "graph/schema.h"
#include "graph/types.h"

namespace kpef {

class HeteroGraphBuilder;

/// Heterogeneous graph with an immutable CSR base plus an append-only
/// delta overlay.
///
/// Storage: one undirected CSR slice per edge type, frozen at Build()
/// time. Every relation is traversable from both endpoints
/// (Neighbors(author, Write) yields the author's papers; Neighbors(paper,
/// Write) yields its authors). Nodes and edges appended after Build()
/// (streaming ingestion) live in per-type delta segments until
/// CompactDeltas() folds them into the base CSR.
///
/// Ordering guarantee: within a node's neighbor list for one edge type,
/// neighbors appear in edge-insertion order — base segment first, then
/// delta segment, each internally in insertion order. Dataset builders
/// insert Write edges in author-rank order, so the paper's merged
/// neighbor list is its author list ranked first-author-first — the
/// order the expert ranking score (Eq. 5) depends on. CompactDeltas()
/// preserves the merged order exactly.
///
/// Copies are cheap, which is what lets every ingest publish snapshot
/// the graph: the per-node arrays and the edge list are AppendStores
/// (shared prefix, appends past it), the base CSRs are shared immutable
/// and replaced whole by CompactDeltas(), and only the delta overlay,
/// bounded by the merge budget, is copied.
class HeteroGraph {
 public:
  /// One edge as originally inserted (canonical src->dst orientation).
  struct EdgeRecord {
    EdgeTypeId type;
    NodeId src;
    NodeId dst;

    bool operator==(const EdgeRecord&) const = default;
  };
  /// Node ids of one type, ascending (a prefix-shared store).
  using NodeList = AppendStore<NodeId>;

  /// Constructs an empty graph (use HeteroGraphBuilder to populate one).
  HeteroGraph() = default;

  const Schema& schema() const { return schema_; }

  size_t NumNodes() const { return node_types_.size(); }
  /// Number of undirected edges over all types.
  size_t NumEdges() const { return num_edges_; }
  /// Number of undirected edges of one type.
  size_t NumEdgesOfType(EdgeTypeId type) const;

  NodeTypeId TypeOf(NodeId v) const { return node_types_[v]; }

  /// Node label L(v); empty when the node carries no text.
  const std::string& Label(NodeId v) const { return labels_[v]; }

  /// Base-segment neighbors of `v` through edges of type `type`, both
  /// orientations. Edges appended after Build() are NOT included — use
  /// NeighborSegments() on graphs that may carry deltas. For a node
  /// appended after Build() the base segment is empty.
  std::span<const NodeId> Neighbors(NodeId v, EdgeTypeId type) const;

  /// Base + delta neighbor segments of `v` for `type`. Concatenated they
  /// are the full neighbor list in edge-insertion order. The delta span
  /// is invalidated by the next AppendEdge/CompactDeltas call.
  struct NeighborSpans {
    std::span<const NodeId> base;
    std::span<const NodeId> delta;
    size_t size() const { return base.size() + delta.size(); }
    bool empty() const { return base.empty() && delta.empty(); }
  };
  NeighborSpans NeighborSegments(NodeId v, EdgeTypeId type) const;

  /// Appends a node of `type` to the delta overlay; returns its id. The
  /// node joins NodesOfType/LocalIndex immediately (papers appended in
  /// order keep the LocalIndex == corpus-doc-id invariant).
  NodeId AppendNode(NodeTypeId type, std::string label = "");

  /// Appends an undirected edge to the delta overlay. Endpoints may be
  /// base or appended nodes; validation matches HeteroGraphBuilder.
  Status AppendEdge(EdgeTypeId type, NodeId src, NodeId dst);

  /// Undirected edges currently sitting in the delta overlay.
  size_t PendingDeltaEdges() const { return pending_delta_edges_; }
  /// Nodes appended after Build().
  size_t NumAppendedNodes() const { return NumNodes() - base_num_nodes_; }

  /// Folds the delta overlay into the base CSRs by re-running the exact
  /// counting sort of HeteroGraphBuilder::Build() over Edges(). After
  /// this, Neighbors() covers every edge and PendingDeltaEdges() == 0.
  /// Merged neighbor order is unchanged.
  void CompactDeltas();

  /// Degree of `v` restricted to edges of type `type`.
  size_t Degree(NodeId v, EdgeTypeId type) const {
    return Neighbors(v, type).size();
  }

  /// All node ids of the given type, ascending.
  const NodeList& NodesOfType(NodeTypeId type) const {
    return nodes_by_type_[type];
  }
  size_t NumNodesOfType(NodeTypeId type) const {
    return nodes_by_type_[type].size();
  }

  /// Index of `v` within NodesOfType(TypeOf(v)). Papers are created
  /// contiguously by the dataset builders, so for them this is also the
  /// corpus document id.
  size_t LocalIndex(NodeId v) const { return local_index_[v]; }

  /// Induced subgraph on `keep` (any order, no duplicates): nodes are
  /// remapped densely in the order given; edges survive iff both endpoints
  /// are kept. Returns the subgraph and old->new id map (kInvalidNode for
  /// dropped nodes).
  std::pair<HeteroGraph, std::vector<NodeId>> InducedSubgraph(
      const std::vector<NodeId>& keep) const;

  /// Edges in insertion order (the order that defines per-node neighbor
  /// ordering, e.g. author rank). Basis for serialization.
  const AppendStore<EdgeRecord>& Edges() const { return edges_; }

  /// Approximate heap footprint of the adjacency structures, in bytes.
  size_t MemoryUsageBytes() const;

 private:
  friend class HeteroGraphBuilder;

  struct Csr {
    std::vector<int64_t> offsets;  // size base_num_nodes_+1
    std::vector<NodeId> targets;
  };

  void RebuildCsr();

  Schema schema_;
  AppendStore<NodeTypeId> node_types_;
  AppendStore<std::string> labels_;
  std::vector<NodeList> nodes_by_type_;
  AppendStore<size_t> local_index_;
  /// One CSR per edge type, base segment only; never written once
  /// built, so copies share it until CompactDeltas() swaps in a new one.
  std::shared_ptr<const std::vector<Csr>> adjacency_;
  std::vector<size_t> edges_per_type_;
  AppendStore<EdgeRecord> edges_;  // insertion order (base then delta)
  size_t num_edges_ = 0;
  /// Nodes covered by the base CSRs; ids >= this are appended nodes.
  size_t base_num_nodes_ = 0;
  /// Delta overlay: per edge type, appended neighbors keyed by node id.
  std::vector<std::unordered_map<NodeId, std::vector<NodeId>>> delta_adjacency_;
  size_t pending_delta_edges_ = 0;
};

/// Accumulates nodes and edges, then finalizes into a HeteroGraph.
class HeteroGraphBuilder {
 public:
  explicit HeteroGraphBuilder(Schema schema) : schema_(std::move(schema)) {}

  /// Adds a node of `type` with optional text label; returns its id.
  NodeId AddNode(NodeTypeId type, std::string label = "");

  /// Adds an undirected edge of `type`. Endpoint node types must match the
  /// schema's (src, dst) pair in the given orientation.
  Status AddEdge(EdgeTypeId type, NodeId src, NodeId dst);

  size_t NumNodes() const { return node_types_.size(); }

  /// Finalizes into an immutable graph. The builder is consumed.
  HeteroGraph Build() &&;

 private:
  struct Edge {
    EdgeTypeId type;
    NodeId src;
    NodeId dst;
  };

  Schema schema_;
  std::vector<NodeTypeId> node_types_;
  std::vector<std::string> labels_;
  std::vector<Edge> edges_;
};

}  // namespace kpef

#endif  // KPEF_GRAPH_HETERO_GRAPH_H_
