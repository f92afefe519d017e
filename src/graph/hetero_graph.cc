#include "graph/hetero_graph.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace kpef {

size_t HeteroGraph::NumEdgesOfType(EdgeTypeId type) const {
  return edges_per_type_[type];
}

std::span<const NodeId> HeteroGraph::Neighbors(NodeId v,
                                               EdgeTypeId type) const {
  if (static_cast<size_t>(v) >= base_num_nodes_) return {};
  const Csr& csr = (*adjacency_)[type];
  const int64_t begin = csr.offsets[v];
  const int64_t end = csr.offsets[v + 1];
  return {csr.targets.data() + begin, static_cast<size_t>(end - begin)};
}

HeteroGraph::NeighborSpans HeteroGraph::NeighborSegments(
    NodeId v, EdgeTypeId type) const {
  NeighborSpans spans;
  spans.base = Neighbors(v, type);
  if (static_cast<size_t>(type) < delta_adjacency_.size()) {
    const auto& per_node = delta_adjacency_[type];
    if (auto it = per_node.find(v); it != per_node.end()) {
      spans.delta = {it->second.data(), it->second.size()};
    }
  }
  return spans;
}

NodeId HeteroGraph::AppendNode(NodeTypeId type, std::string label) {
  KPEF_CHECK(type >= 0 && static_cast<size_t>(type) < schema_.NumNodeTypes());
  node_types_.push_back(type);
  labels_.push_back(std::move(label));
  const NodeId id = static_cast<NodeId>(node_types_.size() - 1);
  auto& bucket = nodes_by_type_[type];
  local_index_.push_back(bucket.size());
  bucket.push_back(id);
  return id;
}

Status HeteroGraph::AppendEdge(EdgeTypeId type, NodeId src, NodeId dst) {
  if (type < 0 || static_cast<size_t>(type) >= schema_.NumEdgeTypes()) {
    return Status::InvalidArgument("unknown edge type");
  }
  if (src < 0 || static_cast<size_t>(src) >= node_types_.size() || dst < 0 ||
      static_cast<size_t>(dst) >= node_types_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (node_types_[src] != schema_.EdgeSrcType(type) ||
      node_types_[dst] != schema_.EdgeDstType(type)) {
    return Status::InvalidArgument("edge endpoint types do not match schema");
  }
  if (delta_adjacency_.size() < schema_.NumEdgeTypes()) {
    delta_adjacency_.resize(schema_.NumEdgeTypes());
  }
  edges_.push_back({type, src, dst});
  ++edges_per_type_[type];
  ++num_edges_;
  ++pending_delta_edges_;
  // Mirror the Build() counting sort: the edge lands in both endpoints'
  // lists, twice in the same list for a self-loop.
  auto& per_node = delta_adjacency_[type];
  per_node[src].push_back(dst);
  per_node[dst].push_back(src);
  return Status::OK();
}

void HeteroGraph::CompactDeltas() {
  if (pending_delta_edges_ == 0 && NumAppendedNodes() == 0) return;
  RebuildCsr();
  delta_adjacency_.assign(schema_.NumEdgeTypes(), {});
  base_num_nodes_ = node_types_.size();
  pending_delta_edges_ = 0;
}

void HeteroGraph::RebuildCsr() {
  const size_t n = node_types_.size();
  const size_t num_edge_types = schema_.NumEdgeTypes();
  std::vector<Csr> adjacency(num_edge_types);
  for (size_t r = 0; r < num_edge_types; ++r) {
    adjacency[r].offsets.assign(n + 1, 0);
  }
  for (const auto& e : edges_) {
    auto& csr = adjacency[e.type];
    ++csr.offsets[e.src + 1];
    ++csr.offsets[e.dst + 1];
  }
  for (size_t r = 0; r < num_edge_types; ++r) {
    auto& csr = adjacency[r];
    for (size_t v = 0; v < n; ++v) csr.offsets[v + 1] += csr.offsets[v];
    csr.targets.resize(csr.offsets[n]);
  }
  std::vector<std::vector<int64_t>> cursors(num_edge_types);
  for (size_t r = 0; r < num_edge_types; ++r) {
    cursors[r].assign(adjacency[r].offsets.begin(),
                      adjacency[r].offsets.end() - 1);
  }
  for (const auto& e : edges_) {
    auto& csr = adjacency[e.type];
    auto& cur = cursors[e.type];
    csr.targets[cur[e.src]++] = e.dst;
    csr.targets[cur[e.dst]++] = e.src;
  }
  adjacency_ = std::make_shared<const std::vector<Csr>>(std::move(adjacency));
}

std::pair<HeteroGraph, std::vector<NodeId>> HeteroGraph::InducedSubgraph(
    const std::vector<NodeId>& keep) const {
  std::vector<NodeId> old_to_new(NumNodes(), kInvalidNode);
  HeteroGraphBuilder builder(schema_);
  for (NodeId old_id : keep) {
    old_to_new[old_id] = builder.AddNode(node_types_[old_id], labels_[old_id]);
  }
  // Emit each undirected edge once: from the canonical src orientation.
  for (EdgeTypeId r = 0;
       r < static_cast<EdgeTypeId>(schema_.NumEdgeTypes()); ++r) {
    const NodeTypeId src_type = schema_.EdgeSrcType(r);
    const NodeTypeId dst_type = schema_.EdgeDstType(r);
    const bool self_relation = (src_type == dst_type);
    for (NodeId old_id : keep) {
      if (node_types_[old_id] != src_type) continue;
      const NeighborSpans spans = NeighborSegments(old_id, r);
      for (const auto& segment : {spans.base, spans.delta}) {
        for (NodeId nbr : segment) {
          if (old_to_new[nbr] == kInvalidNode) continue;
          // For self-relations (Cite) each undirected edge appears in both
          // endpoints' lists; keep only one copy via an id tiebreak. This
          // loses edge direction, which no consumer of subgraphs needs.
          if (self_relation && old_id > nbr) continue;
          Status s = builder.AddEdge(r, old_to_new[old_id], old_to_new[nbr]);
          KPEF_CHECK(s.ok()) << s.ToString();
        }
      }
    }
  }
  return {std::move(builder).Build(), std::move(old_to_new)};
}

size_t HeteroGraph::MemoryUsageBytes() const {
  size_t bytes = node_types_.size() * sizeof(NodeTypeId) +
                 local_index_.size() * sizeof(size_t) +
                 edges_.size() * sizeof(EdgeRecord);
  if (adjacency_ != nullptr) {
    for (const Csr& csr : *adjacency_) {
      bytes += csr.offsets.size() * sizeof(int64_t) +
               csr.targets.size() * sizeof(NodeId);
    }
  }
  for (const auto& per_type : nodes_by_type_) {
    bytes += per_type.size() * sizeof(NodeId);
  }
  for (const auto& per_node : delta_adjacency_) {
    for (const auto& [node, list] : per_node) {
      bytes += sizeof(NodeId) + list.capacity() * sizeof(NodeId);
    }
  }
  for (const auto& label : labels_) bytes += label.capacity();
  return bytes;
}

NodeId HeteroGraphBuilder::AddNode(NodeTypeId type, std::string label) {
  KPEF_CHECK(type >= 0 &&
             static_cast<size_t>(type) < schema_.NumNodeTypes());
  node_types_.push_back(type);
  labels_.push_back(std::move(label));
  return static_cast<NodeId>(node_types_.size() - 1);
}

Status HeteroGraphBuilder::AddEdge(EdgeTypeId type, NodeId src, NodeId dst) {
  if (type < 0 || static_cast<size_t>(type) >= schema_.NumEdgeTypes()) {
    return Status::InvalidArgument("unknown edge type");
  }
  if (src < 0 || static_cast<size_t>(src) >= node_types_.size() || dst < 0 ||
      static_cast<size_t>(dst) >= node_types_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (node_types_[src] != schema_.EdgeSrcType(type) ||
      node_types_[dst] != schema_.EdgeDstType(type)) {
    std::ostringstream msg;
    msg << "edge type " << schema_.EdgeTypeName(type)
        << " expects endpoint types ("
        << schema_.NodeTypeName(schema_.EdgeSrcType(type)) << ", "
        << schema_.NodeTypeName(schema_.EdgeDstType(type)) << ") but got ("
        << schema_.NodeTypeName(node_types_[src]) << ", "
        << schema_.NodeTypeName(node_types_[dst]) << ")";
    return Status::InvalidArgument(msg.str());
  }
  edges_.push_back({type, src, dst});
  return Status::OK();
}

HeteroGraph HeteroGraphBuilder::Build() && {
  HeteroGraph g;
  g.schema_ = std::move(schema_);
  const size_t n = node_types_.size();
  const size_t num_edge_types = g.schema_.NumEdgeTypes();

  std::vector<std::vector<NodeId>> nodes_by_type(g.schema_.NumNodeTypes());
  std::vector<size_t> local_index(n);
  for (size_t v = 0; v < n; ++v) {
    auto& bucket = nodes_by_type[node_types_[v]];
    local_index[v] = bucket.size();
    bucket.push_back(static_cast<NodeId>(v));
  }
  for (auto& bucket : nodes_by_type) {
    g.nodes_by_type_.emplace_back(std::move(bucket));
  }
  g.local_index_ = AppendStore<size_t>(std::move(local_index));
  g.node_types_ = AppendStore<NodeTypeId>(std::move(node_types_));
  g.labels_ = AppendStore<std::string>(std::move(labels_));

  g.edges_per_type_.assign(num_edge_types, 0);
  for (const auto& e : edges_) ++g.edges_per_type_[e.type];
  g.num_edges_ = edges_.size();
  std::vector<HeteroGraph::EdgeRecord> edges;
  edges.reserve(edges_.size());
  for (const auto& e : edges_) edges.push_back({e.type, e.src, e.dst});
  g.edges_ = AppendStore<HeteroGraph::EdgeRecord>(std::move(edges));

  // Counting sort into per-type CSR; each undirected edge lands in both
  // endpoints' lists (including self-relations like Cite), in insertion
  // order so per-node neighbor lists preserve edge order.
  g.base_num_nodes_ = n;
  g.RebuildCsr();
  g.delta_adjacency_.assign(num_edge_types, {});
  return g;
}

}  // namespace kpef
