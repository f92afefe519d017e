#include "data/drip.h"

#include <unordered_map>
#include <utility>

namespace kpef {

StatusOr<DripSplit> MakeDripSplit(const Dataset& full, size_t holdout) {
  const HeteroGraph& g = full.graph;
  const AcademicSchema& ids = full.ids;
  const auto& papers = g.NodesOfType(ids.paper);
  if (holdout == 0 || holdout >= papers.size()) {
    return Status::InvalidArgument("drip holdout must be in [1, num_papers), got " +
                           std::to_string(holdout) + " of " +
                           std::to_string(papers.size()));
  }
  const size_t kept = papers.size() - holdout;

  // Rebuild the prefix graph: every non-paper node (same per-type order,
  // so author/venue/topic LocalIndex is stable) plus papers [0, kept).
  AcademicSchema fresh = AcademicSchema::Make();
  HeteroGraphBuilder builder(fresh.schema);
  std::unordered_map<NodeId, NodeId> remap;
  remap.reserve(g.NumNodes());
  for (NodeId v : g.NodesOfType(ids.author)) {
    remap[v] = builder.AddNode(fresh.author, g.Label(v));
  }
  for (NodeId v : g.NodesOfType(ids.venue)) {
    remap[v] = builder.AddNode(fresh.venue, g.Label(v));
  }
  for (NodeId v : g.NodesOfType(ids.topic)) {
    remap[v] = builder.AddNode(fresh.topic, g.Label(v));
  }
  for (size_t i = 0; i < kept; ++i) {
    remap[papers[i]] = builder.AddNode(fresh.paper, g.Label(papers[i]));
  }

  // Re-add edges paper by paper in the generator's per-paper order
  // (write in author-rank order, then publish, mention, cite), which is
  // exactly the order the ingest path applies them in.
  for (size_t i = 0; i < kept; ++i) {
    const NodeId p = papers[i];
    for (NodeId a : g.Neighbors(p, ids.write)) {
      KPEF_RETURN_IF_ERROR(builder.AddEdge(fresh.write, remap[a], remap[p]));
    }
    for (NodeId v : g.Neighbors(p, ids.publish)) {
      KPEF_RETURN_IF_ERROR(builder.AddEdge(fresh.publish, remap[p], remap[v]));
    }
    for (NodeId t : g.Neighbors(p, ids.mention)) {
      KPEF_RETURN_IF_ERROR(builder.AddEdge(fresh.mention, remap[p], remap[t]));
    }
    for (NodeId q : g.Neighbors(p, ids.cite)) {
      // Cite rows mix both directions; out-citations are the earlier
      // papers (the generator only cites backwards).
      if (g.LocalIndex(q) < i) {
        KPEF_RETURN_IF_ERROR(builder.AddEdge(fresh.cite, remap[p], remap[q]));
      }
    }
  }

  DripSplit split;
  KPEF_ASSIGN_OR_RETURN(
      split.base,
      DatasetFromGraph(std::move(builder).Build(), full.config.name + "-base"));
  DatasetConfig base_config = full.config;
  base_config.name = full.config.name + "-base";
  base_config.num_papers = kept;
  split.base.config = std::move(base_config);

  // Describe the tail by labels, in time order.
  split.tail.reserve(holdout);
  for (size_t i = kept; i < papers.size(); ++i) {
    const NodeId p = papers[i];
    DripPaper out;
    out.text = g.Label(p);
    for (NodeId a : g.Neighbors(p, ids.write)) out.authors.push_back(g.Label(a));
    std::span<const NodeId> venues = g.Neighbors(p, ids.publish);
    if (!venues.empty()) out.venue = g.Label(venues.front());
    for (NodeId t : g.Neighbors(p, ids.mention)) out.topics.push_back(g.Label(t));
    for (NodeId q : g.Neighbors(p, ids.cite)) {
      if (g.LocalIndex(q) < i) out.cites.push_back(g.Label(q));
    }
    split.tail.push_back(std::move(out));
  }
  return split;
}

std::vector<std::vector<DripPaper>> DripBatches(std::vector<DripPaper> tail,
                                                size_t batch_size) {
  std::vector<std::vector<DripPaper>> batches;
  if (batch_size == 0) batch_size = 1;
  for (size_t begin = 0; begin < tail.size(); begin += batch_size) {
    const size_t end = std::min(tail.size(), begin + batch_size);
    std::vector<DripPaper> batch;
    batch.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) batch.push_back(std::move(tail[i]));
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace kpef
