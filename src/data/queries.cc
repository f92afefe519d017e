#include "data/queries.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"

namespace kpef {

QuerySet GenerateQueries(const Dataset& dataset, size_t num_queries,
                         uint64_t seed) {
  QuerySet set;
  const HeteroGraph& graph = dataset.graph;
  const AcademicSchema& ids = dataset.ids;
  const auto& papers = dataset.Papers();
  if (papers.empty()) return set;

  // Precompute topic -> authors once (authors of any paper mentioning the
  // topic); per-query ground truth is then a union over the query paper's
  // topics.
  const size_t num_topics = graph.NumNodesOfType(ids.topic);
  std::vector<std::vector<NodeId>> authors_of_topic(num_topics);
  for (NodeId topic : graph.NodesOfType(ids.topic)) {
    std::unordered_set<NodeId> authors;
    for (NodeId paper : graph.Neighbors(topic, ids.mention)) {
      for (NodeId author : graph.Neighbors(paper, ids.write)) {
        authors.insert(author);
      }
    }
    auto& out = authors_of_topic[graph.LocalIndex(topic)];
    out.assign(authors.begin(), authors.end());
    std::sort(out.begin(), out.end());
  }

  Rng rng(seed);
  const std::vector<size_t> picks = rng.SampleWithoutReplacement(
      papers.size(), std::min(num_queries, papers.size()));
  set.queries.reserve(picks.size());
  for (size_t pick : picks) {
    Query query;
    query.query_paper = papers[pick];
    query.text = graph.Label(query.query_paper);
    std::unordered_set<NodeId> truth;
    for (NodeId topic : graph.Neighbors(query.query_paper, ids.mention)) {
      const auto& authors = authors_of_topic[graph.LocalIndex(topic)];
      truth.insert(authors.begin(), authors.end());
    }
    query.ground_truth.assign(truth.begin(), truth.end());
    std::sort(query.ground_truth.begin(), query.ground_truth.end());
    set.queries.push_back(std::move(query));
  }
  KPEF_LOG(Info) << "generated " << set.queries.size() << " queries";
  return set;
}

}  // namespace kpef
