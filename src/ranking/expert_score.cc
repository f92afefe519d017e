#include "ranking/expert_score.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace kpef {

double HarmonicNumber(size_t n) {
  double harmonic = 0.0;
  for (size_t i = 1; i <= n; ++i) harmonic += 1.0 / static_cast<double>(i);
  return harmonic;
}

double ZipfContribution(size_t author_rank, size_t num_authors) {
  KPEF_CHECK(author_rank >= 1 && author_rank <= num_authors);
  return 1.0 / (static_cast<double>(author_rank) * HarmonicNumber(num_authors));
}

RankedLists BuildRankedLists(const HeteroGraph& graph, EdgeTypeId write_type,
                             const std::vector<NodeId>& top_papers,
                             ContributionWeighting weighting) {
  RankedLists result;
  result.papers = top_papers;
  result.lists.resize(top_papers.size());
  std::unordered_set<NodeId> candidates;
  for (size_t j = 0; j < top_papers.size(); ++j) {
    auto& list = result.lists[j];
    ForEachContribution(graph, write_type, top_papers[j], j, weighting,
                        [&](NodeId author, double score) {
                          list.push_back({author, score});
                          candidates.insert(author);
                        });
    std::sort(list.begin(), list.end(),
              [](const ExpertScore& a, const ExpertScore& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.author < b.author;
              });
  }
  result.num_candidates = candidates.size();
  return result;
}

}  // namespace kpef
