#include "baselines/dense_expert_model.h"

#include <algorithm>
#include <numeric>

#include "embed/vector_ops.h"
#include "ranking/top_n_finder.h"

namespace kpef {

std::vector<NodeId> TopPapersByScore(const Dataset& dataset,
                                     const std::vector<float>& scores,
                                     size_t m) {
  const auto& papers = dataset.Papers();
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  const size_t keep = std::min(m, order.size());
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    [&](size_t a, size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  std::vector<NodeId> top;
  top.reserve(keep);
  for (size_t i = 0; i < keep; ++i) top.push_back(papers[order[i]]);
  return top;
}

std::vector<ExpertScore> DenseExpertModel::FindExperts(
    const std::string& query_text, size_t n) {
  const std::vector<float> query = EmbedQuery(query_text);
  std::vector<float> scores(paper_embeddings_.rows(), 0.0f);
  for (size_t i = 0; i < paper_embeddings_.rows(); ++i) {
    scores[i] = CosineSimilarity(paper_embeddings_.Row(i), query);
  }
  const std::vector<NodeId> top_papers =
      TopPapersByScore(*dataset_, scores, top_m_);
  return RankExperts(dataset_->graph, dataset_->ids.write, top_papers,
                     ContributionWeighting::kZipf, n);
}

}  // namespace kpef
