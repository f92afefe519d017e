#include "baselines/text_models.h"

#include <algorithm>

#include "baselines/text_features.h"
#include "ranking/top_n_finder.h"

namespace kpef {

std::vector<ExpertScore> TfIdfExpertModel::FindExperts(
    const std::string& query_text, size_t n) {
  const SparseVector query =
      tfidf_->Vectorize(corpus_->EncodeQuery(query_text));
  const std::vector<float> scores = tfidf_->ScoreAll(query);
  const std::vector<NodeId> top_papers =
      TopPapersByScore(*dataset_, scores, top_m_);
  return RankExperts(dataset_->graph, dataset_->ids.write, top_papers,
                     ContributionWeighting::kZipf, n);
}

AvgGloveModel::AvgGloveModel(const Dataset* dataset, const Corpus* corpus,
                             const Matrix* token_embeddings, size_t top_m)
    : DenseExpertModel(dataset, corpus, top_m),
      token_embeddings_(token_embeddings) {
  paper_embeddings_ = MeanEmbedAllDocuments(*token_embeddings_, *corpus);
}

std::vector<float> AvgGloveModel::EmbedQuery(const std::string& query_text) {
  return MeanTokenEmbedding(*token_embeddings_,
                            corpus_->EncodeQuery(query_text));
}

SbertLikeModel::SbertLikeModel(const Dataset* dataset, const Corpus* corpus,
                               const Matrix* token_embeddings, size_t top_m)
    : DenseExpertModel(dataset, corpus, top_m),
      token_embeddings_(token_embeddings) {
  paper_embeddings_ = Matrix(corpus->NumDocuments(), token_embeddings->cols());
  for (size_t doc = 0; doc < corpus->NumDocuments(); ++doc) {
    const std::vector<float> v =
        SifEmbedding(*token_embeddings_, corpus->vocabulary(),
                     corpus->NumDocuments(), corpus->Document(doc));
    std::copy(v.begin(), v.end(), paper_embeddings_.Row(doc).begin());
  }
}

std::vector<float> SbertLikeModel::EmbedQuery(const std::string& query_text) {
  return SifEmbedding(*token_embeddings_, corpus_->vocabulary(),
                      corpus_->NumDocuments(),
                      corpus_->EncodeQuery(query_text));
}

}  // namespace kpef
