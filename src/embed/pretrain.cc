#include "embed/pretrain.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
#include "embed/vector_ops.h"

namespace kpef {
namespace {

// Packs an (i, j) token pair into one map key.
uint64_t PairKey(TokenId i, TokenId j) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(i)) << 32) |
         static_cast<uint32_t>(j);
}

// One co-occurring pair with the per-pair constants of the GloVe
// objective, computed once rather than in every epoch.
struct CoocEntry {
  TokenId i;
  TokenId j;
  double log_count;  // log X_ij
  double weight;     // f(X_ij) = min(1, (X_ij / x_max)^alpha)
};

std::vector<CoocEntry> BuildCooccurrence(const Corpus& corpus,
                                         const PretrainConfig& config) {
  std::unordered_map<uint64_t, float> counts;
  for (size_t d = 0; d < corpus.NumDocuments(); ++d) {
    const auto& doc = corpus.Document(d);
    for (size_t a = 0; a < doc.size(); ++a) {
      const size_t end = std::min(doc.size(), a + 1 + config.window);
      for (size_t b = a + 1; b < end; ++b) {
        if (doc[a] == doc[b]) continue;
        const float w = 1.0f / static_cast<float>(b - a);
        // Symmetric: store with the smaller id first.
        const TokenId lo = std::min(doc[a], doc[b]);
        const TokenId hi = std::max(doc[a], doc[b]);
        counts[PairKey(lo, hi)] += w;
      }
    }
  }
  std::vector<CoocEntry> entries;
  entries.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    entries.push_back(
        {static_cast<TokenId>(key >> 32),
         static_cast<TokenId>(key & 0xFFFFFFFFu),
         std::log(static_cast<double>(count)),
         std::min(1.0, std::pow(count / config.x_max, config.alpha))});
  }
  return entries;
}

}  // namespace

PretrainResult PretrainTokenEmbeddings(const Corpus& corpus,
                                       const PretrainConfig& config) {
  const size_t vocab = corpus.vocabulary().size();
  const size_t dim = config.dim;
  Rng rng(config.seed);

  std::vector<CoocEntry> entries = BuildCooccurrence(corpus, config);

  // Word and context factors plus biases, AdaGrad accumulators start at 1.
  Matrix w(vocab, dim), wt(vocab, dim);
  std::vector<float> bias(vocab, 0.0f), bias_t(vocab, 0.0f);
  const float init_scale = 0.5f / static_cast<float>(dim);
  for (size_t r = 0; r < w.rows(); ++r) {
    for (float& v : w.Row(r)) {
      v = static_cast<float>(rng.UniformDouble(-init_scale, init_scale));
    }
  }
  for (size_t r = 0; r < wt.rows(); ++r) {
    for (float& v : wt.Row(r)) {
      v = static_cast<float>(rng.UniformDouble(-init_scale, init_scale));
    }
  }
  Matrix gw(vocab, dim, 1.0f), gwt(vocab, dim, 1.0f);
  std::vector<float> gbias(vocab, 1.0f), gbias_t(vocab, 1.0f);

  const float lr = static_cast<float>(config.learning_rate);
  const DistanceKernel& kernel = ActiveKernel();
  double loss = 0.0;
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(entries);
    loss = 0.0;
    for (const CoocEntry& e : entries) {
      auto wi = w.Row(e.i);
      auto wj = wt.Row(e.j);
      auto gwi = gw.Row(e.i);
      auto gwtj = gwt.Row(e.j);
      double dot = 0.0;
      for (size_t k = 0; k < dim; ++k) dot += static_cast<double>(wi[k]) * wj[k];
      const double diff = dot + bias[e.i] + bias_t[e.j] - e.log_count;
      loss += 0.5 * e.weight * diff * diff;
      const float grad_common = static_cast<float>(e.weight * diff);
      kernel.adagrad_pair(wi.data(), wj.data(), gwi.data(), gwtj.data(),
                          grad_common, lr, dim);
      bias[e.i] -= lr * grad_common / std::sqrt(gbias[e.i]);
      bias_t[e.j] -= lr * grad_common / std::sqrt(gbias_t[e.j]);
      gbias[e.i] += grad_common * grad_common;
      gbias_t[e.j] += grad_common * grad_common;
    }
  }

  PretrainResult result;
  result.token_embeddings = Matrix(vocab, dim);
  for (size_t t = 0; t < vocab; ++t) {
    auto out = result.token_embeddings.Row(t);
    auto a = w.Row(t);
    auto b = wt.Row(t);
    for (size_t k = 0; k < dim; ++k) out[k] = a[k] + b[k];
  }
  result.final_loss =
      entries.empty() ? 0.0 : loss / static_cast<double>(entries.size());
  result.num_cooccurrence_pairs = entries.size();
  KPEF_LOG(Info) << "pretrained " << vocab << " token embeddings on "
                 << entries.size() << " co-occurrence pairs, loss "
                 << result.final_loss;
  return result;
}

}  // namespace kpef
