#include "embed/document_encoder.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "embed/vector_ops.h"

#include "common/logging.h"
#include "common/thread_pool.h"

namespace kpef {

void TokenGradients::Reset(size_t vocab_size, size_t dim) {
  for (TokenId t : touched_) slot_[static_cast<size_t>(t)] = -1;
  std::fill_n(rows_.begin(), touched_.size() * dim_, 0.0f);
  touched_.clear();
  if (dim != dim_) {
    rows_.clear();
    dim_ = dim;
  }
  if (slot_.size() != vocab_size) slot_.assign(vocab_size, -1);
}

void EncoderGradients::Reset(size_t vocab_size, size_t dim) {
  if (d_projection.rows() != dim) {
    d_projection = Matrix(dim, dim);
    d_bias.assign(dim, 0.0f);
  } else {
    d_projection.Fill(0.0f);
    std::fill(d_bias.begin(), d_bias.end(), 0.0f);
  }
  d_tokens.Reset(vocab_size, dim);
  scratch_grad_projected.resize(dim);
  scratch_grad_pooled.resize(dim);
}

DocumentEncoder::DocumentEncoder(size_t vocab_size, EncoderConfig config)
    : config_(config),
      token_embeddings_(vocab_size, config.dim),
      projection_(config.dim, config.dim),
      bias_(config.dim, 0.0f) {
  // Near-identity projection: the un-fine-tuned encoder reduces to pooled
  // token embeddings, i.e. the "pre-trained model" output.
  for (size_t i = 0; i < config_.dim; ++i) projection_.At(i, i) = 1.0f;
}

void DocumentEncoder::SetTokenEmbeddings(const Matrix& pretrained) {
  KPEF_CHECK(pretrained.rows() == token_embeddings_.rows());
  KPEF_CHECK(pretrained.cols() == token_embeddings_.cols());
  token_embeddings_ = pretrained;
}

void DocumentEncoder::InitializeRandomTokens(Rng& rng, float scale) {
  for (size_t r = 0; r < token_embeddings_.rows(); ++r) {
    for (float& v : token_embeddings_.Row(r)) {
      v = static_cast<float>(rng.Normal(0.0, scale));
    }
  }
}

void DocumentEncoder::SetTokenWeights(std::vector<float> weights) {
  KPEF_CHECK(weights.size() == token_embeddings_.rows());
  token_weights_ = std::move(weights);
}

void DocumentEncoder::Pool(std::span<const TokenId> tokens,
                           std::vector<float>& pooled,
                           std::vector<int32_t>* argmax,
                           const DistanceKernel& kernel) const {
  const size_t d = config_.dim;
  pooled.assign(d, 0.0f);
  if (tokens.empty()) return;
  if (config_.pooling == Pooling::kMean ||
      config_.pooling == Pooling::kWeightedMean) {
    const bool weighted = config_.pooling == Pooling::kWeightedMean;
    KPEF_CHECK(!weighted || !token_weights_.empty())
        << "SetTokenWeights before weighted pooling";
    float total = 0.0f;
    for (TokenId t : tokens) {
      // axpy_rows gathers rows by id without a bounds check.
      KPEF_CHECK(static_cast<size_t>(t) < token_embeddings_.rows());
      total += weighted ? token_weights_[t] : 1.0f;
    }
    kernel.axpy_rows(token_embeddings_.data(),
                     token_embeddings_.stride(), tokens.data(),
                     weighted ? token_weights_.data() : nullptr,
                     tokens.size(), pooled.data(), d);
    if (total > 0.0f) kernel.scale(1.0f / total, pooled.data(), d);
  } else {
    pooled.assign(d, -std::numeric_limits<float>::infinity());
    if (argmax) argmax->assign(d, 0);
    for (size_t i = 0; i < tokens.size(); ++i) {
      auto row = token_embeddings_.Row(tokens[i]);
      for (size_t k = 0; k < d; ++k) {
        if (row[k] > pooled[k]) {
          pooled[k] = row[k];
          if (argmax) (*argmax)[k] = static_cast<int32_t>(i);
        }
      }
    }
  }
}

std::vector<float> DocumentEncoder::Encode(
    std::span<const TokenId> tokens) const {
  // Delegates to ForwardInto so Encode and Forward stay bit-identical.
  ForwardCache cache;
  ForwardInto(tokens, cache);
  return std::move(cache.output);
}

Matrix DocumentEncoder::EncodeCorpus(const Corpus& corpus) const {
  Matrix out(corpus.NumDocuments(), config_.dim);
  ParallelFor(corpus.NumDocuments(), [&](size_t doc) {
    const std::vector<float> v = Encode(corpus.Document(doc));
    std::copy(v.begin(), v.end(), out.Row(doc).begin());
  });
  return out;
}

DocumentEncoder::ForwardCache DocumentEncoder::Forward(
    std::span<const TokenId> tokens) const {
  ForwardCache cache;
  ForwardInto(tokens, cache);
  return cache;
}

void DocumentEncoder::ForwardInto(std::span<const TokenId> tokens,
                                  ForwardCache& cache,
                                  const DistanceKernel* kernel) const {
  const DistanceKernel& k = kernel != nullptr ? *kernel : ActiveKernel();
  const size_t d = config_.dim;
  cache.tokens.assign(tokens.begin(), tokens.end());
  Pool(tokens, cache.pooled,
       config_.pooling == Pooling::kMax ? &cache.argmax : nullptr, k);
  cache.projected.assign(bias_.begin(), bias_.end());
  k.dot_rows(projection_.data(), projection_.stride(), d,
             cache.pooled.data(), cache.projected.data(), d);
  cache.output.assign(cache.projected.begin(), cache.projected.end());
  cache.norm = 1.0f;
  if (config_.normalize_output) {
    cache.norm = std::max(
        std::sqrt(k.dot(cache.output.data(), cache.output.data(), d)), 1e-12f);
    k.scale(1.0f / cache.norm, cache.output.data(), d);
  }
}

void DocumentEncoder::Backward(const ForwardCache& cache,
                               std::span<const float> grad_output,
                               EncoderGradients& grads,
                               const DistanceKernel* kernel) const {
  const DistanceKernel& k = kernel != nullptr ? *kernel : ActiveKernel();
  const size_t d = config_.dim;
  KPEF_CHECK(grad_output.size() == d);
  KPEF_CHECK(grads.d_bias.size() == d) << "call Reset() before Backward";
  // Backprop through the normalization u = v/||v||:
  //   dL/dv = (dL/du - (dL/du . u) u) / ||v||.
  std::vector<float>& grad_projected = grads.scratch_grad_projected;
  if (config_.normalize_output) {
    const float dot = k.dot(grad_output.data(), cache.output.data(), d);
    const float inv = 1.0f / cache.norm;
    grad_projected.assign(d, 0.0f);
    k.axpy2(inv, grad_output.data(), -dot * inv, cache.output.data(),
            grad_projected.data(), d);
  } else {
    grad_projected.assign(grad_output.begin(), grad_output.end());
  }
  // dL/dW[i][k] = g[i] * h[k];  dL/db[i] = g[i].
  for (size_t i = 0; i < d; ++i) grads.d_bias[i] += grad_projected[i];
  k.rank1_update(grads.d_projection.data(), grads.d_projection.stride(),
                 d, grad_projected.data(), cache.pooled.data(), d);
  if (cache.tokens.empty()) return;
  // dL/dh = W^T g.
  std::vector<float>& grad_pooled = grads.scratch_grad_pooled;
  grad_pooled.assign(d, 0.0f);
  k.axpy_rows(projection_.data(), projection_.stride(), nullptr,
              grad_projected.data(), d, grad_pooled.data(), d);
  if (config_.pooling == Pooling::kMean ||
      config_.pooling == Pooling::kWeightedMean) {
    const bool weighted = config_.pooling == Pooling::kWeightedMean;
    float total = 0.0f;
    if (weighted) {
      for (TokenId t : cache.tokens) total += token_weights_[t];
    } else {
      total = static_cast<float>(cache.tokens.size());
    }
    if (total <= 0.0f) return;
    const float inv = 1.0f / total;
    for (TokenId t : cache.tokens) {
      const float w = weighted ? token_weights_[t] : 1.0f;
      k.axpy(w * inv, grad_pooled.data(), grads.d_tokens.Touch(t).data(), d);
    }
  } else {
    // Max pooling routes each dimension's gradient to the winning token.
    for (size_t k2 = 0; k2 < d; ++k2) {
      const TokenId t = cache.tokens[cache.argmax[k2]];
      grads.d_tokens.Touch(t)[k2] += grad_pooled[k2];
    }
  }
}

}  // namespace kpef
