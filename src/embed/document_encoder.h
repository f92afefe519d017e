// Trainable document encoder (§III-C, Figure 4).
//
// Substitutes the paper's SciBERT encoder with a compact differentiable
// model: token-embedding lookup -> mean/max pooling -> linear projection.
// The token table is initialized from GloVe-style pre-training (the
// "pre-trained Θ_B") and the whole model is fine-tuned by the triplet loss.

#ifndef KPEF_EMBED_DOCUMENT_ENCODER_H_
#define KPEF_EMBED_DOCUMENT_ENCODER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "embed/matrix.h"
#include "text/corpus.h"

namespace kpef {

/// Pooling strategy Φ_P of Eq. 2. Mean pooling is the paper's default;
/// weighted pooling downweights frequent background tokens (our stand-in
/// for the attention a contextual encoder like SciBERT applies).
enum class Pooling {
  kMean,
  kMax,
  /// Weighted mean with fixed per-token weights (SetTokenWeights).
  kWeightedMean,
};

struct EncoderConfig {
  /// Embedding dimensionality d.
  size_t dim = 64;
  Pooling pooling = Pooling::kMean;
  /// L2-normalize the output vector. Keeps the L2-distance retrieval of
  /// §IV equivalent to cosine ranking and makes the triplet margin scale-
  /// free (documents of different lengths otherwise differ mostly in
  /// norm). Gradients flow through the normalization.
  bool normalize_output = true;
};

/// Sparse token-gradient rows, reused across batches.
///
/// A vocab-sized slot index maps each token to its compact row (-1 =
/// untouched); `touched()` lists the tokens in first-touch order and
/// Row(i) belongs to touched()[i]. Storage is 4·V + 4·d·|touched| bytes
/// (never V x d), and Reset zeroes only the rows it hands back, so once
/// the row buffer has grown to a batch's working set nothing allocates.
class TokenGradients {
 public:
  /// Forgets every touched token, zeroing its row, and sizes the index
  /// for `vocab_size` tokens of width `dim`.
  void Reset(size_t vocab_size, size_t dim);

  /// Row of `token`, zero on first touch. Valid until the next Touch.
  std::span<float> Touch(TokenId token) {
    int32_t& slot = slot_[static_cast<size_t>(token)];
    if (slot < 0) {
      slot = static_cast<int32_t>(touched_.size());
      touched_.push_back(token);
      const size_t needed = touched_.size() * dim_;
      if (rows_.size() < needed) rows_.resize(needed, 0.0f);
    }
    return Row(static_cast<size_t>(slot));
  }

  /// Row of `token`, or an empty span when it was not touched.
  std::span<const float> Find(TokenId token) const {
    const int32_t slot = slot_[static_cast<size_t>(token)];
    if (slot < 0) return {};
    return {rows_.data() + static_cast<size_t>(slot) * dim_, dim_};
  }

  /// The i-th touched row (i < touched().size()).
  std::span<float> Row(size_t i) { return {rows_.data() + i * dim_, dim_}; }

  const std::vector<TokenId>& touched() const { return touched_; }

 private:
  size_t dim_ = 0;
  std::vector<int32_t> slot_;    // V: row index, or -1
  std::vector<TokenId> touched_;
  std::vector<float> rows_;      // touched rows, then zeroed spare rows
};

/// Accumulated parameter gradients for one (mini-)batch.
///
/// The projection gradients are dense; token gradients are kept sparse
/// because a batch touches only a small slice of the vocabulary.
struct EncoderGradients {
  Matrix d_projection;        // dim x dim
  std::vector<float> d_bias;  // dim
  TokenGradients d_tokens;

  void Reset(size_t vocab_size, size_t dim);

  /// Backward() scratch, reused across calls so the trainer's hot loop
  /// allocates nothing per triple. Not part of the accumulated result.
  std::vector<float> scratch_grad_projected;
  std::vector<float> scratch_grad_pooled;
};

struct DistanceKernel;

/// The encoder model. Parameters: token table E (V x d), projection
/// W (d x d), bias b (d). Encode(tokens) = W * pool(E[tokens]) + b.
class DocumentEncoder {
 public:
  DocumentEncoder(size_t vocab_size, EncoderConfig config);

  /// Copies pre-trained token embeddings (must be vocab_size x dim).
  void SetTokenEmbeddings(const Matrix& pretrained);

  /// Random-initializes the token table (used when training from scratch
  /// in tests); the projection always starts near identity so that the
  /// initial encoder approximates plain pooled token embeddings.
  void InitializeRandomTokens(Rng& rng, float scale = 0.1f);

  /// Sets the fixed per-token pooling weights used by
  /// Pooling::kWeightedMean (size must equal vocab_size; weights >= 0).
  void SetTokenWeights(std::vector<float> weights);

  /// Encodes a token stream into a d-dimensional vector.
  std::vector<float> Encode(std::span<const TokenId> tokens) const;

  /// Encodes every document of the corpus; row i is document i. This
  /// produces the embedding set E of §III-C.
  Matrix EncodeCorpus(const Corpus& corpus) const;

  /// Forward pass state kept for backpropagation.
  struct ForwardCache {
    std::vector<TokenId> tokens;
    std::vector<float> pooled;      // h = pool(E[tokens])
    std::vector<float> projected;   // v = W h + b
    std::vector<float> output;      // u = v/||v|| (or v when unnormalized)
    float norm = 1.0f;              // ||v||
    std::vector<int32_t> argmax;    // max pooling: winning token slot per dim
  };

  ForwardCache Forward(std::span<const TokenId> tokens) const;

  /// Forward() into a caller-owned cache, reusing its buffers — the
  /// trainer's per-worker workspaces make the hot loop allocation-free.
  /// `kernel` routes the pooling/matmul math (nullptr = ActiveKernel());
  /// scalar and AVX2 agree bitwise, so the choice only changes speed.
  void ForwardInto(std::span<const TokenId> tokens, ForwardCache& cache,
                   const DistanceKernel* kernel = nullptr) const;

  /// Accumulates dL/dW, dL/db, dL/dE into `grads` given dL/dv. Uses the
  /// scratch buffers inside `grads`; `kernel` as in ForwardInto.
  void Backward(const ForwardCache& cache, std::span<const float> grad_output,
                EncoderGradients& grads,
                const DistanceKernel* kernel = nullptr) const;

  size_t dim() const { return config_.dim; }
  size_t vocab_size() const { return token_embeddings_.rows(); }
  const EncoderConfig& config() const { return config_; }

  Matrix& token_embeddings() { return token_embeddings_; }
  const Matrix& token_embeddings() const { return token_embeddings_; }
  Matrix& projection() { return projection_; }
  const Matrix& projection() const { return projection_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }
  /// Pooling weights (empty unless SetTokenWeights was called).
  const std::vector<float>& token_weights() const { return token_weights_; }

 private:
  void Pool(std::span<const TokenId> tokens, std::vector<float>& pooled,
            std::vector<int32_t>* argmax, const DistanceKernel& kernel) const;

  EncoderConfig config_;
  Matrix token_embeddings_;  // V x d
  Matrix projection_;        // d x d
  std::vector<float> bias_;  // d
  std::vector<float> token_weights_;  // V (kWeightedMean only)
};

}  // namespace kpef

#endif  // KPEF_EMBED_DOCUMENT_ENCODER_H_
