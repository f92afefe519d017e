#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embed/adam.h"
#include "embed/document_encoder.h"
#include "embed/kmeans.h"
#include "embed/matrix.h"
#include "embed/pretrain.h"
#include "embed/trainer.h"
#include "embed/triplet.h"
#include "embed/vector_ops.h"
#include "text/corpus.h"

namespace kpef {
namespace {

TEST(VectorOpsTest, DotAndNorms) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {4, -5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b), 12.0f);
  EXPECT_FLOAT_EQ(L2Norm(a), std::sqrt(14.0f));
  EXPECT_FLOAT_EQ(SquaredL2Distance(a, b), 9 + 49 + 9);
  EXPECT_FLOAT_EQ(L2Distance(a, b), std::sqrt(67.0f));
}

TEST(VectorOpsTest, AxpyAndScale) {
  std::vector<float> x = {1, 1};
  std::vector<float> y = {2, 3};
  Axpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{4, 5}));
  Scale(0.5f, y);
  EXPECT_EQ(y, (std::vector<float>{2, 2.5}));
}

TEST(VectorOpsTest, NormalizeHandlesZero) {
  std::vector<float> zero = {0, 0, 0};
  NormalizeL2(zero);
  EXPECT_EQ(zero, (std::vector<float>{0, 0, 0}));
  std::vector<float> v = {3, 4};
  NormalizeL2(v);
  EXPECT_NEAR(L2Norm(v), 1.0f, 1e-6);
}

TEST(VectorOpsTest, CosineSimilarity) {
  std::vector<float> a = {1, 0};
  std::vector<float> b = {0, 1};
  std::vector<float> c = {2, 0};
  EXPECT_FLOAT_EQ(CosineSimilarity(a, b), 0.0f);
  EXPECT_FLOAT_EQ(CosineSimilarity(a, c), 1.0f);
  const std::vector<float> zero2 = {0, 0};
  EXPECT_FLOAT_EQ(CosineSimilarity(a, zero2), 0.0f);
}

TEST(MatrixTest, RowAccess) {
  Matrix m(3, 2, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  m.At(1, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m.Row(1)[1], 7.0f);
  m.Fill(0.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 0.0f);
}

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize f(x) = (x - 3)^2 elementwise.
  AdamConfig config;
  config.learning_rate = 0.1;
  Adam adam(4, config);
  std::vector<float> params = {0, 10, -5, 3};
  std::vector<float> grads(4);
  for (int step = 0; step < 500; ++step) {
    for (int i = 0; i < 4; ++i) grads[i] = 2.0f * (params[i] - 3.0f);
    const float step_size = adam.BeginStep();
    adam.UpdateDense(params, grads, step_size);
  }
  for (float p : params) EXPECT_NEAR(p, 3.0f, 0.05f);
}

TEST(AdamTest, SparseRowUpdatesOnlyTouchTargetRow) {
  Adam adam(6, {});
  Matrix params(3, 2, 1.0f);
  std::vector<float> grad = {1.0f, 1.0f};
  const float step_size = adam.BeginStep();
  adam.UpdateRow(params, 1, grad, 0, step_size);
  EXPECT_FLOAT_EQ(params.At(0, 0), 1.0f);
  EXPECT_LT(params.At(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(params.At(2, 1), 1.0f);
}

TEST(TripletLossTest, InactiveWhenNegativeFar) {
  std::vector<float> s = {0, 0};
  std::vector<float> p = {1, 0};
  std::vector<float> n = {10, 0};
  const auto result = ComputeTripletLoss(s, p, n, 1.0f);
  EXPECT_FLOAT_EQ(result.loss, 0.0f);
  EXPECT_FALSE(result.active);
}

TEST(TripletLossTest, ActiveInsideMargin) {
  std::vector<float> s = {0, 0};
  std::vector<float> p = {2, 0};
  std::vector<float> n = {2.5f, 0};
  const auto result = ComputeTripletLoss(s, p, n, 1.0f);
  EXPECT_TRUE(result.active);
  EXPECT_NEAR(result.loss, 2.0f - 2.5f + 1.0f, 1e-5);
}

TEST(TripletLossTest, GradientMatchesFiniteDifferences) {
  Rng rng(5);
  const float margin = 1.0f;
  const float eps = 1e-3f;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> s(4), p(4), n(4);
    for (int i = 0; i < 4; ++i) {
      s[i] = static_cast<float>(rng.Normal());
      p[i] = static_cast<float>(rng.Normal());
      n[i] = static_cast<float>(rng.Normal());
    }
    const auto result = ComputeTripletLoss(s, p, n, margin);
    if (!result.active) continue;
    auto loss_at = [&](std::vector<float>& vec, int dim, float delta) {
      vec[dim] += delta;
      const float loss = ComputeTripletLoss(s, p, n, margin).loss;
      vec[dim] -= delta;
      return loss;
    };
    for (int dim = 0; dim < 4; ++dim) {
      const float numeric_s =
          (loss_at(s, dim, eps) - loss_at(s, dim, -eps)) / (2 * eps);
      EXPECT_NEAR(result.grad_seed[dim], numeric_s, 5e-2f);
      const float numeric_p =
          (loss_at(p, dim, eps) - loss_at(p, dim, -eps)) / (2 * eps);
      EXPECT_NEAR(result.grad_positive[dim], numeric_p, 5e-2f);
      const float numeric_n =
          (loss_at(n, dim, eps) - loss_at(n, dim, -eps)) / (2 * eps);
      EXPECT_NEAR(result.grad_negative[dim], numeric_n, 5e-2f);
    }
  }
}

class EncoderTest : public ::testing::TestWithParam<Pooling> {
 protected:
  EncoderTest() {
    corpus_.AddDocument("alpha beta gamma");
    corpus_.AddDocument("beta beta delta");
    EncoderConfig config;
    config.dim = 6;
    config.pooling = GetParam();
    encoder_ = std::make_unique<DocumentEncoder>(corpus_.vocabulary().size(),
                                                 config);
    if (GetParam() == Pooling::kWeightedMean) {
      std::vector<float> weights(corpus_.vocabulary().size());
      for (size_t t = 0; t < weights.size(); ++t) {
        weights[t] = 0.5f + 0.1f * static_cast<float>(t % 5);
      }
      encoder_->SetTokenWeights(std::move(weights));
    }
    Rng rng(3);
    encoder_->InitializeRandomTokens(rng, 0.5f);
    // Perturb the projection so it is not exactly identity.
    Matrix& proj = encoder_->projection();
    for (size_t r = 0; r < proj.rows(); ++r) {
      for (float& v : proj.Row(r)) {
        v += static_cast<float>(rng.Normal(0.0, 0.05));
      }
    }
    for (float& v : encoder_->bias()) {
      v = static_cast<float>(rng.Normal(0.0, 0.05));
    }
  }

  Corpus corpus_;
  std::unique_ptr<DocumentEncoder> encoder_;
};

TEST_P(EncoderTest, EncodeMatchesForward) {
  for (size_t doc = 0; doc < corpus_.NumDocuments(); ++doc) {
    const auto direct = encoder_->Encode(corpus_.Document(doc));
    const auto cache = encoder_->Forward(corpus_.Document(doc));
    EXPECT_EQ(direct, cache.output);
  }
}

TEST_P(EncoderTest, EmptyDocumentEncodesToNormalizedBias) {
  const auto out = encoder_->Encode(std::vector<TokenId>{});
  std::vector<float> expected = encoder_->bias();
  NormalizeL2(expected);
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_NEAR(out[i], expected[i], 1e-5);
}

TEST_P(EncoderTest, OutputIsUnitNorm) {
  for (size_t doc = 0; doc < corpus_.NumDocuments(); ++doc) {
    const auto out = encoder_->Encode(corpus_.Document(doc));
    EXPECT_NEAR(L2Norm(out), 1.0f, 1e-5);
  }
}

TEST_P(EncoderTest, BackwardMatchesFiniteDifferences) {
  const auto& doc = corpus_.Document(0);
  // Loss: L = sum_i w_i * v_i with fixed random weights (linear in output,
  // so dL/dv = w exactly).
  Rng rng(11);
  std::vector<float> w(encoder_->dim());
  for (float& x : w) x = static_cast<float>(rng.Normal());
  auto loss = [&]() {
    const auto out = encoder_->Encode(doc);
    float total = 0;
    for (size_t i = 0; i < out.size(); ++i) total += w[i] * out[i];
    return total;
  };
  EncoderGradients grads;
  grads.Reset(encoder_->vocab_size(), encoder_->dim());
  const auto cache = encoder_->Forward(doc);
  encoder_->Backward(cache, w, grads);

  const float eps = 1e-2f;
  // Projection gradient check (sample a few entries).
  const size_t dim = encoder_->dim();
  for (size_t idx : {0u, 7u, 13u, 35u}) {
    const size_t r = idx / dim;
    const size_t c = idx % dim;
    float& param = encoder_->projection().At(r, c);
    const float saved = param;
    param = saved + eps;
    const float up = loss();
    param = saved - eps;
    const float down = loss();
    param = saved;
    EXPECT_NEAR(grads.d_projection.At(r, c), (up - down) / (2 * eps), 2e-2f);
  }
  // Bias gradient (numeric: normalization makes it differ from w).
  for (size_t i = 0; i < encoder_->dim(); ++i) {
    float& param = encoder_->bias()[i];
    const float saved = param;
    param = saved + eps;
    const float up = loss();
    param = saved - eps;
    const float down = loss();
    param = saved;
    EXPECT_NEAR(grads.d_bias[i], (up - down) / (2 * eps), 2e-2f);
  }
  // Token embedding gradient for the first token of the doc.
  const TokenId token = doc[0];
  const std::span<const float> token_grad = grads.d_tokens.Find(token);
  ASSERT_EQ(token_grad.size(), encoder_->dim());
  for (size_t k = 0; k < encoder_->dim(); ++k) {
    float& param = encoder_->token_embeddings().Row(token)[k];
    const float saved = param;
    param = saved + eps;
    const float up = loss();
    param = saved - eps;
    const float down = loss();
    param = saved;
    EXPECT_NEAR(token_grad[k], (up - down) / (2 * eps), 2e-2f);
  }
}

TEST_P(EncoderTest, ReusedGradientsMatchFresh) {
  // A workspace that already accumulated other documents must, after
  // Reset, give exactly the gradients of a fresh one, and hand back only
  // zeroed rows for tokens it has not touched since.
  const size_t dim = encoder_->dim();
  std::vector<float> w(dim);
  Rng rng(17);
  for (float& x : w) x = static_cast<float>(rng.Normal());
  const auto target = encoder_->Forward(corpus_.Document(0));

  EncoderGradients reused;
  reused.Reset(encoder_->vocab_size(), dim);
  // One single-token document per vocabulary entry touches every row
  // under every pooling.
  for (size_t t = 0; t < encoder_->vocab_size(); ++t) {
    const std::vector<TokenId> doc = {static_cast<TokenId>(t)};
    encoder_->Backward(encoder_->Forward(doc), w, reused);
  }
  const size_t first_touched = reused.d_tokens.touched().size();
  EXPECT_EQ(first_touched, encoder_->vocab_size());
  reused.Reset(encoder_->vocab_size(), dim);
  EXPECT_TRUE(reused.d_tokens.touched().empty());
  encoder_->Backward(target, w, reused);

  EncoderGradients fresh;
  fresh.Reset(encoder_->vocab_size(), dim);
  encoder_->Backward(target, w, fresh);

  EXPECT_EQ(reused.d_projection, fresh.d_projection);
  EXPECT_EQ(reused.d_bias, fresh.d_bias);
  ASSERT_EQ(reused.d_tokens.touched(), fresh.d_tokens.touched());
  for (TokenId t : fresh.d_tokens.touched()) {
    const auto a = reused.d_tokens.Find(t);
    const auto b = fresh.d_tokens.Find(t);
    ASSERT_EQ(a.size(), dim);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "token " << t;
  }
  // Every other token is untouched, and touching it now — reusing the
  // rows the first round left behind — reads zero.
  ASSERT_GT(first_touched, fresh.d_tokens.touched().size());
  for (size_t t = 0; t < encoder_->vocab_size(); ++t) {
    const auto token = static_cast<TokenId>(t);
    if (!fresh.d_tokens.Find(token).empty()) continue;
    EXPECT_TRUE(reused.d_tokens.Find(token).empty()) << "token " << t;
    for (float v : reused.d_tokens.Touch(token)) {
      EXPECT_EQ(v, 0.0f) << "token " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Poolings, EncoderTest,
    ::testing::Values(Pooling::kMean, Pooling::kMax, Pooling::kWeightedMean),
    [](const ::testing::TestParamInfo<Pooling>& info) {
      switch (info.param) {
        case Pooling::kMean:
          return "Mean";
        case Pooling::kMax:
          return "Max";
        case Pooling::kWeightedMean:
          return "WeightedMean";
      }
      return "Unknown";
    });

TEST(PretrainTest, CooccurringTokensEndUpCloser) {
  // Two disjoint "topics": docs repeat tokens within a topic, never across.
  Corpus corpus;
  Rng rng(21);
  for (int i = 0; i < 60; ++i) {
    std::string text;
    const bool topic_a = i % 2 == 0;
    for (int w = 0; w < 12; ++w) {
      text += (topic_a ? "a" : "b") + std::to_string(rng.Uniform(6));
      text += ' ';
    }
    corpus.AddDocument(text);
  }
  PretrainConfig config;
  config.dim = 16;
  config.epochs = 20;
  const PretrainResult result = PretrainTokenEmbeddings(corpus, config);
  EXPECT_GT(result.num_cooccurrence_pairs, 0u);
  const Vocabulary& vocab = corpus.vocabulary();
  const auto va0 = result.token_embeddings.Row(vocab.Lookup("a0"));
  const auto va1 = result.token_embeddings.Row(vocab.Lookup("a1"));
  const auto vb0 = result.token_embeddings.Row(vocab.Lookup("b0"));
  EXPECT_GT(CosineSimilarity(va0, va1), CosineSimilarity(va0, vb0));
}

TEST(PretrainTest, MatchesParentChecksum) {
  // Pins pre-training's exact bits: FNV-1a over every token embedding and
  // the bits of the final loss. Dim 20 runs the AdaGrad kernel's
  // non-multiple-of-8 tail, dim 64 the full 8-float groups only. The
  // constants are the bits of the per-element loop the batched AdaGrad
  // kernel replaced; changing them changes every pre-trained model.
  Corpus corpus;
  Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    std::string text;
    for (int w = 0; w < 10; ++w) {
      text += "t" + std::to_string(rng.Uniform(i % 3 == 0 ? 30 : 12)) + " ";
    }
    corpus.AddDocument(text);
  }
  struct Case {
    size_t dim;
    uint64_t checksum;
  };
  for (const Case& c : {Case{20, 0xe74f68910c8a2599ULL},
                       Case{64, 0xd023634906445d0cULL}}) {
    SCOPED_TRACE("dim=" + std::to_string(c.dim));
    PretrainConfig config;
    config.dim = c.dim;
    config.epochs = 4;
    const PretrainResult result = PretrainTokenEmbeddings(corpus, config);
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const void* data, size_t bytes) {
      const auto* p = static_cast<const unsigned char*>(data);
      for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
      }
    };
    for (size_t r = 0; r < result.token_embeddings.rows(); ++r) {
      const auto row = result.token_embeddings.Row(r);
      mix(row.data(), row.size() * sizeof(float));
    }
    mix(&result.final_loss, sizeof(result.final_loss));
    EXPECT_EQ(h, c.checksum) << std::hex << "0x" << h;
  }
}

TEST(TrainerTest, LossDecreasesAndSeparatesClusters) {
  // Two lexical clusters; triples always pair same-cluster positives with
  // cross-cluster negatives.
  Corpus corpus;
  Rng rng(31);
  const int docs_per_cluster = 20;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < docs_per_cluster; ++i) {
      std::string text;
      for (int w = 0; w < 10; ++w) {
        text += (c == 0 ? "x" : "y") + std::to_string(rng.Uniform(8));
        text += ' ';
      }
      corpus.AddDocument(text);
    }
  }
  EncoderConfig encoder_config;
  encoder_config.dim = 16;
  DocumentEncoder encoder(corpus.vocabulary().size(), encoder_config);
  Rng init_rng(1);
  encoder.InitializeRandomTokens(init_rng, 0.3f);

  std::vector<Triple> triples;
  for (int i = 0; i < docs_per_cluster; ++i) {
    for (int s = 0; s < 2; ++s) {
      const int32_t seed = i;
      const int32_t pos = (i + 1 + s) % docs_per_cluster;
      const int32_t neg =
          docs_per_cluster + static_cast<int32_t>(rng.Uniform(docs_per_cluster));
      triples.push_back({pos, seed, neg});
    }
  }
  TrainerConfig config;
  config.epochs = 12;
  config.adam.learning_rate = 5e-3;
  TripletTrainer trainer(&encoder, &corpus);
  const TrainStats stats = trainer.Train(triples, config);
  ASSERT_EQ(stats.epoch_loss.size(), 12u);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());

  // Held-out pairs: same-cluster distance < cross-cluster distance.
  const auto e0 = encoder.Encode(corpus.Document(2));
  const auto e1 = encoder.Encode(corpus.Document(7));
  const auto f0 = encoder.Encode(corpus.Document(docs_per_cluster + 2));
  EXPECT_LT(L2Distance(e0, e1), L2Distance(e0, f0));
}

TEST(TrainerTest, EmptyTriplesIsNoOp) {
  Corpus corpus;
  corpus.AddDocument("hello world");
  DocumentEncoder encoder(corpus.vocabulary().size(), {});
  const Matrix before = encoder.token_embeddings();
  TripletTrainer trainer(&encoder, &corpus);
  const TrainStats stats = trainer.Train({}, {});
  EXPECT_EQ(stats.num_triples, 0u);
  EXPECT_EQ(encoder.token_embeddings(), before);
}

TEST(KMeansTest, RecoversSeparatedClusters) {
  Rng rng(41);
  Matrix points(60, 2);
  for (size_t i = 0; i < 60; ++i) {
    const float cx = i < 30 ? 0.0f : 10.0f;
    points.At(i, 0) = cx + static_cast<float>(rng.Normal(0, 0.5));
    points.At(i, 1) = static_cast<float>(rng.Normal(0, 0.5));
  }
  KMeansConfig config;
  config.num_clusters = 2;
  const KMeansResult result = RunKMeans(points, config);
  ASSERT_EQ(result.assignment.size(), 60u);
  // All points in each half share one cluster id, and the ids differ.
  for (size_t i = 1; i < 30; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[0]);
  }
  for (size_t i = 31; i < 60; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[30]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[30]);
}

TEST(KMeansTest, HandlesFewerPointsThanClusters) {
  Matrix points(3, 2, 1.0f);
  KMeansConfig config;
  config.num_clusters = 8;
  const KMeansResult result = RunKMeans(points, config);
  EXPECT_EQ(result.centroids.rows(), 3u);
}

}  // namespace
}  // namespace kpef
