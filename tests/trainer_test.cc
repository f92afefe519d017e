// Parallel trainer contracts (DESIGN.md §15): training is byte-identical
// for any thread count and either kernel; the elementwise kernels agree
// bitwise between scalar and AVX2.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embed/document_encoder.h"
#include "embed/trainer.h"
#include "embed/triplet.h"
#include "embed/vector_ops.h"
#include "text/corpus.h"

namespace kpef {
namespace {

/// Two lexical clusters; triples pair same-cluster positives with
/// cross-cluster negatives (same shape as embed_test's trainer test).
struct TrainSetup {
  Corpus corpus;
  std::vector<Triple> triples;
};

TrainSetup MakeClusteredSetup(int docs_per_cluster, int triples_per_seed) {
  TrainSetup setup;
  Rng rng(31);
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < docs_per_cluster; ++i) {
      std::string text;
      for (int w = 0; w < 10; ++w) {
        text += (c == 0 ? "x" : "y") + std::to_string(rng.Uniform(8));
        text += ' ';
      }
      setup.corpus.AddDocument(text);
    }
  }
  for (int i = 0; i < docs_per_cluster; ++i) {
    for (int s = 0; s < triples_per_seed; ++s) {
      const int32_t seed = i;
      const int32_t pos = (i + 1 + s) % docs_per_cluster;
      const int32_t neg =
          docs_per_cluster +
          static_cast<int32_t>(rng.Uniform(docs_per_cluster));
      setup.triples.push_back({pos, seed, neg});
    }
  }
  return setup;
}

DocumentEncoder MakeEncoder(const Corpus& corpus, size_t dim = 16) {
  EncoderConfig config;
  config.dim = dim;
  DocumentEncoder encoder(corpus.vocabulary().size(), config);
  Rng init_rng(1);
  encoder.InitializeRandomTokens(init_rng, 0.3f);
  return encoder;
}

TrainStats TrainCopy(const TrainSetup& setup, const TrainerConfig& config,
                     DocumentEncoder& encoder) {
  TripletTrainer trainer(&encoder, &setup.corpus);
  return trainer.Train(setup.triples, config);
}

void ExpectEncodersIdentical(const DocumentEncoder& a,
                             const DocumentEncoder& b) {
  EXPECT_EQ(a.token_embeddings(), b.token_embeddings());
  EXPECT_EQ(a.projection(), b.projection());
  ASSERT_EQ(a.bias().size(), b.bias().size());
  for (size_t i = 0; i < a.bias().size(); ++i) {
    EXPECT_EQ(a.bias()[i], b.bias()[i]) << "bias[" << i << "]";
  }
}

// --- Byte-identity across thread counts.

TEST(TrainerDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  // 38 triples with batch 16: full batches, a ragged final batch, and a
  // ragged micro-chunk inside it.
  const TrainSetup setup = MakeClusteredSetup(19, 2);
  ASSERT_EQ(setup.triples.size(), 38u);

  TrainerConfig config;
  config.epochs = 3;
  config.batch_size = 16;
  config.adam.learning_rate = 5e-3;

  config.num_threads = 1;
  DocumentEncoder reference = MakeEncoder(setup.corpus);
  const TrainStats ref_stats = TrainCopy(setup, config, reference);

  for (size_t threads : {2u, 4u, 8u}) {
    config.num_threads = threads;
    DocumentEncoder encoder = MakeEncoder(setup.corpus);
    const TrainStats stats = TrainCopy(setup, config, encoder);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectEncodersIdentical(reference, encoder);
    // Loss accumulation is also order-fixed, so the reported epoch
    // losses match exactly too.
    EXPECT_EQ(ref_stats.epoch_loss, stats.epoch_loss);
  }
}

/// FNV-1a over the bytes of every trained parameter and the per-epoch
/// losses: a fingerprint of one training run, bit for bit.
uint64_t TrainedChecksum(const DocumentEncoder& encoder,
                         const TrainStats& stats) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  auto mix_matrix = [&](const Matrix& m) {
    for (size_t r = 0; r < m.rows(); ++r) {
      const auto row = m.Row(r);
      mix(row.data(), row.size() * sizeof(float));
    }
  };
  mix_matrix(encoder.token_embeddings());
  mix_matrix(encoder.projection());
  mix(encoder.bias().data(), encoder.bias().size() * sizeof(float));
  mix(stats.epoch_loss.data(), stats.epoch_loss.size() * sizeof(double));
  return h;
}

TEST(TrainerDeterminismTest, MatchesParentChecksum) {
  // Pins the trainer's exact bits: any change to the
  // per-chunk accumulation, the chunk-order merge or the Adam step shows
  // up here. 57 triples with batch 20 give chunk widths 8,8,4 in full
  // batches and 8,8,1 in the ragged last batch; dim 20 exercises the
  // kernels' non-multiple-of-8 tails; weighted-mean pooling routes
  // per-token weights through forward and backward. The constants are
  // the bits of the serial-merge trainer the row-parallel merge
  // replaced; changing them changes every trained model.
  const TrainSetup setup = MakeClusteredSetup(19, 3);
  ASSERT_EQ(setup.triples.size(), 57u);
  std::vector<float> weights(setup.corpus.vocabulary().size());
  for (size_t t = 0; t < weights.size(); ++t) {
    weights[t] = 0.5f + 0.25f * static_cast<float>(t % 4);
  }

  struct Case {
    bool train_tokens;
    uint64_t checksum;
  };
  for (const Case& c : {Case{true, 0x87b95e6b1d477ef0ULL},
                       Case{false, 0x0bce716a687e45a2ULL}}) {
    for (size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("train_tokens=" + std::to_string(c.train_tokens) +
                   " threads=" + std::to_string(threads));
      TrainerConfig config;
      config.epochs = 3;
      config.batch_size = 20;
      config.adam.learning_rate = 5e-3;
      config.train_token_embeddings = c.train_tokens;
      config.num_threads = threads;

      EncoderConfig encoder_config;
      encoder_config.dim = 20;
      encoder_config.pooling = Pooling::kWeightedMean;
      DocumentEncoder encoder(setup.corpus.vocabulary().size(),
                              encoder_config);
      Rng init_rng(1);
      encoder.InitializeRandomTokens(init_rng, 0.3f);
      encoder.SetTokenWeights(weights);
      const TrainStats stats = TrainCopy(setup, config, encoder);
      EXPECT_EQ(TrainedChecksum(encoder, stats), c.checksum)
          << std::hex << "0x" << TrainedChecksum(encoder, stats);
    }
  }
}

TEST(TrainerDeterminismTest, ScalarAndAvx2TrainingByteIdentical) {
  const DistanceKernel* avx2 = Avx2KernelOrNull();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "AVX2 kernel unavailable on this host/build";
  }
  const TrainSetup setup = MakeClusteredSetup(16, 2);

  TrainerConfig config;
  config.epochs = 2;
  config.batch_size = 16;
  config.adam.learning_rate = 5e-3;
  config.num_threads = 2;

  config.kernel = &ScalarKernel();
  DocumentEncoder scalar_encoder = MakeEncoder(setup.corpus);
  const TrainStats scalar_stats = TrainCopy(setup, config, scalar_encoder);

  config.kernel = avx2;
  DocumentEncoder avx2_encoder = MakeEncoder(setup.corpus);
  const TrainStats avx2_stats = TrainCopy(setup, config, avx2_encoder);

  // Every kernel the trainer touches is bit-identical between paths
  // (embed/vector_ops.h contract), so whole-run results are too.
  ExpectEncodersIdentical(scalar_encoder, avx2_encoder);
  EXPECT_EQ(scalar_stats.epoch_loss, avx2_stats.epoch_loss);
}

// --- New elementwise kernels: scalar vs AVX2 bit-identity.

TEST(TrainerKernelTest, TrainingKernelsScalarVsAvx2BitIdentical) {
  const DistanceKernel* avx2 = Avx2KernelOrNull();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "AVX2 kernel unavailable on this host/build";
  }
  const DistanceKernel& scalar = ScalarKernel();
  Rng rng(97);
  auto random_vec = [&](size_t n, float lo, float hi) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.UniformDouble(lo, hi));
    return v;
  };
  for (size_t n : {1u, 7u, 8u, 9u, 16u, 33u, 64u, 100u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto x1 = random_vec(n, -2.0f, 2.0f);
    const auto x2 = random_vec(n, -2.0f, 2.0f);
    auto y_s = random_vec(n, -1.0f, 1.0f);
    auto y_a = y_s;
    scalar.axpy2(0.7f, x1.data(), -1.3f, x2.data(), y_s.data(), n);
    avx2->axpy2(0.7f, x1.data(), -1.3f, x2.data(), y_a.data(), n);
    EXPECT_EQ(y_s, y_a);

    const auto s = random_vec(n, -1.0f, 1.0f);
    const auto p = random_vec(n, -1.0f, 1.0f);
    const auto ng = random_vec(n, -1.0f, 1.0f);
    std::vector<float> gs_s(n), gp_s(n), gn_s(n), gs_a(n), gp_a(n), gn_a(n);
    scalar.triplet_grad(s.data(), p.data(), ng.data(), 1.7f, 0.9f, gs_s.data(),
                        gp_s.data(), gn_s.data(), n);
    avx2->triplet_grad(s.data(), p.data(), ng.data(), 1.7f, 0.9f, gs_a.data(),
                       gp_a.data(), gn_a.data(), n);
    EXPECT_EQ(gs_s, gs_a);
    EXPECT_EQ(gp_s, gp_a);
    EXPECT_EQ(gn_s, gn_a);

    const auto grads = random_vec(n, -0.5f, 0.5f);
    auto params_s = random_vec(n, -1.0f, 1.0f);
    auto m_s = random_vec(n, -0.1f, 0.1f);
    auto v_s = random_vec(n, 0.0f, 0.2f);
    auto params_a = params_s;
    auto m_a = m_s;
    auto v_a = v_s;
    scalar.adam_update(params_s.data(), grads.data(), m_s.data(), v_s.data(),
                       0.9f, 0.999f, 1e-3f, 1e-8f, n);
    avx2->adam_update(params_a.data(), grads.data(), m_a.data(), v_a.data(),
                      0.9f, 0.999f, 1e-3f, 1e-8f, n);
    EXPECT_EQ(params_s, params_a);
    EXPECT_EQ(m_s, m_a);
    EXPECT_EQ(v_s, v_a);
  }
}

// --- Stats and observability surface.

TEST(TrainerStatsTest, ReportsWorkersScheduleAndThroughput) {
  const TrainSetup setup = MakeClusteredSetup(10, 2);
  for (size_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TrainerConfig config;
    config.epochs = 2;
    config.num_threads = threads;
    DocumentEncoder encoder = MakeEncoder(setup.corpus);
    const TrainStats stats = TrainCopy(setup, config, encoder);
    EXPECT_EQ(stats.workers, threads);
    EXPECT_EQ(stats.num_triples, setup.triples.size());
    EXPECT_GT(stats.triples_per_sec, 0.0);
    EXPECT_EQ(stats.epoch_loss.size(), 2u);
  }
}

}  // namespace
}  // namespace kpef
