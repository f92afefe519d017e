#include <sstream>

#include <gtest/gtest.h>

#include "ann/brute_force.h"
#include "ann/pg_index.h"
#include "common/rng.h"
#include "embed/model_io.h"
#include "text/corpus.h"
#include "scoped_temp_dir.h"

namespace kpef {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.Normal());
  }
  return m;
}

TEST(MatrixIoTest, RoundTrips) {
  const Matrix original = RandomMatrix(17, 9, 1);
  std::stringstream buffer;
  ASSERT_TRUE(SaveMatrix(original, buffer).ok());
  auto loaded = LoadMatrix(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows(), 17u);
  EXPECT_EQ(loaded->cols(), 9u);
  EXPECT_EQ(*loaded, original);
}

TEST(MatrixIoTest, RoundTripsEmpty) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveMatrix(Matrix(), buffer).ok());
  auto loaded = LoadMatrix(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0u);
}

TEST(MatrixIoTest, RejectsGarbage) {
  std::stringstream buffer("this is not a matrix");
  auto loaded = LoadMatrix(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixIoTest, RejectsTruncated) {
  const Matrix original = RandomMatrix(20, 8, 2);
  std::stringstream buffer;
  ASSERT_TRUE(SaveMatrix(original, buffer).ok());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(LoadMatrix(truncated).ok());
}

template <typename T>
void PutPod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Hand-crafts a matrix file header with the given dimensions.
std::stringstream HostileMatrixHeader(uint64_t rows, uint64_t cols) {
  std::stringstream buffer;
  PutPod<uint32_t>(buffer, 0x4B50464D);  // "KPFM"
  PutPod<uint32_t>(buffer, 1);           // version
  PutPod<uint64_t>(buffer, rows);
  PutPod<uint64_t>(buffer, cols);
  return buffer;
}

// Regression for the rows * cols overflow: hostile headers whose product
// wraps uint64_t back under the element cap must be rejected *before*
// the Matrix(rows, cols) allocation, on individual bounds.
TEST(MatrixIoTest, RejectsOverflowWrappingHeaderDims) {
  const std::pair<uint64_t, uint64_t> hostile[] = {
      {1ull << 33, 1ull << 31},  // product wraps to 0
      {1ull << 62, 1ull << 2},   // product wraps to 0
      {(1ull << 63) + 1, 2},     // product wraps to 2
      {0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull},
      {0xFFFFFFFFFFFFFFFFull, 1},
      {1, 0xFFFFFFFFFFFFFFFFull},
      {1ull << 40, 0},           // zero cols must not bypass the row bound
      {1ull << 33, 1},           // honest oversize rows
      {1, 1ull << 21},           // honest oversize cols
      {1ull << 20, 1ull << 20},  // individually fine, product too large
  };
  for (const auto& [rows, cols] : hostile) {
    std::stringstream buffer = HostileMatrixHeader(rows, cols);
    auto loaded = LoadMatrix(buffer);
    ASSERT_FALSE(loaded.ok()) << "rows=" << rows << " cols=" << cols;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(MatrixIoTest, PlausibleHeaderStillRejectedWhenTruncated) {
  // A header that passes the bounds check but has no payload must fail
  // on truncation, not crash or hand back uninitialized data.
  std::stringstream buffer = HostileMatrixHeader(8, 8);
  auto loaded = LoadMatrix(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EncoderIoHeaderTest, RejectsOverflowWrappingHeaderDims) {
  const std::pair<uint64_t, uint64_t> hostile[] = {
      {1ull << 33, 1ull << 31},  // vocab * dim wraps to 0
      {0xFFFFFFFFFFFFFFFFull, 2},
      {1ull << 20, 1ull << 20},  // product over the element cap
  };
  for (const auto& [vocab, dim] : hostile) {
    std::stringstream buffer;
    PutPod<uint32_t>(buffer, 0x4B504645);  // "KPFE"
    PutPod<uint32_t>(buffer, 1);           // version
    PutPod<uint64_t>(buffer, vocab);
    PutPod<uint64_t>(buffer, dim);
    PutPod<int32_t>(buffer, 0);            // pooling
    PutPod<uint8_t>(buffer, 1);            // normalize_output
    auto loaded = LoadEncoder(buffer);
    ASSERT_FALSE(loaded.ok()) << "vocab=" << vocab << " dim=" << dim;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(MatrixIoTest, MissingFileIsIOError) {
  auto loaded = LoadMatrix("/nonexistent/matrix.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

class EncoderIoTest : public ::testing::Test {
 protected:
  EncoderIoTest() {
    corpus_.AddDocument("alpha beta gamma delta");
    corpus_.AddDocument("beta epsilon");
    EncoderConfig config;
    config.dim = 12;
    config.pooling = Pooling::kWeightedMean;
    encoder_ = std::make_unique<DocumentEncoder>(corpus_.vocabulary().size(),
                                                 config);
    Rng rng(7);
    encoder_->InitializeRandomTokens(rng, 0.4f);
    std::vector<float> weights(corpus_.vocabulary().size(), 1.0f);
    weights[0] = 0.25f;
    encoder_->SetTokenWeights(weights);
    Matrix& proj = encoder_->projection();
    for (size_t r = 0; r < proj.rows(); ++r) {
      for (float& v : proj.Row(r)) {
        v += static_cast<float>(rng.Normal(0, 0.1));
      }
    }
  }

  Corpus corpus_;
  std::unique_ptr<DocumentEncoder> encoder_;
};

TEST_F(EncoderIoTest, RoundTripPreservesEncodings) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveEncoder(*encoder_, buffer).ok());
  auto loaded = LoadEncoder(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->vocab_size(), encoder_->vocab_size());
  EXPECT_EQ(loaded->dim(), encoder_->dim());
  EXPECT_EQ(loaded->config().pooling, Pooling::kWeightedMean);
  for (size_t doc = 0; doc < corpus_.NumDocuments(); ++doc) {
    EXPECT_EQ(loaded->Encode(corpus_.Document(doc)),
              encoder_->Encode(corpus_.Document(doc)));
  }
}

TEST_F(EncoderIoTest, RoundTripsMeanPoolingWithoutWeights) {
  DocumentEncoder plain(5, EncoderConfig{});
  std::stringstream buffer;
  ASSERT_TRUE(SaveEncoder(plain, buffer).ok());
  auto loaded = LoadEncoder(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->token_weights().empty());
}

TEST_F(EncoderIoTest, RejectsWrongMagic) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveMatrix(Matrix(2, 2), buffer).ok());  // matrix magic
  EXPECT_FALSE(LoadEncoder(buffer).ok());
}

class PGIndexIoTest : public ::testing::Test {
 protected:
  PGIndexIoTest() : points_(RandomMatrix(300, 16, 11)) {
    PGIndexConfig config;
    config.knn_k = 8;
    index_ = std::make_unique<PGIndex>(PGIndex::Build(points_, config));
  }

  Matrix points_;
  std::unique_ptr<PGIndex> index_;
};

TEST_F(PGIndexIoTest, RoundTripPreservesStructureAndSearch) {
  std::stringstream buffer;
  ASSERT_TRUE(index_->Save(buffer).ok());
  auto loaded = PGIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumPoints(), index_->NumPoints());
  EXPECT_EQ(loaded->NumEdges(), index_->NumEdges());
  EXPECT_EQ(loaded->navigating_node(), index_->navigating_node());
  for (size_t v = 0; v < index_->NumPoints(); ++v) {
    EXPECT_EQ(loaded->NeighborsOf(static_cast<int32_t>(v)),
              index_->NeighborsOf(static_cast<int32_t>(v)));
  }
  // Search results are identical.
  Rng rng(3);
  for (int q = 0; q < 5; ++q) {
    std::vector<float> query(16);
    for (float& v : query) v = static_cast<float>(rng.Normal());
    const auto a = index_->Search(query, 10, 30);
    const auto b = loaded->Search(query, 10, 30);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST_F(PGIndexIoTest, FileRoundTrip) {
  const ScopedTempDir tmp("model_io_test");
  const std::string path = tmp.File("pgindex.bin");
  ASSERT_TRUE(index_->Save(path).ok());
  auto loaded = PGIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumEdges(), index_->NumEdges());
}

TEST_F(PGIndexIoTest, RejectsCorruption) {
  std::stringstream buffer;
  ASSERT_TRUE(index_->Save(buffer).ok());
  std::string data = buffer.str();
  // Flip the navigating node to an absurd value.
  data[8] = '\xff';
  data[9] = '\xff';
  data[10] = '\xff';
  data[11] = '\x7f';
  std::stringstream corrupted(data);
  // Either the header check or a later validation must fire.
  auto loaded = PGIndex::Load(corrupted);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(PGIndexIoTest, RejectsTruncation) {
  std::stringstream buffer;
  ASSERT_TRUE(index_->Save(buffer).ok());
  const std::string full = buffer.str();
  for (size_t fraction : {5u, 50u, 90u}) {
    std::stringstream truncated(full.substr(0, full.size() * fraction / 100));
    EXPECT_FALSE(PGIndex::Load(truncated).ok()) << fraction << "%";
  }
}

TEST_F(PGIndexIoTest, RoundTripKeepsQuantization) {
  std::stringstream buffer;
  ASSERT_TRUE(index_->Save(buffer).ok());
  auto loaded = PGIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->quantized(), index_->quantized());
}

TEST_F(PGIndexIoTest, UnquantizedIndexRoundTripsUnquantized) {
  // An artifact saved without codes must load without codes: the
  // has-codes byte is an explicit escape, not a default.
  PGIndexConfig config;
  config.knn_k = 8;
  config.quantize = false;
  const PGIndex exact = PGIndex::Build(points_, config);
  ASSERT_FALSE(exact.quantized());
  std::stringstream buffer;
  ASSERT_TRUE(exact.Save(buffer).ok());
  auto loaded = PGIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->quantized());
}

TEST_F(PGIndexIoTest, LoadsVersion1ArtifactAndQuantizesIt) {
  // Synthesize a pre-PR-7 (version 1) artifact from public accessors:
  // same header prefix, fp32 rows + adjacency in external order, no
  // code section. Load must accept it and re-encode the codes, giving
  // old artifacts the quantized fast path with identical results.
  std::stringstream v1;
  auto write_pod = [&v1](const auto& value) {
    v1.write(reinterpret_cast<const char*>(&value),
             sizeof(value));
  };
  write_pod(static_cast<uint32_t>(0x4B504749));  // magic "KPGI"
  write_pod(static_cast<uint32_t>(1));           // version 1
  write_pod(static_cast<uint64_t>(points_.rows()));
  write_pod(static_cast<uint64_t>(points_.cols()));
  write_pod(index_->navigating_node());
  for (size_t r = 0; r < points_.rows(); ++r) {
    const auto row = points_.Row(r);
    v1.write(reinterpret_cast<const char*>(row.data()),
             static_cast<std::streamsize>(row.size() * sizeof(float)));
  }
  for (size_t v = 0; v < points_.rows(); ++v) {
    const auto nbrs = index_->NeighborsOf(static_cast<int32_t>(v));
    write_pod(static_cast<uint32_t>(nbrs.size()));
    v1.write(reinterpret_cast<const char*>(nbrs.data()),
             static_cast<std::streamsize>(nbrs.size() * sizeof(int32_t)));
  }
  auto loaded = PGIndex::Load(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->quantized());
  EXPECT_EQ(loaded->NumPoints(), index_->NumPoints());
  EXPECT_EQ(loaded->NumEdges(), index_->NumEdges());
  // Re-encoded codes are deterministic, so searches agree exactly with
  // the index the bytes came from.
  Rng rng(29);
  for (int q = 0; q < 5; ++q) {
    std::vector<float> query(points_.cols());
    for (float& v : query) v = static_cast<float>(rng.Normal());
    const auto a = index_->Search(query, 10, 30);
    const auto b = loaded->Search(query, 10, 30);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
    }
  }
}

}  // namespace
}  // namespace kpef
