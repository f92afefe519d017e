// Property tests for the dispatched distance kernels (embed/vector_ops.h):
// the scalar baseline and the AVX2 path must agree bit-for-bit on every
// input (the accumulation contract), and both must track a double-precision
// reference within the documented tolerance — on random and adversarial
// lengths, including unpadded spans and misaligned (offset) pointers.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "embed/matrix.h"
#include "embed/vector_ops.h"

namespace kpef {
namespace {

// Lengths chosen to hit every dispatch shape: sub-width, exact multiples
// of the 8-float kernel width, every tail residue, and large.
const size_t kLengths[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  15,
                           16, 17, 23, 24, 31, 32, 33, 63, 64, 100, 127,
                           128, 255, 256, 1000, 1024, 4096};

std::vector<float> RandomVec(Rng& rng, size_t n, double scale = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, scale));
  return v;
}

double ReferenceDot(const std::vector<float>& a, const std::vector<float>& b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double ReferenceSquaredL2(const std::vector<float>& a,
                          const std::vector<float>& b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

// Bitwise equality, so a -0/+0 difference fails where == would pass.
bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// One input set for the batched slots. Every array starts `offset`
// floats into its buffer, so the pointers can be misaligned; the m rows
// are `stride` floats apart; `index` gathers rows with repeats, as a
// document repeats tokens.
struct BatchedInputs {
  size_t n = 0, m = 0, stride = 0, offset = 0;
  std::vector<float> rows;      // offset + m * stride
  std::vector<float> alpha;     // m
  std::vector<int32_t> index;   // m ids in [0, m)
  std::vector<float> x, y;      // offset + n
  std::vector<float> out;       // m
  std::vector<float> wi, wj;    // offset + n
  std::vector<float> gwi, gwj;  // offset + n, positive
  float grad = 0.0f, lr = 0.0f;
};

// `value(i, salt)` fills every float array; the AdaGrad accumulators
// take its magnitude plus one, as they start at 1 and only grow.
template <typename Fn>
BatchedInputs MakeBatchedInputs(Rng& rng, size_t n, size_t m, size_t offset,
                                Fn value) {
  BatchedInputs in;
  in.n = n;
  in.m = m;
  in.offset = offset;
  in.stride = n + 3;  // not a multiple of 8: rows are misaligned too
  auto fill = [&](std::vector<float>& v, size_t size, int salt) {
    v.resize(size);
    for (size_t i = 0; i < size; ++i) v[i] = value(i, salt);
  };
  fill(in.rows, offset + m * in.stride, 1);
  fill(in.alpha, m, 2);
  fill(in.x, offset + n, 3);
  fill(in.y, offset + n, 4);
  fill(in.out, m, 5);
  fill(in.wi, offset + n, 6);
  fill(in.wj, offset + n, 7);
  fill(in.gwi, offset + n, 8);
  fill(in.gwj, offset + n, 9);
  for (float& g : in.gwi) g = 1.0f + std::abs(g);
  for (float& g : in.gwj) g = 1.0f + std::abs(g);
  for (size_t r = 0; r < m; ++r) {
    in.index.push_back(static_cast<int32_t>(rng.Uniform(m)));
  }
  in.grad = value(0, 10);
  in.lr = 0.05f;
  return in;
}

BatchedInputs RandomBatchedInputs(Rng& rng, size_t n, size_t m,
                                  size_t offset, double scale) {
  return MakeBatchedInputs(rng, n, m, offset, [&](size_t, int) {
    return static_cast<float>(rng.Normal(0.0, scale));
  });
}

// Magnitudes from 1e-4 to 1e4 with sign flips, and signed zeros, so the
// per-element add order and the sign of zero both show.
BatchedInputs AdversarialBatchedInputs(Rng& rng, size_t n, size_t m) {
  return MakeBatchedInputs(rng, n, m, 0, [](size_t i, int salt) {
    const size_t k = i + static_cast<size_t>(salt) * 5;
    if (k % 11 == 0) return k % 2 ? -0.0f : 0.0f;
    return (k % 3 ? -1.0f : 1.0f) *
           std::pow(10.0f, static_cast<float>(k % 9) - 4.0f);
  });
}

// Every batched slot's outputs on one input set.
struct BatchedOutputs {
  std::vector<float> wi, wj, gwi, gwj;  // adagrad_pair
  std::vector<float> dots;              // dot_rows
  std::vector<float> gathered;          // axpy_rows, index and alpha
  std::vector<float> unit_gathered;     // axpy_rows, index, alpha = 1
  std::vector<float> strided;           // axpy_rows, rows in order
  std::vector<float> rank1;             // rank1_update
};

BatchedOutputs RunBatched(const DistanceKernel& k, const BatchedInputs& in) {
  const size_t o = in.offset;
  BatchedOutputs out{in.wi, in.wj, in.gwi, in.gwj, in.out,
                     in.y,  in.y,  in.y,   in.rows};
  k.adagrad_pair(out.wi.data() + o, out.wj.data() + o, out.gwi.data() + o,
                 out.gwj.data() + o, in.grad, in.lr, in.n);
  k.dot_rows(in.rows.data() + o, in.stride, in.m, in.x.data() + o,
             out.dots.data(), in.n);
  k.axpy_rows(in.rows.data() + o, in.stride, in.index.data(), in.alpha.data(),
              in.m, out.gathered.data() + o, in.n);
  k.axpy_rows(in.rows.data() + o, in.stride, in.index.data(), nullptr, in.m,
              out.unit_gathered.data() + o, in.n);
  k.axpy_rows(in.rows.data() + o, in.stride, nullptr, in.alpha.data(), in.m,
              out.strided.data() + o, in.n);
  k.rank1_update(out.rank1.data() + o, in.stride, in.m, in.alpha.data(),
                 in.x.data() + o, in.n);
  return out;
}

// The loops the batched slots replace: GloVe's per-element AdaGrad step
// as it stood in pretrain.cc, and one dot or axpy call per row.
BatchedOutputs RunSingleRowLoops(const DistanceKernel& k,
                                 const BatchedInputs& in) {
  const size_t o = in.offset;
  BatchedOutputs out{in.wi, in.wj, in.gwi, in.gwj, in.out,
                     in.y,  in.y,  in.y,   in.rows};
  float* wi = out.wi.data() + o;
  float* wj = out.wj.data() + o;
  float* gwi = out.gwi.data() + o;
  float* gwj = out.gwj.data() + o;
  for (size_t i = 0; i < in.n; ++i) {
    const float gi = in.grad * wj[i];
    const float gj = in.grad * wi[i];
    wi[i] -= in.lr * gi / std::sqrt(gwi[i]);
    wj[i] -= in.lr * gj / std::sqrt(gwj[i]);
    gwi[i] += gi * gi;
    gwj[i] += gj * gj;
  }
  const float* rows = in.rows.data() + o;
  for (size_t r = 0; r < in.m; ++r) {
    out.dots[r] += k.dot(rows + r * in.stride, in.x.data() + o, in.n);
    const size_t id = static_cast<size_t>(in.index[r]);
    k.axpy(in.alpha[id], rows + id * in.stride, out.gathered.data() + o,
           in.n);
    k.axpy(1.0f, rows + id * in.stride, out.unit_gathered.data() + o, in.n);
    k.axpy(in.alpha[r], rows + r * in.stride, out.strided.data() + o, in.n);
    k.axpy(in.alpha[r], in.x.data() + o, out.rank1.data() + o + r * in.stride,
           in.n);
  }
  return out;
}

void ExpectSameBits(const BatchedOutputs& a, const BatchedOutputs& b,
                    const std::string& what) {
  EXPECT_TRUE(SameBits(a.wi, b.wi)) << "adagrad_pair wi " << what;
  EXPECT_TRUE(SameBits(a.wj, b.wj)) << "adagrad_pair wj " << what;
  EXPECT_TRUE(SameBits(a.gwi, b.gwi)) << "adagrad_pair gwi " << what;
  EXPECT_TRUE(SameBits(a.gwj, b.gwj)) << "adagrad_pair gwj " << what;
  EXPECT_TRUE(SameBits(a.dots, b.dots)) << "dot_rows " << what;
  EXPECT_TRUE(SameBits(a.gathered, b.gathered)) << "axpy_rows " << what;
  EXPECT_TRUE(SameBits(a.unit_gathered, b.unit_gathered))
      << "axpy_rows alpha=1 " << what;
  EXPECT_TRUE(SameBits(a.strided, b.strided))
      << "axpy_rows no index " << what;
  EXPECT_TRUE(SameBits(a.rank1, b.rank1)) << "rank1_update " << what;
}

std::string Shape(size_t n, size_t m, size_t offset = 0) {
  return "n=" + std::to_string(n) + " m=" + std::to_string(m) +
         " offset=" + std::to_string(offset);
}

// Row counts: none, one, below, at and past the dot_rows pass width.
const size_t kRowCounts[] = {0, 1, 3, 4, 5, 8, 9, 13};

TEST(KernelDispatchTest, ScalarKernelAlwaysPresent) {
  const DistanceKernel& k = ScalarKernel();
  EXPECT_STREQ(k.name, "scalar");
  ASSERT_NE(k.dot, nullptr);
  ASSERT_NE(k.squared_l2, nullptr);
  ASSERT_NE(k.axpy, nullptr);
  ASSERT_NE(k.scale, nullptr);
  ASSERT_NE(k.adagrad_pair, nullptr);
  ASSERT_NE(k.dot_rows, nullptr);
  ASSERT_NE(k.axpy_rows, nullptr);
  ASSERT_NE(k.rank1_update, nullptr);
}

TEST(KernelDispatchTest, ActiveKernelIsScalarOrAvx2) {
  const DistanceKernel& active = ActiveKernel();
  const DistanceKernel* avx2 = Avx2KernelOrNull();
  if (avx2 != nullptr) {
    EXPECT_TRUE(&active == &ScalarKernel() || &active == avx2);
  } else {
    EXPECT_EQ(&active, &ScalarKernel());
  }
}

// The core contract: runtime dispatch can never change a result, so the
// AVX2 path must match the scalar baseline EXACTLY (no tolerance).
TEST(KernelAgreementTest, Avx2MatchesScalarBitForBit) {
  const DistanceKernel* avx2 = Avx2KernelOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable";
  const DistanceKernel& scalar = ScalarKernel();
  Rng rng(42);
  for (size_t n : kLengths) {
    for (int rep = 0; rep < 8; ++rep) {
      // Mix magnitudes so lane sums are not trivially symmetric.
      const std::vector<float> a = RandomVec(rng, n, rep % 2 ? 1.0 : 100.0);
      const std::vector<float> b = RandomVec(rng, n, rep % 3 ? 1.0 : 0.01);
      const float dot_s = scalar.dot(a.data(), b.data(), n);
      const float dot_v = avx2->dot(a.data(), b.data(), n);
      EXPECT_TRUE(SameBits(dot_s, dot_v)) << "dot n=" << n << " rep=" << rep;
      const float l2_s = scalar.squared_l2(a.data(), b.data(), n);
      const float l2_v = avx2->squared_l2(a.data(), b.data(), n);
      EXPECT_TRUE(SameBits(l2_s, l2_v))
          << "squared_l2 n=" << n << " rep=" << rep;

      std::vector<float> ys = a, yv = a;
      scalar.axpy(0.37f, b.data(), ys.data(), n);
      avx2->axpy(0.37f, b.data(), yv.data(), n);
      EXPECT_TRUE(SameBits(ys, yv)) << "axpy n=" << n;
      std::vector<float> xs = a, xv = a;
      scalar.scale(-1.75f, xs.data(), n);
      avx2->scale(-1.75f, xv.data(), n);
      EXPECT_TRUE(SameBits(xs, xv)) << "scale n=" << n;

      const size_t m = kRowCounts[rep];
      const BatchedInputs in = RandomBatchedInputs(rng, n, m, 0,
                                                   rep % 2 ? 1.0 : 100.0);
      ExpectSameBits(RunBatched(scalar, in), RunBatched(*avx2, in),
                     Shape(n, m));
    }
  }
}

// Unaligned/offset operands: kernels take raw pointers and must not
// assume 32-byte alignment (only Matrix rows guarantee that).
TEST(KernelAgreementTest, OffsetPointersAgree) {
  const DistanceKernel* avx2 = Avx2KernelOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable";
  const DistanceKernel& scalar = ScalarKernel();
  Rng rng(7);
  const std::vector<float> a = RandomVec(rng, 256 + 8);
  const std::vector<float> b = RandomVec(rng, 256 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : {29u, 64u, 113u, 256u}) {
      const float* pa = a.data() + offset;
      const float* pb = b.data() + (7 - offset);
      EXPECT_TRUE(SameBits(scalar.dot(pa, pb, n), avx2->dot(pa, pb, n)))
          << "offset=" << offset << " n=" << n;
      EXPECT_TRUE(SameBits(scalar.squared_l2(pa, pb, n),
                           avx2->squared_l2(pa, pb, n)))
          << "offset=" << offset << " n=" << n;
    }
    for (size_t n : kLengths) {
      const size_t m = kRowCounts[(n + offset) % std::size(kRowCounts)];
      const BatchedInputs in = RandomBatchedInputs(rng, n, m, offset, 1.0);
      ExpectSameBits(RunBatched(scalar, in), RunBatched(*avx2, in),
                     Shape(n, m, offset));
    }
  }
}

// Adversarial accumulation orders: values spanning many magnitudes, sign
// cancellation, and constant vectors.
TEST(KernelAgreementTest, AdversarialValuesAgree) {
  const DistanceKernel* avx2 = Avx2KernelOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable";
  const DistanceKernel& scalar = ScalarKernel();
  for (size_t n : {17u, 40u, 129u}) {
    std::vector<float> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      // Alternating huge/tiny with sign flips stresses the lane sums.
      a[i] = (i % 2 ? 1.0f : -1.0f) * std::pow(10.0f, float(i % 9) - 4.0f);
      b[i] = (i % 3 ? -1.0f : 1.0f) * std::pow(10.0f, 4.0f - float(i % 7));
    }
    EXPECT_TRUE(SameBits(scalar.dot(a.data(), b.data(), n),
                         avx2->dot(a.data(), b.data(), n)));
    EXPECT_TRUE(SameBits(scalar.squared_l2(a.data(), b.data(), n),
                         avx2->squared_l2(a.data(), b.data(), n)));
  }
  Rng rng(13);
  for (size_t n : kLengths) {
    for (size_t m : kRowCounts) {
      const BatchedInputs in = AdversarialBatchedInputs(rng, n, m);
      ExpectSameBits(RunBatched(scalar, in), RunBatched(*avx2, in),
                     Shape(n, m));
    }
  }
}

// Each batched slot is bit-identical to the loop of single-row calls it
// replaced, on every kernel: that is what lets the callers swap the loop
// for the slot without changing a trained bit.
TEST(KernelBatchedTest, SlotsMatchTheSingleRowLoopsTheyReplace) {
  std::vector<const DistanceKernel*> kernels = {&ScalarKernel()};
  if (const DistanceKernel* avx2 = Avx2KernelOrNull()) kernels.push_back(avx2);
  Rng rng(17);
  for (const DistanceKernel* k : kernels) {
    for (size_t n : kLengths) {
      for (size_t m : kRowCounts) {
        const std::string what = std::string(k->name) + " " + Shape(n, m);
        const BatchedInputs random = RandomBatchedInputs(rng, n, m, 1, 1.0);
        ExpectSameBits(RunBatched(*k, random), RunSingleRowLoops(*k, random),
                       what);
        const BatchedInputs adversarial = AdversarialBatchedInputs(rng, n, m);
        ExpectSameBits(RunBatched(*k, adversarial),
                       RunSingleRowLoops(*k, adversarial), what);
      }
    }
  }
}

TEST(KernelAccuracyTest, TracksDoubleReference) {
  Rng rng(99);
  for (size_t n : kLengths) {
    if (n == 0) continue;
    const std::vector<float> a = RandomVec(rng, n);
    const std::vector<float> b = RandomVec(rng, n);
    const double ref_dot = ReferenceDot(a, b);
    const double ref_l2 = ReferenceSquaredL2(a, b);
    // Documented contract: <= 1e-4 relative error (plus a small absolute
    // floor for near-cancelling dots).
    const double dot_tol = 1e-4 * std::abs(ref_dot) + 1e-3;
    const double l2_tol = 1e-4 * ref_l2 + 1e-5;
    EXPECT_NEAR(Dot(a, b), ref_dot, dot_tol) << "n=" << n;
    EXPECT_NEAR(SquaredL2Distance(a, b), ref_l2, l2_tol) << "n=" << n;
  }
}

// Zero padding must be a no-op: a padded-span call returns exactly the
// logical-width result (this is what lets Matrix rows skip the tail).
TEST(KernelPaddingTest, PaddedCallMatchesLogicalCall) {
  Rng rng(5);
  for (size_t cols : {1u, 3u, 7u, 12u, 20u, 65u}) {
    Matrix m(2, cols);
    for (size_t r = 0; r < 2; ++r) {
      for (float& v : m.Row(r)) v = static_cast<float>(rng.Normal());
    }
    EXPECT_EQ(SquaredL2Distance(m.Row(0), m.Row(1)),
              SquaredL2Distance(m.PaddedRow(0), m.PaddedRow(1)))
        << "cols=" << cols;
    EXPECT_EQ(Dot(m.Row(0), m.Row(1)), Dot(m.PaddedRow(0), m.PaddedRow(1)))
        << "cols=" << cols;
    // And a free-standing query padded with PadToAligned agrees too.
    const AlignedVector q = PadToAligned(m.Row(1));
    EXPECT_EQ(SquaredL2Distance(m.Row(0), m.Row(1)),
              SquaredL2Distance(m.PaddedRow(0),
                                std::span<const float>(q.data(), q.size())))
        << "cols=" << cols;
  }
}

TEST(KernelPaddingTest, MatrixRowsAreAlignedAndZeroPadded) {
  Matrix m(5, 13, 2.5f);
  EXPECT_EQ(m.stride(), 16u);
  for (size_t r = 0; r < m.rows(); ++r) {
    const auto padded = m.PaddedRow(r);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(padded.data()) % kKernelAlignment,
              0u)
        << "row " << r;
    for (size_t c = m.cols(); c < m.stride(); ++c) {
      EXPECT_EQ(padded[c], 0.0f) << "row " << r << " pad col " << c;
    }
  }
}

TEST(VectorOpsTest, FreeFunctionsRouteThroughActiveKernel) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(Dot(a, b), 12.0f);
  EXPECT_FLOAT_EQ(SquaredL2Distance(a, b), 9.0f + 49.0f + 9.0f);
  EXPECT_FLOAT_EQ(L2Distance(a, b), std::sqrt(67.0f));
  EXPECT_FLOAT_EQ(L2Norm(a), std::sqrt(14.0f));
  std::vector<float> y = {1.0f, 1.0f, 1.0f};
  Axpy(2.0f, a, y);
  EXPECT_EQ(y, (std::vector<float>{3.0f, 5.0f, 7.0f}));
  Scale(0.5f, y);
  EXPECT_EQ(y, (std::vector<float>{1.5f, 2.5f, 3.5f}));
}

}  // namespace
}  // namespace kpef
