#include "embed/vector_ops.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <string_view>

namespace kpef {
namespace {

// --- Scalar baseline: 8 independent lanes, fixed reduction order (see
// the contract in vector_ops.h). The lane-parallel body auto-vectorizes
// to SSE on the x86-64 baseline without changing results, because every
// lane is an independent float accumulator.

inline float ReduceLanes(const float* l) {
  // Mirrors the AVX2 horizontal reduction: lo+hi halves, movehl, add.
  const float m0 = l[0] + l[4];
  const float m1 = l[1] + l[5];
  const float m2 = l[2] + l[6];
  const float m3 = l[3] + l[7];
  return (m0 + m2) + (m1 + m3);
}

float DotScalar(const float* a, const float* b, size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    for (size_t j = 0; j < 8; ++j) lanes[j] += a[i + j] * b[i + j];
  }
  for (size_t i = n8; i < n; ++i) lanes[i - n8] += a[i] * b[i];
  return ReduceLanes(lanes);
}

float SquaredL2Scalar(const float* a, const float* b, size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const float d = a[i + j] - b[i + j];
      lanes[j] += d * d;
    }
  }
  for (size_t i = n8; i < n; ++i) {
    const float d = a[i] - b[i];
    lanes[i - n8] += d * d;
  }
  return ReduceLanes(lanes);
}

void AxpyScalar(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

// --- Trainer kernels: purely elementwise (no accumulator lanes), so the
// scalar and AVX2 paths are bit-identical as long as neither contracts
// mul+add into FMA (this TU targets baseline x86-64, which has no FMA;
// the AVX2 TU is compiled with -ffp-contract=off).

void Axpy2Scalar(float a, const float* x1, float b, const float* x2, float* y,
                 size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x1[i] + b * x2[i];
}

void TripletGradScalar(const float* s, const float* p, const float* n_,
                       float inv_dpos, float inv_dneg, float* gs, float* gp,
                       float* gn, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float up = (s[i] - p[i]) * inv_dpos;
    const float un = (s[i] - n_[i]) * inv_dneg;
    gs[i] = up - un;
    gp[i] = -up;
    gn[i] = un;
  }
}

void AdamUpdateScalar(float* params, const float* grads, float* m, float* v,
                      float beta1, float beta2, float alpha, float eps,
                      size_t n) {
  const float omb1 = 1.0f - beta1;
  const float omb2 = 1.0f - beta2;
  for (size_t i = 0; i < n; ++i) {
    const float g = grads[i];
    const float mi = beta1 * m[i] + omb1 * g;
    const float vi = beta2 * v[i] + omb2 * (g * g);
    m[i] = mi;
    v[i] = vi;
    params[i] -= (alpha * mi) / (std::sqrt(vi) + eps);
  }
}

// --- Batched slots: each is the loop of single-row calls it stands for.

void AdagradPairScalar(float* wi, float* wj, float* gwi, float* gwj,
                       float grad, float lr, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float gi = grad * wj[i];
    const float gj = grad * wi[i];
    wi[i] -= lr * gi / std::sqrt(gwi[i]);
    wj[i] -= lr * gj / std::sqrt(gwj[i]);
    gwi[i] += gi * gi;
    gwj[i] += gj * gj;
  }
}

void DotRowsScalar(const float* rows, size_t stride, size_t m, const float* x,
                   float* out, size_t n) {
  for (size_t r = 0; r < m; ++r) out[r] += DotScalar(rows + r * stride, x, n);
}

void AxpyRowsScalar(const float* rows, size_t stride, const int32_t* index,
                    const float* alpha, size_t m, float* y, size_t n) {
  for (size_t r = 0; r < m; ++r) {
    const size_t id = index != nullptr ? static_cast<size_t>(index[r]) : r;
    AxpyScalar(alpha != nullptr ? alpha[id] : 1.0f, rows + id * stride, y, n);
  }
}

void Rank1UpdateScalar(float* rows, size_t stride, size_t m,
                       const float* alpha, const float* x, size_t n) {
  for (size_t r = 0; r < m; ++r) AxpyScalar(alpha[r], x, rows + r * stride, n);
}

constexpr DistanceKernel kScalarKernel = {
    "scalar",          DotScalar,         SquaredL2Scalar,
    AxpyScalar,        ScaleScalar,       Axpy2Scalar,
    TripletGradScalar, AdamUpdateScalar,  AdagradPairScalar,
    DotRowsScalar,     AxpyRowsScalar,    Rank1UpdateScalar};

}  // namespace

const DistanceKernel& ScalarKernel() { return kScalarKernel; }

#if defined(KPEF_HAVE_AVX2)
// Implemented in vector_ops_avx2.cc (compiled with -mavx2).
namespace internal {
const DistanceKernel& Avx2Kernel();
}

const DistanceKernel* Avx2KernelOrNull() {
#if defined(__GNUC__) || defined(__clang__)
  static const bool supported = __builtin_cpu_supports("avx2");
#else
  static const bool supported = false;
#endif
  return supported ? &internal::Avx2Kernel() : nullptr;
}
#else
const DistanceKernel* Avx2KernelOrNull() { return nullptr; }
#endif

const DistanceKernel& ActiveKernel() {
  static const DistanceKernel* const kernel = [] {
    const char* env = std::getenv("KPEF_SIMD");
    if (env != nullptr && std::string_view(env) == "scalar") {
      return &ScalarKernel();
    }
    if (const DistanceKernel* avx2 = Avx2KernelOrNull()) return avx2;
    return &ScalarKernel();
  }();
  return *kernel;
}

float Dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  return ActiveKernel().dot(a.data(), b.data(), a.size());
}

float SquaredL2Distance(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  return ActiveKernel().squared_l2(a.data(), b.data(), a.size());
}

float L2Distance(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(SquaredL2Distance(a, b));
}

float L2Norm(std::span<const float> a) {
  return std::sqrt(ActiveKernel().dot(a.data(), a.data(), a.size()));
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  ActiveKernel().axpy(alpha, x.data(), y.data(), x.size());
}

void Scale(float alpha, std::span<float> x) {
  ActiveKernel().scale(alpha, x.data(), x.size());
}

void NormalizeL2(std::span<float> x) {
  const float norm = L2Norm(x);
  if (norm > 0.0f) Scale(1.0f / norm, x);
}

float CosineSimilarity(std::span<const float> a, std::span<const float> b) {
  const float na = L2Norm(a);
  const float nb = L2Norm(b);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return Dot(a, b) / (na * nb);
}

}  // namespace kpef
