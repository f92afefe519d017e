// AVX2 implementations of the DistanceKernel. This translation unit is
// the only one compiled with -mavx2; callers must go through
// Avx2KernelOrNull(), which checks CPUID before handing the pointers
// out. Compiled with -ffp-contract=off so mul+add never fuses into FMA:
// per the contract in vector_ops.h, each lane here performs the same
// float operations as the scalar baseline's lane, keeping the two paths
// bit-identical.

#if defined(KPEF_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "embed/vector_ops.h"

namespace kpef {
namespace {

inline float ReduceAvx2(__m256 acc) {
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 m = _mm_add_ps(lo, hi);                 // lanes j + j+4
  const __m128 t = _mm_add_ps(m, _mm_movehl_ps(m, m)); // (0+4)+(2+6), (1+5)+(3+7)
  return _mm_cvtss_f32(_mm_add_ss(t, _mm_shuffle_ps(t, t, 0x55)));
}

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
  }
  if (n8 == n) return ReduceAvx2(acc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (size_t i = n8; i < n; ++i) lanes[i - n8] += a[i] * b[i];
  return ReduceAvx2(_mm256_load_ps(lanes));
}

float SquaredL2Avx2(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  if (n8 == n) return ReduceAvx2(acc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (size_t i = n8; i < n; ++i) {
    const float d = a[i] - b[i];
    lanes[i - n8] += d * d;
  }
  return ReduceAvx2(_mm256_load_ps(lanes));
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 vy = _mm256_add_ps(
        _mm256_loadu_ps(y + i), _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
    _mm256_storeu_ps(y + i, vy);
  }
  for (size_t i = n8; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAvx2(float alpha, float* x, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (size_t i = n8; i < n; ++i) x[i] *= alpha;
}

// --- Trainer kernels: elementwise, mirroring the scalar baseline's
// per-element operation order exactly (no FMA: -ffp-contract=off), so
// results are bit-identical to vector_ops.cc. vsqrtps and vdivps are
// IEEE correctly rounded, same as their scalar counterparts.

void Axpy2Avx2(float a, const float* x1, float b, const float* x2, float* y,
               size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  const __m256 vb = _mm256_set1_ps(b);
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 t = _mm256_add_ps(_mm256_mul_ps(va, _mm256_loadu_ps(x1 + i)),
                                   _mm256_mul_ps(vb, _mm256_loadu_ps(x2 + i)));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), t));
  }
  for (size_t i = n8; i < n; ++i) y[i] += a * x1[i] + b * x2[i];
}

void TripletGradAvx2(const float* s, const float* p, const float* n_,
                     float inv_dpos, float inv_dneg, float* gs, float* gp,
                     float* gn, size_t n) {
  const __m256 vip = _mm256_set1_ps(inv_dpos);
  const __m256 vin = _mm256_set1_ps(inv_dneg);
  const __m256 vzero = _mm256_setzero_ps();
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 vs = _mm256_loadu_ps(s + i);
    const __m256 up = _mm256_mul_ps(
        _mm256_sub_ps(vs, _mm256_loadu_ps(p + i)), vip);
    const __m256 un = _mm256_mul_ps(
        _mm256_sub_ps(vs, _mm256_loadu_ps(n_ + i)), vin);
    _mm256_storeu_ps(gs + i, _mm256_sub_ps(up, un));
    _mm256_storeu_ps(gp + i, _mm256_sub_ps(vzero, up));
    _mm256_storeu_ps(gn + i, un);
  }
  for (size_t i = n8; i < n; ++i) {
    const float up = (s[i] - p[i]) * inv_dpos;
    const float un = (s[i] - n_[i]) * inv_dneg;
    gs[i] = up - un;
    gp[i] = -up;
    gn[i] = un;
  }
}

void AdamUpdateAvx2(float* params, const float* grads, float* m, float* v,
                    float beta1, float beta2, float alpha, float eps,
                    size_t n) {
  const float omb1s = 1.0f - beta1;
  const float omb2s = 1.0f - beta2;
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vomb1 = _mm256_set1_ps(omb1s);
  const __m256 vomb2 = _mm256_set1_ps(omb2s);
  const __m256 valpha = _mm256_set1_ps(alpha);
  const __m256 veps = _mm256_set1_ps(eps);
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 g = _mm256_loadu_ps(grads + i);
    const __m256 mi = _mm256_add_ps(
        _mm256_mul_ps(vb1, _mm256_loadu_ps(m + i)), _mm256_mul_ps(vomb1, g));
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(vb2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(vomb2, _mm256_mul_ps(g, g)));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 upd = _mm256_div_ps(
        _mm256_mul_ps(valpha, mi),
        _mm256_add_ps(_mm256_sqrt_ps(vi), veps));
    _mm256_storeu_ps(params + i, _mm256_sub_ps(_mm256_loadu_ps(params + i),
                                               upd));
  }
  for (size_t i = n8; i < n; ++i) {
    const float g = grads[i];
    const float mi = beta1 * m[i] + omb1s * g;
    const float vi = beta2 * v[i] + omb2s * (g * g);
    m[i] = mi;
    v[i] = vi;
    params[i] -= (alpha * mi) / (std::sqrt(vi) + eps);
  }
}

constexpr DistanceKernel kAvx2Kernel = {
    "avx2",    DotAvx2,   SquaredL2Avx2,   AxpyAvx2,
    ScaleAvx2, Axpy2Avx2, TripletGradAvx2, AdamUpdateAvx2};

}  // namespace

namespace internal {
const DistanceKernel& Avx2Kernel() { return kAvx2Kernel; }
}  // namespace internal

}  // namespace kpef

#endif  // KPEF_HAVE_AVX2
