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

// Adds dot's tail elements [n8, n) into their lanes, then reduces.
inline float FinishDotAvx2(__m256 acc, const float* a, const float* b,
                           size_t n8, size_t n) {
  if (n8 == n) return ReduceAvx2(acc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (size_t i = n8; i < n; ++i) lanes[i - n8] += a[i] * b[i];
  return ReduceAvx2(_mm256_load_ps(lanes));
}

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
  }
  return FinishDotAvx2(acc, a, b, n8, n);
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

// --- Batched slots: per output element, the same operations in the same
// order as the single-row loop they replace (see vector_ops.h). The
// unroll pragmas keep the small __m256 arrays in registers at -O2 too;
// without them GCC 12 spills them to the stack on every row.

void AdagradPairAvx2(float* wi, float* wj, float* gwi, float* gwj, float grad,
                     float lr, size_t n) {
  const __m256 vgrad = _mm256_set1_ps(grad);
  const __m256 vlr = _mm256_set1_ps(lr);
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < n8; i += 8) {
    const __m256 a = _mm256_loadu_ps(wi + i);
    const __m256 b = _mm256_loadu_ps(wj + i);
    const __m256 ha = _mm256_loadu_ps(gwi + i);
    const __m256 hb = _mm256_loadu_ps(gwj + i);
    const __m256 gi = _mm256_mul_ps(vgrad, b);
    const __m256 gj = _mm256_mul_ps(vgrad, a);
    _mm256_storeu_ps(wi + i, _mm256_sub_ps(a, _mm256_div_ps(
                                                  _mm256_mul_ps(vlr, gi),
                                                  _mm256_sqrt_ps(ha))));
    _mm256_storeu_ps(wj + i, _mm256_sub_ps(b, _mm256_div_ps(
                                                  _mm256_mul_ps(vlr, gj),
                                                  _mm256_sqrt_ps(hb))));
    _mm256_storeu_ps(gwi + i, _mm256_add_ps(ha, _mm256_mul_ps(gi, gi)));
    _mm256_storeu_ps(gwj + i, _mm256_add_ps(hb, _mm256_mul_ps(gj, gj)));
  }
  for (size_t i = n8; i < n; ++i) {
    const float gi = grad * wj[i];
    const float gj = grad * wi[i];
    wi[i] -= lr * gi / std::sqrt(gwi[i]);
    wj[i] -= lr * gj / std::sqrt(gwj[i]);
    gwi[i] += gi * gi;
    gwj[i] += gj * gj;
  }
}

void DotRowsAvx2(const float* rows, size_t stride, size_t m, const float* x,
                 float* out, size_t n) {
  constexpr size_t kRows = 4;
  const size_t n8 = n - n % 8;
  size_t r = 0;
  for (; r + kRows <= m; r += kRows) {
    const float* row[kRows];
    __m256 acc[kRows];
    #pragma GCC unroll 8
    for (size_t j = 0; j < kRows; ++j) {
      row[j] = rows + (r + j) * stride;
      acc[j] = _mm256_setzero_ps();
    }
    for (size_t i = 0; i < n8; i += 8) {
      const __m256 vx = _mm256_loadu_ps(x + i);
      #pragma GCC unroll 8
      for (size_t j = 0; j < kRows; ++j) {
        acc[j] = _mm256_add_ps(
            acc[j], _mm256_mul_ps(_mm256_loadu_ps(row[j] + i), vx));
      }
    }
    #pragma GCC unroll 8
    for (size_t j = 0; j < kRows; ++j) {
      out[r + j] += FinishDotAvx2(acc[j], row[j], x, n8, n);
    }
  }
  for (; r < m; ++r) out[r] += DotAvx2(rows + r * stride, x, n);
}

// y[0, 8G) += alpha_r * row_r[0, 8G) over every row in order, with the G
// registers of y live across the whole row loop.
template <size_t G>
inline void AxpyRowsBlock(const float* rows, size_t stride,
                          const int32_t* index, const float* alpha, size_t m,
                          float* y) {
  __m256 acc[G];
  #pragma GCC unroll 8
  for (size_t g = 0; g < G; ++g) acc[g] = _mm256_loadu_ps(y + 8 * g);
  for (size_t r = 0; r < m; ++r) {
    const size_t id = index != nullptr ? static_cast<size_t>(index[r]) : r;
    const __m256 va = _mm256_set1_ps(alpha != nullptr ? alpha[id] : 1.0f);
    const float* row = rows + id * stride;
    #pragma GCC unroll 8
    for (size_t g = 0; g < G; ++g) {
      acc[g] = _mm256_add_ps(acc[g],
                             _mm256_mul_ps(va, _mm256_loadu_ps(row + 8 * g)));
    }
  }
  #pragma GCC unroll 8
  for (size_t g = 0; g < G; ++g) _mm256_storeu_ps(y + 8 * g, acc[g]);
}

void AxpyRowsAvx2(const float* rows, size_t stride, const int32_t* index,
                  const float* alpha, size_t m, float* y, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    AxpyRowsBlock<8>(rows + i, stride, index, alpha, m, y + i);
  }
  for (; i + 8 <= n; i += 8) {
    AxpyRowsBlock<1>(rows + i, stride, index, alpha, m, y + i);
  }
  for (; i < n; ++i) {
    for (size_t r = 0; r < m; ++r) {
      const size_t id = index != nullptr ? static_cast<size_t>(index[r]) : r;
      y[i] += (alpha != nullptr ? alpha[id] : 1.0f) * rows[id * stride + i];
    }
  }
}

// row_r[0, 8G) += alpha[r] * x[0, 8G) for every row, with the G registers
// of x loaded once.
template <size_t G>
inline void Rank1Block(float* rows, size_t stride, size_t m,
                       const float* alpha, const float* x) {
  __m256 vx[G];
  #pragma GCC unroll 8
  for (size_t g = 0; g < G; ++g) vx[g] = _mm256_loadu_ps(x + 8 * g);
  for (size_t r = 0; r < m; ++r) {
    const __m256 va = _mm256_set1_ps(alpha[r]);
    float* row = rows + r * stride;
    #pragma GCC unroll 8
    for (size_t g = 0; g < G; ++g) {
      _mm256_storeu_ps(row + 8 * g,
                       _mm256_add_ps(_mm256_loadu_ps(row + 8 * g),
                                     _mm256_mul_ps(va, vx[g])));
    }
  }
}

void Rank1UpdateAvx2(float* rows, size_t stride, size_t m, const float* alpha,
                     const float* x, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) Rank1Block<8>(rows + i, stride, m, alpha, x + i);
  for (; i + 8 <= n; i += 8) Rank1Block<1>(rows + i, stride, m, alpha, x + i);
  for (; i < n; ++i) {
    for (size_t r = 0; r < m; ++r) rows[r * stride + i] += alpha[r] * x[i];
  }
}

constexpr DistanceKernel kAvx2Kernel = {
    "avx2",          DotAvx2,        SquaredL2Avx2,
    AxpyAvx2,        ScaleAvx2,      Axpy2Avx2,
    TripletGradAvx2, AdamUpdateAvx2, AdagradPairAvx2,
    DotRowsAvx2,     AxpyRowsAvx2,   Rank1UpdateAvx2};

}  // namespace

namespace internal {
const DistanceKernel& Avx2Kernel() { return kAvx2Kernel; }
}  // namespace internal

}  // namespace kpef

#endif  // KPEF_HAVE_AVX2
