// Dense float-vector kernels shared by the embedding models and the ANN
// stack, behind a runtime-dispatched DistanceKernel.
//
// ## Accumulation contract
//
// Every reducing kernel (dot, squared L2) accumulates in eight
// independent float lanes: element i is added into lane i % 8, and the
// lanes are reduced in the fixed order
//
//   result = ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))
//
// which is exactly the horizontal reduction of one AVX2 register
// (low/high halves, then movehl, then scalar add). The scalar baseline
// implements the same lane assignment and reduction order, and the AVX2
// translation unit is compiled with floating-point contraction disabled,
// so the two paths are **bit-identical** on identical inputs — selecting
// a different kernel at runtime can never change a result. Tests assert
// exact equality between paths (tests/kernel_test.cc).
//
// Against an infinitely precise reference, the lane scheme behaves like
// pairwise summation over n/8 chunks: the absolute error of dot(a, b) is
// bounded by ~(n/8 + 3) * eps * sum_i |a_i * b_i| with float eps
// (2^-24). For the library's operating range (n <= 4096, unit-ish
// vectors) results agree with a double-precision reference to within
// 1e-4 relative error; kernel_test checks that tolerance on random and
// adversarial inputs.
//
// ## Alignment
//
// Kernels accept any pointers/lengths (there is an in-loop scalar tail
// for n % 8 != 0), but the fast path is full 8-float groups. Matrix
// (embed/matrix.h) stores rows 32-byte aligned and zero-padded to a
// multiple of 8 floats, so row-vs-row and row-vs-padded-query calls run
// the hot loop with no tail at all: zero padding contributes exact zero
// terms to every lane. Pad free-standing queries with PadToAligned()
// (common/aligned_buffer.h) to get the same guarantee.

#ifndef KPEF_EMBED_VECTOR_OPS_H_
#define KPEF_EMBED_VECTOR_OPS_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace kpef {

/// One implementation of the hot vector kernels. All function pointers
/// are non-null. Implementations obey the accumulation contract above.
struct DistanceKernel {
  const char* name;
  float (*dot)(const float* a, const float* b, size_t n);
  float (*squared_l2)(const float* a, const float* b, size_t n);
  /// y += alpha * x
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  /// x *= alpha
  void (*scale)(float alpha, float* x, size_t n);
  /// Fused two-term axpy: y += a * x1 + b * x2. Elementwise in index
  /// order — y[i] + (a*x1[i] + b*x2[i]) with one rounding per arithmetic
  /// op and no FMA contraction — so, having no accumulator lanes at all,
  /// the scalar and AVX2 paths are bit-identical by construction. Used by
  /// the encoder's normalization backprop (a*grad_out + b*output in one
  /// pass).
  void (*axpy2)(float a, const float* x1, float b, const float* x2, float* y,
                size_t n);
  /// Triplet-loss input gradients (embed/triplet.h). Given the three
  /// encoded vectors and the *reciprocal* distances inv_dpos = 1/δ(s,p),
  /// inv_dneg = 1/δ(s,n), overwrites
  ///   gs[i] = (s[i]-p[i])*inv_dpos - (s[i]-n[i])*inv_dneg
  ///   gp[i] = -(s[i]-p[i])*inv_dpos
  ///   gn[i] =  (s[i]-n[i])*inv_dneg
  /// Elementwise (sub, mul, sub/neg per element, fixed order, no FMA), so
  /// scalar and AVX2 are bit-identical.
  void (*triplet_grad)(const float* s, const float* p, const float* n_,
                       float inv_dpos, float inv_dneg, float* gs, float* gp,
                       float* gn, size_t n);
  /// Fused Adam moment + parameter update (embed/adam.h), all float32:
  ///   m[i] = b1*m[i] + (1-b1)*g      (two mults, one add)
  ///   v[i] = b2*v[i] + (1-b2)*(g*g)
  ///   p[i] -= (alpha*m[i]) / (sqrt(v[i]) + eps)
  /// sqrt and div are IEEE correctly rounded on both paths and there are
  /// no reductions, so scalar and AVX2 are bit-identical. `alpha` is the
  /// bias-corrected step size, folded by the caller once per step.
  void (*adam_update)(float* params, const float* grads, float* m, float* v,
                      float beta1, float beta2, float alpha, float eps,
                      size_t n);

  // --- Batched slots. Each stands for a loop of single-row calls and, for
  // every output element, performs exactly the float operations of that
  // loop in the same order, so it is bit-identical to the loop and the
  // scalar and AVX2 paths are bit-identical to each other. Rows are
  // `stride` floats apart; any n, with the same tail handling as the
  // single-row kernels.

  /// GloVe's AdaGrad step for one co-occurring pair (embed/pretrain.cc).
  /// For each i, in this order, with no FMA:
  ///   gi = grad*wj[i];  gj = grad*wi[i]
  ///   wi[i] -= (lr*gi) / sqrt(gwi[i]);  wj[i] -= (lr*gj) / sqrt(gwj[i])
  ///   gwi[i] += gi*gi;  gwj[i] += gj*gj
  /// The four arrays must not overlap.
  void (*adagrad_pair)(float* wi, float* wj, float* gwi, float* gwj,
                       float grad, float lr, size_t n);
  /// out[r] += dot(row_r, x) for r in [0, m), row_r = rows + r*stride.
  /// Each row keeps dot's eight lanes and reduction order; several rows
  /// run per pass so their add chains overlap.
  void (*dot_rows)(const float* rows, size_t stride, size_t m, const float* x,
                   float* out, size_t n);
  /// y += alpha_r * row_r for r = 0, 1, ..., m-1 in that order, where
  /// id_r = index ? index[r] : r, row_r = rows + id_r*stride and alpha_r
  /// = alpha ? alpha[id_r] : 1 — the same as m axpy calls. The AVX2
  /// kernel keeps y in registers across the rows.
  void (*axpy_rows)(const float* rows, size_t stride, const int32_t* index,
                    const float* alpha, size_t m, float* y, size_t n);
  /// Rank-1 update: row_r += alpha[r] * x for r in [0, m), row_r = rows +
  /// r*stride — the same as m axpy calls. x must not overlap the rows.
  void (*rank1_update)(float* rows, size_t stride, size_t m,
                       const float* alpha, const float* x, size_t n);
};

/// The portable 8-lane-unrolled baseline. Always available.
const DistanceKernel& ScalarKernel();

/// The AVX2 kernel, or nullptr when the binary was built without AVX2
/// support (KPEF_ENABLE_AVX2=OFF) or the CPU lacks it.
const DistanceKernel* Avx2KernelOrNull();

/// The kernel every vector op below routes through. Chosen once, at
/// first use: AVX2 when compiled in and supported by the CPU, unless the
/// environment variable KPEF_SIMD=scalar forces the baseline.
const DistanceKernel& ActiveKernel();

/// Dot product. Spans must have equal size.
float Dot(std::span<const float> a, std::span<const float> b);

/// Squared L2 distance ||a - b||^2.
float SquaredL2Distance(std::span<const float> a, std::span<const float> b);

/// L2 norm distance δ(a, b) = ||a - b||_2 (the paper's distance).
float L2Distance(std::span<const float> a, std::span<const float> b);

/// Euclidean norm ||a||_2.
float L2Norm(std::span<const float> a);

/// y += alpha * x.
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void Scale(float alpha, std::span<float> x);

/// Normalizes x to unit L2 norm; leaves the zero vector untouched.
void NormalizeL2(std::span<float> x);

/// Cosine similarity; 0 when either vector is zero.
float CosineSimilarity(std::span<const float> a, std::span<const float> b);

}  // namespace kpef

#endif  // KPEF_EMBED_VECTOR_OPS_H_
