// SQ8 scalar quantization of an embedding matrix for the PG-Index hot
// path (DESIGN.md §12).
//
// Each dimension d gets an affine code: value ≈ min[d] + code * step[d]
// with step[d] = (max[d] - min[d]) / 255, so a row of D floats shrinks
// to D bytes (4x less traffic through the traversal loop). Code rows are
// stored in a dense matrix whose rows start on 64-byte (cache line)
// boundaries; the row stride is padded to a multiple of 64 bytes and the
// padding codes are zero.
//
// Distances against a float query use the *asymmetric* form: the query
// stays fp32, only the stored points are quantized. PrepareQuery folds
// the per-dimension mins into the query once (qt = q - min), after which
// one code-row distance is sum_d (qt[d] - step[d] * code[d])^2 — the
// sq8_asym_l2 entry of the dispatched DistanceKernel. The mins/steps
// arrays are padded to the code stride with zeros, so padded tail
// elements contribute exact zero terms and the kernel runs tail-free.
//
// Quantization is deterministic: per-dimension min/max are order
//-independent reductions and each code depends only on its own value,
// so encoding a row-permuted matrix equals permuting the encoded rows.

#ifndef KPEF_ANN_SQ8_H_
#define KPEF_ANN_SQ8_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/aligned_buffer.h"
#include "common/append_store.h"
#include "embed/matrix.h"

namespace kpef {

class Sq8Codes {
 public:
  Sq8Codes() = default;

  /// Quantizes every row of `points`. Constant dimensions (max == min)
  /// get step 0 and code 0, decoding exactly to the constant.
  static Sq8Codes Encode(const Matrix& points);

  /// Rebuilds a code matrix from serialized parts: per-dimension
  /// mins/steps (cols values each) and a dense rows*cols code array.
  static Sq8Codes FromParts(size_t rows, size_t cols,
                            std::span<const float> mins,
                            std::span<const float> steps,
                            std::span<const uint8_t> dense);

  /// Row-permuted copy: row i of the result is row order[i] of `src`
  /// (the PG-Index BFS relabeling applied to pre-encoded codes).
  static Sq8Codes Permuted(const Sq8Codes& src,
                           std::span<const int32_t> order);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Bytes (= codes) per row: cols padded up to a multiple of 64.
  size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0; }

  /// The full stride-wide code row (64-byte aligned; padding codes 0).
  std::span<const uint8_t> Row(size_t r) const {
    return {codes_.data() + r * stride_, stride_};
  }
  const uint8_t* RowPtr(size_t r) const { return codes_.data() + r * stride_; }

  /// Per-dimension dequantization arrays, padded to stride() with zeros.
  std::span<const float> mins() const { return {mins_.data(), mins_.size()}; }
  std::span<const float> steps() const {
    return {steps_.data(), steps_.size()};
  }

  /// Encodes and appends one row (values.size() must equal cols) against
  /// the EXISTING per-dimension mins/steps — the scales are frozen at
  /// Encode() time. Values outside the original [min, max] range clamp to
  /// code 0/255; the traversal stays admissible because the exact fp32
  /// rerank corrects any extra quantization error on appended points.
  void AppendRow(std::span<const float> values);

  /// Fills `qt` (resized to stride()) with query[d] - min[d]; tail zero.
  /// `padded_query` must hold at least cols() values.
  void PrepareQuery(std::span<const float> padded_query,
                    AlignedVector& qt) const;

  /// Squared L2 between a prepared query and code row `r`, via the
  /// dispatched kernel (bit-identical across scalar/AVX2 paths).
  float AsymmetricSquaredL2(std::span<const float> qt, size_t r) const;

  /// Dequantizes row `r` into `out` (cols() values).
  void DecodeRow(size_t r, std::span<float> out) const;

  /// Largest possible |value - decode(encode(value))| in dimension `d`:
  /// half a step plus rounding slack (tests assert against a full step).
  float StepOf(size_t d) const { return steps_[d]; }

  size_t MemoryUsageBytes() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
  /// Append-only, so copies share the code rows and AppendRow writes
  /// past every copy's rows.
  AppendStore<uint8_t, AlignedAllocator<uint8_t, kCacheLineBytes>> codes_;
  AlignedVector mins_;   // stride_ floats, tail zeros
  AlignedVector steps_;  // stride_ floats, tail zeros
};

}  // namespace kpef

#endif  // KPEF_ANN_SQ8_H_
