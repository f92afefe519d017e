// Dense row-major float matrix used for embedding tables, projection
// weights, and ANN point sets.
//
// Storage contract (relied on by the kernels in embed/vector_ops.h):
//  - the buffer is 32-byte aligned and every row starts at a 32-byte
//    boundary (the row stride is padded to a multiple of 8 floats), and
//  - the padding tail of every row is always exactly 0.0f.
// Row() exposes only the logical `cols` values, so ordinary mutation
// cannot break the invariant; PaddedRow() exposes the stride-wide span
// for kernel calls that want a tail-free 8-wide hot loop (the zero
// padding contributes exact zero terms, so results are identical to the
// logical-width call).
//
// Copies are deep, except of a matrix marked ShareRowsOnCopy(): one
// whose owner only appends to it (the engine's embeddings, the PG-Index
// points). Its rows live in an AppendStore (common/append_store.h), so
// its copies share them in O(1), AppendRow extends the shared buffer
// past every copy's rows, and an in-place write through a copy that
// still shares its rows copies them first. So an ingest generation keeps
// the rows it was published with while staging appends more.

#ifndef KPEF_EMBED_MATRIX_H_
#define KPEF_EMBED_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/append_store.h"
#include "common/logging.h"

namespace kpef {

/// Row-major dense matrix of floats. Rows are the unit of access
/// (embedding per token / document).
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows),
        cols_(cols),
        stride_(PadToKernelWidth(cols)),
        data_(rows * stride_, 0.0f) {
    if (fill != 0.0f) Fill(fill);
  }

  Matrix(const Matrix& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        stride_(other.stride_),
        share_rows_(other.share_rows_),
        data_(other.share_rows_
                  ? other.data_
                  : Store(std::vector<float, AlignedAllocator<float>>(
                        other.data_.begin(), other.data_.end()))) {}
  Matrix& operator=(const Matrix& other) {
    if (this != &other) *this = Matrix(other);
    return *this;
  }
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// From now on, copies of this matrix share its rows instead of
  /// copying them. For matrices whose owner only appends: an in-place
  /// write through a sharer copies the rows first, so it must not race
  /// with another write to the same object.
  void ShareRowsOnCopy() { share_rows_ = true; }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Allocated floats per row (cols rounded up to a multiple of 8).
  size_t stride() const { return stride_; }

  /// Row 0's first float; row r starts r * stride() floats after it. For
  /// the batched kernels, which take a base pointer and a stride.
  float* data() { return data_.MutableData(); }
  const float* data() const { return data_.data(); }

  std::span<float> Row(size_t r) {
    KPEF_CHECK(r < rows_);
    return {data_.MutableData() + r * stride_, cols_};
  }
  std::span<const float> Row(size_t r) const {
    KPEF_CHECK(r < rows_);
    return {data_.data() + r * stride_, cols_};
  }

  /// The full stride-wide row: `cols` values followed by zero padding.
  /// 32-byte aligned; pair with another PaddedRow (or a PadToAligned
  /// buffer) so distance kernels run without a tail loop.
  std::span<const float> PaddedRow(size_t r) const {
    KPEF_CHECK(r < rows_);
    return {data_.data() + r * stride_, stride_};
  }

  float& At(size_t r, size_t c) {
    return data_.MutableData()[r * stride_ + c];
  }
  float At(size_t r, size_t c) const { return data_[r * stride_ + c]; }

  /// Sets every logical value (padding stays zero).
  void Fill(float value) {
    float* data = data_.MutableData();
    for (size_t r = 0; r < rows_; ++r) {
      float* row = data + r * stride_;
      for (size_t c = 0; c < cols_; ++c) row[c] = value;
      for (size_t c = cols_; c < stride_; ++c) row[c] = 0.0f;
    }
  }

  /// Appends a row (values.size() must equal cols; padding stays zero).
  /// Streaming ingestion appends one embedding per new document; existing
  /// rows are untouched, so serialized prefixes stay byte-identical and
  /// copies taken earlier keep reading theirs.
  void AppendRow(std::span<const float> values) {
    KPEF_CHECK(values.size() == cols_);
    float* row = data_.Grow(stride_);
    for (size_t c = 0; c < cols_; ++c) row[c] = values[c];
    ++rows_;
  }

  /// Total allocated floats (rows * stride), e.g. for memory accounting.
  size_t PaddedSize() const { return rows_ * stride_; }

  /// Logical element-wise equality (padding excluded).
  bool operator==(const Matrix& other) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) return false;
    for (size_t r = 0; r < rows_; ++r) {
      const auto a = Row(r);
      const auto b = other.Row(r);
      for (size_t c = 0; c < cols_; ++c) {
        if (a[c] != b[c]) return false;
      }
    }
    return true;
  }
  bool operator!=(const Matrix& other) const { return !(*this == other); }

 private:
  using Store = AppendStore<float, AlignedAllocator<float>>;

  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
  bool share_rows_ = false;
  Store data_;
};

}  // namespace kpef

#endif  // KPEF_EMBED_MATRIX_H_
