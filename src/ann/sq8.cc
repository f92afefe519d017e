#include "ann/sq8.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "embed/vector_ops.h"

namespace kpef {

namespace {
constexpr size_t kCodeStrideBytes = kCacheLineBytes;

size_t PadToCodeStride(size_t cols) {
  return (cols + kCodeStrideBytes - 1) / kCodeStrideBytes * kCodeStrideBytes;
}
}  // namespace

Sq8Codes Sq8Codes::Encode(const Matrix& points) {
  Sq8Codes out;
  out.rows_ = points.rows();
  out.cols_ = points.cols();
  out.stride_ = PadToCodeStride(points.cols());
  if (out.rows_ == 0 || out.cols_ == 0) {
    out.stride_ = std::max<size_t>(out.stride_, kCodeStrideBytes);
    out.mins_.assign(out.stride_, 0.0f);
    out.steps_.assign(out.stride_, 0.0f);
    return out;
  }
  const size_t d = out.cols_;
  // Per-dimension min/max: an order-independent reduction, so the codes
  // of a row do not depend on where the row sits in the matrix.
  std::vector<float> lo(d, points.At(0, 0)), hi(d, points.At(0, 0));
  for (size_t k = 0; k < d; ++k) lo[k] = hi[k] = points.At(0, k);
  for (size_t r = 1; r < out.rows_; ++r) {
    const auto row = points.Row(r);
    for (size_t k = 0; k < d; ++k) {
      lo[k] = std::min(lo[k], row[k]);
      hi[k] = std::max(hi[k], row[k]);
    }
  }
  out.mins_.assign(out.stride_, 0.0f);
  out.steps_.assign(out.stride_, 0.0f);
  for (size_t k = 0; k < d; ++k) {
    out.mins_[k] = lo[k];
    const float range = hi[k] - lo[k];
    out.steps_[k] = range > 0.0f ? range / 255.0f : 0.0f;
  }
  uint8_t* dense = out.codes_.Grow(out.rows_ * out.stride_);
  for (size_t r = 0; r < out.rows_; ++r) {
    const auto row = points.Row(r);
    uint8_t* codes = dense + r * out.stride_;
    for (size_t k = 0; k < d; ++k) {
      if (out.steps_[k] == 0.0f) continue;  // constant dim -> code 0
      const float scaled = (row[k] - out.mins_[k]) / out.steps_[k];
      const float rounded = std::nearbyintf(scaled);
      codes[k] = static_cast<uint8_t>(
          std::clamp(rounded, 0.0f, 255.0f));
    }
  }
  return out;
}

Sq8Codes Sq8Codes::FromParts(size_t rows, size_t cols,
                             std::span<const float> mins,
                             std::span<const float> steps,
                             std::span<const uint8_t> dense) {
  KPEF_CHECK(mins.size() >= cols && steps.size() >= cols);
  KPEF_CHECK(dense.size() >= rows * cols);
  Sq8Codes out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.stride_ = std::max(PadToCodeStride(cols), kCodeStrideBytes);
  out.mins_.assign(out.stride_, 0.0f);
  out.steps_.assign(out.stride_, 0.0f);
  for (size_t k = 0; k < cols; ++k) {
    out.mins_[k] = mins[k];
    out.steps_[k] = steps[k];
  }
  uint8_t* codes = out.codes_.Grow(rows * out.stride_);
  for (size_t r = 0; r < rows; ++r) {
    std::copy_n(dense.data() + r * cols, cols, codes + r * out.stride_);
  }
  return out;
}

Sq8Codes Sq8Codes::Permuted(const Sq8Codes& src,
                            std::span<const int32_t> order) {
  KPEF_CHECK(order.size() == src.rows_);
  Sq8Codes out;
  out.rows_ = src.rows_;
  out.cols_ = src.cols_;
  out.stride_ = src.stride_;
  out.mins_ = src.mins_;
  out.steps_ = src.steps_;
  uint8_t* codes = out.codes_.Grow(src.codes_.size());
  for (size_t r = 0; r < out.rows_; ++r) {
    std::copy_n(src.codes_.data() +
                    static_cast<size_t>(order[r]) * src.stride_,
                src.stride_, codes + r * out.stride_);
  }
  return out;
}

void Sq8Codes::AppendRow(std::span<const float> values) {
  KPEF_CHECK(values.size() == cols_);
  uint8_t* codes = codes_.Grow(stride_);
  for (size_t k = 0; k < cols_; ++k) {
    if (steps_[k] == 0.0f) continue;  // constant dim -> code 0
    const float scaled = (values[k] - mins_[k]) / steps_[k];
    const float rounded = std::nearbyintf(scaled);
    codes[k] = static_cast<uint8_t>(std::clamp(rounded, 0.0f, 255.0f));
  }
  ++rows_;
}

void Sq8Codes::PrepareQuery(std::span<const float> padded_query,
                            AlignedVector& qt) const {
  KPEF_CHECK(padded_query.size() >= cols_);
  qt.assign(stride_, 0.0f);
  for (size_t k = 0; k < cols_; ++k) qt[k] = padded_query[k] - mins_[k];
}

float Sq8Codes::AsymmetricSquaredL2(std::span<const float> qt,
                                    size_t r) const {
  return Sq8AsymmetricSquaredL2(qt, steps(), Row(r));
}

void Sq8Codes::DecodeRow(size_t r, std::span<float> out) const {
  KPEF_CHECK(out.size() >= cols_);
  const uint8_t* codes = codes_.data() + r * stride_;
  for (size_t k = 0; k < cols_; ++k) {
    out[k] = mins_[k] + steps_[k] * static_cast<float>(codes[k]);
  }
}

size_t Sq8Codes::MemoryUsageBytes() const {
  return codes_.size() * sizeof(uint8_t) +
         (mins_.size() + steps_.size()) * sizeof(float);
}

}  // namespace kpef
