#include "embed/adam.h"

#include <cmath>

#include "common/logging.h"

namespace kpef {

Adam::Adam(size_t num_params, AdamConfig config, const DistanceKernel* kernel)
    : config_(config),
      kernel_(kernel != nullptr ? kernel : &ActiveKernel()),
      m_(num_params, 0.0f),
      v_(num_params, 0.0f) {}

float Adam::StepSize(int64_t t) const {
  return static_cast<float>(
      config_.learning_rate *
      std::sqrt(1.0 - std::pow(config_.beta2, static_cast<double>(t))) /
      (1.0 - std::pow(config_.beta1, static_cast<double>(t))));
}

void Adam::UpdateSlice(float* params, const float* grads, size_t count,
                       size_t state_offset, float step_size) {
  KPEF_CHECK(step() > 0) << "call BeginStep() before updates";
  KPEF_CHECK(state_offset + count <= m_.size());
  kernel_->adam_update(params, grads, m_.data() + state_offset,
                       v_.data() + state_offset,
                       static_cast<float>(config_.beta1),
                       static_cast<float>(config_.beta2), step_size,
                       static_cast<float>(config_.epsilon), count);
}

void Adam::UpdateDense(std::span<float> params, std::span<const float> grads,
                       float step_size, size_t offset) {
  KPEF_CHECK(params.size() == grads.size());
  UpdateSlice(params.data(), grads.data(), grads.size(), offset, step_size);
}

void Adam::UpdateRow(Matrix& params, size_t row, std::span<const float> grads,
                     size_t block_offset, float step_size) {
  auto row_span = params.Row(row);
  KPEF_CHECK(row_span.size() == grads.size());
  UpdateSlice(row_span.data(), grads.data(), grads.size(),
              block_offset + row * params.cols(), step_size);
}

}  // namespace kpef
