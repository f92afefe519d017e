// Adam optimizer [33] with dense and sparse-row update paths.
//
// The moment/parameter update runs entirely in float32 through the
// DistanceKernel::adam_update entry (embed/vector_ops.h), so the scalar
// and AVX2 paths are bit-identical and the whole optimizer vectorizes.
// Only the bias-corrected step size is computed in double: BeginStep()
// folds it to float once per step and every update of that step takes
// it as an argument, so a step over hundreds of rows pays for the two
// std::pow calls once.
//
// ## Thread safety
//
// Adam state is per parameter, so updates of *distinct* rows within one
// step may run concurrently and in any order without changing a bit —
// the trainer's row-parallel merge+Adam fan-out relies on this
// (DESIGN.md §15). BeginStep() is not thread-safe: call it once per
// step, before the step's updates fan out.

#ifndef KPEF_EMBED_ADAM_H_
#define KPEF_EMBED_ADAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "embed/matrix.h"
#include "embed/vector_ops.h"

namespace kpef {

/// Adam hyperparameters. β1/β2 follow the paper (§III-C, citing BERT's
/// recipe); the default learning rate is scaled up from the paper's 2e-5
/// because our encoder is orders of magnitude smaller than SciBERT.
struct AdamConfig {
  double learning_rate = 2e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Adam state for one flat parameter block of fixed size.
///
/// Usage per optimizer step: call BeginStep() once (advances the bias-
/// correction step t and returns its folded step size), then UpdateDense
/// / UpdateRow for the block's gradients with that step size. Sparse
/// rows only advance their own moments, so untouched rows pay no cost
/// (lazy Adam).
class Adam {
 public:
  /// `kernel` routes the fused moment/parameter update (nullptr =
  /// ActiveKernel()); benches pass an explicit kernel to time both
  /// paths in one process. Scalar and AVX2 agree bitwise.
  Adam(size_t num_params, AdamConfig config,
       const DistanceKernel* kernel = nullptr);

  /// Advances the bias-correction step t and returns StepSize(t), the
  /// value every update of this step takes.
  float BeginStep() { return StepSize(++step_); }

  /// Dense update of params[offset .. offset+grads.size()).
  void UpdateDense(std::span<float> params, std::span<const float> grads,
                   float step_size, size_t offset = 0);

  /// Sparse update of one row of a parameter matrix whose storage begins
  /// at `block_offset` within this optimizer's state.
  void UpdateRow(Matrix& params, size_t row, std::span<const float> grads,
                 size_t block_offset, float step_size);

  int64_t step() const { return step_; }
  const AdamConfig& config() const { return config_; }

  /// Bias-corrected step size for step `t`, folded to float:
  /// lr * sqrt(1 - b2^t) / (1 - b1^t).
  float StepSize(int64_t t) const;

 private:
  void UpdateSlice(float* params, const float* grads, size_t count,
                   size_t state_offset, float step_size);

  AdamConfig config_;
  const DistanceKernel* kernel_;
  std::vector<float> m_;
  std::vector<float> v_;
  int64_t step_ = 0;
};

}  // namespace kpef

#endif  // KPEF_EMBED_ADAM_H_
