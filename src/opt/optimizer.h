// Optimizer interface shared by SGD / Adam / RMSProp.
//
// Optimizers in this library are deliberately *elementwise*: the update rule
// for weight j reads only grad[j] and per-weight state. They perform no
// cross-element reduction, so the optimizer itself injects no implementation
// noise — every bit of IMPL divergence reaches the weights through the
// gradients computed by the kernel policies.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "nn/layer.h"

namespace nnr::opt {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update with the given learning rate. Gradients are left
  /// untouched; callers zero them per step via Model::zero_grads().
  virtual void step(float learning_rate) = 0;

  /// Number of updates applied so far (drives Adam bias correction).
  [[nodiscard]] std::int64_t steps_taken() const noexcept { return steps_; }

  [[nodiscard]] const std::vector<nn::Param*>& params() const noexcept {
    return params_;
  }

 protected:
  explicit Optimizer(std::vector<nn::Param*> params)
      : params_(std::move(params)) {}

  std::vector<nn::Param*> params_;
  std::int64_t steps_ = 0;
};

}  // namespace nnr::opt
