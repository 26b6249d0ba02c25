// SGD with momentum — the paper's optimizer for every experiment
// (Appendix B: momentum 0.9 for ImageNet, plain step-decay SGD elsewhere).
//
// The parameter update x += -lr * v is elementwise: the optimizer itself
// introduces no reduction and therefore no implementation noise. All noise
// reaches the weights through the gradients.
#pragma once

#include <vector>

#include "opt/optimizer.h"

namespace nnr::opt {

class Sgd final : public Optimizer {
 public:
  explicit Sgd(std::vector<nn::Param*> params, float momentum = 0.0F,
               float weight_decay = 0.0F);

  /// Applies one update with the given learning rate, then leaves gradients
  /// untouched (callers zero them per step via Model::zero_grads()).
  void step(float learning_rate) override;

  [[nodiscard]] float momentum() const noexcept { return momentum_; }
  [[nodiscard]] float weight_decay() const noexcept { return weight_decay_; }

 private:
  float momentum_;
  float weight_decay_;
  std::vector<std::vector<float>> velocity_;  // parallel to params_
};

}  // namespace nnr::opt
