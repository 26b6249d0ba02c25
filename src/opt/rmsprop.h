// RMSProp (Tieleman & Hinton 2012), TensorFlow-flavoured: optional momentum
// on top of the RMS-normalized gradient, matching tf.keras.optimizers.RMSprop
// since the paper's experiments run on TF 2.4.1.
#pragma once

#include <vector>

#include "opt/optimizer.h"

namespace nnr::opt {

struct RmsPropConfig {
  float rho = 0.9F;       // moving-average decay of squared gradients
  float momentum = 0.0F;  // momentum on the normalized update
  float epsilon = 1e-7F;  // TF default
  float weight_decay = 0.0F;
};

class RmsProp final : public Optimizer {
 public:
  RmsProp(std::vector<nn::Param*> params, RmsPropConfig config = {});

  void step(float learning_rate) override;

  [[nodiscard]] const RmsPropConfig& config() const noexcept {
    return config_;
  }

 private:
  RmsPropConfig config_;
  std::vector<std::vector<float>> mean_square_;  // parallel to params_
  std::vector<std::vector<float>> velocity_;     // used when momentum > 0
};

}  // namespace nnr::opt
