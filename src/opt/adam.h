// Adam / AdamW (Kingma & Ba 2015; Loshchilov & Hutter 2019).
//
// Not used by the paper's recipes (Appendix B is SGD throughout). It runs in
// the ablation_optimizer study (bench/ablation_optimizer.cc), which measures
// how adaptive optimizers interact with tooling noise: Adam's per-weight
// second-moment normalization rescales gradient perturbations, which changes
// how IMPL noise propagates into the weight trajectory.
#pragma once

#include <vector>

#include "opt/optimizer.h"

namespace nnr::opt {

struct AdamConfig {
  float beta1 = 0.9F;
  float beta2 = 0.999F;
  float epsilon = 1e-8F;
  /// L2 penalty folded into the gradient (classic Adam). Mutually exclusive
  /// with decoupled_weight_decay.
  float weight_decay = 0.0F;
  /// AdamW: decay applied directly to weights, not through the moments.
  float decoupled_weight_decay = 0.0F;
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<nn::Param*> params, AdamConfig config = {});

  void step(float learning_rate) override;

  [[nodiscard]] const AdamConfig& config() const noexcept { return config_; }

 private:
  AdamConfig config_;
  std::vector<std::vector<float>> m_;  // first moment, parallel to params_
  std::vector<std::vector<float>> v_;  // second moment
};

}  // namespace nnr::opt
