// Elementwise activation layers.
//
// All activations are elementwise — they introduce no reduction and
// therefore no implementation noise of their own. They differ in how they
// *propagate* upstream bit-level perturbations: ReLU's kink can flip a unit
// on/off under an epsilon change (gradient jumps 0 <-> 1), while smooth
// activations (SiLU, GELU, Tanh) bound the local Lipschitz constant of the
// gradient. Shamir et al. 2020 ("Smooth activations and reproducibility in
// deep networks", cited by the paper §5) argue exactly this mechanism; the
// activation-smoothness ablation bench measures it on our stack.
#pragma once

#include "nn/layer.h"

namespace nnr::nn {

/// Rectified linear unit. Its kink amplifies upstream perturbations (part of
/// why bit-level noise grows into prediction churn).
class ReLU final : public Layer {
 public:
  ReLU() = default;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  tensor::Tensor mask_;  // 1 where input > 0
};

/// SiLU / swish: x * sigmoid(x) (EfficientNet's activation).
class SiLU final : public Layer {
 public:
  SiLU() = default;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "SiLU"; }

 private:
  tensor::Tensor input_;  // backward re-derives sigmoid from the input
};

/// GELU, exact form: x * Phi(x) with the Gaussian CDF via erf.
class GELU final : public Layer {
 public:
  GELU() = default;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "GELU"; }

 private:
  tensor::Tensor input_;
};

/// Hyperbolic tangent.
class Tanh final : public Layer {
 public:
  Tanh() = default;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }

 private:
  tensor::Tensor output_;  // dy/dx = 1 - y^2
};

}  // namespace nnr::nn
