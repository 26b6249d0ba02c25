#include "opt/adam.h"

#include <cassert>
#include <cmath>

namespace nnr::opt {

Adam::Adam(std::vector<nn::Param*> params, AdamConfig config)
    : Optimizer(std::move(params)), config_(config) {
  assert(config_.beta1 >= 0.0F && config_.beta1 < 1.0F);
  assert(config_.beta2 >= 0.0F && config_.beta2 < 1.0F);
  assert(!(config_.weight_decay > 0.0F &&
           config_.decoupled_weight_decay > 0.0F));
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const nn::Param* p : params_) {
    m_.emplace_back(static_cast<std::size_t>(p->value.numel()), 0.0F);
    v_.emplace_back(static_cast<std::size_t>(p->value.numel()), 0.0F);
  }
}

void Adam::step(float learning_rate) {
  ++steps_;
  const auto t = static_cast<float>(steps_);
  // Bias corrections are scalar and identical for every weight; computing
  // them once keeps the inner loop elementwise.
  const float correction1 = 1.0F - std::pow(config_.beta1, t);
  const float correction2 = 1.0F - std::pow(config_.beta2, t);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Param& p = *params_[i];
    std::vector<float>& m = m_[i];
    std::vector<float>& v = v_[i];
    const auto grad = p.grad.data();
    auto value = p.value.data();
    for (std::size_t j = 0; j < m.size(); ++j) {
      const float g = grad[j] + config_.weight_decay * value[j];
      m[j] = config_.beta1 * m[j] + (1.0F - config_.beta1) * g;
      v[j] = config_.beta2 * v[j] + (1.0F - config_.beta2) * g * g;
      const float m_hat = m[j] / correction1;
      const float v_hat = v[j] / correction2;
      value[j] -= learning_rate *
                  (m_hat / (std::sqrt(v_hat) + config_.epsilon) +
                   config_.decoupled_weight_decay * value[j]);
    }
  }
}

}  // namespace nnr::opt
