#include "opt/rmsprop.h"

#include <cassert>
#include <cmath>

namespace nnr::opt {

RmsProp::RmsProp(std::vector<nn::Param*> params, RmsPropConfig config)
    : Optimizer(std::move(params)), config_(config) {
  assert(config_.rho >= 0.0F && config_.rho < 1.0F);
  mean_square_.reserve(params_.size());
  velocity_.reserve(params_.size());
  for (const nn::Param* p : params_) {
    mean_square_.emplace_back(static_cast<std::size_t>(p->value.numel()),
                              0.0F);
    velocity_.emplace_back(static_cast<std::size_t>(p->value.numel()), 0.0F);
  }
}

void RmsProp::step(float learning_rate) {
  ++steps_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Param& p = *params_[i];
    std::vector<float>& ms = mean_square_[i];
    std::vector<float>& vel = velocity_[i];
    const auto grad = p.grad.data();
    auto value = p.value.data();
    for (std::size_t j = 0; j < ms.size(); ++j) {
      const float g = grad[j] + config_.weight_decay * value[j];
      ms[j] = config_.rho * ms[j] + (1.0F - config_.rho) * g * g;
      const float update =
          learning_rate * g / (std::sqrt(ms[j]) + config_.epsilon);
      if (config_.momentum > 0.0F) {
        vel[j] = config_.momentum * vel[j] + update;
        value[j] -= vel[j];
      } else {
        value[j] -= update;
      }
    }
  }
}

}  // namespace nnr::opt
