#include "opt/sgd.h"

namespace nnr::opt {

Sgd::Sgd(std::vector<nn::Param*> params, float momentum, float weight_decay)
    : Optimizer(std::move(params)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.reserve(params_.size());
  for (const nn::Param* p : params_) {
    velocity_.emplace_back(static_cast<std::size_t>(p->value.numel()), 0.0F);
  }
}

void Sgd::step(float learning_rate) {
  ++steps_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Param& p = *params_[i];
    std::vector<float>& v = velocity_[i];
    const auto grad = p.grad.data();
    auto value = p.value.data();
    if (momentum_ == 0.0F && weight_decay_ == 0.0F) {
      for (std::size_t j = 0; j < v.size(); ++j) {
        value[j] -= learning_rate * grad[j];
      }
    } else {
      for (std::size_t j = 0; j < v.size(); ++j) {
        const float g = grad[j] + weight_decay_ * value[j];
        v[j] = momentum_ * v[j] + g;
        value[j] -= learning_rate * v[j];
      }
    }
  }
}

}  // namespace nnr::opt
