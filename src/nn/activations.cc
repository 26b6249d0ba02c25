#include "nn/activations.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace nnr::nn {

using tensor::Tensor;

namespace {

inline float sigmoid(float x) noexcept { return 1.0F / (1.0F + std::exp(-x)); }

}  // namespace

Tensor ReLU::forward(const Tensor& input, RunContext& /*ctx*/) {
  mask_ = Tensor(input.shape());
  Tensor output(input.shape());
  const float* src = input.raw();
  float* msk = mask_.raw();
  float* dst = output.raw();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const bool positive = src[i] > 0.0F;
    msk[i] = positive ? 1.0F : 0.0F;
    dst[i] = positive ? src[i] : 0.0F;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output, RunContext& /*ctx*/) {
  assert(grad_output.shape() == mask_.shape());
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.raw();
  const float* msk = mask_.raw();
  float* dx = grad_input.raw();
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) dx[i] = dy[i] * msk[i];
  return grad_input;
}

Tensor SiLU::forward(const Tensor& input, RunContext& /*ctx*/) {
  input_ = input;
  Tensor output(input.shape());
  const float* src = input.raw();
  float* dst = output.raw();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] * sigmoid(src[i]);
  return output;
}

Tensor SiLU::backward(const Tensor& grad_output, RunContext& /*ctx*/) {
  assert(grad_output.shape() == input_.shape());
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.raw();
  const float* x = input_.raw();
  float* dx = grad_input.raw();
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const float s = sigmoid(x[i]);
    // d/dx [x s(x)] = s(x) (1 + x (1 - s(x)))
    dx[i] = dy[i] * s * (1.0F + x[i] * (1.0F - s));
  }
  return grad_input;
}

Tensor GELU::forward(const Tensor& input, RunContext& /*ctx*/) {
  input_ = input;
  Tensor output(input.shape());
  const float* src = input.raw();
  float* dst = output.raw();
  const std::int64_t n = input.numel();
  const float inv_sqrt2 = 1.0F / std::numbers::sqrt2_v<float>;
  for (std::int64_t i = 0; i < n; ++i) {
    const float cdf = 0.5F * (1.0F + std::erf(src[i] * inv_sqrt2));
    dst[i] = src[i] * cdf;
  }
  return output;
}

Tensor GELU::backward(const Tensor& grad_output, RunContext& /*ctx*/) {
  assert(grad_output.shape() == input_.shape());
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.raw();
  const float* x = input_.raw();
  float* dx = grad_input.raw();
  const std::int64_t n = grad_output.numel();
  const float inv_sqrt2 = 1.0F / std::numbers::sqrt2_v<float>;
  const float inv_sqrt2pi = 1.0F / std::sqrt(2.0F * std::numbers::pi_v<float>);
  for (std::int64_t i = 0; i < n; ++i) {
    const float cdf = 0.5F * (1.0F + std::erf(x[i] * inv_sqrt2));
    const float pdf = inv_sqrt2pi * std::exp(-0.5F * x[i] * x[i]);
    // d/dx [x Phi(x)] = Phi(x) + x phi(x)
    dx[i] = dy[i] * (cdf + x[i] * pdf);
  }
  return grad_input;
}

Tensor Tanh::forward(const Tensor& input, RunContext& /*ctx*/) {
  output_ = Tensor(input.shape());
  const float* src = input.raw();
  float* dst = output_.raw();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = std::tanh(src[i]);
  // Return a copy; output_ stays cached for backward.
  return Tensor(output_.shape(), std::vector<float>(output_.data().begin(),
                                                    output_.data().end()));
}

Tensor Tanh::backward(const Tensor& grad_output, RunContext& /*ctx*/) {
  assert(grad_output.shape() == output_.shape());
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.raw();
  const float* y = output_.raw();
  float* dx = grad_input.raw();
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0F - y[i] * y[i]);
  return grad_input;
}

}  // namespace nnr::nn
