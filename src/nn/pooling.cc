#include "nn/pooling.h"

#include <cassert>

#include "tensor/gemm.h"

namespace nnr::nn {

using tensor::Shape;
using tensor::Tensor;

Tensor MaxPool2x2::forward(const Tensor& input, RunContext& /*ctx*/) {
  assert(input.shape().rank() == 4);
  input_shape_ = input.shape();
  const std::int64_t n = input.shape()[0];
  const std::int64_t c = input.shape()[1];
  const std::int64_t h = input.shape()[2];
  const std::int64_t w = input.shape()[3];
  const std::int64_t oh = h / 2;
  const std::int64_t ow = w / 2;

  Tensor output(Shape{n, c, oh, ow});
  argmax_.assign(static_cast<std::size_t>(output.numel()), 0);
  const float* src = input.raw();
  float* dst = output.raw();
  std::int64_t out_idx = 0;
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const std::int64_t plane = (ni * c + ci) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++out_idx) {
          const std::int64_t base = plane + (2 * oy) * w + 2 * ox;
          std::int64_t best = base;
          float best_val = src[base];
          const std::int64_t candidates[3] = {base + 1, base + w, base + w + 1};
          for (std::int64_t cand : candidates) {
            if (src[cand] > best_val) {
              best_val = src[cand];
              best = cand;
            }
          }
          dst[out_idx] = best_val;
          argmax_[static_cast<std::size_t>(out_idx)] = best;
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2x2::backward(const Tensor& grad_output, RunContext& /*ctx*/) {
  Tensor grad_input(input_shape_);
  grad_input.fill(0.0F);
  const float* dy = grad_output.raw();
  float* dx = grad_input.raw();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    dx[argmax_[i]] += dy[i];
  }
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input, RunContext& ctx) {
  assert(input.shape().rank() == 4);
  input_shape_ = input.shape();
  const std::int64_t n = input.shape()[0];
  const std::int64_t c = input.shape()[1];
  const std::int64_t hw = input.shape()[2] * input.shape()[3];

  // NCHW planes are contiguous: view as [N*C, HW] and reduce rows.
  Tensor view(Shape{n * c, hw}, std::vector<float>(input.data().begin(),
                                                   input.data().end()));
  std::vector<float> sums(static_cast<std::size_t>(n * c));
  tensor::reduce_rows(view, sums, ctx.hw->reduction_policy());

  Tensor output(Shape{n, c});
  const float inv = 1.0F / static_cast<float>(hw);
  for (std::int64_t i = 0; i < n * c; ++i) {
    output.at(i) = sums[static_cast<std::size_t>(i)] * inv;
  }
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output, RunContext& /*ctx*/) {
  const std::int64_t n = input_shape_[0];
  const std::int64_t c = input_shape_[1];
  const std::int64_t hw = input_shape_[2] * input_shape_[3];
  assert(grad_output.shape() == (Shape{n, c}));

  Tensor grad_input(input_shape_);
  const float* dy = grad_output.raw();
  float* dx = grad_input.raw();
  const float inv = 1.0F / static_cast<float>(hw);
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float g = dy[i] * inv;
    for (std::int64_t p = 0; p < hw; ++p) dx[i * hw + p] = g;
  }
  return grad_input;
}

}  // namespace nnr::nn
