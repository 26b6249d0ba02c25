#include "nn/residual.h"

#include <cassert>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "tensor/ops.h"

namespace nnr::nn {

using tensor::Tensor;

namespace {

/// Appends a k x k conv (pad k/2) and its BatchNorm.
void emplace_conv_bn(Model& m, std::int64_t in, std::int64_t out,
                     std::int64_t k, std::int64_t stride) {
  m.emplace<Conv2D>(in, out, k, stride);
  m.emplace<BatchNorm2D>(out);
}

/// The 1x1 projection when the block changes width or stride, else the
/// identity (no layers).
Model shortcut(std::int64_t in, std::int64_t out, std::int64_t stride) {
  Model m;
  if (stride != 1 || in != out) emplace_conv_bn(m, in, out, 1, stride);
  return m;
}

Model basic_main(std::int64_t in, std::int64_t out, std::int64_t stride) {
  Model m;
  emplace_conv_bn(m, in, out, 3, stride);
  m.emplace<ReLU>();
  emplace_conv_bn(m, out, out, 3, 1);
  return m;
}

Model bottleneck_main(std::int64_t in, std::int64_t mid, std::int64_t out,
                      std::int64_t stride) {
  Model m;
  emplace_conv_bn(m, in, mid, 1, 1);
  m.emplace<ReLU>();
  emplace_conv_bn(m, mid, mid, 3, stride);
  m.emplace<ReLU>();
  emplace_conv_bn(m, mid, out, 1, 1);
  return m;
}

template <typename T>
std::vector<T> concat(std::vector<T> head, const std::vector<T>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

}  // namespace

Tensor ResidualBlock::forward(const Tensor& input, RunContext& ctx) {
  Tensor sum = main_.forward(input, ctx);
  const Tensor skip = shortcut_.forward(input, ctx);
  assert(sum.shape() == skip.shape());
  tensor::axpy(1.0F, skip.data(), sum.data());
  return relu_out_.forward(sum, ctx);
}

Tensor ResidualBlock::backward(const Tensor& grad_output, RunContext& ctx) {
  const Tensor grad_sum = relu_out_.backward(grad_output, ctx);
  const Tensor grad_skip = shortcut_.backward(grad_sum, ctx);
  Tensor grad = main_.backward(grad_sum, ctx);
  tensor::axpy(1.0F, grad_skip.data(), grad.data());
  return grad;
}

std::vector<Param*> ResidualBlock::params() {
  return concat(main_.params(), shortcut_.params());
}

std::vector<NamedBuffer> ResidualBlock::buffers() {
  return concat(main_.buffers(), shortcut_.buffers());
}

void ResidualBlock::init_weights(rng::Generator& init_gen) {
  main_.init_weights(init_gen);
  shortcut_.init_weights(init_gen);
}

BasicBlock::BasicBlock(std::int64_t in_channels, std::int64_t out_channels,
                       std::int64_t stride)
    : ResidualBlock(basic_main(in_channels, out_channels, stride),
                    shortcut(in_channels, out_channels, stride)) {}

std::string BasicBlock::name() const { return "BasicBlock"; }

BottleneckBlock::BottleneckBlock(std::int64_t in_channels,
                                 std::int64_t mid_channels,
                                 std::int64_t expansion, std::int64_t stride)
    : ResidualBlock(bottleneck_main(in_channels, mid_channels,
                                    mid_channels * expansion, stride),
                    shortcut(in_channels, mid_channels * expansion, stride)) {}

std::string BottleneckBlock::name() const { return "BottleneckBlock"; }

}  // namespace nnr::nn
