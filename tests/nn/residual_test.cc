#include "nn/residual.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/conv2d.h"
#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::bits;
using testutil::deterministic_context;
using testutil::fill_random;

/// "name[shape]" for every parameter, in params() order — the layout of
/// flat_weights() and of a checkpoint's entries.
std::vector<std::string> param_layout(Layer& layer) {
  std::vector<std::string> out;
  for (Param* p : layer.params()) {
    out.push_back(p->name + p->value.shape().to_string());
  }
  return out;
}

std::vector<std::string> buffer_names(Layer& layer) {
  std::vector<std::string> out;
  for (const NamedBuffer& b : layer.buffers()) out.push_back(b.name);
  return out;
}

/// The running statistics of `count` BatchNorm layers, in order.
std::vector<std::string> bn_buffers(int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.emplace_back("bn.running_mean");
    out.emplace_back("bn.running_var");
  }
  return out;
}

/// Bit patterns of every "conv.*" parameter of `layer`, in params() order.
std::vector<std::uint32_t> conv_bits(Layer& layer) {
  std::vector<std::uint32_t> out;
  for (Param* p : layer.params()) {
    if (p->name.rfind("conv.", 0) != 0) continue;
    const std::vector<std::uint32_t> b = bits(p->value);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

/// After `block` and the standalone `convs` each drew their weights from a
/// generator seeded alike, the block's conv parameters must equal the
/// convs' bit for bit, and both generators must stand at the same point.
void expect_init_as_standalone_convs(Layer& block,
                                     std::vector<Conv2D*> convs) {
  rng::Generator block_gen(21);
  block.init_weights(block_gen);
  rng::Generator conv_gen(21);
  std::vector<std::uint32_t> expected;
  for (Conv2D* conv : convs) {
    conv->init_weights(conv_gen);
    const std::vector<std::uint32_t> b = conv_bits(*conv);
    expected.insert(expected.end(), b.begin(), b.end());
  }
  EXPECT_EQ(conv_bits(block), expected);
  EXPECT_EQ(block_gen.uniform(), conv_gen.uniform())
      << "the block drew a different number of values";
}

TEST(BasicBlock, IdentitySkipPreservesShape) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  BasicBlock block(8, 8, 1);
  rng::Generator init(1);
  block.init_weights(init);
  Tensor x(Shape{2, 8, 4, 4});
  fill_random(x, 2);
  EXPECT_EQ(block.forward(x, ctx).shape(), x.shape());
}

TEST(BasicBlock, StridedBlockDownsamples) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  BasicBlock block(8, 16, 2);
  rng::Generator init(3);
  block.init_weights(init);
  Tensor x(Shape{2, 8, 8, 8});
  fill_random(x, 4);
  EXPECT_EQ(block.forward(x, ctx).shape(), (Shape{2, 16, 4, 4}));
}

TEST(BasicBlock, IdentityBlockHasNoProjectionParams) {
  BasicBlock identity(8, 8, 1);
  BasicBlock projected(8, 16, 2);
  // conv1(w,b) + bn1(g,b) + conv2(w,b) + bn2(g,b) = 8 params; projection
  // adds conv(w,b) + bn(g,b) = 4 more.
  EXPECT_EQ(identity.params().size(), 8u);
  EXPECT_EQ(projected.params().size(), 12u);
  EXPECT_EQ(param_layout(identity),
            (std::vector<std::string>{
                "conv.weight[8, 72]", "conv.bias[8]", "bn.gamma[8]",
                "bn.beta[8]", "conv.weight[8, 72]", "conv.bias[8]",
                "bn.gamma[8]", "bn.beta[8]"}));
  EXPECT_EQ(param_layout(projected),
            (std::vector<std::string>{
                "conv.weight[16, 72]", "conv.bias[16]", "bn.gamma[16]",
                "bn.beta[16]", "conv.weight[16, 144]", "conv.bias[16]",
                "bn.gamma[16]", "bn.beta[16]", "conv.weight[16, 8]",
                "conv.bias[16]", "bn.gamma[16]", "bn.beta[16]"}));
  EXPECT_EQ(buffer_names(identity), bn_buffers(2));
  EXPECT_EQ(buffer_names(projected), bn_buffers(3));
}

TEST(BasicBlock, InitDrawsConv1Conv2ThenProjection) {
  BasicBlock block(4, 8, 2);
  Conv2D conv1(4, 8, 3, 2);
  Conv2D conv2(8, 8, 3, 1);
  Conv2D proj(4, 8, 1, 2);
  expect_init_as_standalone_convs(block, {&conv1, &conv2, &proj});
}

TEST(BasicBlock, BackwardShapesMatchInput) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  BasicBlock block(4, 8, 2);
  rng::Generator init(5);
  block.init_weights(init);
  Tensor x(Shape{2, 4, 8, 8});
  fill_random(x, 6);
  const Tensor y = block.forward(x, ctx);
  Tensor dy(y.shape());
  fill_random(dy, 7);
  EXPECT_EQ(block.backward(dy, ctx).shape(), x.shape());
}

TEST(BasicBlock, SkipPathCarriesGradient) {
  // Zero all conv weights: the main path is dead (convs output only bias=0,
  // BN maps to beta=0 ... ), so gradient must still reach the input through
  // the identity skip.
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  BasicBlock block(2, 2, 1);
  for (Param* p : block.params()) p->value.fill(0.0F);
  Tensor x = Tensor::full(Shape{1, 2, 2, 2}, 1.0F);
  const Tensor y = block.forward(x, ctx);
  Tensor dy = Tensor::full(y.shape(), 1.0F);
  const Tensor dx = block.backward(dy, ctx);
  double grad_mass = 0.0;
  for (std::int64_t i = 0; i < dx.numel(); ++i) {
    grad_mass += std::abs(dx.at(i));
  }
  EXPECT_GT(grad_mass, 0.0);
}

TEST(BottleneckBlock, ExpansionControlsWidth) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  BottleneckBlock block(8, 8, 2, 1);
  rng::Generator init(8);
  block.init_weights(init);
  Tensor x(Shape{1, 8, 4, 4});
  fill_random(x, 9);
  EXPECT_EQ(block.forward(x, ctx).shape(), (Shape{1, 16, 4, 4}));
}

TEST(BottleneckBlock, BackwardShapesMatchInput) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  BottleneckBlock block(8, 4, 2, 2);
  rng::Generator init(10);
  block.init_weights(init);
  Tensor x(Shape{2, 8, 8, 8});
  fill_random(x, 11);
  const Tensor y = block.forward(x, ctx);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 4, 4}));
  Tensor dy(y.shape());
  fill_random(dy, 12);
  EXPECT_EQ(block.backward(dy, ctx).shape(), x.shape());
}

TEST(BottleneckBlock, ParamCount) {
  BottleneckBlock same(16, 8, 2, 1);  // in 16 == out 8*2: identity skip
  EXPECT_EQ(same.params().size(), 12u);  // 3 convs + 3 bns
  BottleneckBlock proj(8, 8, 2, 1);  // in 8 != out 16: projection
  EXPECT_EQ(proj.params().size(), 16u);
  EXPECT_EQ(param_layout(same),
            (std::vector<std::string>{
                "conv.weight[8, 16]", "conv.bias[8]", "bn.gamma[8]",
                "bn.beta[8]", "conv.weight[8, 72]", "conv.bias[8]",
                "bn.gamma[8]", "bn.beta[8]", "conv.weight[16, 8]",
                "conv.bias[16]", "bn.gamma[16]", "bn.beta[16]"}));
  EXPECT_EQ(param_layout(proj),
            (std::vector<std::string>{
                "conv.weight[8, 8]", "conv.bias[8]", "bn.gamma[8]",
                "bn.beta[8]", "conv.weight[8, 72]", "conv.bias[8]",
                "bn.gamma[8]", "bn.beta[8]", "conv.weight[16, 8]",
                "conv.bias[16]", "bn.gamma[16]", "bn.beta[16]",
                "conv.weight[16, 8]", "conv.bias[16]", "bn.gamma[16]",
                "bn.beta[16]"}));
  EXPECT_EQ(buffer_names(same), bn_buffers(3));
  EXPECT_EQ(buffer_names(proj), bn_buffers(4));
}

TEST(BottleneckBlock, InitDrawsConv1Conv2Conv3ThenProjection) {
  BottleneckBlock block(8, 4, 2, 2);  // in 8, out 4*2, stride 2: projection
  Conv2D conv1(8, 4, 1, 1);
  Conv2D conv2(4, 4, 3, 2);
  Conv2D conv3(4, 8, 1, 1);
  Conv2D proj(8, 8, 1, 2);
  expect_init_as_standalone_convs(block, {&conv1, &conv2, &conv3, &proj});
}

TEST(ResidualShortcut, EmptyModelIsTheIdentity) {
  // An identity shortcut is a Model with no layers: forward returns the
  // input and backward the output gradient, unchanged.
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Model empty;
  Tensor x(Shape{2, 3, 4, 4});
  fill_random(x, 13);
  const Tensor y = empty.forward(x, ctx);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_EQ(bits(y), bits(x));
  Tensor dy(Shape{2, 3, 4, 4});
  fill_random(dy, 14);
  const Tensor dx = empty.backward(dy, ctx);
  EXPECT_EQ(dx.shape(), dy.shape());
  EXPECT_EQ(bits(dx), bits(dy));
}

}  // namespace
}  // namespace nnr::nn
