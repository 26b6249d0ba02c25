#include "nn/zoo.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::deterministic_context;
using testutil::fill_random;

Tensor input_batch(std::int64_t n) {
  Tensor x(Shape{n, 3, 16, 16});
  fill_random(x, 42);
  return x;
}

TEST(Zoo, SmallCnnOutputShape) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Model m = small_cnn(10, /*with_batchnorm=*/false);
  rng::Generator init(1);
  m.init_weights(init);
  const Tensor y = m.forward(input_batch(4), ctx);
  EXPECT_EQ(y.shape(), (Shape{4, 10}));
}

TEST(Zoo, SmallCnnWithBnHasMoreParams) {
  Model no_bn = small_cnn(10, false);
  Model with_bn = small_cnn(10, true);
  EXPECT_GT(with_bn.flat_weights().size(), no_bn.flat_weights().size());
}

TEST(Zoo, ResNet18sOutputShape) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Model m = resnet18s(100);
  rng::Generator init(2);
  m.init_weights(init);
  const Tensor y = m.forward(input_batch(2), ctx);
  EXPECT_EQ(y.shape(), (Shape{2, 100}));
}

TEST(Zoo, ResNet50sOutputShape) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Model m = resnet50s(20);
  rng::Generator init(3);
  m.init_weights(init);
  const Tensor y = m.forward(input_batch(2), ctx);
  EXPECT_EQ(y.shape(), (Shape{2, 20}));
}

TEST(Zoo, ResNet50sDeeperThanResNet18s) {
  // Both have six residual blocks, but bottlenecks hold three convs each:
  // the 50-style model carries strictly more trainable tensors.
  Model r18 = resnet18s(10);
  Model r50 = resnet50s(10);
  EXPECT_GT(r50.params().size(), r18.params().size());
}

TEST(Zoo, InitConsumesInitStreamDeterministically) {
  Model a = resnet18s(10);
  Model b = resnet18s(10);
  rng::Generator ga(7);
  rng::Generator gb(7);
  a.init_weights(ga);
  b.init_weights(gb);
  const auto wa = a.flat_weights();
  const auto wb = b.flat_weights();
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(wa, wb);
}

TEST(Zoo, DifferentInitSeedsDiffer) {
  Model a = small_cnn(10, true);
  Model b = small_cnn(10, true);
  rng::Generator ga(8);
  rng::Generator gb(9);
  a.init_weights(ga);
  b.init_weights(gb);
  EXPECT_NE(a.flat_weights(), b.flat_weights());
}

TEST(Zoo, ZeroGradsClears) {
  Model m = small_cnn(10, false);
  rng::Generator g(10);
  m.init_weights(g);
  for (Param* p : m.params()) p->grad.fill(1.0F);
  m.zero_grads();
  for (Param* p : m.params()) {
    for (float v : p->grad.data()) EXPECT_EQ(v, 0.0F);
  }
}

TEST(Zoo, FlatWeightsLengthMatchesParamCount) {
  Model m = resnet18s(10);
  std::int64_t count = 0;
  for (Param* p : m.params()) count += p->value.numel();
  EXPECT_EQ(static_cast<std::int64_t>(m.flat_weights().size()), count);
}

}  // namespace
}  // namespace nnr::nn
