// VGG-s and MobileNet-s family models: shapes, parameter structure,
// backward pass, and the depthwise-vs-dense reduction-width contrast that
// motivates adding them to the zoo.
#include <cstdint>

#include <gtest/gtest.h>

#include "nn/zoo.h"
#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::deterministic_context;
using testutil::fill_random;

Tensor input_batch(std::int64_t n) {
  Tensor x(Shape{n, 3, 16, 16});
  fill_random(x, 77);
  return x;
}

TEST(ZooFamilies, VggOutputShape) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Model m = vgg_s(10);
  rng::Generator init(1);
  m.init_weights(init);
  const Tensor y = m.forward(input_batch(4), ctx);
  EXPECT_EQ(y.shape(), (Shape{4, 10}));
}

TEST(ZooFamilies, MobileNetOutputShape) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Model m = mobilenet_s(10);
  rng::Generator init(2);
  m.init_weights(init);
  const Tensor y = m.forward(input_batch(3), ctx);
  EXPECT_EQ(y.shape(), (Shape{3, 10}));
}

TEST(ZooFamilies, VggDeeperThanSmallCnn) {
  // Six convs vs three: VGG-s is the deepest plain stack in the zoo.
  Model vgg = vgg_s(10);
  Model small = small_cnn(10, /*with_batchnorm=*/true);
  EXPECT_GT(vgg.params().size(), small.params().size());
}

TEST(ZooFamilies, MobileNetUsesFewerParamsThanVgg) {
  // Depthwise separability is a parameter-efficiency technique; at matched
  // width the separable network must be smaller.
  Model mob = mobilenet_s(10);
  Model vgg = vgg_s(10);
  EXPECT_LT(mob.flat_weights().size(), vgg.flat_weights().size());
}

void expect_finite_grads(Model m) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  rng::Generator init(3);
  m.init_weights(init);
  m.zero_grads();
  const Tensor y = m.forward(input_batch(2), ctx);
  Tensor grad(y.shape());
  fill_random(grad, 5);
  (void)m.backward(grad, ctx);
  for (Param* p : m.params()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(p->grad.raw()[i]));
    }
  }
}

TEST(ZooFamilies, VggBackwardProducesFiniteGrads) {
  expect_finite_grads(vgg_s(5));
}

TEST(ZooFamilies, MobileNetBackwardProducesFiniteGrads) {
  expect_finite_grads(mobilenet_s(5));
}

TEST(ZooFamilies, InitIsChannelDeterministic) {
  // Same init generator state -> identical weights, for both families.
  for (Model (*make)() : {+[] { return vgg_s(10); },
                          +[] { return mobilenet_s(10); }}) {
    Model a = make();
    Model b = make();
    rng::Generator ga(9);
    rng::Generator gb(9);
    a.init_weights(ga);
    b.init_weights(gb);
    EXPECT_EQ(a.flat_weights(), b.flat_weights());
  }
}

TEST(ZooFamilies, EvalModeDiffersFromTrainModeUnderBn) {
  // Both families carry BatchNorm: training-mode forward (batch stats) and
  // eval-mode forward (running stats) must differ on a fresh model.
  auto hw = deterministic_context();
  Model m = mobilenet_s(10);
  rng::Generator init(4);
  m.init_weights(init);
  const Tensor x = input_batch(4);
  RunContext train_ctx{.hw = &hw, .training = true};
  RunContext eval_ctx{.hw = &hw, .training = false};
  const Tensor y_train = m.forward(x, train_ctx);
  const Tensor y_eval = m.forward(x, eval_ctx);
  bool any_diff = false;
  for (std::int64_t i = 0; i < y_train.numel(); ++i) {
    if (y_train.raw()[i] != y_eval.raw()[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(ZooFamilies, FlatWeightsRoundTrip) {
  // load_flat_weights is the exact inverse of flat_weights.
  Model a = vgg_s(10);
  Model b = vgg_s(10);
  rng::Generator ga(11);
  rng::Generator gb(22);
  a.init_weights(ga);
  b.init_weights(gb);
  ASSERT_NE(a.flat_weights(), b.flat_weights());
  b.load_flat_weights(a.flat_weights());
  EXPECT_EQ(a.flat_weights(), b.flat_weights());
}

class FamilyClassCount : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(FamilyClassCount, HeadsMatchRequestedClasses) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = false};
  const std::int64_t classes = GetParam();
  const auto check = [&](Model m) {
    rng::Generator init(6);
    m.init_weights(init);
    const Tensor y = m.forward(input_batch(1), ctx);
    EXPECT_EQ(y.shape(), (Shape{1, classes}));
  };
  check(vgg_s(classes));
  check(mobilenet_s(classes));
}

INSTANTIATE_TEST_SUITE_P(Classes, FamilyClassCount,
                         ::testing::Values(2, 10, 100));

}  // namespace
}  // namespace nnr::nn
