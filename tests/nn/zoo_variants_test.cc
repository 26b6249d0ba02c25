// The ablation model-zoo variants: structural sanity, determinism, and
// trainability for small_cnn_dropout / small_cnn_norm / small_cnn_activation.
#include <gtest/gtest.h>

#include "nn/zoo.h"
#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::deterministic_context;
using testutil::fill_random;

Tensor batch_of(std::int64_t n, std::uint64_t seed) {
  Tensor x(Shape{n, 3, 16, 16});
  fill_random(x, seed);
  return x;
}

TEST(ZooVariants, DropoutVariantProducesClassLogits) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = false};
  Model m = small_cnn_dropout(10, 0.5F);
  rng::Generator init(3);
  m.init_weights(init);
  const Tensor x = batch_of(2, 5);
  const Tensor logits = m.forward(x, ctx);
  EXPECT_EQ(logits.shape(), (Shape{2, 10}));
}

TEST(ZooVariants, DropoutConsumesTheDropoutChannelOnlyWhenTraining) {
  auto hw = deterministic_context();
  Model m = small_cnn_dropout(10, 0.5F);
  rng::Generator init(7);
  m.init_weights(init);
  const Tensor x = batch_of(2, 9);

  rng::Generator dropout_a(11);
  rng::Generator dropout_b(12);
  RunContext train_a{.hw = &hw, .training = true, .dropout = &dropout_a};
  RunContext train_b{.hw = &hw, .training = true, .dropout = &dropout_b};
  const Tensor ya = m.forward(x, train_a);
  const Tensor yb = m.forward(x, train_b);
  bool any_difference = false;
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    if (ya.at(i) != yb.at(i)) any_difference = true;
  }
  EXPECT_TRUE(any_difference) << "training-mode dropout ignored its channel";

  // Eval mode: no dropout draws, deterministic output.
  RunContext eval{.hw = &hw, .training = false};
  const Tensor e1 = m.forward(x, eval);
  const Tensor e2 = m.forward(x, eval);
  for (std::int64_t i = 0; i < e1.numel(); ++i) {
    ASSERT_EQ(e1.at(i), e2.at(i));
  }
}

class NormVariant : public ::testing::TestWithParam<NormKind> {};

TEST_P(NormVariant, ForwardBackwardRoundTrips) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Model m = small_cnn_norm(10, GetParam());
  rng::Generator init(13);
  m.init_weights(init);
  const Tensor x = batch_of(3, 17);
  const Tensor logits = m.forward(x, ctx);
  ASSERT_EQ(logits.shape(), (Shape{3, 10}));
  Tensor dy(Shape{3, 10});
  fill_random(dy, 19);
  const Tensor dx = m.backward(dy, ctx);
  EXPECT_EQ(dx.shape(), x.shape());
  // Gradients reached the stem conv.
  double grad_mag = 0.0;
  for (const float g : m.params()[0]->grad.data()) {
    grad_mag += std::abs(static_cast<double>(g));
  }
  EXPECT_GT(grad_mag, 0.0);
}

TEST_P(NormVariant, DeterministicModeIsBitwiseStable) {
  auto run = [&] {
    auto hw = deterministic_context();
    RunContext ctx{.hw = &hw, .training = true};
    Model m = small_cnn_norm(10, GetParam());
    rng::Generator init(23);
    m.init_weights(init);
    const Tensor x = batch_of(2, 29);
    return m.forward(x, ctx);
  };
  const Tensor a = run();
  const Tensor b = run();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllNorms, NormVariant,
                         ::testing::Values(NormKind::kNone, NormKind::kBatch,
                                           NormKind::kGroup));

class ActVariant : public ::testing::TestWithParam<ActKind> {};

TEST_P(ActVariant, ForwardBackwardRoundTrips) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Model m = small_cnn_activation(10, GetParam());
  rng::Generator init(31);
  m.init_weights(init);
  const Tensor x = batch_of(2, 37);
  const Tensor logits = m.forward(x, ctx);
  ASSERT_EQ(logits.shape(), (Shape{2, 10}));
  Tensor dy(Shape{2, 10});
  fill_random(dy, 41);
  const Tensor dx = m.backward(dy, ctx);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST_P(ActVariant, ParameterCountIsActivationIndependent) {
  Model m = small_cnn_activation(10, GetParam());
  Model relu = small_cnn_activation(10, ActKind::kReLU);
  EXPECT_EQ(m.flat_weights().size(), relu.flat_weights().size());
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActVariant,
                         ::testing::Values(ActKind::kReLU, ActKind::kSiLU,
                                           ActKind::kGELU, ActKind::kTanh));

}  // namespace
}  // namespace nnr::nn
