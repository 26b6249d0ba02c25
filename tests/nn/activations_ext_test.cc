// SiLU / GELU / Tanh: values, gradients, and the smoothness
// property that motivates them (Shamir et al. 2020: smooth activations
// damp perturbation amplification).
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::close;
using testutil::deterministic_context;
using testutil::fill_random;

TEST(SiLU, KnownValues) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  SiLU layer;
  Tensor x(Shape{3});
  x.at(0) = 0.0F;  // 0 * 0.5 = 0
  x.at(1) = 1.0F;  // 1 * sigmoid(1)
  x.at(2) = -1.0F;
  const Tensor y = layer.forward(x, ctx);
  EXPECT_FLOAT_EQ(y.at(0), 0.0F);
  EXPECT_NEAR(y.at(1), 1.0F / (1.0F + std::exp(-1.0F)), 1e-6F);
  EXPECT_NEAR(y.at(2), -1.0F / (1.0F + std::exp(1.0F)), 1e-6F);
}

TEST(GELU, KnownValues) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  GELU layer;
  Tensor x(Shape{3});
  x.at(0) = 0.0F;
  x.at(1) = 1.0F;
  x.at(2) = -10.0F;  // deep negative tail -> ~0
  const Tensor y = layer.forward(x, ctx);
  EXPECT_FLOAT_EQ(y.at(0), 0.0F);
  EXPECT_NEAR(y.at(1), 0.84134F, 1e-4F);  // 1 * Phi(1)
  EXPECT_NEAR(y.at(2), 0.0F, 1e-5F);
}

TEST(TanhLayer, MatchesStdTanh) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tanh layer;
  Tensor x(Shape{5});
  fill_random(x, 7);
  const Tensor y = layer.forward(x, ctx);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(y.at(i), std::tanh(x.at(i)));
  }
}

// Parameterized numerical gradient check over all new activations.
enum class Act { kSiLU, kGELU, kTanh };

std::unique_ptr<Layer> make_act(Act a) {
  switch (a) {
    case Act::kSiLU:
      return std::make_unique<SiLU>();
    case Act::kGELU:
      return std::make_unique<GELU>();
    case Act::kTanh:
      return std::make_unique<Tanh>();
  }
  return nullptr;
}

class ActivationGradCheck : public ::testing::TestWithParam<Act> {};

TEST_P(ActivationGradCheck, InputGradientMatchesNumerical) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  auto layer = make_act(GetParam());
  Tensor x(Shape{2, 3});
  fill_random(x, 21);

  auto scalar = [&]() -> double {
    const Tensor y = layer->forward(x, ctx);
    double s = 0.0;
    for (const float v : y.data()) s += v;  // loss = sum(y)
    return s;
  };

  (void)layer->forward(x, ctx);
  Tensor dy(Shape{2, 3});
  dy.fill(1.0F);
  const Tensor dx = layer->backward(dy, ctx);

  const auto numeric = testutil::numerical_gradient(x.data(), scalar, 1e-3F);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_TRUE(close(dx.at(static_cast<std::int64_t>(i)), numeric[i]))
        << "element " << i << ": analytic "
        << dx.at(static_cast<std::int64_t>(i)) << " numeric " << numeric[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradCheck,
                         ::testing::Values(Act::kSiLU, Act::kGELU,
                                           Act::kTanh));

// The property that motivates smooth activations: under a small input
// perturbation, the *gradient* of ReLU can jump by O(1) (a unit flips), while
// SiLU/GELU/Tanh gradients move by O(epsilon).
TEST(ActivationSmoothness, SmoothActivationsHaveLipschitzGradients) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  const float eps = 1e-3F;

  // Input straddling zero: the worst case for the ReLU kink.
  Tensor x(Shape{1});
  x.at(0) = -eps / 2.0F;
  Tensor x2(Shape{1});
  x2.at(0) = eps / 2.0F;
  Tensor dy(Shape{1});
  dy.fill(1.0F);

  auto grad_at = [&](Layer& layer, const Tensor& input) {
    (void)layer.forward(input, ctx);
    return layer.backward(dy, ctx).at(0);
  };

  ReLU relu;
  const float relu_jump = std::fabs(grad_at(relu, x2) - grad_at(relu, x));
  EXPECT_FLOAT_EQ(relu_jump, 1.0F);  // 0 -> 1 across the kink

  SiLU silu;
  GELU gelu;
  Tanh tanh_layer;
  EXPECT_LT(std::fabs(grad_at(silu, x2) - grad_at(silu, x)), 1e-2F);
  EXPECT_LT(std::fabs(grad_at(gelu, x2) - grad_at(gelu, x)), 1e-2F);
  EXPECT_LT(std::fabs(grad_at(tanh_layer, x2) - grad_at(tanh_layer, x)),
            1e-2F);
}

}  // namespace
}  // namespace nnr::nn
