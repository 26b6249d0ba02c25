#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::close;
using testutil::deterministic_context;
using testutil::fill_random;

TEST(Softmax, RowsSumToOne) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tensor logits(Shape{4, 7});
  fill_random(logits, 1);
  const Tensor probs = softmax(logits, ctx);
  for (std::int64_t i = 0; i < 4; ++i) {
    double row = 0.0;
    for (std::int64_t j = 0; j < 7; ++j) row += probs.at(i, j);
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(Softmax, InvariantToLogitShift) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tensor a(Shape{1, 3}, {1.0F, 2.0F, 3.0F});
  Tensor b(Shape{1, 3}, {101.0F, 102.0F, 103.0F});
  const Tensor pa = softmax(a, ctx);
  const Tensor pb = softmax(b, ctx);
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(pa.at(0, j), pb.at(0, j), 1e-5);
  }
}

TEST(Softmax, HandlesExtremeLogits) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tensor logits(Shape{1, 2}, {1000.0F, -1000.0F});
  const Tensor probs = softmax(logits, ctx);
  EXPECT_NEAR(probs.at(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(probs.at(0, 1), 0.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tensor logits(Shape{2, 5});
  std::vector<std::int32_t> labels = {0, 4};
  const LossResult result = softmax_cross_entropy(logits, labels, ctx);
  EXPECT_NEAR(result.loss, std::log(5.0), 1e-5);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionLowLoss) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tensor logits(Shape{1, 3}, {20.0F, 0.0F, 0.0F});
  std::vector<std::int32_t> labels = {0};
  const LossResult result = softmax_cross_entropy(logits, labels, ctx);
  EXPECT_LT(result.loss, 1e-4);
}

TEST(SoftmaxCrossEntropy, GradientIsProbMinusOnehotOverN) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tensor logits(Shape{2, 3});
  fill_random(logits, 2);
  std::vector<std::int32_t> labels = {1, 2};
  const Tensor probs = softmax(logits, ctx);
  const LossResult result = softmax_cross_entropy(logits, labels, ctx);
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      const float expected =
          (probs.at(i, j) - (labels[static_cast<std::size_t>(i)] == j ? 1.0F
                                                                      : 0.0F)) /
          2.0F;
      EXPECT_NEAR(result.grad_logits.at(i, j), expected, 1e-5);
    }
  }
}

TEST(SoftmaxCrossEntropy, GradientMatchesNumerical) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tensor logits(Shape{3, 4});
  fill_random(logits, 3);
  std::vector<std::int32_t> labels = {0, 1, 3};

  auto scalar = [&]() -> double {
    return softmax_cross_entropy(logits, labels, ctx).loss;
  };
  const LossResult result = softmax_cross_entropy(logits, labels, ctx);
  const auto numeric =
      testutil::numerical_gradient(logits.data(), scalar, 1e-2F);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_TRUE(close(result.grad_logits.at(static_cast<std::int64_t>(i)),
                      numeric[i]))
        << "grad[" << i << "]";
  }
}

}  // namespace
}  // namespace nnr::nn
