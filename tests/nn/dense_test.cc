#include "nn/dense.h"

#include <gtest/gtest.h>

#include "nn/loss.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::close;
using testutil::deterministic_context;
using testutil::fill_random;

TEST(Dense, ForwardKnownValues) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Dense layer(2, 3);
  // W = [[1,0],[0,1],[1,1]], b = [0.5, -0.5, 0].
  auto params = layer.params();
  params[0]->value = Tensor(Shape{3, 2}, {1, 0, 0, 1, 1, 1});
  params[1]->value = Tensor(Shape{3}, {0.5F, -0.5F, 0.0F});
  const Tensor x(Shape{1, 2}, {2.0F, 3.0F});
  const Tensor y = layer.forward(x, ctx);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5F);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.5F);
  EXPECT_FLOAT_EQ(y.at(0, 2), 5.0F);
}

TEST(Dense, BackwardGradientCheck) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Dense layer(4, 3);
  rng::Generator init(1);
  layer.init_weights(init);

  Tensor x(Shape{5, 4});
  fill_random(x, 2);
  std::vector<std::int32_t> labels = {0, 1, 2, 0, 1};

  auto loss_value = [&]() -> double {
    const Tensor logits = layer.forward(x, ctx);
    return softmax_cross_entropy(logits, labels, ctx).loss;
  };

  // Analytic gradients.
  for (Param* p : layer.params()) p->grad.fill(0.0F);
  const Tensor logits = layer.forward(x, ctx);
  const LossResult loss = softmax_cross_entropy(logits, labels, ctx);
  (void)layer.backward(loss.grad_logits, ctx);

  for (Param* p : layer.params()) {
    const auto numeric = testutil::numerical_gradient(
        p->value.data(), loss_value, 1e-2F);
    for (std::size_t i = 0; i < numeric.size(); ++i) {
      EXPECT_TRUE(close(p->grad.at(static_cast<std::int64_t>(i)), numeric[i]))
          << p->name << "[" << i << "]: analytic "
          << p->grad.at(static_cast<std::int64_t>(i)) << " vs numeric "
          << numeric[i];
    }
  }
}

TEST(Dense, InputGradientCheck) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Dense layer(3, 2);
  rng::Generator init(3);
  layer.init_weights(init);

  Tensor x(Shape{2, 3});
  fill_random(x, 4);
  std::vector<std::int32_t> labels = {0, 1};

  auto loss_value = [&]() -> double {
    const Tensor logits = layer.forward(x, ctx);
    return softmax_cross_entropy(logits, labels, ctx).loss;
  };

  layer.params()[0]->grad.fill(0.0F);
  layer.params()[1]->grad.fill(0.0F);
  const Tensor logits = layer.forward(x, ctx);
  const LossResult loss = softmax_cross_entropy(logits, labels, ctx);
  const Tensor dx = layer.backward(loss.grad_logits, ctx);

  const auto numeric =
      testutil::numerical_gradient(x.data(), loss_value, 1e-2F);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_TRUE(close(dx.at(static_cast<std::int64_t>(i)), numeric[i]))
        << "dx[" << i << "]";
  }
}

TEST(Dense, GradAccumulatesAcrossBackwards) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Dense layer(2, 2);
  rng::Generator init(5);
  layer.init_weights(init);
  Tensor x(Shape{1, 2}, {1.0F, 1.0F});
  Tensor dy(Shape{1, 2}, {1.0F, 0.0F});

  (void)layer.forward(x, ctx);
  (void)layer.backward(dy, ctx);
  const float once = layer.params()[0]->grad.at(0);
  (void)layer.forward(x, ctx);
  (void)layer.backward(dy, ctx);
  EXPECT_FLOAT_EQ(layer.params()[0]->grad.at(0), 2.0F * once);
}

// Dense's backward as it was computed before its GEMMs read B in place:
// explicit transposes feeding gemm_nt_reference. The reference makes its
// launches in the layer's order (forward GEMM, dW GEMM, bias reduction, dx
// GEMM) on a context seeded like the layer's, so under default kernels both
// draw the same shuffle for every launch.
TEST(Dense, BackwardBitwiseEqualToTransposedFormulation) {
  for (const bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "default kernels");
    auto make_hw = [&] {
      return deterministic ? deterministic_context()
                           : testutil::noisy_context(67);
    };
    auto hw = make_hw();
    auto ref_hw = make_hw();
    RunContext ctx{.hw = &hw, .training = true};
    // 27 inputs leave a 3-column tile remainder; 10 outputs and a batch of
    // 66 leave short row blocks; the batch gives the dW reduction 2 lanes.
    const std::int64_t in = 27;
    const std::int64_t out = 10;
    const std::int64_t batch = 66;
    Dense layer(in, out);
    rng::Generator init(11);
    layer.init_weights(init);
    Tensor x(Shape{batch, in});
    fill_random(x, 12);
    Tensor dy(Shape{batch, out});
    fill_random(dy, 13);
    (void)layer.forward(x, ctx);
    const Tensor dx = layer.backward(dy, ctx);

    const Tensor& w = layer.params()[0]->value;
    Tensor y(Shape{batch, out});
    tensor::gemm_nt_reference(x, w, y, ref_hw.matmul_policy());
    Tensor dy_t(Shape{out, batch});
    tensor::transpose(dy, dy_t);
    Tensor x_t(Shape{in, batch});
    tensor::transpose(x, x_t);
    Tensor dw(Shape{out, in});
    tensor::gemm_nt_reference(dy_t, x_t, dw, ref_hw.matmul_policy());
    Tensor db(Shape{out});
    tensor::reduce_rows(dy_t, db.data(), ref_hw.reduction_policy());
    Tensor w_t(Shape{in, out});
    tensor::transpose(w, w_t);
    Tensor dx_ref(Shape{batch, in});
    tensor::gemm_nt_reference(dy, w_t, dx_ref, ref_hw.matmul_policy());

    // The layer accumulates into zeroed grads: 0.0F + -0.0F is +0.0F.
    Tensor dw_ref(w.shape());
    tensor::axpy(1.0F, dw.data(), dw_ref.data());
    Tensor db_ref(Shape{out});
    tensor::axpy(1.0F, db.data(), db_ref.data());
    EXPECT_EQ(testutil::bits(layer.params()[0]->grad), testutil::bits(dw_ref));
    EXPECT_EQ(testutil::bits(layer.params()[1]->grad), testutil::bits(db_ref));
    EXPECT_EQ(testutil::bits(dx), testutil::bits(dx_ref));
  }
}

TEST(Dense, NameMentionsDims) {
  EXPECT_EQ(Dense(128, 32).name(), "Dense(128->32)");
}

}  // namespace
}  // namespace nnr::nn
