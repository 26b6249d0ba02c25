#include "nn/conv2d.h"

#include <gtest/gtest.h>

#include "nn/loss.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::close;
using testutil::deterministic_context;
using testutil::fill_random;

/// Naive direct convolution reference (stride 1).
Tensor naive_conv(const Tensor& x, const Tensor& w_flat, const Tensor& bias,
                  std::int64_t cout, std::int64_t k, std::int64_t pad) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t cin = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t wdt = x.shape()[3];
  Tensor y(Shape{n, cout, h, wdt});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t oy = 0; oy < h; ++oy) {
        for (std::int64_t ox = 0; ox < wdt; ++ox) {
          double acc = bias.at(co);
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy + ky - pad;
                const std::int64_t ix = ox + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wdt) continue;
                acc += static_cast<double>(x.at(ni, ci, iy, ix)) *
                       w_flat.at(co, (ci * k + ky) * k + kx);
              }
            }
          }
          y.at(ni, co, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

TEST(Conv2D, ForwardMatchesNaiveReference) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Conv2D layer(2, 3, 3);
  rng::Generator init(1);
  layer.init_weights(init);
  auto params = layer.params();
  fill_random(params[1]->value, 7);  // non-zero bias

  Tensor x(Shape{2, 2, 5, 5});
  fill_random(x, 2);
  const Tensor y = layer.forward(x, ctx);
  const Tensor ref =
      naive_conv(x, params[0]->value, params[1]->value, 3, 3, 1);
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y.at(i), ref.at(i), 1e-4) << "at " << i;
  }
}

TEST(Conv2D, OutputShapeWithStride) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Conv2D layer(3, 8, 3, /*stride=*/2);
  rng::Generator init(2);
  layer.init_weights(init);
  Tensor x(Shape{4, 3, 8, 8});
  const Tensor y = layer.forward(x, ctx);
  EXPECT_EQ(y.shape(), (Shape{4, 8, 4, 4}));
}

TEST(Conv2D, OneByOneConvIsChannelMix) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Conv2D layer(2, 1, 1, 1, 0);
  auto params = layer.params();
  params[0]->value = Tensor(Shape{1, 2}, {2.0F, 3.0F});
  Tensor x(Shape{1, 2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 2});
  const Tensor y = layer.forward(x, ctx);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(y.at(i), 8.0F);  // 2*1 + 3*2
  }
}

TEST(Conv2D, WeightGradientCheck) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Conv2D layer(1, 2, 3);
  rng::Generator init(3);
  layer.init_weights(init);

  Tensor x(Shape{2, 1, 4, 4});
  fill_random(x, 4);
  std::vector<std::int32_t> labels = {0, 1};

  // Head: global sum per channel via flatten to logits by mean pooling —
  // use a tiny loss: mean CE over per-pixel logits is complex, so instead sum
  // activations into 2 logits via fixed weights (spatial mean).
  auto logits_of = [&]() -> Tensor {
    const Tensor y = layer.forward(x, ctx);  // [2, 2, 4, 4]
    Tensor logits(Shape{2, 2});
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t c = 0; c < 2; ++c) {
        double acc = 0.0;
        for (std::int64_t p = 0; p < 16; ++p) {
          acc += y.at((n * 2 + c) * 16 + p);
        }
        logits.at(n, c) = static_cast<float>(acc / 16.0);
      }
    }
    return logits;
  };
  auto loss_value = [&]() -> double {
    const Tensor logits = logits_of();
    return softmax_cross_entropy(logits, labels, ctx).loss;
  };

  for (Param* p : layer.params()) p->grad.fill(0.0F);
  const Tensor logits = logits_of();
  const LossResult loss = softmax_cross_entropy(logits, labels, ctx);
  // Route d(loss)/d(logits) back through the spatial mean.
  Tensor dy(Shape{2, 2, 4, 4});
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t c = 0; c < 2; ++c) {
      for (std::int64_t p = 0; p < 16; ++p) {
        dy.at((n * 2 + c) * 16 + p) = loss.grad_logits.at(n, c) / 16.0F;
      }
    }
  }
  (void)layer.backward(dy, ctx);

  for (Param* p : layer.params()) {
    const auto numeric =
        testutil::numerical_gradient(p->value.data(), loss_value, 1e-2F);
    for (std::size_t i = 0; i < numeric.size(); ++i) {
      EXPECT_TRUE(close(p->grad.at(static_cast<std::int64_t>(i)), numeric[i]))
          << p->name << "[" << i << "]";
    }
  }
}

TEST(Conv2D, InputGradientCheck) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Conv2D layer(1, 1, 3);
  rng::Generator init(5);
  layer.init_weights(init);

  Tensor x(Shape{1, 1, 3, 3});
  fill_random(x, 6);

  auto scalar = [&]() -> double {
    const Tensor y = layer.forward(x, ctx);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += 0.5 * static_cast<double>(y.at(i)) * y.at(i);
    }
    return acc;
  };

  const Tensor y = layer.forward(x, ctx);
  Tensor dy = y;  // d(0.5*sum y^2)/dy = y
  const Tensor dx = layer.backward(dy, ctx);

  const auto numeric = testutil::numerical_gradient(x.data(), scalar, 1e-2F);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_TRUE(close(dx.at(static_cast<std::int64_t>(i)), numeric[i], 5e-2,
                      5e-3))
        << "dx[" << i << "]";
  }
}

// Conv2D's backward as it was computed before its GEMMs read B in place:
// explicit transposes feeding gemm_nt_reference. The reference makes its
// launches in the layer's order (forward GEMM, dW GEMM, bias reduction, dx
// GEMM) on a context seeded like the layer's, so under default kernels both
// draw the same shuffle for every launch.
TEST(Conv2D, BackwardBitwiseEqualToTransposedFormulation) {
  for (const bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "default kernels");
    auto make_hw = [&] {
      return deterministic ? deterministic_context()
                           : testutil::noisy_context(61);
    };
    auto hw = make_hw();
    auto ref_hw = make_hw();
    RunContext ctx{.hw = &hw, .training = true};
    // 3 input channels x 3x3 taps: K = 27 leaves a 3-column tile remainder.
    const std::int64_t cin = 3;
    const std::int64_t cout = 8;
    Conv2D layer(cin, cout, 3);
    rng::Generator init(7);
    layer.init_weights(init);
    Tensor x(Shape{2, cin, 8, 8});
    fill_random(x, 8);
    Tensor dy(Shape{2, cout, 8, 8});
    fill_random(dy, 9);
    (void)layer.forward(x, ctx);
    const Tensor dx = layer.backward(dy, ctx);

    const Tensor& w = layer.params()[0]->value;
    const tensor::ConvGeometry g{.batch = 2,
                                 .in_channels = cin,
                                 .in_h = 8,
                                 .in_w = 8,
                                 .kernel = 3,
                                 .stride = 1,
                                 .pad = 1};
    const std::int64_t pixels = g.out_pixels();
    const std::int64_t patch = g.patch_size();
    const std::int64_t ohw = g.out_h() * g.out_w();
    Tensor cols(Shape{pixels, patch});
    tensor::im2col(x, g, cols);
    Tensor out_pc(Shape{pixels, cout});
    tensor::gemm_nt_reference(cols, w, out_pc, ref_hw.matmul_policy());

    Tensor dy_pc(Shape{pixels, cout});
    Tensor dy_cp(Shape{cout, pixels});
    for (std::int64_t n = 0; n < g.batch; ++n) {
      for (std::int64_t c = 0; c < cout; ++c) {
        for (std::int64_t p = 0; p < ohw; ++p) {
          const float v = dy.at((n * cout + c) * ohw + p);
          dy_pc.at(n * ohw + p, c) = v;
          dy_cp.at(c, n * ohw + p) = v;
        }
      }
    }
    Tensor cols_kp(Shape{patch, pixels});
    tensor::transpose(cols, cols_kp);
    Tensor dw(Shape{cout, patch});
    tensor::gemm_nt_reference(dy_cp, cols_kp, dw, ref_hw.matmul_policy());
    Tensor db(Shape{cout});
    tensor::reduce_rows(dy_cp, db.data(), ref_hw.reduction_policy());
    Tensor w_kc(Shape{patch, cout});
    tensor::transpose(w, w_kc);
    Tensor dcols(Shape{pixels, patch});
    tensor::gemm_nt_reference(dy_pc, w_kc, dcols, ref_hw.matmul_policy());
    Tensor dx_ref(x.shape());
    tensor::col2im(dcols, g, dx_ref);

    // The layer accumulates into zeroed grads: 0.0F + -0.0F is +0.0F.
    Tensor dw_ref(w.shape());
    tensor::axpy(1.0F, dw.data(), dw_ref.data());
    Tensor db_ref(Shape{cout});
    tensor::axpy(1.0F, db.data(), db_ref.data());
    EXPECT_EQ(testutil::bits(layer.params()[0]->grad), testutil::bits(dw_ref));
    EXPECT_EQ(testutil::bits(layer.params()[1]->grad), testutil::bits(db_ref));
    EXPECT_EQ(testutil::bits(dx), testutil::bits(dx_ref));
  }
}

TEST(Conv2D, KernelAccessor) {
  EXPECT_EQ(Conv2D(3, 8, 5).kernel(), 5);
}

}  // namespace
}  // namespace nnr::nn
