#include <gtest/gtest.h>

#include "nn/conv2d.h"
#include "nn/depthwise_conv.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::close;
using testutil::deterministic_context;
using testutil::fill_random;

TEST(DepthwiseConv2D, IdentityKernelPassesInputThrough) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  DepthwiseConv2D conv(2, 3);  // 3x3, same padding
  // Center tap 1, everything else 0 -> identity per channel.
  Param* w = conv.params()[0];
  w->value.fill(0.0F);
  w->value.at(0, 4) = 1.0F;
  w->value.at(1, 4) = 1.0F;

  Tensor x(Shape{1, 2, 4, 4});
  fill_random(x, 3);
  const Tensor y = conv.forward(x, ctx);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y.at(i), x.at(i), 1e-6F) << "element " << i;
  }
}

TEST(DepthwiseConv2D, ChannelsDoNotMix) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  DepthwiseConv2D conv(2, 3);
  rng::Generator init(5);
  conv.init_weights(init);

  // Zero out channel 1's input; its output must be bias-only regardless of
  // channel 0's content.
  Tensor x(Shape{1, 2, 4, 4});
  fill_random(x, 7);
  for (std::int64_t h = 0; h < 4; ++h) {
    for (std::int64_t w = 0; w < 4; ++w) x.at(0, 1, h, w) = 0.0F;
  }
  const Tensor y = conv.forward(x, ctx);
  for (std::int64_t h = 0; h < 4; ++h) {
    for (std::int64_t w = 0; w < 4; ++w) {
      EXPECT_FLOAT_EQ(y.at(0, 1, h, w), conv.params()[1]->value.at(1));
    }
  }
}

TEST(DepthwiseConv2D, MatchesConv2DWithBlockDiagonalWeights) {
  // Depthwise conv == grouped conv with groups = channels; embed the
  // depthwise filters into a dense Conv2D weight with zeros across channels.
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  const std::int64_t channels = 3;
  const std::int64_t k = 3;
  DepthwiseConv2D dw(channels, k);
  Conv2D dense(channels, channels, k);
  rng::Generator init(11);
  dw.init_weights(init);

  Param* dw_w = dw.params()[0];
  Param* dense_w = dense.params()[0];
  dense_w->value.fill(0.0F);
  dense.params()[1]->value.fill(0.0F);
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t t = 0; t < k * k; ++t) {
      // Dense weight layout: [out_c, in_c * k * k].
      dense_w->value.at(c, c * k * k + t) = dw_w->value.at(c, t);
    }
  }

  Tensor x(Shape{2, channels, 5, 5});
  fill_random(x, 13);
  const Tensor y_dw = dw.forward(x, ctx);
  const Tensor y_dense = dense.forward(x, ctx);
  ASSERT_EQ(y_dw.shape(), y_dense.shape());
  for (std::int64_t i = 0; i < y_dw.numel(); ++i) {
    EXPECT_NEAR(y_dw.at(i), y_dense.at(i), 1e-4F) << "element " << i;
  }
}

TEST(DepthwiseConv2D, StrideTwoHalvesOutput) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  DepthwiseConv2D conv(1, 3, /*stride=*/2, /*pad=*/1);
  rng::Generator init(17);
  conv.init_weights(init);
  Tensor x(Shape{1, 1, 8, 8});
  fill_random(x, 19);
  const Tensor y = conv.forward(x, ctx);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
}

TEST(DepthwiseConv2D, ParameterGradientsMatchNumerical) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  DepthwiseConv2D conv(2, 3);
  rng::Generator init(23);
  conv.init_weights(init);

  Tensor x(Shape{2, 2, 4, 4});
  fill_random(x, 29);
  Tensor dy_fixed(Shape{2, 2, 4, 4});
  fill_random(dy_fixed, 31);

  auto scalar = [&]() -> double {
    const Tensor y = conv.forward(x, ctx);
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      s += static_cast<double>(y.at(i)) * static_cast<double>(dy_fixed.at(i));
    }
    return s;
  };

  for (Param* p : conv.params()) p->grad.fill(0.0F);
  (void)conv.forward(x, ctx);
  const Tensor dx = conv.backward(dy_fixed, ctx);

  for (Param* p : conv.params()) {
    const auto numeric =
        testutil::numerical_gradient(p->value.data(), scalar, 1e-2F);
    for (std::size_t i = 0; i < numeric.size(); ++i) {
      EXPECT_TRUE(close(p->grad.at(static_cast<std::int64_t>(i)), numeric[i]))
          << p->name << "[" << i << "]";
    }
  }

  const auto numeric_x = testutil::numerical_gradient(x.data(), scalar, 1e-2F);
  for (std::size_t i = 0; i < numeric_x.size(); ++i) {
    EXPECT_TRUE(close(dx.at(static_cast<std::int64_t>(i)), numeric_x[i]))
        << "input[" << i << "]";
  }
}

TEST(DepthwiseConv2D, BitwiseDeterministicInDeterministicMode) {
  auto run = [](std::uint64_t entropy) {
    auto hw = testutil::deterministic_context();
    RunContext ctx{.hw = &hw, .training = true};
    (void)entropy;
    DepthwiseConv2D conv(3, 3);
    rng::Generator init(37);
    conv.init_weights(init);
    Tensor x(Shape{2, 3, 6, 6});
    fill_random(x, 41);
    Tensor y = conv.forward(x, ctx);
    Tensor dy(Shape{2, 3, 6, 6});
    fill_random(dy, 43);
    Tensor dx = conv.backward(dy, ctx);
    return std::pair{y, dx};
  };
  const auto [y1, dx1] = run(1);
  const auto [y2, dx2] = run(2);
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_EQ(y1.at(i), y2.at(i));
  }
  for (std::int64_t i = 0; i < dx1.numel(); ++i) {
    EXPECT_EQ(dx1.at(i), dx2.at(i));
  }
}

// DepthwiseConv2D's backward as it was computed before its dW GEMM read the
// patch matrix in place: a transpose feeding gemm_nt_reference. The reference
// makes its launches in the layer's order (every channel's forward GEMM, then
// per channel the dW GEMM, bias reduction and dx GEMM) on a context seeded
// like the layer's, so under default kernels both draw the same shuffle for
// every launch. The dW GEMM is [1, 9]: gemm_nn's tiny path.
TEST(DepthwiseConv2D, BackwardBitwiseEqualToTransposedFormulation) {
  for (const bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "default kernels");
    auto make_hw = [&] {
      return deterministic ? deterministic_context()
                           : testutil::noisy_context(71);
    };
    auto hw = make_hw();
    auto ref_hw = make_hw();
    RunContext ctx{.hw = &hw, .training = true};
    const std::int64_t channels = 3;
    const std::int64_t taps = 9;
    DepthwiseConv2D conv(channels, 3);
    rng::Generator init(73);
    conv.init_weights(init);
    Tensor x(Shape{2, channels, 8, 8});
    fill_random(x, 79);
    Tensor dy(Shape{2, channels, 8, 8});
    fill_random(dy, 83);
    (void)conv.forward(x, ctx);
    const Tensor dx = conv.backward(dy, ctx);

    const Tensor& w = conv.params()[0]->value;
    const tensor::ConvGeometry g{.batch = 2,
                                 .in_channels = 1,
                                 .in_h = 8,
                                 .in_w = 8,
                                 .kernel = 3,
                                 .stride = 1,
                                 .pad = 1};
    const std::int64_t pixels = g.out_pixels();
    const std::int64_t hw_size = 8 * 8;
    std::vector<Tensor> cols(static_cast<std::size_t>(channels),
                             Tensor(Shape{pixels, taps}));
    Tensor w_row(Shape{1, taps});
    Tensor out_p(Shape{pixels, 1});
    for (std::int64_t c = 0; c < channels; ++c) {
      Tensor channel(Shape{2, 1, 8, 8});
      for (std::int64_t n = 0; n < 2; ++n) {
        for (std::int64_t p = 0; p < hw_size; ++p) {
          channel.at(n * hw_size + p) = x.at((n * channels + c) * hw_size + p);
        }
      }
      tensor::im2col(channel, g, cols[static_cast<std::size_t>(c)]);
      for (std::int64_t t = 0; t < taps; ++t) w_row.at(t) = w.at(c, t);
      tensor::gemm_nt_reference(cols[static_cast<std::size_t>(c)], w_row,
                                out_p, ref_hw.matmul_policy());
    }

    Tensor dw_ref(w.shape());
    Tensor db_ref(Shape{channels});
    Tensor dx_ref(x.shape());
    Tensor dy_1p(Shape{1, pixels});
    Tensor dy_p1(Shape{pixels, 1});
    Tensor cols_tp(Shape{taps, pixels});
    Tensor dw_row(Shape{1, taps});
    Tensor w_t1(Shape{taps, 1});
    Tensor dcols(Shape{pixels, taps});
    Tensor dchannel(Shape{2, 1, 8, 8});
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t n = 0; n < 2; ++n) {
        for (std::int64_t p = 0; p < hw_size; ++p) {
          const float v = dy.at((n * channels + c) * hw_size + p);
          dy_1p.at(0, n * hw_size + p) = v;
          dy_p1.at(n * hw_size + p, 0) = v;
        }
      }
      tensor::transpose(cols[static_cast<std::size_t>(c)], cols_tp);
      tensor::gemm_nt_reference(dy_1p, cols_tp, dw_row,
                                ref_hw.matmul_policy());
      for (std::int64_t t = 0; t < taps; ++t) dw_ref.at(c, t) += dw_row.at(t);
      db_ref.at(c) +=
          tensor::reduce_sum(dy_1p.data(), ref_hw.reduction_policy());
      for (std::int64_t t = 0; t < taps; ++t) w_t1.at(t, 0) = w.at(c, t);
      tensor::gemm_nt_reference(dy_p1, w_t1, dcols, ref_hw.matmul_policy());
      tensor::col2im(dcols, g, dchannel);
      for (std::int64_t n = 0; n < 2; ++n) {
        for (std::int64_t p = 0; p < hw_size; ++p) {
          dx_ref.at((n * channels + c) * hw_size + p) =
              dchannel.at(n * hw_size + p);
        }
      }
    }

    EXPECT_EQ(testutil::bits(conv.params()[0]->grad), testutil::bits(dw_ref));
    EXPECT_EQ(testutil::bits(conv.params()[1]->grad), testutil::bits(db_ref));
    EXPECT_EQ(testutil::bits(dx), testutil::bits(dx_ref));
  }
}

TEST(DepthwiseConv2D, WeightGradientDivergesUnderSchedulerNoise) {
  // The weight-gradient contraction over batch*pixels is the depthwise
  // layer's big reduction: under the sharded-shuffled policy two runs with
  // different entropy may round differently.
  auto run = [](std::uint64_t entropy) {
    auto hw = testutil::noisy_context(entropy);
    RunContext ctx{.hw = &hw, .training = true};
    DepthwiseConv2D conv(1, 5);
    rng::Generator init(47);
    conv.init_weights(init);
    Tensor x(Shape{4, 1, 12, 12});
    fill_random(x, 53);
    (void)conv.forward(x, ctx);
    Tensor dy(Shape{4, 1, 12, 12});
    fill_random(dy, 59);
    (void)conv.backward(dy, ctx);
    std::vector<float> dw(conv.params()[0]->grad.data().begin(),
                          conv.params()[0]->grad.data().end());
    return dw;
  };
  const auto a = run(101);
  const auto b = run(202);
  // Gradients stay numerically close...
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-3F);
  }
  // ...but are not required to be bitwise equal. (We do not assert
  // difference: with few lanes the orders can coincide; the accumulate
  // tests assert divergence statistically.)
}

}  // namespace
}  // namespace nnr::nn
