// Determinism suite for the blocked GEMM engine and the lowering fast paths.
//
// The contract under test: for every accumulation order the blocked+packed+
// threaded engine must be *bitwise* identical to the seed triple loop
// (gemm_nt_reference), for every shape — including k = 0, k below the unroll
// width, and m/n that are not multiples of the register tile — for every
// host thread count, and whether B arrives as [N, K] (gemm_nt) or as the
// untransposed [K, N] (gemm_nn). For the shuffled order that holds launch
// after launch, with the entropy streams in lockstep (one shuffle draw per
// launch).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "rng/generator.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace nnr::tensor {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  rng::Generator gen(seed);
  Tensor t(shape);
  for (float& v : t.data()) v = gen.normal();
  return t;
}

// Compares bit patterns, so +0.0F and -0.0F differ.
void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.at(i)),
              std::bit_cast<std::uint32_t>(b.at(i)))
        << what << " diverged at flat index " << i << ": " << a.at(i)
        << " vs " << b.at(i);
  }
}

struct GemmCase {
  std::int64_t m, n, k;
};

// Awkward shapes on purpose: k = 0, k below the 4-wide unroll, k with a
// remainder, m/n off the 4x8 tile grid, one comfortably blocked shape, and
// one k large enough (lanes cap at k / 32) to reach the 40 lanes a V100
// reduces over. For a [K, N] B they reach every column gather: the tiny
// cutoff, the column remainder and short row blocks.
const GemmCase kCases[] = {
    {1, 1, 0},  {3, 5, 1},   {4, 8, 3},    {5, 7, 5},    {16, 24, 32},
    {13, 17, 129}, {33, 9, 257}, {64, 64, 64}, {31, 130, 200},
    {37, 41, 1500},
};

const int kCoreCounts[] = {0, 512, 5120, 100000};  // 1 .. many lanes

// B as the untransposed [K, N] operand gemm_nn reads.
Tensor transposed(const Tensor& b) {
  Tensor bt(Shape{b.shape()[1], b.shape()[0]});
  transpose(b, bt);
  return bt;
}

TEST(GemmFastPath, BitwiseEqualToReferenceAllDeterministicOrders) {
  const AccumOrder orders[] = {AccumOrder::kSequential,
                               AccumOrder::kPairwiseTree};
  for (const GemmCase& c : kCases) {
    const Tensor a = random_tensor(Shape{c.m, c.k}, 11 + c.m);
    const Tensor b = random_tensor(Shape{c.n, c.k}, 23 + c.n);
    const Tensor bt = transposed(b);
    for (AccumOrder order : orders) {
      for (int cores : kCoreCounts) {
        const KernelPolicy policy{
            .order = order, .cuda_cores = cores, .entropy = nullptr};
        Tensor fast(Shape{c.m, c.n});
        Tensor fast_nn(Shape{c.m, c.n});
        Tensor ref(Shape{c.m, c.n});
        gemm_nt(a, b, fast, policy);
        gemm_nn(a, bt, fast_nn, policy);
        gemm_nt_reference(a, b, ref, policy);
        expect_bitwise_equal(fast, ref, "gemm fast path");
        expect_bitwise_equal(fast_nn, ref, "gemm_nn fast path");
      }
    }
  }
}

TEST(GemmFastPath, ShuffledOrderBitwiseEqualToReferenceEveryLaunch) {
  constexpr int kLaunches = 5;
  for (const GemmCase& c : kCases) {
    const Tensor a = random_tensor(Shape{c.m, c.k}, 31 + c.m);
    const Tensor b = random_tensor(Shape{c.n, c.k}, 37 + c.n);
    const Tensor bt = transposed(b);
    for (int cores : kCoreCounts) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message() << c.m << "x" << c.n << "x" << c.k
                                        << " cores=" << cores
                                        << " threads=" << threads);
        runtime::ThreadPool::set_global_threads(threads);
        rng::Generator entropy_fast(99);
        rng::Generator entropy_nn(99);
        rng::Generator entropy_ref(99);
        const KernelPolicy fast_policy{.order = AccumOrder::kShardedShuffled,
                                       .cuda_cores = cores,
                                       .entropy = &entropy_fast};
        const KernelPolicy nn_policy{.order = AccumOrder::kShardedShuffled,
                                     .cuda_cores = cores,
                                     .entropy = &entropy_nn};
        const KernelPolicy ref_policy{.order = AccumOrder::kShardedShuffled,
                                      .cuda_cores = cores,
                                      .entropy = &entropy_ref};
        for (int launch = 0; launch < kLaunches; ++launch) {
          SCOPED_TRACE(testing::Message() << "launch " << launch);
          Tensor fast(Shape{c.m, c.n});
          Tensor fast_nn(Shape{c.m, c.n});
          Tensor ref(Shape{c.m, c.n});
          gemm_nt(a, b, fast, fast_policy);
          gemm_nn(a, bt, fast_nn, nn_policy);
          gemm_nt_reference(a, b, ref, ref_policy);
          expect_bitwise_equal(fast, ref, "shuffled gemm");
          expect_bitwise_equal(fast_nn, ref, "shuffled gemm_nn");
        }
        // Identical per-launch shuffle consumption: the streams must stay in
        // lockstep after the launches (the IMPL noise model depends on it).
        const std::uint32_t next_ref = entropy_ref.next_u32();
        EXPECT_EQ(entropy_fast.next_u32(), next_ref);
        EXPECT_EQ(entropy_nn.next_u32(), next_ref);
      }
    }
  }
  runtime::ThreadPool::set_global_threads(0);  // restore env default
}

TEST(GemmFastPath, InvariantToHostThreadCount) {
  const Tensor a = random_tensor(Shape{65, 200}, 41);
  const Tensor b = random_tensor(Shape{130, 200}, 43);
  const KernelPolicy policy{.order = AccumOrder::kPairwiseTree,
                            .cuda_cores = 5120,
                            .entropy = nullptr};
  runtime::ThreadPool::set_global_threads(1);
  Tensor c1(Shape{65, 130});
  gemm_nt(a, b, c1, policy);
  runtime::ThreadPool::set_global_threads(4);
  Tensor c4(Shape{65, 130});
  gemm_nt(a, b, c4, policy);
  runtime::ThreadPool::set_global_threads(0);  // restore env default
  expect_bitwise_equal(c1, c4, "gemm across NNR_THREADS");
}

TEST(TransposeTiled, MatchesNaiveOnOddShapes) {
  const GemmCase shapes[] = {{1, 1, 0}, {7, 3, 0}, {33, 65, 0}, {129, 50, 0}};
  for (const GemmCase& s : shapes) {
    const Tensor in = random_tensor(Shape{s.m, s.n}, 53 + s.m);
    Tensor out(Shape{s.n, s.m});
    transpose(in, out);
    for (std::int64_t i = 0; i < s.m; ++i) {
      for (std::int64_t j = 0; j < s.n; ++j) {
        ASSERT_EQ(out.at(j, i), in.at(i, j));
      }
    }
  }
}

// Seed im2col semantics, restated element-by-element.
void im2col_naive(const Tensor& input, const ConvGeometry& g, Tensor& cols) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  float* dst = cols.raw();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++row) {
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            const std::int64_t iy = oy * g.stride + ky - g.pad;
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++dst) {
              const std::int64_t ix = ox * g.stride + kx - g.pad;
              const bool inside =
                  iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
              *dst = inside ? input.at(n, c, iy, ix) : 0.0F;
            }
          }
        }
      }
    }
  }
}

// Seed col2im semantics: scatter-add in (n, oy, ox, c, ky, kx) order.
void col2im_naive(const Tensor& cols, const ConvGeometry& g, Tensor& grad) {
  grad.fill(0.0F);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const float* src = cols.raw();
  std::int64_t row = 0;
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++row) {
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            const std::int64_t iy = oy * g.stride + ky - g.pad;
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++src) {
              const std::int64_t ix = ox * g.stride + kx - g.pad;
              if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
                grad.at(n, c, iy, ix) += *src;
              }
            }
          }
        }
      }
    }
  }
}

// Kernels 1 and 3 take im2col's fixed-width copies, 2, 5 and 7 its runtime
// width. The inputs put the last output of a stride-2 row on the right edge
// (8x8) and leave no interior pixel for kernels of 3 and up (3x2). col2im
// runs on random cols, whose addends for one element differ (im2col's output
// would hand it copies of one value, which sum alike in any order), and on
// a cols of -0.0F: only that input tells a sum started from +0.0F from one
// started from its first addend.
TEST(Im2colFastPath, BitwiseEqualToNaiveAcrossGeometries) {
  const std::int64_t kernels[] = {1, 2, 3, 5, 7};
  const std::int64_t strides[] = {1, 2};
  const std::int64_t pads[] = {0, 1, 2, 3};
  const std::int64_t sizes[][2] = {{11, 9}, {8, 8}, {3, 2}};
  for (std::int64_t kernel : kernels) {
    for (std::int64_t stride : strides) {
      for (std::int64_t pad : pads) {
        for (const auto& [in_h, in_w] : sizes) {
          const ConvGeometry g{.batch = 2,
                               .in_channels = 3,
                               .in_h = in_h,
                               .in_w = in_w,
                               .kernel = kernel,
                               .stride = stride,
                               .pad = pad};
          if (g.out_h() <= 0 || g.out_w() <= 0) continue;
          SCOPED_TRACE(::testing::Message()
                       << "k" << kernel << " s" << stride << " p" << pad
                       << " " << in_h << "x" << in_w);
          const std::uint64_t seed =
              61 + static_cast<std::uint64_t>(kernel * 10 + pad);
          const Tensor input = random_tensor(
              Shape{g.batch, g.in_channels, g.in_h, g.in_w}, seed);
          Tensor cols(Shape{g.out_pixels(), g.patch_size()});
          Tensor cols_naive(Shape{g.out_pixels(), g.patch_size()});
          im2col(input, g, cols);
          im2col_naive(input, g, cols_naive);
          expect_bitwise_equal(cols, cols_naive, "im2col");
          // Workspace slots hand im2col stale storage: every element,
          // padding taps included, must be written.
          cols.fill(std::numeric_limits<float>::quiet_NaN());
          im2col(input, g, cols);
          expect_bitwise_equal(cols, cols_naive, "im2col into NaN-filled cols");

          cols = random_tensor(cols.shape(), seed + 1000);
          Tensor grad(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
          Tensor grad_naive(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
          col2im(cols, g, grad);
          col2im_naive(cols, g, grad_naive);
          expect_bitwise_equal(grad, grad_naive, "col2im");

          cols.fill(-0.0F);
          col2im(cols, g, grad);
          col2im_naive(cols, g, grad_naive);
          expect_bitwise_equal(grad, grad_naive, "col2im of -0.0F");
        }
      }
    }
  }
}

TEST(Im2colFastPath, InvariantToHostThreadCount) {
  const ConvGeometry g{.batch = 3,
                       .in_channels = 4,
                       .in_h = 16,
                       .in_w = 16,
                       .kernel = 3,
                       .stride = 1,
                       .pad = 1};
  const Tensor input =
      random_tensor(Shape{g.batch, g.in_channels, g.in_h, g.in_w}, 71);
  runtime::ThreadPool::set_global_threads(1);
  Tensor cols1(Shape{g.out_pixels(), g.patch_size()});
  im2col(input, g, cols1);
  Tensor grad1(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  col2im(cols1, g, grad1);
  runtime::ThreadPool::set_global_threads(4);
  Tensor cols4(Shape{g.out_pixels(), g.patch_size()});
  im2col(input, g, cols4);
  Tensor grad4(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  col2im(cols4, g, grad4);
  runtime::ThreadPool::set_global_threads(0);
  expect_bitwise_equal(cols1, cols4, "im2col across NNR_THREADS");
  expect_bitwise_equal(grad1, grad4, "col2im across NNR_THREADS");
}

}  // namespace
}  // namespace nnr::tensor
