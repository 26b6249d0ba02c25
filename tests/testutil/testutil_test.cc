// Unit coverage for the test helpers themselves: the gradient-checking
// machinery every layer test leans on must itself be validated against
// functions with known analytic derivatives, and the scratch directories
// every file-touching suite uses must be private and cleaned up.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace nnr::testutil {
namespace {

TEST(NumericalGradient, MatchesAnalyticQuadratic) {
  // f(x) = sum_i x_i^2  =>  df/dx_i = 2 x_i.
  std::vector<float> x = {0.5F, -1.25F, 2.0F, 0.0F, -0.75F};
  const auto f = [&x] {
    double s = 0.0;
    for (float v : x) s += static_cast<double>(v) * static_cast<double>(v);
    return s;
  };
  const auto grad = numerical_gradient(std::span<float>(x), f);
  ASSERT_EQ(grad.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(close(grad[i], 2.0 * static_cast<double>(x[i])))
        << "i=" << i << " numeric=" << grad[i] << " analytic=" << 2.0 * x[i];
  }
}

TEST(NumericalGradient, MatchesAnalyticTranscendental) {
  // f(x) = sin(x_0) + exp(x_1)  =>  grad = (cos(x_0), exp(x_1)).
  std::vector<float> x = {0.3F, -0.2F};
  const auto f = [&x] {
    return std::sin(static_cast<double>(x[0])) +
           std::exp(static_cast<double>(x[1]));
  };
  const auto grad = numerical_gradient(std::span<float>(x), f, 1e-4F);
  EXPECT_TRUE(close(grad[0], std::cos(0.3)));
  EXPECT_TRUE(close(grad[1], std::exp(-0.2)));
}

TEST(NumericalGradient, RestoresParametersExactly) {
  std::vector<float> x = {1.0F, 2.0F, 3.0F};
  const std::vector<float> before = x;
  (void)numerical_gradient(std::span<float>(x),
                           [&x] { return static_cast<double>(x[0]); });
  EXPECT_EQ(x, before);  // bitwise: the probe must leave no residue
}

TEST(FillRandom, SameSeedSameBits) {
  tensor::Tensor a(tensor::Shape({4, 8}));
  tensor::Tensor b(tensor::Shape({4, 8}));
  fill_random(a, 1234);
  fill_random(b, 1234);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.at(i), b.at(i)) << "divergence at flat index " << i;
  }
}

TEST(FillRandom, DifferentSeedsDiffer) {
  tensor::Tensor a(tensor::Shape({64}));
  tensor::Tensor b(tensor::Shape({64}));
  fill_random(a, 1);
  fill_random(b, 2);
  int differing = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (a.at(i) != b.at(i)) ++differing;
  }
  EXPECT_GT(differing, 32);  // overwhelmingly distinct streams
}

TEST(FillRandom, ValuesInRange) {
  tensor::Tensor t(tensor::Shape({256}));
  fill_random(t, 7);
  for (float v : t.data()) {
    EXPECT_GE(v, -1.0F);
    EXPECT_LT(v, 1.0F);
  }
}

TEST(Close, RespectsTolerances) {
  EXPECT_TRUE(close(1.0, 1.0));
  EXPECT_TRUE(close(100.0, 104.0));    // within 5% rtol
  EXPECT_FALSE(close(100.0, 110.0));   // outside 5% rtol
  EXPECT_TRUE(close(0.0, 5e-4));       // inside atol near zero
  EXPECT_FALSE(close(0.0, 1e-2));      // outside atol near zero
}

TEST(TempDir, IsAFreshPrivateDirectoryRemovedOnScopeExit) {
  std::filesystem::path kept;
  {
    const TempDir a;
    const TempDir b;
    EXPECT_NE(a.path(), b.path());
    EXPECT_TRUE(std::filesystem::is_directory(a.path()));
    EXPECT_TRUE(std::filesystem::is_directory(b.path()));
    EXPECT_TRUE(std::filesystem::equivalent(
        a.path().parent_path(), std::filesystem::temp_directory_path()));
    std::ofstream(a.path() / "file") << "contents";
    kept = a.path();
  }
  EXPECT_FALSE(std::filesystem::exists(kept))
      << "the directory and its contents must go at scope exit";
}

}  // namespace
}  // namespace nnr::testutil
