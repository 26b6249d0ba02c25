// Hypothesis tests: anchors, invariances, and behaviour on separated /
// identical samples.
#include "stats/hypothesis.h"

#include <vector>

#include <gtest/gtest.h>

#include "rng/generator.h"

namespace nnr::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, double mean, double sd,
                                  std::uint64_t seed) {
  rng::Generator gen(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = gen.normal(static_cast<float>(mean),
                                      static_cast<float>(sd));
  return xs;
}

TEST(WelchT, IdenticalSamplesGivePOne) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const TestResult r = welch_t_test(a, a);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(WelchT, ClearlySeparatedSamplesReject) {
  const std::vector<double> a = normal_sample(20, 0.0, 1.0, 1);
  const std::vector<double> b = normal_sample(20, 5.0, 1.0, 2);
  const TestResult r = welch_t_test(a, b);
  EXPECT_LT(r.p_value, 1e-6);

  // A clear medium effect with comfortable n lands below alpha = 0.05 too.
  const std::vector<double> c = normal_sample(25, 0.0, 1.0, 17);
  const std::vector<double> d = normal_sample(25, 1.2, 1.0, 18);
  EXPECT_LT(welch_t_test(c, d).p_value, 0.05);
}

TEST(WelchT, SymmetricInArguments) {
  const std::vector<double> a = normal_sample(10, 0.0, 1.0, 3);
  const std::vector<double> b = normal_sample(14, 0.4, 2.0, 4);
  const TestResult r1 = welch_t_test(a, b);
  const TestResult r2 = welch_t_test(b, a);
  EXPECT_DOUBLE_EQ(r1.p_value, r2.p_value);
  EXPECT_DOUBLE_EQ(r1.statistic, -r2.statistic);
  EXPECT_DOUBLE_EQ(r1.df, r2.df);
}

TEST(WelchT, HandComputedAnchor) {
  // a = {1,2,3,4,5}: mean 3, var 2.5. b = {2,4,6,8,10}: mean 6, var 10.
  // t = (3-6)/sqrt(2.5/5 + 10/5) = -3/sqrt(2.5) = -1.897366596...
  // df = 2.5^2 / (0.5^2/4 + 2^2/4) = 6.25/1.0625 = 5.882352941...
  const std::vector<double> a = {1, 2, 3, 4, 5};
  const std::vector<double> b = {2, 4, 6, 8, 10};
  const TestResult r = welch_t_test(a, b);
  EXPECT_NEAR(r.statistic, -1.8973665961010275, 1e-12);
  EXPECT_NEAR(r.df, 5.882352941176471, 1e-12);
  // scipy.stats.ttest_ind(equal_var=False) gives p = 0.10796...; anchor
  // loosely to guard the formula wiring rather than the last digit.
  EXPECT_NEAR(r.p_value, 0.108, 2e-3);
}

TEST(WelchT, DegenerateConstantSamples) {
  const std::vector<double> same = {2.0, 2.0, 2.0};
  const std::vector<double> other = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(welch_t_test(same, same).p_value, 1.0);
  EXPECT_DOUBLE_EQ(welch_t_test(same, other).p_value, 0.0);
}

TEST(WelchT, WelchDfBetweenMinAndSum) {
  const std::vector<double> a = normal_sample(8, 0.0, 1.0, 5);
  const std::vector<double> b = normal_sample(12, 0.0, 3.0, 6);
  const TestResult r = welch_t_test(a, b);
  EXPECT_GE(r.df, 7.0 - 1e-9);          // >= min(na, nb) - 1
  EXPECT_LE(r.df, 18.0 + 1e-9);         // <= na + nb - 2
}

TEST(BrownForsythe, EqualVarianceGroupsDoNotReject) {
  // Any single draw can be a false positive at the nominal rate; aggregate
  // over several independent draws and require that rejections stay rare.
  int rejections = 0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    const std::vector<std::vector<double>> groups = {
        normal_sample(30, 0.0, 1.0, 100 + 3 * s),
        normal_sample(30, 5.0, 1.0, 101 + 3 * s),  // mean shift only
        normal_sample(30, -2.0, 1.0, 102 + 3 * s),
    };
    if (brown_forsythe_test(groups).p_value < 0.05) ++rejections;
  }
  EXPECT_LE(rejections, 2);
}

TEST(BrownForsythe, UnequalVariancesReject) {
  const std::vector<std::vector<double>> groups = {
      normal_sample(40, 0.0, 0.2, 10),
      normal_sample(40, 0.0, 3.0, 11),
  };
  const TestResult r = brown_forsythe_test(groups);
  EXPECT_LT(r.p_value, 1e-4);
}

TEST(BrownForsythe, IdenticalConstantGroups) {
  const std::vector<std::vector<double>> groups = {
      {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}};
  EXPECT_DOUBLE_EQ(brown_forsythe_test(groups).p_value, 1.0);
}

TEST(BrownForsythe, ScaleInvarianceOfDecision) {
  // Rescaling every observation by the same factor leaves F unchanged.
  const std::vector<std::vector<double>> g1 = {
      normal_sample(15, 0.0, 1.0, 12), normal_sample(15, 0.0, 2.0, 13)};
  std::vector<std::vector<double>> g2 = g1;
  for (auto& g : g2) {
    for (double& x : g) x *= 10.0;
  }
  EXPECT_NEAR(brown_forsythe_test(g1).statistic,
              brown_forsythe_test(g2).statistic, 1e-9);
}

}  // namespace
}  // namespace nnr::stats
