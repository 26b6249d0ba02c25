// Bootstrap confidence intervals: determinism, degenerate inputs, coverage.
#include "stats/bootstrap.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/running_stat.h"
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

/// The mean statistic through the generic entry point.
BootstrapCI mean_ci(std::span<const double> sample, int resamples,
                    double confidence, rng::Generator& gen) {
  const Statistic mean = [](std::span<const double> s) {
    metrics::RunningStat stat;
    for (const double x : s) stat.add(x);
    return stat.mean();
  };
  return bootstrap_ci(sample, mean, resamples, confidence, gen);
}

TEST(BootstrapMean, PointEstimateIsSampleMean) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  rng::Generator gen(7);
  const BootstrapCI ci = mean_ci(xs, 500, 0.95, gen);
  EXPECT_DOUBLE_EQ(ci.point, 2.5);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
}

TEST(BootstrapMean, DeterministicGivenSeed) {
  const std::vector<double> xs = normal_sample(20, 5.0, 1.0, 11);
  rng::Generator a(42);
  rng::Generator b(42);
  const BootstrapCI ca = mean_ci(xs, 300, 0.95, a);
  const BootstrapCI cb = mean_ci(xs, 300, 0.95, b);
  EXPECT_DOUBLE_EQ(ca.lo, cb.lo);
  EXPECT_DOUBLE_EQ(ca.hi, cb.hi);
}

TEST(BootstrapMean, ConstantSampleHasZeroWidth) {
  const std::vector<double> xs(10, 3.25);
  rng::Generator gen(1);
  const BootstrapCI ci = mean_ci(xs, 200, 0.95, gen);
  EXPECT_DOUBLE_EQ(ci.lo, 3.25);
  EXPECT_DOUBLE_EQ(ci.hi, 3.25);
  EXPECT_DOUBLE_EQ(ci.width(), 0.0);
}

TEST(BootstrapMean, WiderConfidenceGivesWiderInterval) {
  const std::vector<double> xs = normal_sample(30, 0.0, 2.0, 5);
  rng::Generator g1(9);
  rng::Generator g2(9);
  const BootstrapCI c90 = mean_ci(xs, 2000, 0.90, g1);
  const BootstrapCI c99 = mean_ci(xs, 2000, 0.99, g2);
  EXPECT_LT(c90.width(), c99.width());
}

TEST(BootstrapMean, CoverageNearNominal) {
  // Property check: a 90% CI over repeated draws should contain the true
  // mean roughly 90% of the time. Small-sample percentile bootstrap
  // undercovers slightly, so accept [0.78, 0.98].
  constexpr int kTrials = 200;
  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    const std::vector<double> xs =
        normal_sample(25, 10.0, 3.0, 1000 + static_cast<std::uint64_t>(t));
    rng::Generator gen(77 + static_cast<std::uint64_t>(t));
    const BootstrapCI ci = mean_ci(xs, 400, 0.90, gen);
    if (ci.contains(10.0)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GE(coverage, 0.78);
  EXPECT_LE(coverage, 0.98);
}

TEST(BootstrapStddev, PointEstimateIsSampleStddev) {
  const std::vector<double> xs = {1.0, 3.0, 5.0, 7.0};
  metrics::RunningStat s;
  for (const double x : xs) s.add(x);
  rng::Generator gen(3);
  const BootstrapCI ci = bootstrap_stddev_ci(xs, 200, 0.95, gen);
  EXPECT_DOUBLE_EQ(ci.point, s.stddev());
}

TEST(BootstrapStddev, BracketsTrueStddevOnLargeSample) {
  const std::vector<double> xs = normal_sample(400, 0.0, 2.0, 21);
  rng::Generator gen(13);
  const BootstrapCI ci = bootstrap_stddev_ci(xs, 1000, 0.99, gen);
  EXPECT_TRUE(ci.contains(2.0)) << "[" << ci.lo << ", " << ci.hi << "]";
}

TEST(BootstrapPairwise, PointIsMeanOverPairs) {
  // 3 replicates, pair values 1, 2, 3 -> mean 2.
  std::vector<std::vector<double>> pair(3, std::vector<double>(3, 0.0));
  pair[0][1] = 1.0;
  pair[0][2] = 2.0;
  pair[1][2] = 3.0;
  rng::Generator gen(2);
  const BootstrapCI ci = bootstrap_pairwise_ci(pair, 300, 0.95, gen);
  EXPECT_DOUBLE_EQ(ci.point, 2.0);
  EXPECT_LE(ci.lo, ci.hi);
}

TEST(BootstrapPairwise, ConstantPairStatisticHasZeroWidth) {
  constexpr std::size_t kN = 6;
  std::vector<std::vector<double>> pair(kN, std::vector<double>(kN, 0.7));
  rng::Generator gen(4);
  const BootstrapCI ci = bootstrap_pairwise_ci(pair, 200, 0.95, gen);
  EXPECT_DOUBLE_EQ(ci.lo, 0.7);
  EXPECT_DOUBLE_EQ(ci.hi, 0.7);
}

TEST(BootstrapPairwise, BoundsBracketPoint) {
  constexpr std::size_t kN = 8;
  rng::Generator fill(99);
  std::vector<std::vector<double>> pair(kN, std::vector<double>(kN, 0.0));
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = i + 1; j < kN; ++j) pair[i][j] = fill.uniform();
  }
  rng::Generator gen(6);
  const BootstrapCI ci = bootstrap_pairwise_ci(pair, 800, 0.95, gen);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
  EXPECT_GT(ci.width(), 0.0);
}

TEST(BootstrapGeneric, CustomStatisticMedian) {
  // The generic entry point accepts any statistic; sanity-check with the
  // median on a skewed sample: the CI must bracket the sample median, not
  // the mean.
  const std::vector<double> xs = {1, 1, 1, 1, 2, 2, 3, 50};
  const Statistic median = [](std::span<const double> s) {
    std::vector<double> v(s.begin(), s.end());
    std::sort(v.begin(), v.end());
    return v.size() % 2 == 1
               ? v[v.size() / 2]
               : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  };
  rng::Generator gen(17);
  const BootstrapCI ci = bootstrap_ci(xs, median, 500, 0.95, gen);
  EXPECT_DOUBLE_EQ(ci.point, 1.5);
  EXPECT_LT(ci.hi, 50.0);  // the outlier must not drag the upper bound
}

}  // namespace
}  // namespace nnr::stats
