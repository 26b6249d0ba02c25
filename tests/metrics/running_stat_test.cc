#include "metrics/running_stat.h"

#include <gtest/gtest.h>

#include <cmath>

namespace nnr::metrics {
namespace {

TEST(RunningStat, EmptyIsZero) {
  const RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(5.0);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.stddev(), 0.0);  // sample stddev undefined; we report 0
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStat, KnownSample) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0 * std::sqrt(8.0 / 7.0), 1e-12);
}

TEST(RunningStat, MinMaxTrack) {
  RunningStat s;
  s.add(3.0);
  s.add(-1.0);
  s.add(10.0);
  EXPECT_EQ(s.min(), -1.0);
  EXPECT_EQ(s.max(), 10.0);
}

TEST(RunningStat, ConstantSequenceHasZeroStddev) {
  RunningStat s;
  for (int i = 0; i < 100; ++i) s.add(1.5);
  EXPECT_NEAR(s.stddev(), 0.0, 1e-12);
}

TEST(RunningStat, NumericallyStableForLargeOffsets) {
  // Welford must not catastrophically cancel with a large common offset.
  RunningStat s;
  for (double x : {1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0}) s.add(x);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-6);
}

}  // namespace
}  // namespace nnr::metrics
