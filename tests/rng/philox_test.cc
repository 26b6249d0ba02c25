#include "rng/philox.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace nnr::rng {
namespace {

TEST(Philox, BijectionIsDeterministic) {
  const Counter4x32 ctr{1, 2, 3, 4};
  const Key2x32 key{5, 6};
  EXPECT_EQ(philox4x32_10(ctr, key), philox4x32_10(ctr, key));
}

TEST(Philox, DifferentCountersProduceDifferentBlocks) {
  const Key2x32 key{42, 99};
  const auto a = philox4x32_10({0, 0, 0, 0}, key);
  const auto b = philox4x32_10({1, 0, 0, 0}, key);
  EXPECT_NE(a, b);
}

TEST(Philox, DifferentKeysProduceDifferentBlocks) {
  const Counter4x32 ctr{7, 7, 7, 7};
  EXPECT_NE(philox4x32_10(ctr, {1, 0}), philox4x32_10(ctr, {2, 0}));
}

TEST(Philox, StreamIsReproducible) {
  Philox a(1234, 5);
  Philox b(1234, 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Philox, DistinctSeedsDiverge) {
  Philox a(1);
  Philox b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Philox, DistinctStreamsDiverge) {
  Philox a(1, 0);
  Philox b(1, 1);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Philox, Next64CombinesTwoWords) {
  Philox a(5);
  Philox b(5);
  const std::uint64_t lo = a();
  const std::uint64_t hi = a();
  EXPECT_EQ(b.next_u64(), lo | (hi << 32));
}

TEST(Philox, OutputLooksUniform) {
  // Coarse bucket test: 64k draws into 16 buckets should be near-uniform.
  Philox gen(2024);
  std::vector<int> buckets(16, 0);
  constexpr int kDraws = 1 << 16;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[gen() >> 28];
  }
  const double expected = kDraws / 16.0;
  for (int count : buckets) {
    EXPECT_NEAR(count, expected, 0.05 * expected);
  }
}

TEST(Philox, NoShortCycles) {
  Philox gen(3);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 4096; ++i) seen.insert(gen());
  // Collisions are possible but a short cycle would collapse the set.
  EXPECT_GT(seen.size(), 4000u);
}

}  // namespace
}  // namespace nnr::rng
