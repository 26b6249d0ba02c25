// Backoff + Jitter: the deterministic schedule contract (pin a seed, get
// the exact same waits), the [0.5, 1.5) jitter envelope, exponential
// growth to the cap, and reset-on-success — the pieces that keep a fleet
// of workers from stampeding a recovering daemon in phase. Plus retry(),
// the one loop every client retry runs through: outcomes and call counts,
// never exact sleep times.
#include "net/backoff.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

namespace nnr::net {
namespace {

TEST(JitterTest, StaysInTheHalfToOneAndAHalfEnvelope) {
  Jitter jitter(7);
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t ms = jitter.around(1000);
    EXPECT_GE(ms, 500);
    EXPECT_LT(ms, 1500);
  }
}

TEST(JitterTest, EnvelopeHoldsAcrossBases) {
  // The ±50% contract is not a property of one magic base: sweep from a
  // 1ms poll to a day-long wait. No draw may escape [base/2, base*1.5)
  // (with the never-zero floor at tiny bases).
  Jitter jitter(11);
  const std::int64_t bases[] = {1, 3, 10, 500, 1000, 60'000, 86'400'000};
  for (const std::int64_t base : bases) {
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t ms = jitter.around(base);
      EXPECT_GE(ms, std::max<std::int64_t>(base / 2, 1))
          << "base " << base << " draw " << i;
      EXPECT_LE(ms, base + base / 2) << "base " << base << " draw " << i;
    }
  }
}

TEST(JitterTest, DrawsCoverTheWholeEnvelopeNotJustItsCenter) {
  // A jitter that clusters (say, ±5% implemented as ±50%) still passes the
  // envelope test but fails to decorrelate a fleet. Over 10k draws the
  // observed range must reach into both envelope tails.
  Jitter jitter(13);
  std::int64_t lo = 1'500;
  std::int64_t hi = 500;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t ms = jitter.around(1000);
    lo = std::min(lo, ms);
    hi = std::max(hi, ms);
  }
  EXPECT_LT(lo, 600) << "no draw landed in the low tail";
  EXPECT_GT(hi, 1400) << "no draw landed in the high tail";
}

TEST(JitterTest, SameSeedSameStream) {
  Jitter a(42);
  Jitter b(42);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.around(1000), b.around(1000)) << "draw " << i;
  }
}

TEST(JitterTest, DifferentSeedsDecorrelate) {
  Jitter a(1);
  Jitter b(2);
  int equal = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.around(1'000'000) == b.around(1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 8) << "two seeds must not walk the same schedule";
}

TEST(JitterTest, PositiveInputsNeverJitterToZero) {
  // A 1ms poll jittered to 0 would turn a sleep loop into a busy loop.
  Jitter jitter(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(jitter.around(1), 1);
}

TEST(JitterTest, NonPositiveInputsPassThrough) {
  Jitter jitter(3);
  EXPECT_EQ(jitter.around(0), 0);
  EXPECT_EQ(jitter.around(-5), -5);
}

TEST(JitterTest, DefaultSeedIsStableWithinAProcess) {
  // Pid-derived, so all we can assert: nonzero and consistent.
  EXPECT_NE(default_jitter_seed(), 0u);
  EXPECT_EQ(default_jitter_seed(), default_jitter_seed());
}

TEST(BackoffTest, WindowsGrowExponentiallyToTheCap) {
  Backoff backoff(/*base_ms=*/100, /*max_ms=*/800, /*seed=*/7);
  // Strip the jitter by checking each wait against its window's envelope:
  // window_i = min(100 << i, 800), wait in [window/2, window*1.5).
  const std::int64_t windows[] = {100, 200, 400, 800, 800, 800};
  for (std::size_t i = 0; i < std::size(windows); ++i) {
    const std::int64_t ms = backoff.next_ms();
    EXPECT_GE(ms, windows[i] / 2) << "attempt " << i;
    EXPECT_LT(ms, windows[i] + windows[i] / 2) << "attempt " << i;
  }
  EXPECT_EQ(backoff.failures(), 6);
}

TEST(BackoffTest, ResetSnapsBackToTheBaseWindow) {
  Backoff backoff(100, 8000, 7);
  for (int i = 0; i < 5; ++i) (void)backoff.next_ms();
  backoff.reset();
  EXPECT_EQ(backoff.failures(), 0);
  const std::int64_t ms = backoff.next_ms();
  EXPECT_GE(ms, 50);
  EXPECT_LT(ms, 150) << "post-reset wait must be a base window again";
}

TEST(BackoffTest, SameSeedReplaysTheExactSchedule) {
  Backoff a(50, 8000, 123);
  Backoff b(50, 8000, 123);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.next_ms(), b.next_ms()) << "attempt " << i;
  }
}

TEST(BackoffTest, DeepFailureCountsDoNotOverflowTheShift) {
  Backoff backoff(100, 1000, 1);
  // Walk past the growth phase (100, 200, 400, 800 windows), then a
  // hundred more failures — deep counts must neither overflow the shift
  // nor escape the cap's jitter envelope [cap/2, cap*1.5).
  for (int i = 0; i < 4; ++i) (void)backoff.next_ms();
  for (int i = 0; i < 100; ++i) {
    const std::int64_t ms = backoff.next_ms();
    EXPECT_GE(ms, 500);
    EXPECT_LT(ms, 1500) << "attempt " << i << " must stay capped";
  }
}

TEST(BackoffTest, BaseAboveMaxKeepsTheBaseWindow) {
  // Callers that configure base > max (the 60s-window regression tests do)
  // get the base, not a silently clamped-down window.
  Backoff backoff(60'000, 8'000, 7);
  const std::int64_t ms = backoff.next_ms();
  EXPECT_GE(ms, 30'000);
}

using Clock = std::chrono::steady_clock;

std::int64_t ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

TEST(RetryTest, FirstSuccessReturnsAfterOneCall) {
  Backoff backoff(10'000, 10'000, 7);
  int calls = 0;
  const auto start = Clock::now();
  EXPECT_TRUE(retry(backoff, 60'000, [&] {
    ++calls;
    return true;
  }));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(backoff.failures(), 0) << "no wait may be drawn before a failure";
  EXPECT_LT(ms_since(start), 1000);
}

TEST(RetryTest, RetriesUntilAnAttemptSucceeds) {
  Backoff backoff(1, 2, 7);
  int calls = 0;
  EXPECT_TRUE(retry(backoff, 60'000, [&] { return ++calls == 5; }));
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(backoff.failures(), 4) << "one wait between each pair of runs";
}

TEST(RetryTest, GivesUpWhenTheBudgetIsSpentWithoutSleepingPastIt) {
  // A 10 s backoff under a 50 ms budget: the one wait is clipped to what
  // is left of the budget, then the last run fails and retry gives up.
  Backoff backoff(10'000, 10'000, 7);
  int calls = 0;
  const auto start = Clock::now();
  EXPECT_FALSE(retry(backoff, 50, [&] {
    ++calls;
    return false;
  }));
  EXPECT_LT(ms_since(start), 1000);
  EXPECT_GE(calls, 2) << "the clipped wait still ends in one more run";
}

TEST(RetryTest, ZeroBudgetMeansOneRun) {
  Backoff backoff(1, 1, 7);
  int calls = 0;
  EXPECT_FALSE(retry(backoff, 0, [&] {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace nnr::net
