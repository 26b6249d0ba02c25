// Capped exponential backoff with deterministic jitter, for clients of a
// recovering daemon.
//
// The failure mode this exists for: N fleet workers lose the daemon at the
// same instant (it restarted), all sleep the same fixed window, and all
// reconnect in the same millisecond — a synchronized stampede every
// window, forever. Two fixes compose here:
//
//   - exponential growth caps how often a long outage is probed
//     (base, 2*base, 4*base, ... up to max), and
//   - multiplicative jitter in [0.5, 1.5) decorrelates the herd. The
//     jitter stream is Philox-driven (rng/philox.h) so a test can pin the
//     seed and assert the exact schedule; production callers default to a
//     pid-derived seed, which is what actually spreads a fleet out.
//
// retry() is the one client-side "sleep and try again" loop. It is bounded
// by time, never by an attempt count: attempts that fail fast inside a
// reconnect window would exhaust a count in milliseconds.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "rng/philox.h"

namespace nnr::net {

/// Pid-derived (SplitMix-scrambled) seed: processes started by the same
/// launcher land far apart in jitter space.
[[nodiscard]] std::uint64_t default_jitter_seed() noexcept;

/// A deterministic stream of multiplicative jitter factors in [0.5, 1.5).
class Jitter {
 public:
  explicit Jitter(std::uint64_t seed) noexcept : rng_(seed, /*stream=*/0x4A54) {}

  /// `base_ms` scaled by the next factor; >= 1 for positive inputs,
  /// passed through unchanged for <= 0.
  [[nodiscard]] std::int64_t around(std::int64_t base_ms) noexcept;

 private:
  rng::Philox rng_;
};

/// next_ms() returns the jittered current window and doubles it (up to
/// `max_ms`); reset() snaps back to `base_ms` after a success.
class Backoff {
 public:
  Backoff(std::int64_t base_ms, std::int64_t max_ms,
          std::uint64_t seed) noexcept;

  /// The next wait: jitter.around(min(base << failures, max)). The cap
  /// bounds the window; jitter widens it +-50%.
  [[nodiscard]] std::int64_t next_ms() noexcept;

  void reset() noexcept { failures_ = 0; }
  [[nodiscard]] int failures() const noexcept { return failures_; }

 private:
  std::int64_t base_ms_;
  std::int64_t max_ms_;
  int failures_ = 0;
  Jitter jitter_;
};

/// Runs `attempt()` until it returns true or `budget_ms` has passed since
/// its first failure; returns whether an attempt succeeded. Between runs it
/// sleeps backoff.next_ms(), clipped so that no sleep ends past the budget.
/// Nothing is held while it sleeps — an attempt takes and drops its own
/// locks — and the first run costs no clock read and no allocation.
template <typename Attempt>
bool retry(Backoff& backoff, std::int64_t budget_ms, Attempt&& attempt) {
  if (attempt()) return true;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(budget_ms);
  for (;;) {
    const std::int64_t left_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count();
    if (left_ms <= 0) return false;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(backoff.next_ms(), left_ms)));
    if (attempt()) return true;
  }
}

}  // namespace nnr::net
