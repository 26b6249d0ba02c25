#include "net/backoff.h"

#include <unistd.h>

#include <algorithm>

namespace nnr::net {

std::uint64_t default_jitter_seed() noexcept {
  // SplitMix64 scramble: adjacent pids (a fleet launched by one script)
  // must map to unrelated jitter streams.
  std::uint64_t z =
      static_cast<std::uint64_t>(::getpid()) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::int64_t Jitter::around(std::int64_t base_ms) noexcept {
  if (base_ms <= 0) return base_ms;
  const double factor = 0.5 + (rng_() + 0.5) * 0x1p-32;  // [0.5, 1.5)
  const auto jittered =
      static_cast<std::int64_t>(static_cast<double>(base_ms) * factor);
  return std::max<std::int64_t>(jittered, 1);
}

Backoff::Backoff(std::int64_t base_ms, std::int64_t max_ms,
                 std::uint64_t seed) noexcept
    : base_ms_(std::max<std::int64_t>(base_ms, 1)),
      max_ms_(std::max(max_ms, base_ms_)),
      jitter_(seed) {}

std::int64_t Backoff::next_ms() noexcept {
  const int shift = std::min(failures_, 20);  // 2^20 * base is past any cap
  ++failures_;
  return jitter_.around(std::min(max_ms_, base_ms_ << shift));
}

}  // namespace nnr::net
