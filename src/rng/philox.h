// Philox4x32-10 counter-based pseudo-random number generator.
//
// Counter-based generators are the standard substrate for reproducible
// randomness in ML systems (used by JAX, TensorFlow, and cuDNN's dropout):
// the i-th random block is a pure function of (key, counter=i), so streams
// can be split, skipped, and replayed without shared mutable state. This
// property is what lets the experiment harness give every noise channel
// (init / shuffle / augment / dropout / scheduler) an independent,
// individually re-seedable stream.
//
// Reference: Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
// SC'11. This is a faithful implementation of the 10-round Philox-4x32
// bijection; it passes the smoke statistical tests in tests/rng/.
#pragma once

#include <array>
#include <cstdint>

namespace nnr::rng {

/// 128-bit counter / output block for Philox4x32.
using Counter4x32 = std::array<std::uint32_t, 4>;
/// 64-bit key (two 32-bit words).
using Key2x32 = std::array<std::uint32_t, 2>;

/// Applies the 10-round Philox-4x32 bijection to `ctr` under `key`.
/// Pure function: identical inputs always produce identical outputs.
[[nodiscard]] Counter4x32 philox4x32_10(Counter4x32 ctr, Key2x32 key) noexcept;

/// A stateful convenience wrapper that enumerates the Philox stream for a
/// fixed key: block i is philox4x32_10({i_lo, i_hi, stream_lo, stream_hi}, key).
/// Satisfies the C++ UniformRandomBitGenerator concept (32-bit output).
class Philox {
 public:
  using result_type = std::uint32_t;

  /// Constructs the stream identified by (seed, stream). Different stream
  /// ids with the same seed yield statistically independent sequences.
  explicit Philox(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return 0xFFFFFFFFu; }

  /// Next 32 random bits.
  result_type operator()() noexcept;

  /// Next 64 random bits.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// The (seed-derived) key of this stream; exposed for test inspection.
  [[nodiscard]] Key2x32 key() const noexcept { return key_; }

 private:
  void refill() noexcept;

  Key2x32 key_;
  std::uint64_t stream_;
  std::uint64_t block_index_ = 0;
  Counter4x32 buffer_{};
  int buffered_ = 0;  // number of unconsumed words remaining in buffer_
};

}  // namespace nnr::rng
