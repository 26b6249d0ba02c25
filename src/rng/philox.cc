#include "rng/philox.h"

namespace nnr::rng {
namespace {

constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1

inline std::uint32_t mulhi(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)) >> 32);
}

inline Counter4x32 round_once(Counter4x32 c, Key2x32 k) noexcept {
  const std::uint32_t hi0 = mulhi(kPhiloxM0, c[0]);
  const std::uint32_t lo0 = kPhiloxM0 * c[0];
  const std::uint32_t hi1 = mulhi(kPhiloxM1, c[2]);
  const std::uint32_t lo1 = kPhiloxM1 * c[2];
  return {hi1 ^ c[1] ^ k[0], lo1, hi0 ^ c[3] ^ k[1], lo0};
}

}  // namespace

Counter4x32 philox4x32_10(Counter4x32 ctr, Key2x32 key) noexcept {
  for (int round = 0; round < 10; ++round) {
    ctr = round_once(ctr, key);
    key[0] += kWeyl0;
    key[1] += kWeyl1;
  }
  return ctr;
}

Philox::Philox(std::uint64_t seed, std::uint64_t stream) noexcept
    : key_{static_cast<std::uint32_t>(seed),
           static_cast<std::uint32_t>(seed >> 32)},
      stream_(stream) {}

void Philox::refill() noexcept {
  const Counter4x32 ctr{static_cast<std::uint32_t>(block_index_),
                        static_cast<std::uint32_t>(block_index_ >> 32),
                        static_cast<std::uint32_t>(stream_),
                        static_cast<std::uint32_t>(stream_ >> 32)};
  buffer_ = philox4x32_10(ctr, key_);
  ++block_index_;
  buffered_ = 4;
}

Philox::result_type Philox::operator()() noexcept {
  if (buffered_ == 0) refill();
  return buffer_[4 - buffered_--];
}

std::uint64_t Philox::next_u64() noexcept {
  const std::uint64_t lo = (*this)();
  const std::uint64_t hi = (*this)();
  return lo | (hi << 32);
}

}  // namespace nnr::rng
