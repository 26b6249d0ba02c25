#include "tensor/ops.h"

#include <cassert>

namespace nnr::tensor {

void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

std::int64_t argmax(std::span<const float> x) noexcept {
  assert(!x.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return static_cast<std::int64_t>(best);
}

}  // namespace nnr::tensor
