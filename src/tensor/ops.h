// Elementwise tensor utilities (no reductions — those live in gemm.h so the
// accumulation-ordering policy cannot be bypassed accidentally).
#pragma once

#include <span>

#include "tensor/tensor.h"

namespace nnr::tensor {

/// y += alpha * x (elementwise, same length).
void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept;

/// Index of the maximum element (first occurrence). Precondition: non-empty.
[[nodiscard]] std::int64_t argmax(std::span<const float> x) noexcept;

}  // namespace nnr::tensor
