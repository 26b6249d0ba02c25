// Loss functions. The scalar loss reductions run under the device reduction
// policy (loss kernels are CUDA-core reductions on all GPU devices).
#pragma once

#include <cstdint>
#include <span>

#include "nn/layer.h"

namespace nnr::nn {

struct LossResult {
  float loss = 0.0F;                // mean loss over the batch
  tensor::Tensor grad_logits;       // d(mean loss)/d(logits)
};

/// Row-wise softmax with max-subtraction. The per-row normalizer is a small
/// reduction and runs under the reduction policy.
[[nodiscard]] tensor::Tensor softmax(const tensor::Tensor& logits,
                                     RunContext& ctx);

/// Mean softmax cross-entropy for single-label classification.
/// logits: [N, classes]; labels: N class indices.
[[nodiscard]] LossResult softmax_cross_entropy(
    const tensor::Tensor& logits, std::span<const std::int32_t> labels,
    RunContext& ctx);

}  // namespace nnr::nn
