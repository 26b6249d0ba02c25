#include "nn/loss.h"

#include <cassert>
#include <cmath>

#include "tensor/gemm.h"

namespace nnr::nn {

using tensor::Shape;
using tensor::Tensor;

Tensor softmax(const Tensor& logits, RunContext& ctx) {
  assert(logits.shape().rank() == 2);
  const std::int64_t n = logits.shape()[0];
  const std::int64_t c = logits.shape()[1];

  Tensor probs(logits.shape());
  const float* src = logits.raw();
  float* dst = probs.raw();
  // exp(x - rowmax), then normalize; the normalizer sum is one reduction
  // launch shared across rows.
  for (std::int64_t i = 0; i < n; ++i) {
    float row_max = src[i * c];
    for (std::int64_t j = 1; j < c; ++j) {
      row_max = std::max(row_max, src[i * c + j]);
    }
    for (std::int64_t j = 0; j < c; ++j) {
      dst[i * c + j] = std::exp(src[i * c + j] - row_max);
    }
  }
  std::vector<float> normalizers(static_cast<std::size_t>(n));
  tensor::reduce_rows(probs, normalizers, ctx.hw->reduction_policy());
  for (std::int64_t i = 0; i < n; ++i) {
    const float inv = 1.0F / normalizers[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < c; ++j) dst[i * c + j] *= inv;
  }
  return probs;
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 RunContext& ctx) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t c = logits.shape()[1];
  assert(static_cast<std::int64_t>(labels.size()) == n);

  Tensor probs = softmax(logits, ctx);

  // Mean negative log-likelihood; the batch-mean is itself a reduction.
  std::vector<float> nll(static_cast<std::size_t>(n));
  const float* p = probs.raw();
  for (std::int64_t i = 0; i < n; ++i) {
    const float prob =
        std::max(p[i * c + labels[static_cast<std::size_t>(i)]], 1e-12F);
    nll[static_cast<std::size_t>(i)] = -std::log(prob);
  }
  const float loss =
      tensor::reduce_sum(nll, ctx.hw->reduction_policy()) /
      static_cast<float>(n);

  LossResult result;
  result.loss = loss;
  result.grad_logits = probs;
  float* g = result.grad_logits.raw();
  const float inv_n = 1.0F / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    g[i * c + labels[static_cast<std::size_t>(i)]] -= 1.0F;
    for (std::int64_t j = 0; j < c; ++j) g[i * c + j] *= inv_n;
  }
  return result;
}

}  // namespace nnr::nn
