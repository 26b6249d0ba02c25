// Conv2D: convolution lowered to im2col + policy-driven GEMM.
//
// Weight layout is [out_channels, in_channels * k * k] with the contraction
// axis contiguous, matching the gemm_nt convention. The weight-gradient GEMM
// contracts over the batch*pixels axis — this is the reduction whose float32
// ordering makes training sensitive to both scheduler interleaving (IMPL
// noise) and input ordering (paper Fig. 6).
#pragma once

#include <cstdint>

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace nnr::nn {

class Conv2D final : public Layer {
 public:
  /// Square kernels; `pad` defaults to "same" padding for stride 1
  /// (pad = k/2) when negative.
  Conv2D(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = -1);

  /// He-normal weight init from the init channel; zero bias.
  void init_weights(rng::Generator& init_gen) override;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::vector<Param*> params() override {
    return {&weight_, &bias_};
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t kernel() const noexcept { return kernel_; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;

  Param weight_;  // [out_c, in_c*k*k]
  Param bias_;    // [out_c]

  // Per-batch caches for backward. The patch matrix, the repacks and the
  // gradient staging buffers live in the run's Workspace (slot-addressed by
  // `this`), so step N+1 reuses step N's buffers instead of reallocating;
  // fallback_ws_ serves callers that run without a context arena. forward()
  // records the arena it wrote the patch matrix to (active_ws_), and
  // backward() asserts that the context still supplies that arena. A slot's
  // contents are unspecified until written (a previous run's values, say),
  // so the assert is what keeps backward from reading a patch matrix that
  // was written into a different arena, or one that was never written.
  tensor::ConvGeometry geom_{};
  tensor::Workspace fallback_ws_;
  tensor::Workspace* active_ws_ = nullptr;
};

}  // namespace nnr::nn
