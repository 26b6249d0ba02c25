// Spatial pooling layers.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace nnr::nn {

/// 2x2 max pooling with stride 2 (the paper's CNNs downsample exclusively
/// through pooling; Appendix C). Odd trailing rows/columns are dropped.
class MaxPool2x2 final : public Layer {
 public:
  MaxPool2x2() = default;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2x2"; }

 private:
  tensor::Shape input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

/// Global average pooling NCHW -> [N, C]. The spatial mean is a reduction and
/// runs under the device reduction policy.
class GlobalAvgPool final : public Layer {
 public:
  GlobalAvgPool() = default;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  tensor::Shape input_shape_;
};

}  // namespace nnr::nn
