// Residual blocks (He et al., 2016) for the scaled ResNet-18/50 models.
#pragma once

#include <cstdint>
#include <string>

#include "nn/activations.h"
#include "nn/model.h"

namespace nnr::nn {

/// y = ReLU(main(x) + shortcut(x)), with both paths held as Models, so
/// nn::Model is the only code that sequences layers. An empty shortcut is
/// the identity. Every launch draws its interleaving in call order, so the
/// order below is part of the numerics:
///   forward:  main, shortcut, the sum, the output ReLU;
///   backward: the output ReLU, shortcut, main, the sum;
///   params(), buffers() and init_weights(): main, then shortcut.
class ResidualBlock : public Layer {
 public:
  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::vector<Param*> params() override;
  [[nodiscard]] std::vector<NamedBuffer> buffers() override;
  void init_weights(rng::Generator& init_gen) override;

 protected:
  ResidualBlock(Model main, Model shortcut)
      : main_(std::move(main)), shortcut_(std::move(shortcut)) {}

 private:
  Model main_;
  Model shortcut_;
  ReLU relu_out_;
};

/// Basic residual block: conv3x3-BN-ReLU-conv3x3-BN + identity/projection
/// skip, followed by ReLU. A 1x1 projection (with BN) is the shortcut when
/// the channel count or stride changes.
class BasicBlock final : public ResidualBlock {
 public:
  BasicBlock(std::int64_t in_channels, std::int64_t out_channels,
             std::int64_t stride);

  [[nodiscard]] std::string name() const override;
};

/// Bottleneck residual block (1x1 reduce, 3x3, 1x1 expand) used by the
/// scaled ResNet-50, with the same shortcut rule as BasicBlock.
class BottleneckBlock final : public ResidualBlock {
 public:
  /// `expansion` multiplies `mid_channels` to give the block output width.
  BottleneckBlock(std::int64_t in_channels, std::int64_t mid_channels,
                  std::int64_t expansion, std::int64_t stride);

  [[nodiscard]] std::string name() const override;
};

}  // namespace nnr::nn
