// Model: a sequential container of layers with parameter plumbing, and the
// one code that sequences layers (nn/residual.h builds its paths from it).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"

namespace nnr::nn {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer; returns a typed pointer for post-construction wiring.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  /// forward runs the layers in order, handing `input` straight to the
  /// first; backward runs them in reverse from `grad_output`. A Model with
  /// no layers is the identity: both return their argument.
  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx);
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx);

  /// All trainable parameters in layer order.
  [[nodiscard]] std::vector<Param*> params();

  /// All persistent non-trainable buffers (BN running stats) in layer order.
  [[nodiscard]] std::vector<NamedBuffer> buffers();

  void zero_grads();

  /// Initializes every layer from the init channel, in layer order.
  void init_weights(rng::Generator& init_gen);

  /// Concatenation of all parameter values (for the L2 weight-distance
  /// metric and bitwise-reproducibility tests).
  [[nodiscard]] std::vector<float> flat_weights();

  /// Inverse of flat_weights: overwrites every parameter from a flat span
  /// laid out in layer order (warm-start training; see
  /// core/churn_reduction.h). Persistent buffers (BN running stats) are NOT
  /// restored — use serialize::load_model for exact state transfer.
  /// Precondition: flat.size() == flat_weights().size().
  void load_flat_weights(std::span<const float> flat);

  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace nnr::nn
