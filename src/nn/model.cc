#include "nn/model.h"

#include <algorithm>
#include <cassert>

namespace nnr::nn {

using tensor::Tensor;

Tensor Model::forward(const Tensor& input, RunContext& ctx) {
  if (layers_.empty()) return input;
  Tensor activation = layers_.front()->forward(input, ctx);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    activation = layers_[i]->forward(activation, ctx);
  }
  return activation;
}

Tensor Model::backward(const Tensor& grad_output, RunContext& ctx) {
  if (layers_.empty()) return grad_output;
  Tensor grad = layers_.back()->backward(grad_output, ctx);
  for (std::size_t i = layers_.size() - 1; i-- > 0;) {
    grad = layers_[i]->backward(grad, ctx);
  }
  return grad;
}

std::vector<Param*> Model::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

std::vector<NamedBuffer> Model::buffers() {
  std::vector<NamedBuffer> all;
  for (auto& layer : layers_) {
    for (NamedBuffer b : layer->buffers()) all.push_back(b);
  }
  return all;
}

void Model::zero_grads() {
  for (Param* p : params()) p->grad.fill(0.0F);
}

void Model::init_weights(rng::Generator& init_gen) {
  for (auto& layer : layers_) layer->init_weights(init_gen);
}

std::vector<float> Model::flat_weights() {
  std::vector<float> flat;
  for (Param* p : params()) {
    const auto view = p->value.data();
    flat.insert(flat.end(), view.begin(), view.end());
  }
  return flat;
}

void Model::load_flat_weights(std::span<const float> flat) {
  std::size_t offset = 0;
  for (Param* p : params()) {
    const auto dst = p->value.data();
    assert(offset + dst.size() <= flat.size());
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                dst.size(), dst.begin());
    offset += dst.size();
  }
  assert(offset == flat.size());
}

}  // namespace nnr::nn
