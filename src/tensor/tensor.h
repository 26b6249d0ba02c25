// Tensor: an owning, contiguous float32 n-d array.
//
// float32 is deliberate and load-bearing: the entire study measures rounding
// divergence of single-precision accumulation under reordering, so the tensor
// substrate must not silently widen to double anywhere on the training path.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/shape.h"

namespace nnr::tensor {

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(Shape shape)
      : shape_(shape), data_(static_cast<std::size_t>(shape.numel()), 0.0F) {}

  Tensor(Shape shape, std::vector<float> data)
      : shape_(shape), data_(std::move(data)) {
    assert(static_cast<std::int64_t>(data_.size()) == shape_.numel());
  }

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(shape); }

  [[nodiscard]] static Tensor full(Shape shape, float value) {
    Tensor t(shape);
    for (float& x : t.data_) x = value;
    return t;
  }

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::int64_t numel() const noexcept { return shape_.numel(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }

  [[nodiscard]] float* raw() noexcept { return data_.data(); }
  [[nodiscard]] const float* raw() const noexcept { return data_.data(); }

  // Flat and rank-specific element access (row-major / NCHW).
  [[nodiscard]] float& at(std::int64_t i) noexcept {
    assert(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] float at(std::int64_t i) const noexcept {
    assert(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] float& at(std::int64_t i, std::int64_t j) noexcept {
    assert(shape_.rank() == 2);
    return data_[static_cast<std::size_t>(i * shape_[1] + j)];
  }
  [[nodiscard]] float at(std::int64_t i, std::int64_t j) const noexcept {
    assert(shape_.rank() == 2);
    return data_[static_cast<std::size_t>(i * shape_[1] + j)];
  }

  [[nodiscard]] float& at(std::int64_t n, std::int64_t c, std::int64_t h,
                          std::int64_t w) noexcept {
    assert(shape_.rank() == 4);
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  [[nodiscard]] float at(std::int64_t n, std::int64_t c, std::int64_t h,
                         std::int64_t w) const noexcept {
    assert(shape_.rank() == 4);
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  /// Reinterprets the buffer under a new shape with the same element count.
  void reshape(Shape new_shape) {
    assert(new_shape.numel() == shape_.numel());
    shape_ = new_shape;
  }

  void fill(float value) noexcept {
    for (float& x : data_) x = value;
  }

  /// Moves the buffer out, leaving an empty rank-0 tensor.
  [[nodiscard]] std::vector<float> take_storage() noexcept {
    shape_ = Shape{};
    return std::move(data_);
  }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace nnr::tensor
