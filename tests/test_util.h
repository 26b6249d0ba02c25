// Shared helpers for the test suite.
#pragma once

#include <stdlib.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include "hw/execution_context.h"
#include "nn/layer.h"
#include "rng/generator.h"
#include "tensor/tensor.h"

namespace nnr::testutil {

/// A fresh directory under temp_directory_path(), named by mkdtemp(3) and
/// removed with its contents on destruction. Two test processes running at
/// once never share one, so they cannot delete each other's files.
class TempDir {
 public:
  TempDir() {
    std::string name =
        (std::filesystem::temp_directory_path() / "nnr_test_XXXXXX").string();
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(), "mkdtemp");
    }
    path_ = name;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// A deterministic execution context (V100 in deterministic mode) for tests
/// that need reproducible kernel behaviour.
inline hw::ExecutionContext deterministic_context() {
  return hw::ExecutionContext(hw::v100(), hw::DeterminismMode::kDeterministic,
                              rng::Generator(0));
}

/// A nondeterministic context with a given scheduler-entropy seed.
inline hw::ExecutionContext noisy_context(std::uint64_t entropy_seed) {
  return hw::ExecutionContext(hw::v100(), hw::DeterminismMode::kDefault,
                              rng::Generator(entropy_seed));
}

/// Fills a tensor with reproducible pseudo-random values in [-1, 1].
inline void fill_random(tensor::Tensor& t, std::uint64_t seed) {
  rng::Generator gen(seed);
  for (float& v : t.data()) v = gen.uniform(-1.0F, 1.0F);
}

/// The float32 bit patterns of a tensor's elements: EXPECT_EQ on two of these
/// is a bitwise comparison, which tells -0.0F from 0.0F.
inline std::vector<std::uint32_t> bits(const tensor::Tensor& t) {
  std::vector<std::uint32_t> out;
  out.reserve(t.data().size());
  for (float v : t.data()) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

/// Central-difference numerical gradient of a scalar function of `param`.
/// Used to validate every layer's backward pass.
inline std::vector<double> numerical_gradient(
    std::span<float> param, const std::function<double()>& scalar_fn,
    float epsilon = 1e-3F) {
  std::vector<double> grad(param.size());
  for (std::size_t i = 0; i < param.size(); ++i) {
    const float saved = param[i];
    param[i] = saved + epsilon;
    const double up = scalar_fn();
    param[i] = saved - epsilon;
    const double down = scalar_fn();
    param[i] = saved;
    grad[i] = (up - down) / (2.0 * static_cast<double>(epsilon));
  }
  return grad;
}

/// Relative error tolerant comparison for gradient checks: passes when
/// |a-b| <= atol + rtol * max(|a|, |b|).
inline bool close(double a, double b, double rtol = 5e-2, double atol = 1e-3) {
  return std::fabs(a - b) <= atol + rtol * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace nnr::testutil
