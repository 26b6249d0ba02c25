// im2col / col2im lowering for convolution-as-GEMM.
//
// Forward convolution is lowered to gemm_nt over patch matrices — the same
// "implicit GEMM" strategy cuDNN uses — so the accumulation-ordering policy
// applies to convolutions exactly as it does to dense layers.
//
// Layout: input NCHW; the patch matrix is [N*OH*OW, C*KH*KW] with the
// contraction axis contiguous per output pixel.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace nnr::tensor {

struct ConvGeometry {
  std::int64_t batch = 0;
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel = 0;  // square kernels (paper uses 1/3/5/7)
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  [[nodiscard]] std::int64_t out_h() const noexcept {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::int64_t out_w() const noexcept {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::int64_t patch_size() const noexcept {
    return in_channels * kernel * kernel;
  }
  [[nodiscard]] std::int64_t out_pixels() const noexcept {
    return batch * out_h() * out_w();
  }
};

/// Expands `input` (shape {N, C, H, W}) into `cols`
/// (shape {N*OH*OW, C*K*K}). Out-of-bounds taps read as zero.
void im2col(const Tensor& input, const ConvGeometry& geom, Tensor& cols);

/// Sums `cols` (shape {N*OH*OW, C*K*K}) back into `grad_input`
/// (shape {N, C, H, W}); the inverse of im2col for gradient routing. Each
/// grad_input element is a float32 sum that starts from +0.0F and takes its
/// addends in ascending (oy, ox) order, whatever the host thread count;
/// tensor_tests pins that order bit for bit.
void col2im(const Tensor& cols, const ConvGeometry& geom, Tensor& grad_input);

}  // namespace nnr::tensor
