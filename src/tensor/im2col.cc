#include "tensor/im2col.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "runtime/thread_pool.h"

namespace nnr::tensor {

namespace {

// Writes patch rows [r0, r1) of the cols matrix. kWidth fixes the kernel
// width at compile time (0 reads geom.kernel), so each kernel row of an
// interior pixel, one whose receptive field is wholly in-bounds (always, for
// pad == 0), is a fixed-length copy the compiler inlines. Border pixels keep
// the per-tap checked loop.
template <std::int64_t kWidth>
void im2col_rows(const float* pin, const ConvGeometry& geom, std::int64_t r0,
                 std::int64_t r1, float* dst) noexcept {
  const std::int64_t k = kWidth > 0 ? kWidth : geom.kernel;
  const std::size_t run_bytes = static_cast<std::size_t>(k) * sizeof(float);
  const std::int64_t hw = geom.in_h * geom.in_w;
  const std::int64_t ow = geom.out_w();
  const std::int64_t ohw = geom.out_h() * ow;
  for (std::int64_t row = r0; row < r1; ++row) {
    const std::int64_t p = row % ohw;
    const float* src_n = pin + (row / ohw) * geom.in_channels * hw;
    const std::int64_t iy0 = (p / ow) * geom.stride - geom.pad;
    const std::int64_t ix0 = (p % ow) * geom.stride - geom.pad;
    if (iy0 >= 0 && iy0 + k <= geom.in_h && ix0 >= 0 &&
        ix0 + k <= geom.in_w) {
      const float* src_c = src_n + iy0 * geom.in_w + ix0;
      for (std::int64_t c = 0; c < geom.in_channels; ++c, src_c += hw) {
        for (std::int64_t ky = 0; ky < k; ++ky, dst += k) {
          std::memcpy(dst, src_c + ky * geom.in_w, run_bytes);
        }
      }
      continue;
    }
    for (std::int64_t c = 0; c < geom.in_channels; ++c) {
      const float* src_c = src_n + c * hw;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t iy = iy0 + ky;
        for (std::int64_t kx = 0; kx < k; ++kx, ++dst) {
          const std::int64_t ix = ix0 + kx;
          const bool inside =
              iy >= 0 && iy < geom.in_h && ix >= 0 && ix < geom.in_w;
          *dst = inside ? src_c[iy * geom.in_w + ix] : 0.0F;
        }
      }
    }
  }
}

struct OutRange {
  std::int64_t lo = 0;  // first output
  std::int64_t hi = 0;  // one past the last
};

// The outputs o < out_len whose tap at kernel offset `tap` lands inside an
// input axis of length in_len: 0 <= o * stride + tap - pad < in_len.
OutRange inside_outputs(std::int64_t tap, std::int64_t pad,
                        std::int64_t stride, std::int64_t in_len,
                        std::int64_t out_len) noexcept {
  const std::int64_t first = pad - tap;             // o * stride >= first
  const std::int64_t last = in_len - 1 + pad - tap;  // o * stride <= last
  if (last < 0) return {};
  return {.lo = first > 0 ? (first + stride - 1) / stride : 0,
          .hi = std::min(out_len, last / stride + 1)};
}

}  // namespace

void im2col(const Tensor& input, const ConvGeometry& geom, Tensor& cols) {
  assert(input.shape().rank() == 4);
  assert(input.shape()[0] == geom.batch && input.shape()[1] == geom.in_channels);
  assert(input.shape()[2] == geom.in_h && input.shape()[3] == geom.in_w);
  const std::int64_t patch = geom.patch_size();
  assert(cols.shape()[0] == geom.out_pixels() && cols.shape()[1] == patch);

  const float* pin = input.raw();
  float* pcols = cols.raw();
  const std::int64_t ohw = geom.out_h() * geom.out_w();
  // 1 and 3 are the only kernel widths trained models use.
  const auto rows = geom.kernel == 1   ? &im2col_rows<1>
                    : geom.kernel == 3 ? &im2col_rows<3>
                                       : &im2col_rows<0>;

  // Rows (output pixels) are independent writes — parallelize freely. No
  // floating-point arithmetic happens here, so threading cannot perturb the
  // noise model.
  runtime::ThreadPool::global().parallel_for(
      0, geom.out_pixels(), std::max<std::int64_t>(1, ohw / 4),
      [&](std::int64_t r0, std::int64_t r1) {
        rows(pin, geom, r0, r1, pcols + r0 * patch);
      });
}

void col2im(const Tensor& cols, const ConvGeometry& geom, Tensor& grad_input) {
  assert(grad_input.shape().rank() == 4);
  const std::int64_t k = geom.kernel;
  const std::int64_t s = geom.stride;
  const std::int64_t oh = geom.out_h();
  const std::int64_t ow = geom.out_w();
  const std::int64_t patch = geom.patch_size();
  assert(cols.shape()[0] == geom.out_pixels() && cols.shape()[1] == patch);

  const float* pcols = cols.raw();
  float* pout = grad_input.raw();
  const std::int64_t hw = geom.in_h * geom.in_w;
  const std::int64_t kk = k * k;

  // Channel-major scatter: each channel writes a disjoint set of input
  // planes, so channels parallelize safely. Each element's sum starts from
  // +0.0F and takes its addends in ascending (oy, ox) order, the seed's
  // order, which is part of the bit-exactness contract. An addend from
  // (oy, ox) reaches input (iy, ix) through tap ky = iy + pad - oy * s,
  // kx = ix + pad - ox * s, so ky falls as oy rises and kx as ox rises:
  // walking ky and kx downward delivers every element's addends in that
  // order, while the in-bounds outputs of each tap come from one range per
  // ky and per kx instead of a test per tap.
  runtime::ThreadPool::global().parallel_for(
      0, geom.in_channels, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          for (std::int64_t n = 0; n < geom.batch; ++n) {
            float* dst_c = pout + (n * geom.in_channels + c) * hw;
            std::fill_n(dst_c, hw, 0.0F);
            const float* src_c = pcols + n * oh * ow * patch + c * kk;
            for (std::int64_t ky = k - 1; ky >= 0; --ky) {
              const OutRange ys =
                  inside_outputs(ky, geom.pad, s, geom.in_h, oh);
              for (std::int64_t kx = k - 1; kx >= 0; --kx) {
                const OutRange xs =
                    inside_outputs(kx, geom.pad, s, geom.in_w, ow);
                const std::int64_t width = xs.hi - xs.lo;
                if (width <= 0) continue;
                const std::int64_t ix0 = xs.lo * s + kx - geom.pad;
                for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
                  float* dst =
                      dst_c + (oy * s + ky - geom.pad) * geom.in_w + ix0;
                  const float* src =
                      src_c + (oy * ow + xs.lo) * patch + ky * k + kx;
                  for (std::int64_t i = 0; i < width; ++i) {
                    dst[i * s] += src[i * patch];
                  }
                }
              }
            }
          }
        }
      });
}

}  // namespace nnr::tensor
