#include "tensor/gemm.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "runtime/thread_pool.h"

namespace nnr::tensor {

namespace {

// ---------------------------------------------------------------------------
// Blocked fast path.
//
// The engine mirrors the reference reduction semantics exactly:
//   - k is partitioned into the plan's lane chunks via lane_range (shared
//     with accumulate.cc),
//   - within a chunk each output element is accumulated in unrolled_dot's
//     order: four sub-accumulators over k-offsets {0,1,2,3} mod 4 combined
//     as (acc0 + acc1) + (acc2 + acc3), then a sequential tail,
//   - lane partials are combined by ReductionPlan::combine_partials.
// What changes is only the *schedule*: a kMr x kNr register tile shares every
// A load across kNr columns and every packed-B load across kMr rows, and
// host threads split the output rows. Neither affects any per-element
// floating-point order, so the result is bitwise equal to the reference
// loop for the deterministic accumulation orders.
// ---------------------------------------------------------------------------

constexpr std::int64_t kMr = 4;  // output rows per register tile
constexpr std::int64_t kNr = 8;  // output cols per register tile
constexpr std::int64_t kTileElems = kMr * kNr;

// Packs the kNr B rows of block `jb` into panel layout dst[kk * kNr + jj] so
// the micro-kernel's inner loop loads one contiguous vector per k step.
// Pure data movement — no floating-point arithmetic.
void pack_b_block(const float* pb, std::int64_t k, std::int64_t jb,
                  float* dst) noexcept {
  const float* b0 = pb + jb * kNr * k;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t jj = 0; jj < kNr; ++jj) {
      dst[kk * kNr + jj] = b0[jj * k + kk];
    }
  }
}

// Partial dot products of a kMr x kNr tile over the k-range [begin, end),
// reproducing unrolled_dot's accumulation order independently per element.
// `a` is the tile's first A row (rows `lda` apart); `bp` the packed panel.
//
// On GNU-compatible compilers the kNr-wide column axis is expressed with
// vector extensions: one mul + one add per lane, no horizontal operations,
// so every output element still sees exactly the scalar sequence
//   acc_u += a[i+u] * b[i+u]  (u = i mod 4), (acc0+acc1)+(acc2+acc3), tail.
// Lane arithmetic is IEEE float32 identical to the scalar ops — the
// vectorization changes which elements are computed together, never the
// order of additions within an element. (Contraction into FMAs is disabled
// project-wide via -ffp-contract=off, so mul+add stays two roundings in
// both the reference and the blocked engine.)
#if defined(__GNUC__) || defined(__clang__)
#define NNR_GEMM_V8 1
using v8f = float __attribute__((vector_size(8 * sizeof(float))));

inline v8f load8(const float* p) noexcept {
  v8f v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned, strict-aliasing safe
  return v;
}

inline void store8(float* p, v8f v) noexcept {
  __builtin_memcpy(p, &v, sizeof(v));
}

void micro_tile(const float* a, std::int64_t lda, const float* bp,
                std::int64_t begin, std::int64_t end,
                float out[kTileElems]) noexcept {
  v8f acc[4][kMr];
  for (auto& bank : acc) {
    for (v8f& v : bank) v = v8f{};
  }
  std::int64_t i = begin;
  for (; i + 4 <= end; i += 4) {
    for (int u = 0; u < 4; ++u) {
      const v8f brow = load8(bp + (i + u) * kNr);
      for (std::int64_t r = 0; r < kMr; ++r) {
        acc[u][r] += a[r * lda + i + u] * brow;
      }
    }
  }
  v8f res[kMr];
  for (std::int64_t r = 0; r < kMr; ++r) {
    res[r] = (acc[0][r] + acc[1][r]) + (acc[2][r] + acc[3][r]);
  }
  for (; i < end; ++i) {
    const v8f brow = load8(bp + i * kNr);
    for (std::int64_t r = 0; r < kMr; ++r) {
      res[r] += a[r * lda + i] * brow;
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) store8(out + r * kNr, res[r]);
}
#else
void micro_tile(const float* a, std::int64_t lda, const float* bp,
                std::int64_t begin, std::int64_t end,
                float out[kTileElems]) noexcept {
  float acc[4][kTileElems] = {};
  std::int64_t i = begin;
  for (; i + 4 <= end; i += 4) {
    for (int u = 0; u < 4; ++u) {
      const float* brow = bp + (i + u) * kNr;
      for (std::int64_t r = 0; r < kMr; ++r) {
        const float av = a[r * lda + i + u];
        float* accr = acc[u] + r * kNr;
        for (std::int64_t jj = 0; jj < kNr; ++jj) {
          accr[jj] += av * brow[jj];
        }
      }
    }
  }
  for (std::int64_t e = 0; e < kTileElems; ++e) {
    out[e] = (acc[0][e] + acc[1][e]) + (acc[2][e] + acc[3][e]);
  }
  for (; i < end; ++i) {
    const float* brow = bp + i * kNr;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = a[r * lda + i];
      float* outr = out + r * kNr;
      for (std::int64_t jj = 0; jj < kNr; ++jj) {
        outr[jj] += av * brow[jj];
      }
    }
  }
}
#endif  // NNR_GEMM_V8

// The seed kernel body, shared by gemm_nt_reference and the fallback paths.
void gemm_nt_loop(const float* pa, const float* pb, float* pc, std::int64_t m,
                  std::int64_t n, std::int64_t k,
                  const ReductionPlan& plan) noexcept {
  const auto len = static_cast<std::size_t>(k);
  for (std::int64_t i = 0; i < m; ++i) {
    const std::span<const float> row_a(pa + i * k, len);
    for (std::int64_t j = 0; j < n; ++j) {
      pc[i * n + j] = plan.reduce_dot(row_a, {pb + j * k, len});
    }
  }
}

void gemm_nt_blocked(const float* pa, const float* pb, float* pc,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     const ReductionPlan& plan) {
  runtime::ThreadPool& pool = runtime::ThreadPool::global();
  const std::int64_t jblocks = n / kNr;
  const int lanes = plan.lanes();

  // Pack all full B panels once; every row block reads them. The buffer is
  // grow-only thread-local storage (keyed by the *calling* thread — workers
  // write through the captured pointer), so steady-state training does no
  // per-launch allocation here. GEMMs never nest, and concurrent calls from
  // different threads get different buffers.
  static thread_local std::vector<float> tl_packed;
  const std::size_t pack_size = static_cast<std::size_t>(jblocks * k * kNr);
  if (tl_packed.size() < pack_size) tl_packed.resize(pack_size);
  float* packed_data = tl_packed.data();
  pool.parallel_for(0, jblocks, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t jb = b0; jb < b1; ++jb) {
      pack_b_block(pb, k, jb, packed_data + jb * k * kNr);
    }
  });

  const std::int64_t row_blocks = (m + kMr - 1) / kMr;
  pool.parallel_for(0, row_blocks, 1, [&](std::int64_t rb0, std::int64_t rb1) {
    // Per-worker lane staging: lane partials for one tile, plus a gather
    // buffer handed to combine_partials per element.
    std::vector<float> lane_buf;
    std::vector<float> lane_tmp;
    if (lanes > 1) {
      lane_buf.resize(static_cast<std::size_t>(lanes) * kTileElems);
      lane_tmp.resize(static_cast<std::size_t>(lanes));
    }
    for (std::int64_t rb = rb0; rb < rb1; ++rb) {
      const std::int64_t i0 = rb * kMr;
      const std::int64_t mr = std::min<std::int64_t>(kMr, m - i0);
      if (mr == kMr) {
        float tile[kTileElems];
        for (std::int64_t jb = 0; jb < jblocks; ++jb) {
          const float* bp = packed_data + jb * k * kNr;
          if (lanes == 1) {
            micro_tile(pa + i0 * k, k, bp, 0, k, tile);
          } else {
            for (int l = 0; l < lanes; ++l) {
              const auto [cb, ce] = lane_range(l, lanes, k);
              micro_tile(pa + i0 * k, k, bp, cb, ce,
                         lane_buf.data() + static_cast<std::int64_t>(l) *
                                               kTileElems);
            }
            if (plan.order() == AccumOrder::kPairwiseTree) {
              // The fixed balanced tree from ReductionPlan::combine, applied
              // to all tile elements at once: partials[l] += partials[l+half]
              // per element, level by level. Elements never mix, so this is
              // the scalar tree bit-for-bit — just batched.
              int nl = lanes;
              while (nl > 1) {
                const int half = (nl + 1) / 2;
                for (int l = 0; l + half < nl; ++l) {
                  float* dst = lane_buf.data() +
                               static_cast<std::int64_t>(l) * kTileElems;
                  const float* addend =
                      lane_buf.data() +
                      static_cast<std::int64_t>(l + half) * kTileElems;
                  for (std::int64_t e = 0; e < kTileElems; ++e) {
                    dst[e] += addend[e];
                  }
                }
                nl = half;
              }
              for (std::int64_t e = 0; e < kTileElems; ++e) {
                tile[e] = lane_buf[static_cast<std::size_t>(e)];
              }
            } else {
              // Generic (future accumulation orders): gather each element's
              // lane partials and delegate to the reference combine.
              for (std::int64_t e = 0; e < kTileElems; ++e) {
                for (int l = 0; l < lanes; ++l) {
                  lane_tmp[static_cast<std::size_t>(l)] =
                      lane_buf[static_cast<std::size_t>(l) * kTileElems +
                               static_cast<std::size_t>(e)];
                }
                tile[e] = plan.combine_partials(lane_tmp);
              }
            }
          }
          for (std::int64_t r = 0; r < kMr; ++r) {
            float* crow = pc + (i0 + r) * n + jb * kNr;
            for (std::int64_t jj = 0; jj < kNr; ++jj) {
              crow[jj] = tile[r * kNr + jj];
            }
          }
        }
      }
      // Column remainder (and whole short row blocks): the reference kernel
      // per element — trivially bit-exact.
      const std::int64_t j0 = (mr == kMr) ? jblocks * kNr : 0;
      const auto len = static_cast<std::size_t>(k);
      for (std::int64_t i = i0; i < i0 + mr; ++i) {
        const std::span<const float> row_a(pa + i * k, len);
        for (std::int64_t j = j0; j < n; ++j) {
          pc[i * n + j] = plan.reduce_dot(row_a, {pb + j * k, len});
        }
      }
    }
  });
}

void check_gemm_shapes(const Tensor& a, const Tensor& b, const Tensor& c) {
  assert(a.shape().rank() == 2 && b.shape().rank() == 2 &&
         c.shape().rank() == 2);
  assert(b.shape()[1] == a.shape()[1]);
  assert(c.shape()[0] == a.shape()[0] && c.shape()[1] == b.shape()[0]);
  (void)a;
  (void)b;
  (void)c;
}

}  // namespace

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy) {
  check_gemm_shapes(a, b, c);
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  const std::int64_t n = b.shape()[0];

  // One plan per kernel launch: the scheduler interleaving is drawn once and
  // applied to every output element, then the next launch redraws it.
  const ReductionPlan plan = policy.make_plan(k);

  // The shuffled order keeps the seed loop so IMPL-noise semantics stay
  // byte-identical; tiny problems skip the pack/tile overhead (the blocked
  // engine is bit-exact either way, so this cutoff is a pure perf choice).
  const bool tiny = m * n < 64 || n < kNr || k < 4;
  if (plan.order() == AccumOrder::kShardedShuffled || tiny) {
    gemm_nt_loop(a.raw(), b.raw(), c.raw(), m, n, k, plan);
    return;
  }
  gemm_nt_blocked(a.raw(), b.raw(), c.raw(), m, n, k, plan);
}

void gemm_nt_reference(const Tensor& a, const Tensor& b, Tensor& c,
                       const KernelPolicy& policy) {
  check_gemm_shapes(a, b, c);
  const ReductionPlan plan = policy.make_plan(a.shape()[1]);
  gemm_nt_loop(a.raw(), b.raw(), c.raw(), a.shape()[0], b.shape()[0],
               a.shape()[1], plan);
}

void transpose(const Tensor& in, Tensor& out) {
  assert(in.shape().rank() == 2 && out.shape().rank() == 2);
  const std::int64_t rows = in.shape()[0];
  const std::int64_t cols = in.shape()[1];
  assert(out.shape()[0] == cols && out.shape()[1] == rows);
  const float* pin = in.raw();
  float* pout = out.raw();

  // Square tiles keep both the row-major reads and the column-strided writes
  // inside one cache footprint; the large patch x pixels transposes in
  // Conv2D::backward otherwise touch a fresh line per element.
  constexpr std::int64_t kTile = 32;
  const std::int64_t row_tiles = (rows + kTile - 1) / kTile;
  runtime::ThreadPool::global().parallel_for(
      0, row_tiles, 1, [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t i0 = t * kTile;
          const std::int64_t i_end = std::min(rows, i0 + kTile);
          for (std::int64_t j0 = 0; j0 < cols; j0 += kTile) {
            const std::int64_t j_end = std::min(cols, j0 + kTile);
            for (std::int64_t i = i0; i < i_end; ++i) {
              for (std::int64_t j = j0; j < j_end; ++j) {
                pout[j * rows + i] = pin[i * cols + j];
              }
            }
          }
        }
      });
}

float reduce_sum(std::span<const float> values, const KernelPolicy& policy) {
  const ReductionPlan plan =
      policy.make_plan(static_cast<std::int64_t>(values.size()));
  return plan.reduce(values);
}

void reduce_rows(const Tensor& in, std::span<float> out,
                 const KernelPolicy& policy) {
  assert(in.shape().rank() == 2);
  const std::int64_t rows = in.shape()[0];
  const std::int64_t cols = in.shape()[1];
  assert(static_cast<std::int64_t>(out.size()) == rows);
  const ReductionPlan plan = policy.make_plan(cols);
  const float* pin = in.raw();
  for (std::int64_t r = 0; r < rows; ++r) {
    out[static_cast<std::size_t>(r)] = plan.reduce(
        std::span<const float>(pin + r * cols, static_cast<std::size_t>(cols)));
  }
}

}  // namespace nnr::tensor
