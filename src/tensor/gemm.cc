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
//   - lane partials are combined in ReductionPlan::combine's order for the
//     plan (pairwise tree, or this launch's shuffled combine_order), batched
//     across the tile's elements, which never mix.
// What changes is only the *schedule*: a kMr x kNr register tile shares every
// A load across kNr columns and every packed-B load across kMr rows, and
// host threads split the output rows. Neither affects any per-element
// floating-point order, so the result is bitwise equal to the reference
// loop for every accumulation order.
//
// B reaches the engine through a BView, so gemm_nt's [N, K] B and gemm_nn's
// [K, N] B run the same code: only where B's values are read from differs.
// The pack copies either layout into the same panels, and the per-element
// fallback, which needs column j as one contiguous k-run, gathers a [K, N]
// B's columns first. Both are pure data movement.
// ---------------------------------------------------------------------------

constexpr std::int64_t kMr = 4;  // output rows per register tile
constexpr std::int64_t kNr = 8;  // output cols per register tile
constexpr std::int64_t kTileElems = kMr * kNr;

// B's element (j, kk), the kk-th addend of output column j, sits at
// data[j * col + kk * step]: {k, 1} for an [N, K] B, {1, n} for a [K, N] B.
struct BView {
  const float* data;
  std::int64_t col;   // stride between columns j
  std::int64_t step;  // stride between k steps
};

// Grow-only thread-local scratch for one launch's packed panels and gathered
// columns. It is keyed by the *calling* thread (workers write through the
// returned pointer), so steady-state training does no per-launch allocation
// here. GEMMs never nest, and concurrent calls from different threads get
// different buffers.
float* launch_scratch(std::size_t size) {
  static thread_local std::vector<float> tl_packed;
  if (tl_packed.size() < size) tl_packed.resize(size);
  return tl_packed.data();
}

// Packs the kNr B columns of block `jb` into panel layout dst[kk * kNr + jj]
// so the micro-kernel's inner loop loads one contiguous vector per k step.
// Pure data movement — no floating-point arithmetic.
void pack_b_block(BView b, std::int64_t k, std::int64_t jb,
                  float* dst) noexcept {
  const float* b0 = b.data + jb * kNr * b.col;
  if (b.col == 1) {
    // [K, N]: each k step's kNr values are already one contiguous run.
    for (std::int64_t kk = 0; kk < k; ++kk) {
      std::copy_n(b0 + kk * b.step, kNr, dst + kk * kNr);
    }
    return;
  }
  // [N, K]: each column is a contiguous k-run (step 1).
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t jj = 0; jj < kNr; ++jj) {
      dst[kk * kNr + jj] = b0[jj * b.col + kk];
    }
  }
}

// Copies B's columns [j0, j1) to dst as contiguous k-runs, dst[(j - j0) * k
// + kk]: the [N, K] layout the per-element fallback reads. Only a [K, N] B
// needs this. Pure data movement.
void gather_columns(BView b, std::int64_t k, std::int64_t j0, std::int64_t j1,
                    float* dst) noexcept {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* src = b.data + kk * b.step;
    for (std::int64_t j = j0; j < j1; ++j) {
      dst[(j - j0) * k + kk] = src[j * b.col];
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

void gemm_blocked(const float* pa, BView b, float* pc, std::int64_t m,
                  std::int64_t n, std::int64_t k, const ReductionPlan& plan) {
  runtime::ThreadPool& pool = runtime::ThreadPool::global();
  const std::int64_t jblocks = n / kNr;
  const int lanes = plan.lanes();

  // Columns from j_tail on reach the per-element fallback: the column
  // remainder, and every column when the last row block is short.
  const std::int64_t j_tail = (m % kMr == 0) ? jblocks * kNr : 0;
  const std::size_t pack_size = static_cast<std::size_t>(jblocks * k * kNr);
  const std::size_t tail_size =
      b.step == 1 ? 0 : static_cast<std::size_t>((n - j_tail) * k);

  // Pack all full B panels once; every row block reads them. Columns that
  // are not contiguous k-runs are gathered once, behind the panels.
  float* packed_data = launch_scratch(pack_size + tail_size);
  pool.parallel_for(0, jblocks, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t jb = b0; jb < b1; ++jb) {
      pack_b_block(b, k, jb, packed_data + jb * k * kNr);
    }
  });
  // Column j of B, as one contiguous k-run, starts at tail + (j - j_tail) * k.
  const float* tail = b.data + j_tail * b.col;
  if (tail_size > 0) {
    tail = packed_data + pack_size;
    gather_columns(b, k, j_tail, n, packed_data + pack_size);
  }

  const std::int64_t row_blocks = (m + kMr - 1) / kMr;
  pool.parallel_for(0, row_blocks, 1, [&](std::int64_t rb0, std::int64_t rb1) {
    // Per-worker lane staging: lane partials for one tile.
    std::vector<float> lane_buf;
    if (lanes > 1) {
      lane_buf.resize(static_cast<std::size_t>(lanes) * kTileElems);
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
              // kSequential always has one lane, so this is the shuffled
              // order: ReductionPlan::combine's accumulator starts at 0.0F
              // (not the first partial — 0.0F + -0.0F is +0.0F) and adds
              // each lane in this launch's retirement order. Whole lane
              // tiles at a time; per element, the scalar sequence exactly.
              assert(plan.order() == AccumOrder::kShardedShuffled);
              for (float& t : tile) t = 0.0F;
              for (std::uint32_t l : plan.combine_order()) {
                const float* addend =
                    lane_buf.data() + static_cast<std::int64_t>(l) * kTileElems;
                for (std::int64_t e = 0; e < kTileElems; ++e) {
                  tile[e] += addend[e];
                }
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
          pc[i * n + j] = plan.reduce_dot(row_a, {tail + (j - j_tail) * k, len});
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

// One kernel launch of C[M, N] = A[M, K] · B, B read through `b`.
void gemm_launch(const float* pa, BView b, float* pc, std::int64_t m,
                 std::int64_t n, std::int64_t k, const KernelPolicy& policy) {
  // One plan per kernel launch: the scheduler interleaving is drawn once and
  // applied to every output element, then the next launch redraws it.
  const ReductionPlan plan = policy.make_plan(k);

  // Both paths run the same plan, so the shuffle drawn above is spent
  // identically either way. Tiny problems skip the pack/tile overhead (the
  // blocked engine is bit-exact for every order, so this cutoff is a pure
  // perf choice).
  const bool tiny = m * n < 64 || n < kNr || k < 4;
  if (!tiny) {
    gemm_blocked(pa, b, pc, m, n, k, plan);
    return;
  }
  const float* pb = b.data;
  if (b.step != 1) {
    float* cols = launch_scratch(static_cast<std::size_t>(n * k));
    gather_columns(b, k, 0, n, cols);
    pb = cols;
  }
  gemm_nt_loop(pa, pb, pc, m, n, k, plan);
}

}  // namespace

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy) {
  check_gemm_shapes(a, b, c);
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  const std::int64_t n = b.shape()[0];
  gemm_launch(a.raw(), {b.raw(), k, 1}, c.raw(), m, n, k, policy);
}

void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy) {
  assert(a.shape().rank() == 2 && b.shape().rank() == 2 &&
         c.shape().rank() == 2);
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  const std::int64_t n = b.shape()[1];
  assert(b.shape()[0] == k && c.shape() == (Shape{m, n}));
  gemm_launch(a.raw(), {b.raw(), 1, n}, c.raw(), m, n, k, policy);
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
  // inside one cache footprint; a large transpose otherwise touches a fresh
  // line per element.
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
