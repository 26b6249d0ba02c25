// Policy-driven GEMM and reduction kernels.
//
// Every reduction on the training path (matmul inner products, weight-
// gradient accumulation, batch-norm statistics, bias gradients) flows through
// a ReductionPlan so that the simulated device's accumulation-ordering policy
// applies uniformly — exactly the places where cuDNN kernels reduce across
// threads on real hardware.
//
// Layout convention: the canonical kernel is gemm_nt,
//     C[M, N] = A[M, K] · B[N, K]^T
// i.e. both operands are row-major with the contraction axis K contiguous.
// gemm_nn takes B untransposed, C[M, N] = A[M, K] · B[K, N], and computes
// exactly what gemm_nt computes on transpose(B), so a backward pass reads its
// patch and weight matrices where they lie. A is always [M, K] row-major.
#pragma once

#include <cstdint>

#include "rng/generator.h"
#include "tensor/accumulate.h"
#include "tensor/tensor.h"

namespace nnr::tensor {

/// Per-launch execution policy for a reduction kernel. Aggregates the
/// accumulation order, the device's lane parallelism, and (for
/// nondeterministic orders) the scheduler entropy stream.
struct KernelPolicy {
  AccumOrder order = AccumOrder::kSequential;
  int cuda_cores = 0;                     // 0 => single lane
  rng::Generator* entropy = nullptr;      // required for kShardedShuffled

  [[nodiscard]] ReductionPlan make_plan(std::int64_t k) const {
    return ReductionPlan(order, lanes_for_cores(cuda_cores, k), k, entropy);
  }
};

/// C[M, N] = A[M, K] · B[N, K]^T. C must be preallocated with shape {M, N}.
///
/// Dispatch: every accumulation order runs a register-blocked, B-panel-packed,
/// host-threaded engine — bitwise identical to gemm_nt_reference by
/// construction (same lane partition, same unrolled accumulator order, same
/// lane combine; threading only distributes whole output elements). The plan
/// is made once per launch before dispatch, so kShardedShuffled draws one
/// shuffle per launch and applies it to every element on either path. Only
/// tiny problems take the reference loop, a pure perf cutoff.
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy);

/// C[M, N] = A[M, K] · B[K, N], B row-major and untransposed. C must be
/// preallocated with shape {M, N}.
///
/// One launch of gemm_nt's engine with B read in place: every output element
/// is bitwise equal to gemm_nt(a, transpose(b)), and a kShardedShuffled
/// launch draws the same one shuffle. The panel pack copies each k step's
/// columns as one run; where the tiny cutoff or a tile remainder needs
/// B's column j as a contiguous k-run, it is gathered first.
void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy);

/// The seed triple loop: one reduce_dot per output element. Kept as
/// the semantic definition of gemm_nt — the determinism suite asserts the
/// blocked engine matches it bit-for-bit, and the micro benches report the
/// speedup against it.
void gemm_nt_reference(const Tensor& a, const Tensor& b, Tensor& c,
                       const KernelPolicy& policy);

/// out[j, i] = in[i, j]. out must be preallocated with shape {cols, rows}.
/// Cache-blocked (square tiles) and host-threaded; pure data movement.
void transpose(const Tensor& in, Tensor& out);

/// Sum of all elements of `values` under the policy (one launch).
[[nodiscard]] float reduce_sum(std::span<const float> values,
                               const KernelPolicy& policy);

/// Row-wise sums of a [rows, cols] tensor: out[r] = sum_c in[r, c].
/// One plan (launch) shared by all rows, mirroring a single reduction kernel.
void reduce_rows(const Tensor& in, std::span<float> out,
                 const KernelPolicy& policy);

}  // namespace nnr::tensor
