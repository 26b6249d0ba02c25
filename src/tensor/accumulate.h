// Reduction-order policies: the physical origin of implementation noise.
//
// On a real GPU, a reduction (matmul inner product, batch-norm statistics,
// gradient accumulation) is split across thousands of threads whose partial
// results are combined in whatever order the hardware scheduler retires them.
// Because float32 addition is not associative, each ordering yields a
// slightly different rounded result — the paper's "random floating-point
// accumulation ordering" (§2, Parallel Execution).
//
// We model a reduction as:
//   1. split the K addends into `lanes` contiguous chunks (thread blocks),
//   2. sum each chunk sequentially (a thread's private register),
//   3. combine the per-lane partials in a policy-defined order.
//
// Orders:
//   kSequential      - single lane, input order. Deterministic given input
//                      layout; this is the TPU/systolic model (and is why
//                      TPUs stay input-order-sensitive, paper Fig. 6).
//   kPairwiseTree    - fixed balanced binary tree over lanes. Deterministic;
//                      this is the "deterministic kernel" (cuDNN patch) model.
//   kShardedShuffled - per-launch random permutation of lane-combine order,
//                      drawn from the scheduler-entropy stream. This is the
//                      default GPU model; entropy grows with lane count,
//                      i.e. with CUDA core count.
//
// All arithmetic is float32 end to end — the divergence produced here is
// genuine rounding divergence, not injected noise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/generator.h"

namespace nnr::tensor {

enum class AccumOrder {
  kSequential,
  kPairwiseTree,
  kShardedShuffled,
};

/// A reduction "kernel launch" plan: lane count plus the combine order for
/// this launch. Plans are created once per kernel invocation (one GEMM, one
/// batch-norm reduction, ...) mirroring how a scheduler interleaving is fixed
/// per launch but varies across launches.
class ReductionPlan {
 public:
  /// Builds a plan for reducing `k` addends.
  ///
  /// `entropy` supplies the scheduler interleaving and must be non-null for
  /// kShardedShuffled; it is ignored for deterministic orders.
  ReductionPlan(AccumOrder order, int lanes, std::int64_t k,
                rng::Generator* entropy);

  /// Reduces `values` (size == k) to a float32 scalar under this plan.
  [[nodiscard]] float reduce(std::span<const float> values) const noexcept;

  /// Reduces the elementwise product a[i]*b[i] (dot product) under this plan.
  [[nodiscard]] float reduce_dot(std::span<const float> a,
                                 std::span<const float> b) const noexcept;

  [[nodiscard]] AccumOrder order() const noexcept { return order_; }
  [[nodiscard]] int lanes() const noexcept { return lanes_; }
  [[nodiscard]] std::span<const std::uint32_t> combine_order() const noexcept {
    return combine_order_;
  }

  /// Combines per-lane partial sums (size == lanes()) exactly as the full
  /// reductions do — exposed so the blocked GEMM fast path can reproduce the
  /// reference combine bit-for-bit from externally computed lane partials.
  /// `partials` is clobbered for kPairwiseTree (in-place tree).
  [[nodiscard]] float combine_partials(std::span<float> partials) const noexcept {
    return combine(partials);
  }

 private:
  [[nodiscard]] float combine(std::span<float> partials) const noexcept;

  AccumOrder order_;
  int lanes_;
  std::int64_t k_;
  std::vector<std::uint32_t> combine_order_;  // permutation of lanes
};

/// Effective lane count for a device with `cuda_cores` cores reducing `k`
/// addends: roughly one lane per 128 cores, clamped to [1, k].
[[nodiscard]] int lanes_for_cores(int cuda_cores, std::int64_t k) noexcept;

/// Lane `lane` of `lanes` owns the contiguous addend chunk [begin, end) of a
/// k-element reduction. Shared by the reference reductions and the blocked
/// GEMM fast path so both partition k identically (a bit-exactness
/// precondition, not just a convention).
struct LaneRange {
  std::int64_t begin;
  std::int64_t end;
};

[[nodiscard]] inline LaneRange lane_range(int lane, int lanes,
                                          std::int64_t k) noexcept {
  const std::int64_t chunk = (k + lanes - 1) / lanes;
  const std::int64_t begin = std::min<std::int64_t>(lane * chunk, k);
  const std::int64_t end = std::min<std::int64_t>(begin + chunk, k);
  return {begin, end};
}

}  // namespace nnr::tensor
