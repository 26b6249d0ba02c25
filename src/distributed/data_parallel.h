// Simulated synchronous data-parallel training (the paper's §6 future-work
// axis).
//
// Each step splits the global batch into `workers` shards; every shard runs
// forward/backward on its own (simulated) device context, producing a
// per-worker gradient; gradients are combined by a policy-driven all-reduce;
// one optimizer step applies the summed gradient. This is mathematically the
// single-device step — all divergence comes from float32 ordering:
//
//   - per-worker kernel scheduling (the single-device IMPL mechanism),
//   - cross-worker all-reduce arrival order (the new distributed mechanism),
//   - batch-norm statistics computed per shard (as real sync data-parallel
//     training does without SyncBN).
#pragma once

#include <cstdint>

#include "core/trainer.h"
#include "distributed/allreduce.h"

namespace nnr::distributed {

struct DistributedConfig {
  int workers = 4;
  /// Collective ordering under nondeterministic mode; deterministic mode
  /// always uses kTreeFixed.
  AllReduceAlgo default_allreduce = AllReduceAlgo::kRingShuffled;
};

/// Trains one replicate of `job` with simulated data-parallel workers and
/// evaluates on the test split, on core::ReplicateRun (so the job's optimizer
/// and warm start hold). With config.workers == 1 the result equals
/// core::train_replicate's bit for bit, minus the test confidences.
[[nodiscard]] core::RunResult train_replicate_distributed(
    const core::TrainJob& job, const DistributedConfig& config,
    std::uint64_t replicate);

}  // namespace nnr::distributed
