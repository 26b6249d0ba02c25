// Simulated asynchronous parameter-server training (Li et al. 2014, the
// "asynchronous gradients update" axis the paper names as future work in
// §6).
//
// One server owns the weights; W workers repeatedly (1) fetch the current
// weights, (2) compute a gradient on the next batch shard, (3) push the
// gradient back. Pushes from different workers interleave, so a gradient is
// applied to weights that may have advanced by up to W-1 updates since the
// worker fetched — the classic stale-gradient regime.
//
// The nondeterminism here is *qualitatively different* from the kernel-level
// IMPL noise elsewhere in this library: arrival order does not merely
// re-round a sum, it permutes the sequence of SGD updates and changes which
// weights each gradient was computed against. Async noise is therefore
// algorithmic-scale, not rounding-scale — the benches show it dominating
// every other tooling noise source. With fixed (round-robin) arrivals and
// deterministic kernels the simulation is bitwise reproducible, mirroring
// how a synchronous barrier restores determinism at a throughput cost.
#pragma once

#include <cstdint>

#include "core/trainer.h"

namespace nnr::distributed {

struct AsyncConfig {
  int workers = 4;
  /// true: per-round completion order is drawn from the scheduler-entropy
  /// channel (the realistic cluster regime). false: fixed round-robin
  /// arrivals — deterministic given deterministic kernels.
  bool shuffled_arrivals = true;
};

/// Trains one replicate of `job` under the asynchronous parameter-server
/// model and evaluates on the test split, on core::ReplicateRun (so the
/// job's optimizer and warm start hold). With workers == 1 the schedule
/// degenerates to sequential training (fetch -> compute -> apply per batch)
/// and the result equals core::train_replicate's bit for bit, minus the test
/// confidences.
[[nodiscard]] core::RunResult train_replicate_async(
    const core::TrainJob& job, const AsyncConfig& config,
    std::uint64_t replicate);

}  // namespace nnr::distributed
