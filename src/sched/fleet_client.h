// Client-side loops of the fleet work queue (the daemon side lives in
// sched/cache_server.h + sched/fleet_queue.h):
//
//   coordinator   `nnr_run --submit fig2,table2 --cache-url ...`
//                 enumerates the cacheable cells of the named studies,
//                 SUBMITs them once, then polls QUEUE_STAT printing a
//                 fleet-wide "[fleet] 412/960 cells" line until the queue
//                 drains. It never trains — workers do; afterwards the
//                 caller replays the studies locally (now warm) to produce
//                 byte-identical tables.
//
//   worker        `nnr_run --worker --cache-url ...`
//                 a stateless FETCH -> train -> PUT -> REPORT loop. Workers
//                 can join or leave mid-study: a fetched lease that dies
//                 with its worker returns the cell to the queue (TTL expiry
//                 or TCP disconnect). REPORT alone settles a cell, so a
//                 worker killed between PUT and REPORT costs no retrain:
//                 the next worker's load hits and it reports the cell
//                 served.
//
// The queue lives on the first daemon of the --cache-url map, shard(0) of
// the cache tier (a single daemon is a one-shard tier); entry traffic goes
// through the tier to each key's owner shard.
//
// Both loops degrade like the rest of the remote backend: an unreachable
// or restarted daemon costs retries (the daemon's queue snapshot survives a
// restart), never wrong results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace nnr::sched {

class RemoteCacheBackend;
class ShardedCacheBackend;

struct FleetSubmitOptions {
  /// QUEUE_STAT poll interval while waiting for the fleet to drain
  /// (jittered +-50% per sleep; see jitter_seed).
  std::int64_t poll_ms = 500;
  /// A failed SUBMIT RPC is retried this many times (jittered poll_ms
  /// apart) before the coordinator gives up. SUBMIT is idempotent — the
  /// daemon dedupes resubmitted keys — so a retry can only cost duplicate
  /// counts, never duplicate work; without it one dropped frame at submit
  /// time would abort a whole wave.
  std::int64_t submit_retries = 10;
  /// Seed of the poll-jitter stream; 0 = pid-derived (production default).
  std::uint64_t jitter_seed = 0;
};

struct FleetSubmitSummary {
  std::uint64_t submitted = 0;     // newly enqueued by this submit
  std::uint64_t duplicates = 0;    // already tracked by the queue
  std::uint64_t already_done = 0;  // already in the cache at submit time
  std::int64_t uncacheable = 0;    // replicates skipped (train locally)
  // Fleet-wide queue state once drained.
  std::uint64_t total = 0;
  std::uint64_t trained = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;  // gave up after FleetQueue::kMaxAttempts
};

/// Submits every cacheable (cell, replicate) of the named studies (ids per
/// sched/registry.h; the caller validates names first) to `backend`, the
/// queue daemon's client (shard(0) of the cache tier), and blocks until the
/// fleet drains the queue, printing the [fleet] progress line to stderr.
/// nullopt when the submit RPC fails submit_retries + 1 times (daemon
/// unreachable, or a pre-queue daemon answering kError). Daemon restarts
/// during the wait are tolerated: failed polls just retry after poll_ms.
[[nodiscard]] std::optional<FleetSubmitSummary> fleet_submit_and_wait(
    RemoteCacheBackend& backend, const std::vector<std::string>& studies,
    const FleetSubmitOptions& options = {});

struct FleetWorkerOptions {
  /// Sleep between FETCH attempts while the queue has outstanding work
  /// held by other workers (nothing fetchable right now). Every sleep in
  /// the worker is jittered +-50%, so N workers started together do not
  /// hammer a recovering daemon in phase.
  std::int64_t poll_ms = 500;
  /// Sleep while the daemon is unreachable before retrying.
  std::int64_t degraded_poll_ms = 1000;
  /// Exit once the queue reports no outstanding work (outstanding == 0,
  /// total > 0). False keeps the worker alive for the next submit wave.
  bool exit_when_drained = true;
  /// Test hook: stop after this many granted cells (0 = unlimited).
  std::int64_t max_cells = 0;
  /// A failed store of a finished training run is retried this many times
  /// (jittered store_retry_ms apart) before the cell is reported kFailed.
  /// Training is the expensive part: under a flaky network, re-sending a
  /// PUT is vastly cheaper than burning one of the queue's bounded
  /// attempts and retraining the cell elsewhere.
  std::int64_t store_retries = 3;
  std::int64_t store_retry_ms = 200;
  /// A failed REPORT RPC is retried this many times (jittered
  /// store_retry_ms apart). REPORT is the only way a cell settles, so a
  /// dropped frame should cost a retry rather than the lease: a lost lease
  /// requeues the cell and another worker settles it as served.
  std::int64_t report_retries = 3;
  /// Seed of the jitter stream; 0 = pid-derived (production default).
  std::uint64_t jitter_seed = 0;
};

struct FleetWorkerSummary {
  std::int64_t fetched = 0;
  std::int64_t trained = 0;
  std::int64_t served = 0;  // cache hit under the lease — no training
  std::int64_t failed = 0;  // reported kFailed (daemon may retry the cell)
};

/// The worker loop. Returns when the queue drains (see
/// FleetWorkerOptions::exit_when_drained) or max_cells is reached.
/// Queue RPCs (FETCH/REPORT) go to `tier.shard(0)`; entry traffic (load
/// before train, PUT after) goes through `tier`, so each result lands on
/// its key's owner shard.
FleetWorkerSummary fleet_run_worker(ShardedCacheBackend& tier,
                                    const FleetWorkerOptions& options = {});

}  // namespace nnr::sched
