// Client-side loops of the fleet work queue (the daemon side lives in
// sched/cache_server.h + sched/fleet_queue.h):
//
//   coordinator   `nnr_run --submit fig2,table2 --cache-url ...`
//                 enumerates the cacheable cells of the studies' plans,
//                 SUBMITs them once, then polls QUEUE_STAT printing a
//                 fleet-wide "[fleet] 412/960 cells" line until the queue
//                 drains. It never trains — workers do; afterwards the
//                 caller replays the same plans locally (now warm) to
//                 produce byte-identical tables.
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
// restart), never wrong results. Every retry follows one rule,
// retry_within_lease(); the polls that wait for queue state sleep a fixed
// interval, jittered +-50% so N processes started together do not hammer a
// recovering daemon in phase.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sched/fleet_queue.h"

namespace nnr::sched {

class RemoteCacheBackend;
class ShardedCacheBackend;
class StudyPlan;

/// The fleet's retry rule: runs `attempt` through net::retry for up to one
/// of `client`'s lease TTLs — the time the fleet already lets a cell sit
/// unreported — paced by the client's reconnect backoff, so retries land
/// as its reconnect windows open. The coordinator's PING and SUBMIT and the
/// worker's PUT and REPORT all use it. Returns whether an attempt succeeded.
bool retry_within_lease(const RemoteCacheBackend& client,
                        const std::function<bool()>& attempt);

/// retry_within_lease() for one request on `client` whose refusal is final
/// (the worker's PUT and REPORT): `request` is re-sent only while it fails
/// undelivered, and the retry ends once it succeeds or the daemon answers —
/// even a refusal such as a full disk. Returns whether it was answered.
bool retry_until_answered(const RemoteCacheBackend& client,
                          const std::function<bool()>& request);

/// Submits every cacheable (cell, replicate) of `plans` to `backend`, the
/// queue daemon's client (shard(0) of the cache tier), under each plan's
/// name; workers rebuild the plan from that name (sched/registry.h), so
/// the plans must be registry studies. Blocks until the fleet drains the
/// queue, printing the [fleet] progress line to stderr, and returns the
/// drained queue's stats. SUBMIT is idempotent — the daemon dedupes
/// resubmitted keys — so it is retried within one lease TTL; nullopt when
/// it never gets through (daemon unreachable, or a pre-queue daemon
/// answering kError). Daemon restarts during the wait are tolerated: a
/// failed QUEUE_STAT poll just polls again.
[[nodiscard]] std::optional<FleetQueue::Stats> fleet_submit_and_wait(
    RemoteCacheBackend& backend, const std::vector<StudyPlan>& plans);

struct FleetWorkerSummary {
  std::int64_t fetched = 0;
  std::int64_t trained = 0;
  std::int64_t served = 0;  // cache hit under the lease — no training
  std::int64_t failed = 0;  // reported kFailed (daemon may retry the cell)
};

/// The worker loop. Returns once the queue reports no outstanding work
/// (outstanding == 0, total > 0). Queue RPCs (FETCH/REPORT) go to
/// `tier.shard(0)`; entry traffic (load before train, PUT after) goes
/// through `tier`, so each result lands on its key's owner shard. PUT and
/// REPORT go through retry_until_answered().
FleetWorkerSummary fleet_run_worker(ShardedCacheBackend& tier);

}  // namespace nnr::sched
