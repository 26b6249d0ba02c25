#include "sched/fleet_client.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/trainer.h"
#include "net/backoff.h"
#include "sched/cell_key.h"
#include "sched/fleet_queue.h"
#include "sched/progress.h"
#include "sched/registry.h"
#include "sched/sharded_cache_backend.h"
#include "sched/study_plan.h"

namespace nnr::sched {

namespace {

/// Poll interval of the QUEUE_STAT wait and of a FETCH that found every
/// pending cell held by other workers.
constexpr std::int64_t kPollMs = 500;
/// Poll interval of a FETCH while the queue daemon is unreachable.
constexpr std::int64_t kDegradedPollMs = 1000;

}  // namespace

bool retry_within_lease(const RemoteCacheBackend& client,
                        const std::function<bool()>& attempt) {
  const RemoteCacheOptions& options = client.options();
  net::Backoff backoff(options.reconnect_backoff_ms,
                       options.reconnect_backoff_max_ms,
                       net::default_jitter_seed());
  return net::retry(backoff, options.lease_ttl_ms, attempt);
}

bool retry_until_answered(const RemoteCacheBackend& client,
                          const std::function<bool()>& request) {
  return retry_within_lease(client, [&] {
    // Not connected() alone: the heartbeat thread may reconnect between a
    // lost request and the check, which would pass the loss off as an
    // answer.
    const std::uint64_t connection = client.connection_id();
    return request() ||
           (connection != 0 && client.connection_id() == connection);
  });
}

std::optional<FleetQueue::Stats> fleet_submit_and_wait(
    RemoteCacheBackend& backend, const std::vector<StudyPlan>& plans) {
  std::int64_t uncacheable = 0;  // replicates skipped (train locally)
  std::vector<FleetWorkItem> items;
  // Studies share cells (fig1 and table2 share most V100 cells), so the
  // same key can enumerate twice; submit each once, under the first study
  // that names it. The daemon dedupes too — this just keeps the submitted
  // count honest.
  std::unordered_set<CellKey, CellKeyHash> seen;
  for (const StudyPlan& plan : plans) {
    const auto& cells = plan.cells();
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      const Cell& cell = cells[ci];
      if (!cell.cacheable()) {
        uncacheable += cell.replicates;
        continue;
      }
      for (std::int64_t r = 0; r < cell.replicates; ++r) {
        const CellKey key = cell_key(cell, cell.ids_for(r));
        if (!seen.insert(key).second) continue;
        items.push_back(FleetWorkItem{key, plan.name(),
                                      static_cast<std::uint32_t>(ci),
                                      static_cast<std::uint32_t>(r)});
      }
    }
  }

  // SUBMIT is idempotent (the daemon dedupes), so a lost frame or a
  // daemon mid-restart costs a retry, not the wave.
  std::optional<FleetQueue::SubmitStats> ack;
  (void)retry_within_lease(backend, [&] {
    ack = backend.fleet_submit(items);
    return ack.has_value();
  });
  if (!ack.has_value()) {
    std::fprintf(stderr,
                 "[fleet] submit failed: %s unreachable or predates the work "
                 "queue\n",
                 backend.describe().c_str());
    return std::nullopt;
  }
  std::fprintf(stderr,
               "[fleet] submitted %llu cells (%llu duplicate, %llu already "
               "cached, %lld uncacheable skipped)\n",
               static_cast<unsigned long long>(ack->enqueued),
               static_cast<unsigned long long>(ack->duplicates),
               static_cast<unsigned long long>(ack->already_done),
               static_cast<long long>(uncacheable));

  net::Jitter jitter(net::default_jitter_seed());
  ProgressPrinter printer(/*min_interval_ms=*/1000);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const auto stats = backend.fleet_queue_stat();
    if (stats.has_value()) {
      const auto elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const bool drained = stats->pending == 0 && stats->leased == 0;
      char line[192];
      std::snprintf(
          line, sizeof(line),
          "[fleet] %llu/%llu cells, trained=%llu, served=%llu, failed=%llu, "
          "eta=%s",
          static_cast<unsigned long long>(stats->done),
          static_cast<unsigned long long>(stats->total),
          static_cast<unsigned long long>(stats->trained),
          static_cast<unsigned long long>(stats->served),
          static_cast<unsigned long long>(stats->failed),
          format_eta(elapsed_ms, static_cast<std::int64_t>(stats->done),
                     static_cast<std::int64_t>(stats->total),
                     static_cast<std::int64_t>(stats->trained))
              .c_str());
      printer.emit(line, elapsed_ms, /*force=*/drained);
      if (drained) return stats;
    }
    // A failed poll is a daemon hiccup or restart — the queue snapshot
    // survives restarts, so just keep polling (jittered, so a herd of
    // coordinators spreads its stat load).
    std::this_thread::sleep_for(
        std::chrono::milliseconds(jitter.around(kPollMs)));
  }
}

FleetWorkerSummary fleet_run_worker(ShardedCacheBackend& tier) {
  FleetWorkerSummary summary;
  RemoteCacheBackend& queue = tier.shard(0);
  // Plans rebuilt once per study name; nullopt caches "unknown study" so a
  // skewed coordinator can't make us rebuild-and-fail per cell.
  std::unordered_map<std::string, std::optional<StudyPlan>> plans;
  const auto plan_for = [&](const std::string& name) -> const StudyPlan* {
    auto it = plans.find(name);
    if (it == plans.end()) {
      const StudyDef* def = find_study(name);
      it = plans
               .emplace(name, def != nullptr
                                  ? std::optional<StudyPlan>(def->make_plan())
                                  : std::nullopt)
               .first;
    }
    return it->second.has_value() ? &*it->second : nullptr;
  };

  net::Jitter jitter(net::default_jitter_seed());
  for (;;) {
    auto fetch = queue.fleet_fetch();
    if (!fetch.has_value() || !fetch->granted) {
      // outstanding == 0 with total > 0: the wave is complete. total == 0:
      // nothing submitted yet — wait for a coordinator. nullopt: the daemon
      // is unreachable right now.
      if (fetch.has_value() && fetch->outstanding == 0 && fetch->total > 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          jitter.around(fetch.has_value() ? kPollMs : kDegradedPollMs)));
      continue;
    }

    ++summary.fetched;
    const FleetWorkItem& work = fetch->item;
    const auto report = [&](net::ReportOutcome outcome) {
      // REPORT is the only settlement path, so an undelivered REPORT is
      // retried. A daemon answer such as kGone (the lease expired) is
      // final.
      (void)retry_until_answered(queue, [&] {
        return queue.fleet_report(work.key, fetch->lease_id, outcome)
            .has_value();
      });
    };

    const StudyPlan* plan = plan_for(work.study);
    const Cell* cell = nullptr;
    if (plan != nullptr && work.cell < plan->cells().size()) {
      cell = &plan->cells()[work.cell];
    }
    if (cell == nullptr ||
        static_cast<std::int64_t>(work.replicate) >= cell->replicates) {
      std::fprintf(stderr,
                   "[worker] %s cell=%u r=%u: no such cell here — version "
                   "skew with the coordinator?\n",
                   work.study.c_str(), work.cell, work.replicate);
      report(net::ReportOutcome::kFailed);
      ++summary.failed;
      continue;
    }
    const core::ReplicateIds ids =
        cell->ids_for(static_cast<std::int64_t>(work.replicate));
    if (cell_key(*cell, ids) != work.key) {
      // Same coordinates, different key: the environments disagree about
      // what this cell trains (NNR_QUICK/NNR_EPOCHS skew, usually).
      // Training it would PUT under a key nobody computed — fail it.
      std::fprintf(stderr,
                   "[worker] %s/%s r=%u: cell key mismatch — environment "
                   "skew with the coordinator (NNR_QUICK/NNR_EPOCHS?)\n",
                   work.study.c_str(), cell->id.c_str(), work.replicate);
      report(net::ReportOutcome::kFailed);
      ++summary.failed;
      continue;
    }

    if (tier.load(work.key).has_value()) {
      report(net::ReportOutcome::kServed);
      ++summary.served;
      continue;
    }

    core::RunResult result;
    bool trained_ok = true;
    try {
      result = cell->train(ids);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[worker] %s/%s r=%u: training failed: %s\n",
                   work.study.c_str(), cell->id.c_str(), work.replicate,
                   e.what());
      trained_ok = false;
    }
    // The training is in hand; an undelivered PUT (shard restarting,
    // dropped frame) is re-sent, far cheaper than reporting kFailed and
    // having another worker retrain the whole cell. The owner shard's
    // answer is final, even a refusal (disk full).
    bool stored = false;
    if (trained_ok) {
      (void)retry_until_answered(tier.shard(tier.shard_for(work.key)), [&] {
        stored = tier.store(work.key, result);
        return stored;
      });
    }
    if (!stored) {
      // A result we can't persist is indistinguishable from no result to
      // the rest of the fleet — let the queue retry it elsewhere.
      report(net::ReportOutcome::kFailed);
      ++summary.failed;
      continue;
    }
    report(net::ReportOutcome::kTrained);
    ++summary.trained;
    std::fprintf(stderr, "[worker] trained %s/%s r=%u\n", work.study.c_str(),
                 cell->id.c_str(), work.replicate);
  }
  return summary;
}

}  // namespace nnr::sched
