#include "sched/scheduler.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "runtime/thread_pool.h"
#include "sched/cell_key.h"
#include "sched/progress.h"

namespace nnr::sched {
namespace {

using Clock = std::chrono::steady_clock;

/// Progress bookkeeping shared by the pool workers. Counters are
/// worker-local atomics (per-study caches are only safe to read after the
/// run), so a progress line never races the cache's internal stats updates.
class ProgressReporter {
 public:
  ProgressReporter(bool print, std::int64_t total)
      : print_(print), total_(total), start_(Clock::now()) {}

  void complete(bool from_cache, bool was_trained) {
    if (from_cache) hits_.fetch_add(1, std::memory_order_relaxed);
    if (was_trained) trained_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (print_) maybe_emit(done);
  }

 private:
  void maybe_emit(std::int64_t done) {
    const auto now = Clock::now();
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
            .count();
    const std::int64_t trained = trained_.load(std::memory_order_relaxed);
    const std::int64_t hits = hits_.load(std::memory_order_relaxed);
    // ETA from trained-cell throughput (see sched/progress.h): a warm
    // prefix of instant cache hits must not forecast a near-zero ETA for
    // a remainder that still has to train.
    char line[160];
    std::snprintf(line, sizeof(line),
                  "[study] %lld/%lld cells, trained=%lld, hits=%lld, eta=%s",
                  static_cast<long long>(done),
                  static_cast<long long>(total_),
                  static_cast<long long>(trained),
                  static_cast<long long>(hits),
                  format_eta(elapsed_ms, done, total_, trained).c_str());
    // Periodic, not per-replicate: one line a second plus the final one
    // (forced past the rate limit; the printer still suppresses an exact
    // duplicate of the previous line).
    printer_.emit(line, elapsed_ms, /*force=*/done == total_);
  }

  const bool print_;
  const std::int64_t total_;
  const Clock::time_point start_;
  std::atomic<std::int64_t> done_{0};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> trained_{0};
  ProgressPrinter printer_;
};

}  // namespace

BatchResult run_batch(const std::vector<const StudyPlan*>& plans,
                      const RunOptions& opts) {
  struct WorkItem {
    std::size_t study;
    std::size_t cell;
    std::int64_t replicate;
    CellKey key{};
    bool keyed = false;  // cacheable cell: key computed, coalescing applies
  };

  BatchResult result;
  result.studies.resize(plans.size());
  std::vector<WorkItem> items;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const StudyPlan& plan = *plans[p];
    StudyResult& study = result.studies[p];
    study.cells.resize(plan.cells().size());
    for (std::size_t c = 0; c < plan.cells().size(); ++c) {
      const Cell& cell = plan.cells()[c];
      if (!cell.explicit_ids.empty() &&
          cell.explicit_ids.size() !=
              static_cast<std::size_t>(cell.replicates)) {
        throw std::invalid_argument(
            "cell '" + cell.id + "': explicit_ids holds " +
            std::to_string(cell.explicit_ids.size()) + " entries but " +
            std::to_string(cell.replicates) + " replicates are scheduled");
      }
      study.cells[c].resize(static_cast<std::size_t>(cell.replicates));
      for (std::int64_t r = 0; r < cell.replicates; ++r) {
        items.push_back({p, c, r, CellKey{}, false});
      }
    }
  }

  // Coalesce duplicate cacheable keys across the whole batch: the first
  // item with a key is its leader (scheduled normally); later duplicates
  // become followers, filled in-memory from the leader's slot. Safe by the
  // determinism contract — equal keys imply bitwise-equal results — and
  // what makes queuing overlapping studies cost one claim pass.
  std::vector<std::size_t> scheduled;
  scheduled.reserve(items.size());
  std::unordered_map<CellKey, std::size_t, CellKeyHash> leader_by_key;
  std::vector<std::vector<std::size_t>> followers(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    WorkItem& item = items[i];
    const Cell& cell = plans[item.study]->cells()[item.cell];
    if (cell.cacheable()) {
      item.key = cell_key(cell, cell.ids_for(item.replicate));
      item.keyed = true;
      const auto [it, inserted] = leader_by_key.try_emplace(item.key, i);
      if (!inserted) {
        followers[it->second].push_back(i);
        continue;
      }
    }
    scheduled.push_back(i);
  }

  ProgressReporter progress(opts.progress,
                            static_cast<std::int64_t>(items.size()));
  const int max_workers = opts.threads < 0 ? 1 : opts.threads;
  std::vector<std::atomic<std::int64_t>> trained_per_study(plans.size());
  std::vector<std::atomic<std::int64_t>> coalesced_per_study(plans.size());

  const auto slot_of = [&](const WorkItem& item) -> core::RunResult& {
    return result.studies[item.study]
        .cells[item.cell][static_cast<std::size_t>(item.replicate)];
  };

  // Completes item i and fans its result out to its coalesced followers
  // (the worker that finished the leader owns the followers' slots too, so
  // no other thread ever touches them).
  const auto finish = [&](std::size_t i, bool from_cache, bool was_trained) {
    const WorkItem& item = items[i];
    progress.complete(from_cache, was_trained);
    for (const std::size_t f : followers[i]) {
      const WorkItem& dup = items[f];
      slot_of(dup) = slot_of(item);
      coalesced_per_study[dup.study].fetch_add(1, std::memory_order_relaxed);
      progress.complete(/*from_cache=*/true, /*was_trained=*/false);
    }
  };

  const auto train_into = [&](const WorkItem& item) {
    const Cell& cell = plans[item.study]->cells()[item.cell];
    slot_of(item) = cell.train(cell.ids_for(item.replicate));
    trained_per_study[item.study].fetch_add(1, std::memory_order_relaxed);
  };

  // Settles a keyed replicate after its claim: phase 1's try_claim, or
  // phase 2's blocking claim, which returns none only on I/O failure.
  // Double-check first: a peer may have stored the key since the miss; that
  // one real miss is already counted, so this load must not count another.
  // Otherwise train it, and store it only under a held claim.
  const auto settle_claimed = [&](std::size_t idx, bool claim_held) {
    const WorkItem& item = items[idx];
    CacheStats* run_stats = &result.studies[item.study].cache;
    if (auto cached =
            opts.cache->load(item.key, run_stats, /*count_miss=*/false)) {
      slot_of(item) = std::move(*cached);
      finish(idx, true, false);
      return;
    }
    train_into(item);
    if (claim_held) opts.cache->store(item.key, slot_of(item), run_stats);
    finish(idx, false, true);
  };

  std::mutex deferred_mu;
  std::vector<std::size_t> deferred;

  // Phase 1: every scheduled replicate is loaded, trained under its key's
  // claim, or deferred because a concurrent process holds the claim (it is
  // training that key right now — duplicating its work would waste the
  // whole point of a shared cache).
  runtime::ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(scheduled.size()), 1,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const std::size_t idx = scheduled[static_cast<std::size_t>(i)];
          const WorkItem& item = items[idx];
          if (opts.cache == nullptr || !item.keyed) {
            train_into(item);
            finish(idx, false, true);
            continue;
          }
          if (auto cached = opts.cache->load(
                  item.key, &result.studies[item.study].cache)) {
            slot_of(item) = std::move(*cached);
            finish(idx, true, false);
          } else if (auto claim = opts.cache->try_claim(item.key)) {
            settle_claimed(idx, /*claim_held=*/true);
          } else {
            std::lock_guard<std::mutex> lock(deferred_mu);
            deferred.push_back(idx);
          }
        }
      },
      max_workers);

  // Phase 2: contended keys. A blocking claim returns once the peer's
  // training finishes (store -> load hit) or its holder died (miss ->
  // train it ourselves). Claims released by the kernel on process death —
  // or by the daemon on disconnect/lease expiry — mean a stale holder can
  // never wedge this loop.
  for (const std::size_t idx : deferred) {
    ++result.studies[items[idx].study].deferred;
  }
  if (!deferred.empty()) {
    runtime::ThreadPool::global().parallel_for(
        0, static_cast<std::int64_t>(deferred.size()), 1,
        [&](std::int64_t d0, std::int64_t d1) {
          for (std::int64_t d = d0; d < d1; ++d) {
            const std::size_t idx = deferred[static_cast<std::size_t>(d)];
            const auto claim = opts.cache->claim(items[idx].key);
            settle_claimed(idx, claim.has_value());
          }
        },
        max_workers);
  }

  for (std::size_t p = 0; p < plans.size(); ++p) {
    StudyResult& study = result.studies[p];
    study.trained = trained_per_study[p].load();
    study.coalesced = coalesced_per_study[p].load();
    result.trained += study.trained;
    result.deferred += study.deferred;
    result.coalesced += study.coalesced;
    result.cache.hits += study.cache.hits;
    result.cache.misses += study.cache.misses;
    result.cache.corrupt += study.cache.corrupt;
    result.cache.stores += study.cache.stores;
    result.cache.bytes_read += study.cache.bytes_read;
    result.cache.bytes_written += study.cache.bytes_written;
  }
  return result;
}

StudyResult run_plan(const StudyPlan& plan, const RunOptions& opts) {
  BatchResult batch = run_batch({&plan}, opts);
  return std::move(batch.studies[0]);
}

core::TextTable cache_stats_table(const StudyResult& result) {
  core::TextTable table({"Counter", "Value"});
  const auto row = [&table](const char* name, std::int64_t v) {
    table.add_row({name, std::to_string(v)});
  };
  row("hits", result.cache.hits);
  row("misses", result.cache.misses);
  row("corrupt", result.cache.corrupt);
  row("stores", result.cache.stores);
  row("bytes_read", result.cache.bytes_read);
  row("bytes_written", result.cache.bytes_written);
  row("trained", result.trained);
  return table;
}

std::string cache_stats_line(const CacheStats& cache, std::int64_t trained) {
  const auto n = [](std::int64_t v) { return std::to_string(v); };
  return "hits=" + n(cache.hits) + " misses=" + n(cache.misses) +
         " stores=" + n(cache.stores) + " corrupt=" + n(cache.corrupt) +
         " read=" + n(cache.bytes_read) +
         "B written=" + n(cache.bytes_written) + "B trained=" + n(trained);
}

}  // namespace nnr::sched
