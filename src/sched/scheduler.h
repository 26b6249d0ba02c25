// The cell scheduler: runs every replicate of every cell of one StudyPlan —
// or a whole batch of plans — on the shared runtime::ThreadPool. The
// (cell, replicate) grid is flattened so the pool stays saturated even when
// a single cell has fewer replicates than workers; kernel-level
// parallel_for calls inside each replicate run inline on the worker that
// owns it (the pool is nest-safe), so the pool is never oversubscribed.
// Host scheduling is invisible to the simulation — results are bitwise
// identical for any worker count, cache state, or batch composition.
//
// Concurrent studies: when a cache backend is configured
// (sched/cache_backend.h — filesystem or remote), the scheduler claims each
// missing key before training it, so N processes (or threads) sharing one
// cache partition the grid — a contended key is deferred, then served from
// the peer's store once its claim releases (training it locally only if the
// peer died without storing). Because every completed replicate is durably
// keyed, an interrupted study resumed against the same cache trains exactly
// the remaining replicates and produces bitwise-identical results.
//
// Batched submission: run_batch takes several plans at once and coalesces
// duplicate cacheable CellKeys across the whole batch before scheduling —
// fig1 and table2 share most of their V100 cells, so queuing them together
// costs one claim pass and one training per unique key; the duplicates are
// filled in-memory from the leader's result (bit-identical by the
// determinism contract) and counted as `coalesced`, not trained or hit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/table.h"
#include "sched/cache_backend.h"
#include "sched/study_plan.h"

namespace nnr::sched {

struct RunOptions {
  /// Host-thread cap for this run: > 0 caps the fan-out below the shared
  /// pool's width, 0 uses the full pool (NNR_THREADS, else the hardware
  /// thread count), < 0 runs serially. A cap cannot widen the pool; a tool
  /// that wants its --threads flag to override NNR_THREADS (the documented
  /// flag > env > hardware precedence) resizes the pool first, as
  /// tools/nnr_run.cpp does.
  int threads = 0;
  /// When set, cacheable replicates are served from / stored into this
  /// backend (sched/cache_backend.h). nullptr trains everything.
  CacheBackend* cache = nullptr;
  /// Emit periodic "[study] <done>/<total> cells, trained=..., hits=...,
  /// eta=..." lines on stderr while the grid runs.
  bool progress = false;
};

struct StudyResult {
  /// results[c][r] is replicate r of plan.cells()[c], in replicate order —
  /// index semantics identical to core::run_replicates.
  std::vector<std::vector<core::RunResult>> cells;
  /// This study's exact cache activity (all zeros when no cache was
  /// configured): the backend applies per-run counter deltas, so the
  /// numbers stay exact even when concurrent runs share one cache.
  /// Invariant for a fully cacheable plan:
  ///   hits + trained + coalesced == total replicates.
  CacheStats cache;
  /// Replicates actually trained in-process (= cache misses + uncacheable
  /// cells). A warm-cache rerun of a fully cacheable plan reports 0.
  std::int64_t trained = 0;
  /// Replicates that were contended with a concurrent process (deferred,
  /// then loaded from its store or trained after its claim died).
  std::int64_t deferred = 0;
  /// Replicates whose CellKey duplicated an earlier one in the same batch
  /// and were filled in-memory from that leader's result.
  std::int64_t coalesced = 0;
};

/// A whole batch: per-plan results plus batch-wide totals (each total is
/// the sum of its per-study counterpart).
struct BatchResult {
  std::vector<StudyResult> studies;  // aligned with the `plans` argument
  CacheStats cache;
  std::int64_t trained = 0;
  std::int64_t deferred = 0;
  std::int64_t coalesced = 0;
};

/// Runs `plan` to completion. Throws std::invalid_argument when a cell's
/// explicit_ids is non-empty but does not match its replicate count. Safe
/// to share one cache across sequential or concurrent runs — per-run stats
/// are exact either way.
[[nodiscard]] StudyResult run_plan(const StudyPlan& plan,
                                   const RunOptions& opts = {});

/// Runs several plans as one scheduling pass (one flattened work list, one
/// claim pass, duplicate cacheable keys coalesced batch-wide). Plans must
/// outlive the call; null entries are not allowed. Same exception contract
/// as run_plan.
[[nodiscard]] BatchResult run_batch(const std::vector<const StudyPlan*>& plans,
                                    const RunOptions& opts = {});

/// One-row-per-counter table of a run's cache statistics, for
/// report::Exporter / stdout.
[[nodiscard]] core::TextTable cache_stats_table(const StudyResult& result);

/// One-line rendering of the same counters ("hits=... trained=...") for a
/// study or a whole batch — the single format every tool/bench logs, so
/// scripts can grep one shape.
[[nodiscard]] std::string cache_stats_line(const CacheStats& cache,
                                           std::int64_t trained);

}  // namespace nnr::sched
