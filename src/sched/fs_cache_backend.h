// Filesystem cache backend: the persistent, content-addressed replicate
// store behind a shared directory (NNR_CACHE_DIR / --cache-dir).
//
// Stores one serialized core::RunResult per CellKey under the cache dir,
// so a cell that appears in several studies — fig1 and table2 share most
// of their V100 cells — trains once and is then served from disk
// everywhere, bit for bit. The bit-exactness contract makes this safe: a
// key collision-free lookup returns exactly the bytes training would have
// produced (enforced by tests/sched/scheduler_test.cc).
//
// Failure policy: see sched/cache_backend.h — a corrupted, truncated, or
// mismatched entry is counted and treated as a miss (the scheduler
// recomputes); a failed store is dropped silently. Loads/stores are
// thread-safe — the scheduler calls them from pool workers.
//
// Cross-process coordination: every key has an advisory lockfile
// (`<hex>.lock`, flock-based — sched/file_lock.h). Claim states:
//
//   free   no process holds `<hex>.lock`; try_claim succeeds
//   held   the flock is held — by a pool worker here, a peer process, or
//          the nnr_cached daemon fronting this dir (leases hold the flock
//          too, so fs and remote clients interoperate on one dir)
//   dead   the holder exited or was SIGKILLed; the kernel dropped the
//          flock, so the key is immediately free — no stale-claim sweeper
//          is needed for liveness, gc() only tidies the leftover files
//
// A cache-wide lock (`gc.lock`) serializes eviction and GC.
//
// Size budget and eviction invariants (NNR_CACHE_BUDGET / --cache-budget,
// 0 = unlimited): a store that pushes the cache over budget evicts
// least-recently-used entries down to the budget. An entry's recency is its
// own file's modification time: a store writes a fresh file, and a hit
// (load/load_bytes) re-stamps it with one utimensat(2). Recency resolution
// is therefore the filesystem's timestamp granularity; entries that share a
// timestamp rank by key. Nothing else is kept for LRU, so a warm replay
// creates and grows no file. (A cache dir from an older build may still
// hold the access journal that once ranked LRU, or a `manifest`; nothing
// reads or writes either now, and both can be deleted.) An entry whose key
// lock is currently held (in-flight: being trained, stored, or
// double-checked) is never evicted; eviction holds the key's lock while
// unlinking so a concurrent claimant can never watch its entry vanish
// mid-claim. `gc()` additionally sweeps orphaned `.tmp` files (dead writer
// pids) and unheld lockfiles — exposed as `nnr_run --cache-gc`.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/trainer.h"
#include "sched/cache_backend.h"
#include "sched/cell_key.h"
#include "sched/file_lock.h"

namespace nnr::sched {

class FsCacheBackend final : public CacheBackend {
 public:
  /// Cache rooted at `dir` (created on first store or claim; throws
  /// std::invalid_argument when empty — "no cache" is a null backend, see
  /// make_cache_backend). `budget_bytes` > 0 bounds the cache's total entry
  /// size via LRU eviction; <= 0 means unlimited.
  explicit FsCacheBackend(std::string dir, std::int64_t budget_bytes = 0);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::int64_t budget() const noexcept { return budget_; }

  // CacheBackend interface (doc contracts in sched/cache_backend.h).
  [[nodiscard]] std::optional<core::RunResult> load(
      const CellKey& key, CacheStats* run = nullptr,
      bool count_miss = true) override;
  bool store(const CellKey& key, const core::RunResult& result,
             CacheStats* run = nullptr) override;
  [[nodiscard]] std::optional<CacheClaim> try_claim(
      const CellKey& key) override;
  [[nodiscard]] std::optional<CacheClaim> claim(const CellKey& key) override;
  GcStats gc() override;
  [[nodiscard]] CacheStats stats() const override;
  [[nodiscard]] std::string describe() const override {
    return "dir:" + dir_;
  }

  /// Raw entry payload for `key` — the exact file bytes, unvalidated (the
  /// daemon's GET path; the requesting client re-verifies checksum and
  /// embedded key, and counts its own hit or miss). Refreshes the entry's
  /// mtime, so remote reads advance LRU recency like local ones; counts
  /// nothing in stats().
  [[nodiscard]] std::optional<std::string> load_bytes(const CellKey& key);

  /// Stores pre-validated raw bytes under `key` (the daemon's PUT path, and
  /// store() after encoding): an atomic temp-file + rename
  /// (serialize/atomic_file.h), whose fresh file is the entry's recency,
  /// then the budget-eviction hook.
  bool store_bytes(const CellKey& key, std::string_view bytes,
                   CacheStats* run = nullptr);

  /// True when an entry file for `key` exists right now — a pure existence
  /// probe (the daemon's SUBMIT dedupe path). Unlike load/load_bytes it
  /// counts no hit/miss and leaves the mtime alone: a queue submission must
  /// not perturb the cache's stats or LRU recency.
  [[nodiscard]] bool has_entry(const CellKey& key) const;

  /// Cache file path for `key` (exposed for tests and tooling).
  [[nodiscard]] std::string path_for(const CellKey& key) const;
  /// Advisory lockfile path for `key`.
  [[nodiscard]] std::string lock_path_for(const CellKey& key) const;

 private:
  /// Stamps the entry's mtime with now (best-effort: an entry evicted since
  /// the read just stays gone).
  void touch(const CellKey& key) const;
  void ensure_dir() const;
  void maybe_evict();
  void evict_to_budget_locked(std::int64_t budget, GcStats* gc_stats);
  [[nodiscard]] std::string gc_lock_path() const;

  std::string dir_;
  std::int64_t budget_ = 0;
  /// Running estimate of total entry bytes for the budget pre-check (-1 =
  /// not yet seeded by a scan). Advanced by this process's stores, reset
  /// to the authoritative total on each eviction pass; peers track their
  /// own stores, so whoever crosses the budget runs the eviction.
  std::atomic<std::int64_t> approx_bytes_{-1};
  mutable std::mutex mu_;
  CacheStats stats_;
};

}  // namespace nnr::sched
