// The replicate-cache backend seam.
//
// The scheduler (sched/scheduler.h) coordinates a study grid through five
// verbs — load, store, try_claim, claim, gc — and never cares where the
// bytes live. CacheBackend is that contract; today's implementations are
//
//   FsCacheBackend      (sched/fs_cache_backend.h)      a shared directory,
//                       claims are flock(2) locks the kernel releases when
//                       the holder dies;
//   RemoteCacheBackend  (sched/remote_cache_backend.h)  a TCP client of the
//                       nnr_cached daemon, claims are TTL leases kept alive
//                       by heartbeats and released on disconnect — the
//                       remote analogue of flock's release-on-death;
//   ShardedCacheBackend (sched/sharded_cache_backend.h) one remote client
//                       per daemon behind rendezvous routing — what a
//                       --cache-url builds, with one URL or many.
//
// Claim lifecycle (identical across backends; see ARCHITECTURE.md for the
// sequence diagrams):
//
//   free --try_claim--> held --release/drop--> free
//     \                   \--holder dies-----> free   (kernel / lease TTL)
//      \--try_claim while held--> refused (caller defers, then claim())
//
// Failure policy, shared by every backend: the cache is an accelerator,
// never a correctness dependency. A miss, a corrupt entry, an unreachable
// daemon, a failed store — all degrade to "train it locally"; no cache
// state can change a study's results, only its cost. Corrupt entries are
// detected by the consumer (checksum + embedded-key verification in
// serialize/run_result.h), counted in CacheStats::corrupt, and treated as
// misses.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/trainer.h"
#include "sched/cell_key.h"

namespace nnr::sched {

/// Cache activity counters (bytes are serialized entry sizes). Backends
/// keep one lifetime instance and additionally apply the same deltas to a
/// caller-supplied per-run instance, so per-run numbers stay exact even
/// when several runs share one backend (or one cache dir / daemon).
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;   // absent entries (corrupt ones count both)
  std::int64_t corrupt = 0;  // present but unreadable -> recomputed
  std::int64_t stores = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
};

/// What one gc() / eviction pass did, plus the cache's state afterwards.
struct GcStats {
  std::int64_t removed_tmp = 0;    // orphaned temp files swept
  std::int64_t removed_locks = 0;  // unheld lockfiles swept
  std::int64_t evicted = 0;        // entries evicted for the budget
  std::int64_t evicted_bytes = 0;
  std::int64_t entries = 0;  // entries remaining after the pass
  std::int64_t bytes = 0;    // bytes remaining after the pass
};

/// A held claim on one key's training slot, whatever the backend: an flock
/// fd, a remote lease, or a local no-op granted by a degraded remote
/// backend so its caller recomputes instead of deadlocking. Move-only;
/// releasing is destroying (or an explicit release()). A claim must not
/// outlive the backend that granted it.
class CacheClaim {
 public:
  /// Backend-private payload; its destructor performs the release.
  class Impl {
   public:
    virtual ~Impl() = default;
  };

  CacheClaim() = default;
  explicit CacheClaim(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
  CacheClaim(CacheClaim&&) = default;
  CacheClaim& operator=(CacheClaim&&) = default;
  CacheClaim(const CacheClaim&) = delete;
  CacheClaim& operator=(const CacheClaim&) = delete;

  [[nodiscard]] bool held() const noexcept { return impl_ != nullptr; }
  void release() { impl_.reset(); }

 private:
  std::unique_ptr<Impl> impl_;
};

class CacheBackend {
 public:
  virtual ~CacheBackend() = default;

  /// The result stored under `key`, or nullopt (miss). Corruption of any
  /// kind is a miss, never an exception. When `run` is non-null the same
  /// counter deltas are applied to it — this is how the scheduler keeps
  /// exact per-run stats while several runs share one cache.
  /// `count_miss = false` suppresses miss/corrupt counting (hits still
  /// count): the scheduler's revalidation loads — under a fresh claim, or
  /// after waiting out a peer's claim — would otherwise double-count the
  /// one real miss already recorded for that replicate.
  [[nodiscard]] virtual std::optional<core::RunResult> load(
      const CellKey& key, CacheStats* run = nullptr,
      bool count_miss = true) = 0;

  /// Persists `result` under `key`. Returns false on any failure and then
  /// counts nothing — a failed store is dropped silently (the next reader
  /// misses and recomputes).
  virtual bool store(const CellKey& key, const core::RunResult& result,
                     CacheStats* run = nullptr) = 0;

  /// Claims `key`'s training slot (non-blocking). nullopt means another
  /// worker or process holds the claim — it is training this key right
  /// now. Holding the claim while training and storing is what makes
  /// concurrent studies partition a shared grid.
  [[nodiscard]] virtual std::optional<CacheClaim> try_claim(
      const CellKey& key) = 0;

  /// Blocking claim — returns once the current holder finishes or died
  /// (kernel lock release / lease expiry). nullopt only on I/O failure
  /// (treat as "train it yourself").
  [[nodiscard]] virtual std::optional<CacheClaim> claim(const CellKey& key) = 0;

  /// Housekeeping pass: sweep orphans, evict to the configured budget,
  /// compact bookkeeping. Safe to run concurrently with live studies.
  virtual GcStats gc() = 0;

  /// Snapshot of the lifetime counters since construction.
  [[nodiscard]] virtual CacheStats stats() const = 0;

  /// Human-readable identity for logs ("dir:/path" / "tcp://host:port").
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Where a run's cache lives. `url` non-empty selects the remote tier (and
/// `dir` is ignored): a ShardedCacheBackend (sched/sharded_cache_backend.h)
/// routing keys across the comma-separated daemons it lists
/// (tcp://h1:p1,tcp://h2:p2,...), where a single URL is a one-shard tier.
/// Otherwise `dir` non-empty selects the filesystem backend; both empty
/// means no cache.
struct CacheConfig {
  std::string dir;           // NNR_CACHE_DIR / --cache-dir
  std::string url;           // NNR_CACHE_URL / --cache-url (tcp://host:port
                             // or a comma-separated shard map)
  std::int64_t budget = 0;   // NNR_CACHE_BUDGET / --cache-budget; 0 = none
};

/// Environment-derived config: NNR_CACHE_DIR, NNR_CACHE_URL,
/// NNR_CACHE_BUDGET (invalid/unset budget means unlimited).
[[nodiscard]] CacheConfig cache_config_from_env();

/// Builds the backend `config` selects, or nullptr when the config
/// disables caching. Throws std::invalid_argument on a malformed url list.
[[nodiscard]] std::unique_ptr<CacheBackend> make_cache_backend(
    const CacheConfig& config);

}  // namespace nnr::sched
