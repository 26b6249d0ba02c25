// FsCacheBackend: hit/miss accounting, atomic stores, the failure policy —
// a corrupted, truncated, or foreign entry must degrade to a miss
// (recompute), never crash the study — plus the hardening surfaces:
// exact per-run stats, cross-process claims, LRU eviction under a byte
// budget by entry mtime (never an in-flight key), hits that refresh
// recency without writing a byte, GC of orphaned temp/lock files, and the
// environment's path to a backend.
#include "sched/fs_cache_backend.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/cache_backend.h"
#include "sched/sharded_cache_backend.h"
#include "serialize/atomic_file.h"
#include "test_util.h"

namespace nnr::sched {
namespace {

namespace fs = std::filesystem;

core::RunResult sample_result() {
  core::RunResult r;
  r.test_predictions = {0, 3, 1, 2};
  r.test_confidences = {0.25F, 0.5F, 0.125F, 1.0F};
  r.final_weights = {-1.5F, 0.0F, 2.25F};
  r.test_accuracy = 0.75;
  r.final_train_loss = 1.25;
  return r;
}

void expect_bitwise_equal(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.test_predictions, b.test_predictions);
  EXPECT_EQ(a.test_confidences, b.test_confidences);
  EXPECT_EQ(a.final_weights, b.final_weights);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
}

/// Sets `key`'s entry mtime (its LRU recency) `age` into the past. Stores
/// made microseconds apart can share one filesystem timestamp, so LRU tests
/// order their entries explicitly.
void backdate(const FsCacheBackend& cache, const CellKey& key,
              std::chrono::seconds age) {
  fs::last_write_time(cache.path_for(key),
                      fs::file_time_type::clock::now() - age);
}

/// Names of the files in `dir`, sorted.
std::vector<std::string> file_names(const fs::path& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Total size of the files in `dir` that are not cache entries (`*.rr`).
std::uintmax_t non_entry_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".rr") bytes += e.file_size();
  }
  return bytes;
}

class FsCacheBackendTest : public ::testing::Test {
 protected:
  testutil::TempDir tmp_;
  const fs::path dir_ = tmp_.path() / "cache";
};

TEST_F(FsCacheBackendTest, EmptyDirIsRejected) {
  // "No cache" is a null backend (make_cache_backend), never an fs backend
  // without a directory.
  EXPECT_THROW(FsCacheBackend(""), std::invalid_argument);
}

TEST_F(FsCacheBackendTest, MissOnEmptyCache) {
  FsCacheBackend cache(dir_.string());
  EXPECT_FALSE(cache.load({1, 2}).has_value());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST_F(FsCacheBackendTest, StoreThenLoadRoundTripsBitwise) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{0xAB, 0xCD};
  ASSERT_TRUE(cache.store(key, sample_result()));
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_bitwise_equal(*loaded, sample_result());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_GT(stats.bytes_written, 0);
  EXPECT_EQ(stats.bytes_read, stats.bytes_written);
}

TEST_F(FsCacheBackendTest, DistinctKeysAreDistinctEntries) {
  FsCacheBackend cache(dir_.string());
  ASSERT_TRUE(cache.store({1, 1}, sample_result()));
  EXPECT_FALSE(cache.load({1, 2}).has_value());
  EXPECT_TRUE(cache.load({1, 1}).has_value());
}

TEST_F(FsCacheBackendTest, CorruptedEntryFallsBackToMiss) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{7, 9};
  ASSERT_TRUE(cache.store(key, sample_result()));
  {
    // Flip one payload byte past the header.
    std::fstream f(cache.path_for(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(32);
    char c = 0;
    f.read(&c, 1);
    f.seekp(32);
    c = static_cast<char>(c ^ 0x5A);
    f.write(&c, 1);
  }
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST_F(FsCacheBackendTest, TruncatedEntryFallsBackToMiss) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{7, 10};
  ASSERT_TRUE(cache.store(key, sample_result()));
  fs::resize_file(cache.path_for(key), 20);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(FsCacheBackendTest, ForeignEntryUnderWrongKeyIsRejected) {
  // A cache file renamed to another key's address must not be served: the
  // embedded key is verified on load.
  FsCacheBackend cache(dir_.string());
  const CellKey key_a{100, 1};
  const CellKey key_b{100, 2};
  ASSERT_TRUE(cache.store(key_a, sample_result()));
  fs::copy_file(cache.path_for(key_a), cache.path_for(key_b));
  EXPECT_FALSE(cache.load(key_b).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_TRUE(cache.load(key_a).has_value());
}

TEST_F(FsCacheBackendTest, StoreOverwritesInPlace) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{5, 5};
  core::RunResult first = sample_result();
  ASSERT_TRUE(cache.store(key, first));
  core::RunResult second = sample_result();
  second.test_accuracy = 0.5;
  ASSERT_TRUE(cache.store(key, second));
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->test_accuracy, 0.5);
}

// The environment reaches a backend the way nnr_run and the benches build
// theirs: cache_config_from_env() + make_cache_backend().
std::unique_ptr<CacheBackend> backend_from_env() {
  return make_cache_backend(cache_config_from_env());
}

TEST_F(FsCacheBackendTest, FromEnvHonorsNnrCacheDir) {
  ::unsetenv("NNR_CACHE_URL");
  ::setenv("NNR_CACHE_DIR", dir_.string().c_str(), 1);
  const auto backend = backend_from_env();
  const auto* cache = dynamic_cast<const FsCacheBackend*>(backend.get());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->dir(), dir_.string());
  ::unsetenv("NNR_CACHE_DIR");
  EXPECT_EQ(backend_from_env(), nullptr) << "no cache configured, no backend";
}

TEST_F(FsCacheBackendTest, FromEnvHonorsBudget) {
  ::unsetenv("NNR_CACHE_URL");
  ::setenv("NNR_CACHE_DIR", dir_.string().c_str(), 1);
  const auto budget = [] {
    const auto backend = backend_from_env();
    return dynamic_cast<const FsCacheBackend&>(*backend).budget();
  };
  ::setenv("NNR_CACHE_BUDGET", "4096", 1);
  EXPECT_EQ(budget(), 4096);
  ::setenv("NNR_CACHE_BUDGET", "4096x", 1);  // junk -> unlimited, not 4096
  EXPECT_EQ(budget(), 0);
  ::unsetenv("NNR_CACHE_BUDGET");
  ::unsetenv("NNR_CACHE_DIR");
}

TEST_F(FsCacheBackendTest, FromEnvUrlWinsOverDir) {
  ::setenv("NNR_CACHE_DIR", dir_.string().c_str(), 1);
  ::setenv("NNR_CACHE_URL", "tcp://127.0.0.1:9", 1);
  const auto backend = backend_from_env();
  EXPECT_NE(dynamic_cast<const ShardedCacheBackend*>(backend.get()), nullptr);
  EXPECT_EQ(backend->describe(), "sharded(tcp://127.0.0.1:9)");
  ::unsetenv("NNR_CACHE_URL");
  ::unsetenv("NNR_CACHE_DIR");
}

TEST_F(FsCacheBackendTest, FailedStoreCountsNothingAndLeavesNoTemp) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{3, 4};
  // Occupy the entry's final path with a directory: the serialize step
  // succeeds but the atomic rename cannot, so the store must fail cleanly.
  fs::create_directories(cache.path_for(key));
  EXPECT_FALSE(cache.store(key, sample_result()));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stores, 0);
  EXPECT_EQ(stats.bytes_written, 0) << "failed store must not pollute bytes";
  // The temp file was cleaned up.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << "leftover temp file: " << entry.path();
  }
}

TEST_F(FsCacheBackendTest, BytesWrittenIsTheExactFileSize) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{8, 8};
  ASSERT_TRUE(cache.store(key, sample_result()));
  EXPECT_EQ(static_cast<std::uintmax_t>(cache.stats().bytes_written),
            fs::file_size(cache.path_for(key)));
}

TEST_F(FsCacheBackendTest, PerRunStatsReceiveTheSameDeltas) {
  FsCacheBackend cache(dir_.string());
  CacheStats run;
  const CellKey key{21, 22};
  EXPECT_FALSE(cache.load(key, &run).has_value());
  EXPECT_EQ(run.misses, 1);
  ASSERT_TRUE(cache.store(key, sample_result(), &run));
  EXPECT_EQ(run.stores, 1);
  ASSERT_TRUE(cache.load(key, &run).has_value());
  EXPECT_EQ(run.hits, 1);
  EXPECT_EQ(run.bytes_read, run.bytes_written);
  // The run-local view matches the cache-lifetime view built from the same
  // operations.
  const CacheStats total = cache.stats();
  EXPECT_EQ(total.hits, run.hits);
  EXPECT_EQ(total.misses, run.misses);
  EXPECT_EQ(total.stores, run.stores);
}

TEST_F(FsCacheBackendTest, ClaimIsExclusivePerKey) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{31, 32};
  auto claim = cache.try_claim(key);
  ASSERT_TRUE(claim.has_value());
  // Second claimant (another worker or, via a second cache object, another
  // process) must be refused while the first holds the key.
  FsCacheBackend peer(dir_.string());
  EXPECT_FALSE(peer.try_claim(key).has_value());
  EXPECT_TRUE(peer.try_claim(CellKey{31, 33}).has_value())
      << "claims are per-key, not cache-wide";
  claim.reset();
  EXPECT_TRUE(peer.try_claim(key).has_value());
}

class FsCacheBackendEvictionTest : public FsCacheBackendTest {
 protected:
  /// Bytes of one serialized sample_result entry (measured, not assumed).
  std::int64_t entry_bytes() {
    const fs::path probe_dir = dir_.string() + "_probe";
    fs::remove_all(probe_dir);
    FsCacheBackend probe(probe_dir.string());
    const CellKey key{0xFF, 0xFF};
    EXPECT_TRUE(probe.store(key, sample_result()));
    const auto size = fs::file_size(probe.path_for(key));
    fs::remove_all(probe_dir);
    return static_cast<std::int64_t>(size);
  }
};

TEST_F(FsCacheBackendEvictionTest, EvictsLeastRecentlyUsedDownToBudget) {
  const std::int64_t entry = entry_bytes();
  // Room for three entries, not four.
  FsCacheBackend cache(dir_.string(), 3 * entry + entry / 2);
  const CellKey a{1, 0}, b{2, 0}, c{3, 0}, d{4, 0};
  ASSERT_TRUE(cache.store(a, sample_result()));
  ASSERT_TRUE(cache.store(b, sample_result()));
  ASSERT_TRUE(cache.store(c, sample_result()));
  backdate(cache, a, std::chrono::seconds(30));
  backdate(cache, b, std::chrono::seconds(20));
  backdate(cache, c, std::chrono::seconds(10));
  // Touch `a`: it is now more recently used than `b` and `c`.
  ASSERT_TRUE(cache.load(a).has_value());
  // The fourth store exceeds the budget; the LRU entry (`b`) must go.
  ASSERT_TRUE(cache.store(d, sample_result()));
  EXPECT_TRUE(fs::exists(cache.path_for(a)));
  EXPECT_FALSE(fs::exists(cache.path_for(b))) << "LRU entry must be evicted";
  EXPECT_TRUE(fs::exists(cache.path_for(c)));
  EXPECT_TRUE(fs::exists(cache.path_for(d)));
  // Evicted entries are ordinary misses afterwards — the validity contract
  // (miss -> recompute) is untouched.
  CacheStats run;
  EXPECT_FALSE(cache.load(b, &run).has_value());
  EXPECT_EQ(run.corrupt, 0);
}

TEST_F(FsCacheBackendEvictionTest, NeverEvictsAnInFlightKey) {
  const std::int64_t entry = entry_bytes();
  // Room for two entries.
  FsCacheBackend cache(dir_.string(), 2 * entry + entry / 2);
  const CellKey a{1, 1}, b{2, 2}, c{3, 3};
  ASSERT_TRUE(cache.store(a, sample_result()));
  ASSERT_TRUE(cache.store(b, sample_result()));
  backdate(cache, a, std::chrono::seconds(20));
  backdate(cache, b, std::chrono::seconds(10));
  // `a` is the LRU candidate but is in flight (claim held, as the
  // scheduler holds it around a double-check/recompute).
  auto claim = cache.try_claim(a);
  ASSERT_TRUE(claim.has_value());
  ASSERT_TRUE(cache.store(c, sample_result()));
  EXPECT_TRUE(fs::exists(cache.path_for(a)))
      << "in-flight key must never be evicted";
  EXPECT_FALSE(fs::exists(cache.path_for(b)))
      << "eviction falls through to the next LRU entry";
  EXPECT_TRUE(fs::exists(cache.path_for(c)));
}

TEST_F(FsCacheBackendTest, HitsRefreshRecencyAndGrowNothing) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{41, 42};
  ASSERT_TRUE(cache.store(key, sample_result()));
  backdate(cache, key, std::chrono::seconds(60));
  const fs::file_time_type stored_at = fs::last_write_time(cache.path_for(key));
  const std::vector<std::string> names = file_names(dir_);

  for (int i = 0; i < 100; ++i) ASSERT_TRUE(cache.load(key).has_value());
  ASSERT_TRUE(cache.load_bytes(key).has_value());

  EXPECT_GT(fs::last_write_time(cache.path_for(key)), stored_at)
      << "a hit must refresh the entry's LRU recency";
  EXPECT_EQ(file_names(dir_), names) << "hits must create no file";
  EXPECT_LT(non_entry_bytes(dir_), 1024u)
      << "101 hits must not grow any bookkeeping file";
}

TEST_F(FsCacheBackendTest, FreshDirHoldsOnlyEntryAndKeyLock) {
  // A store and a claim on a fresh directory leave the entry and the key's
  // lockfile, and nothing else: no manifest, no cache-wide gc.lock.
  FsCacheBackend cache(dir_.string());
  const CellKey key{43, 44};
  ASSERT_TRUE(cache.store(key, sample_result()));
  ASSERT_TRUE(cache.try_claim(key).has_value());
  EXPECT_EQ(file_names(dir_),
            (std::vector<std::string>{key.hex() + ".lock", key.hex() + ".rr"}));
}

TEST_F(FsCacheBackendEvictionTest, UnlimitedBudgetNeverEvicts) {
  FsCacheBackend cache(dir_.string());  // budget 0 = unlimited
  for (std::uint64_t i = 1; i <= 16; ++i) {
    ASSERT_TRUE(cache.store(CellKey{i, i}, sample_result()));
  }
  for (std::uint64_t i = 1; i <= 16; ++i) {
    EXPECT_TRUE(fs::exists(cache.path_for(CellKey{i, i})));
  }
}

TEST_F(FsCacheBackendTest, GcSweepsOrphanedTempAndStaleLockFiles) {
  FsCacheBackend cache(dir_.string());
  const CellKey keep{10, 20};
  ASSERT_TRUE(cache.store(keep, sample_result()));
  // Orphan: writer pid that cannot exist. Live: this process's own pid.
  const fs::path orphan = dir_ / "0123456789abcdef0123456789abcdef.rr.tmp99999999.1";
  const fs::path live =
      dir_ / ("fedcba9876543210fedcba9876543210.rr.tmp" +
              std::to_string(::getpid()) + ".7");
  std::ofstream(orphan).put('x');
  std::ofstream(live).put('x');
  // Stale lockfile (unheld) vs a held claim.
  std::ofstream(dir_ / "00000000000000000000000000000001.lock").put('\n');
  auto held = cache.try_claim({0, 2});
  ASSERT_TRUE(held.has_value());

  const GcStats gc = cache.gc();
  EXPECT_EQ(gc.removed_tmp, 1);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(live)) << "a live writer's temp file must survive";
  EXPECT_EQ(gc.removed_locks, 1);
  EXPECT_TRUE(fs::exists(cache.lock_path_for({0, 2})))
      << "a held claim must survive GC";
  EXPECT_EQ(gc.entries, 1);
  EXPECT_EQ(static_cast<std::uintmax_t>(gc.bytes),
            fs::file_size(cache.path_for(keep)));
  // The surviving entry still loads.
  EXPECT_TRUE(cache.load(keep).has_value());
}

TEST_F(FsCacheBackendTest, GcKeepsTempFilesTheAtomicWriterNamesForALiveWriter) {
  // A daemon sharing this directory stages its queue snapshot and entries
  // through serialize::write_file_atomic; a gc run by an fs client must not
  // sweep them mid-write, or the daemon's rename fails and the write is
  // lost.
  FsCacheBackend cache(dir_.string());
  ASSERT_TRUE(cache.store({1, 1}, sample_result()));
  const fs::path snapshot_tmp =
      serialize::temp_path_for((dir_ / "fleet_queue.nnrq").string());
  const fs::path entry_tmp = serialize::temp_path_for(cache.path_for({2, 2}));
  std::ofstream(snapshot_tmp).put('x');
  std::ofstream(entry_tmp).put('x');

  EXPECT_EQ(cache.gc().removed_tmp, 0);
  EXPECT_TRUE(fs::exists(snapshot_tmp));
  EXPECT_TRUE(fs::exists(entry_tmp));
}

TEST_F(FsCacheBackendTest, GcEvictsToBudget) {
  FsCacheBackend fill(dir_.string());
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(fill.store(CellKey{i, 0}, sample_result()));
    // Entry 1 is the oldest store, entry 6 the newest.
    backdate(fill, CellKey{i, 0}, std::chrono::seconds(10 * (7 - i)));
  }
  const auto entry =
      static_cast<std::int64_t>(fs::file_size(fill.path_for(CellKey{1, 0})));
  FsCacheBackend bounded(dir_.string(), 2 * entry + entry / 2);
  const GcStats gc = bounded.gc();
  EXPECT_EQ(gc.evicted, 4);
  EXPECT_EQ(gc.entries, 2);
  EXPECT_LE(gc.bytes, bounded.budget());
  // LRU means the two newest stores survive.
  EXPECT_TRUE(fs::exists(bounded.path_for(CellKey{5, 0})));
  EXPECT_TRUE(fs::exists(bounded.path_for(CellKey{6, 0})));
}

TEST_F(FsCacheBackendTest, GcOnMissingDirIsInert) {
  FsCacheBackend missing((dir_ / "never_created").string());
  const GcStats empty = missing.gc();
  EXPECT_EQ(empty.entries, 0);
  EXPECT_FALSE(fs::exists(dir_ / "never_created"))
      << "gc must not create the cache dir";
}

}  // namespace
}  // namespace nnr::sched
