// FleetQueue state machine in isolation: submit dedup, FIFO fetch, the
// leased -> pending requeue paths (lease death, kFailed up to kMaxAttempts),
// wave reset, and snapshot durability — a reloaded queue must revert leased
// items to pending and keep done ones.
#include "sched/fleet_queue.h"

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace nnr::sched {
namespace {

FleetWorkItem item(std::uint64_t n, const std::string& study = "fig2") {
  FleetWorkItem it;
  it.key = CellKey{n, n * 31};
  it.study = study;
  it.cell = static_cast<std::uint32_t>(n % 7);
  it.replicate = static_cast<std::uint32_t>(n % 3);
  return it;
}

std::vector<FleetWorkItem> items(std::uint64_t count) {
  std::vector<FleetWorkItem> out;
  for (std::uint64_t n = 1; n <= count; ++n) out.push_back(item(n));
  return out;
}

const auto kNoEntry = [](const CellKey&) { return false; };
const auto kAlwaysAvailable = [](const CellKey&) { return true; };

TEST(FleetQueueTest, SubmitFetchReportLifecycle) {
  FleetQueue q("");
  const auto stats = q.submit(items(3), kNoEntry);
  EXPECT_EQ(stats.enqueued, 3u);
  EXPECT_EQ(q.stats().pending, 3u);

  const auto fetched = q.fetch_next(kAlwaysAvailable);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->key, item(1).key) << "fetch order is submit order";
  EXPECT_EQ(fetched->study, "fig2");
  EXPECT_TRUE(q.is_leased(fetched->key));
  EXPECT_EQ(q.stats().leased, 1u);
  EXPECT_EQ(q.outstanding(), 3u);

  EXPECT_TRUE(q.report(fetched->key, net::ReportOutcome::kTrained));
  const auto after = q.stats();
  EXPECT_EQ(after.done, 1u);
  EXPECT_EQ(after.trained, 1u);
  EXPECT_EQ(q.outstanding(), 2u);
}

TEST(FleetQueueTest, SubmitDeduplicatesTrackedKeys) {
  FleetQueue q("");
  EXPECT_EQ(q.submit(items(3), kNoEntry).enqueued, 3u);
  const auto again = q.submit(items(3), kNoEntry);
  EXPECT_EQ(again.enqueued, 0u);
  EXPECT_EQ(again.duplicates, 3u);
  EXPECT_EQ(q.total(), 3u);
}

TEST(FleetQueueTest, AlreadyCachedKeysGoStraightToDoneServed) {
  FleetQueue q("");
  const CellKey cached_key = item(2).key;
  const auto stats =
      q.submit(items(3), [&](const CellKey& k) { return k == cached_key; });
  EXPECT_EQ(stats.enqueued, 2u);
  EXPECT_EQ(stats.already_done, 1u);
  const auto s = q.stats();
  EXPECT_EQ(s.done, 1u);
  EXPECT_EQ(s.served, 1u);
  EXPECT_EQ(s.pending, 2u);
}

TEST(FleetQueueTest, FetchSkipsUnavailableKeysWithoutLosingThem) {
  FleetQueue q("");
  q.submit(items(2), kNoEntry);
  const CellKey busy = item(1).key;
  const auto fetched =
      q.fetch_next([&](const CellKey& k) { return !(k == busy); });
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->key, item(2).key);
  // The skipped key is still pending and fetchable once available.
  const auto retry = q.fetch_next(kAlwaysAvailable);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->key, busy);
}

TEST(FleetQueueTest, EmptyOrExhaustedQueueFetchesNothing) {
  FleetQueue q("");
  EXPECT_FALSE(q.fetch_next(kAlwaysAvailable).has_value());
  q.submit(items(1), kNoEntry);
  ASSERT_TRUE(q.fetch_next(kAlwaysAvailable).has_value());
  EXPECT_FALSE(q.fetch_next(kAlwaysAvailable).has_value())
      << "a leased item must not be fetched twice";
}

TEST(FleetQueueTest, LeaseDeathRequeuesAsPending) {
  FleetQueue q("");
  q.submit(items(1), kNoEntry);
  const auto fetched = q.fetch_next(kAlwaysAvailable);
  ASSERT_TRUE(fetched.has_value());
  q.release_to_pending(fetched->key);
  EXPECT_EQ(q.stats().pending, 1u);
  EXPECT_FALSE(q.is_leased(fetched->key));
  const auto refetched = q.fetch_next(kAlwaysAvailable);
  ASSERT_TRUE(refetched.has_value());
  EXPECT_EQ(refetched->key, fetched->key);
}

TEST(FleetQueueTest, FailedReportRequeuesUpToMaxAttemptsThenParks) {
  FleetQueue q("");
  q.submit(items(1), kNoEntry);
  for (std::uint32_t attempt = 1; attempt < FleetQueue::kMaxAttempts;
       ++attempt) {
    const auto fetched = q.fetch_next(kAlwaysAvailable);
    ASSERT_TRUE(fetched.has_value()) << "attempt " << attempt;
    EXPECT_TRUE(q.report(fetched->key, net::ReportOutcome::kFailed));
    EXPECT_EQ(q.stats().pending, 1u) << "failure below the cap requeues";
  }
  const auto last = q.fetch_next(kAlwaysAvailable);
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(q.report(last->key, net::ReportOutcome::kFailed));
  const auto s = q.stats();
  EXPECT_EQ(s.pending, 0u) << "kMaxAttempts failures park the item";
  EXPECT_EQ(s.done, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(q.outstanding(), 0u) << "a parked item must not wedge the drain";
}

TEST(FleetQueueTest, ReportForUnknownKeyIsRejected) {
  FleetQueue q("");
  q.submit(items(1), kNoEntry);
  EXPECT_FALSE(q.report(CellKey{999, 999}, net::ReportOutcome::kTrained));
}

TEST(FleetQueueTest, SubmitOntoDrainedQueueStartsAFreshWave) {
  FleetQueue q("");
  q.submit(items(2), kNoEntry);
  for (int i = 0; i < 2; ++i) {
    const auto fetched = q.fetch_next(kAlwaysAvailable);
    ASSERT_TRUE(fetched.has_value());
    ASSERT_TRUE(q.report(fetched->key, net::ReportOutcome::kTrained));
  }
  ASSERT_EQ(q.outstanding(), 0u);
  // New wave: the old done items leave the tally so progress restarts 0/N
  // (the keys would dedupe-collide otherwise, freezing the fleet line).
  const auto stats = q.submit({item(10), item(11), item(12)}, kNoEntry);
  EXPECT_EQ(stats.enqueued, 3u);
  const auto s = q.stats();
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.done, 0u);
  EXPECT_EQ(s.trained, 0u);
}

TEST(FleetQueueTest, SnapshotRoundTripsAcrossRestart) {
  const testutil::TempDir dir;
  const std::string snap = (dir.path() / "fleet_queue.nnrq").string();

  {
    FleetQueue q(snap);
    q.load();
    q.submit(items(4), kNoEntry);
    const auto fetched = q.fetch_next(kAlwaysAvailable);  // -> leased
    ASSERT_TRUE(fetched.has_value());
    ASSERT_TRUE(q.report(item(2).key, net::ReportOutcome::kTrained));
    // q dies here with: 1 leased, 2 pending, 1 done(trained).
  }

  FleetQueue restored(snap);
  restored.load();
  const auto s = restored.stats();
  EXPECT_EQ(s.total, 4u);
  EXPECT_EQ(s.pending, 3u) << "leased items revert to pending on restart "
                              "(a restart is a fleet-wide lease expiry)";
  EXPECT_EQ(s.leased, 0u);
  EXPECT_EQ(s.done, 1u);
  EXPECT_EQ(s.trained, 1u);
  // The restored items carry their full work coordinates.
  const auto fetched = restored.fetch_next(kAlwaysAvailable);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->study, "fig2");
}

TEST(FleetQueueTest, CorruptSnapshotIsDiscardedNotFatal) {
  const testutil::TempDir dir;
  const std::string snap = (dir.path() / "fleet_queue.nnrq").string();
  {
    FleetQueue q(snap);
    q.submit(items(2), kNoEntry);
  }
  {  // Flip a byte in the middle of the snapshot.
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(12);
    f.put('\x7F');
  }
  FleetQueue restored(snap);
  restored.load();
  EXPECT_EQ(restored.total(), 0u)
      << "a corrupt snapshot degrades to an empty queue (resubmission), "
         "never a wedged daemon";
}

TEST(FleetQueueTest, EmptyPathDisablesPersistence) {
  FleetQueue q("");
  q.submit(items(1), kNoEntry);  // must not try to write anywhere
  q.load();                      // and load must be a no-op
  EXPECT_EQ(q.total(), 1u);
}

}  // namespace
}  // namespace nnr::sched
