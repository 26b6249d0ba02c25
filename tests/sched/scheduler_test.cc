// The cell scheduler and the cache-validity contract:
//
//   1. run_plan reproduces core::run_replicates bit for bit (the scheduler
//      is pure measurement infrastructure).
//   2. A replicate loaded from the cache is bitwise identical to the same
//      replicate computed fresh — for CONTROL and ALGO+IMPL alike.
//   3. A warm-cache rerun trains nothing (trained == 0, zero misses).
//   4. A corrupted cache entry degrades to recompute with identical results.
//   5. Changing cell content (epochs) invalidates the cached entries.
#include "sched/scheduler.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "core/replicates.h"
#include "data/synth_images.h"
#include "nn/zoo.h"
#include "sched/cell_key.h"
#include "sched/fs_cache_backend.h"
#include "test_util.h"

namespace nnr::sched {
namespace {

namespace fs = std::filesystem;

void expect_bitwise_equal(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.test_predictions, b.test_predictions);
  EXPECT_EQ(a.test_confidences, b.test_confidences);
  EXPECT_EQ(a.final_weights, b.final_weights);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
}

class SchedulerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::ClassificationDataset(data::synth_cifar10(96, 48));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static core::Task tiny_task() {
    core::Task task;
    task.name = "tiny";
    task.dataset = *dataset_;
    task.make_model = [] { return nn::small_cnn(10, true); };
    task.recipe = core::cifar_recipe(2);
    task.default_replicates = 2;
    return task;
  }

  static StudyPlan tiny_plan(core::NoiseVariant variant,
                             std::int64_t replicates) {
    StudyPlan plan("sched_test");
    plan.add_cell(plan.own_task(tiny_task()), variant, hw::v100(),
                  replicates);
    return plan;
  }

  testutil::TempDir tmp_;
  const fs::path cache_dir_ = tmp_.path() / "cache";
  static data::ClassificationDataset* dataset_;
};

data::ClassificationDataset* SchedulerTest::dataset_ = nullptr;

RunOptions with_threads(int threads) {
  RunOptions opts;
  opts.threads = threads;
  return opts;
}

TEST_F(SchedulerTest, MatchesRunReplicatesBitwise) {
  const StudyPlan plan = tiny_plan(core::NoiseVariant::kAlgoPlusImpl, 2);
  const StudyResult study = run_plan(plan, with_threads(1));
  const auto reference =
      core::run_replicates(plan.cells()[0].job, 2, /*threads=*/1);
  ASSERT_EQ(study.cells.size(), 1u);
  ASSERT_EQ(study.cells[0].size(), reference.size());
  for (std::size_t r = 0; r < reference.size(); ++r) {
    expect_bitwise_equal(study.cells[0][r], reference[r]);
  }
  EXPECT_EQ(study.trained, 2);
}

TEST_F(SchedulerTest, ResultInvariantToThreadCap) {
  const StudyPlan plan = tiny_plan(core::NoiseVariant::kAlgoPlusImpl, 3);
  const StudyResult serial = run_plan(plan, with_threads(-1));
  const StudyResult wide = run_plan(plan, with_threads(3));
  for (std::size_t r = 0; r < 3; ++r) {
    expect_bitwise_equal(serial.cells[0][r], wide.cells[0][r]);
  }
}

// The acceptance-criterion test: cached == fresh, bit for bit, across both
// the deterministic and the fully noisy variant.
class SchedulerCacheContract
    : public SchedulerTest,
      public ::testing::WithParamInterface<core::NoiseVariant> {};

TEST_P(SchedulerCacheContract, CachedReplicateIsBitwiseIdenticalToFresh) {
  const StudyPlan plan = tiny_plan(GetParam(), 2);
  const StudyResult fresh = run_plan(plan);

  FsCacheBackend cache(cache_dir_.string());
  RunOptions opts;
  opts.cache = &cache;
  const StudyResult cold = run_plan(plan, opts);
  EXPECT_EQ(cold.cache.misses, 2);
  EXPECT_EQ(cold.cache.stores, 2);
  EXPECT_EQ(cold.trained, 2);

  const StudyResult warm = run_plan(plan, opts);
  EXPECT_EQ(warm.cache.hits, 2);
  EXPECT_EQ(warm.cache.misses, 0);
  EXPECT_EQ(warm.trained, 0) << "warm cache must retrain nothing";

  for (std::size_t r = 0; r < 2; ++r) {
    expect_bitwise_equal(cold.cells[0][r], fresh.cells[0][r]);
    expect_bitwise_equal(warm.cells[0][r], fresh.cells[0][r]);
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, SchedulerCacheContract,
                         ::testing::Values(core::NoiseVariant::kControl,
                                           core::NoiseVariant::kAlgoPlusImpl),
                         [](const auto& info) {
                           return info.param == core::NoiseVariant::kControl
                                      ? "Control"
                                      : "AlgoPlusImpl";
                         });

TEST_F(SchedulerTest, CorruptedCacheEntryRecomputesIdentically) {
  const StudyPlan plan = tiny_plan(core::NoiseVariant::kControl, 1);
  FsCacheBackend cache(cache_dir_.string());
  RunOptions opts;
  opts.cache = &cache;
  const StudyResult cold = run_plan(plan, opts);

  // Truncate the single entry on disk.
  const Cell& cell = plan.cells()[0];
  const std::string path = cache.path_for(cell_key(cell, cell.ids_for(0)));
  ASSERT_TRUE(fs::exists(path));
  fs::resize_file(path, 16);

  const StudyResult recovered = run_plan(plan, opts);
  EXPECT_EQ(recovered.cache.corrupt, 1);
  EXPECT_EQ(recovered.trained, 1) << "corrupt entry must be recomputed";
  expect_bitwise_equal(recovered.cells[0][0], cold.cells[0][0]);

  // The recompute re-stored a good entry; the next run is a pure hit.
  const StudyResult warm = run_plan(plan, opts);
  EXPECT_EQ(warm.cache.hits, 1);
  EXPECT_EQ(warm.trained, 0);
}

TEST_F(SchedulerTest, ChangedEpochsMissTheCache) {
  FsCacheBackend cache(cache_dir_.string());
  RunOptions opts;
  opts.cache = &cache;
  (void)run_plan(tiny_plan(core::NoiseVariant::kControl, 1), opts);

  StudyPlan longer = tiny_plan(core::NoiseVariant::kControl, 1);
  longer.cells()[0].job.recipe.epochs += 1;
  const StudyResult rerun = run_plan(longer, opts);
  EXPECT_EQ(rerun.cache.hits, 0);
  EXPECT_EQ(rerun.trained, 1);
}

TEST_F(SchedulerTest, UncacheableCellAlwaysTrains) {
  StudyPlan plan("runner_test");
  std::atomic<int> counter{0};
  Cell& cell = plan.add_cell(plan.own_task(tiny_task()),
                             core::NoiseVariant::kControl, hw::v100(), 1);
  cell.runner = [&counter](const core::TrainJob& job, core::ReplicateIds ids) {
    counter.fetch_add(1);
    return core::train_replicate(job, ids);
  };  // no runner_id -> uncacheable
  FsCacheBackend cache(cache_dir_.string());
  RunOptions opts;
  opts.cache = &cache;
  (void)run_plan(plan, opts);
  (void)run_plan(plan, opts);
  EXPECT_EQ(counter.load(), 2);
  EXPECT_EQ(cache.stats().stores, 0);
}

TEST_F(SchedulerTest, NamedRunnerIsCachedAndReplayed) {
  StudyPlan plan("runner_test");
  std::atomic<int> counter{0};
  Cell& cell = plan.add_cell(plan.own_task(tiny_task()),
                             core::NoiseVariant::kControl, hw::v100(), 1);
  cell.runner_id = "counting";
  cell.runner = [&counter](const core::TrainJob& job, core::ReplicateIds ids) {
    counter.fetch_add(1);
    return core::train_replicate(job, ids);
  };
  FsCacheBackend cache(cache_dir_.string());
  RunOptions opts;
  opts.cache = &cache;
  const StudyResult cold = run_plan(plan, opts);
  const StudyResult warm = run_plan(plan, opts);
  EXPECT_EQ(counter.load(), 1) << "second run must be served from the cache";
  expect_bitwise_equal(warm.cells[0][0], cold.cells[0][0]);
}

TEST_F(SchedulerTest, MismatchedExplicitIdsThrow) {
  StudyPlan plan("factorial_test");
  Cell& cell = plan.add_cell(plan.own_task(tiny_task()),
                             core::NoiseVariant::kControl, hw::v100(), 3);
  cell.explicit_ids = {{0, 0}, {1, 1}};  // 2 ids for 3 replicates
  EXPECT_THROW((void)run_plan(plan), std::invalid_argument);
}

TEST_F(SchedulerTest, FactorialExplicitIdsMatchDirectTraining) {
  StudyPlan plan("factorial_test");
  Cell& cell = plan.add_cell(plan.own_task(tiny_task()),
                             core::NoiseVariant::kAlgoPlusImpl, hw::v100(), 2);
  cell.explicit_ids = {{0, 1}, {1, 0}};
  const StudyResult study = run_plan(plan, with_threads(1));
  expect_bitwise_equal(study.cells[0][0],
                       core::train_replicate(cell.job, {0, 1}));
  expect_bitwise_equal(study.cells[0][1],
                       core::train_replicate(cell.job, {1, 0}));
}

// Two runs sharing one cache dir via separate cache objects — exactly the
// posture of two `nnr_run --study` processes — must partition the grid:
// every key trains exactly once between them, per-run stats are exact
// (hits + trained == total for each run, impossible with snapshot deltas),
// and both observe bitwise-identical results.
TEST_F(SchedulerTest, ConcurrentRunsPartitionASharedCache) {
  constexpr std::int64_t kReplicates = 4;
  const StudyPlan plan_a = tiny_plan(core::NoiseVariant::kControl, kReplicates);
  const StudyPlan plan_b = tiny_plan(core::NoiseVariant::kControl, kReplicates);
  FsCacheBackend cache_a(cache_dir_.string());
  FsCacheBackend cache_b(cache_dir_.string());
  StudyResult result_a;
  StudyResult result_b;
  std::thread runner_a([&] {
    RunOptions opts;
    opts.threads = -1;  // serial inside; the two OS threads contend
    opts.cache = &cache_a;
    result_a = run_plan(plan_a, opts);
  });
  std::thread runner_b([&] {
    RunOptions opts;
    opts.threads = -1;
    opts.cache = &cache_b;
    result_b = run_plan(plan_b, opts);
  });
  runner_a.join();
  runner_b.join();

  EXPECT_EQ(result_a.trained + result_b.trained, kReplicates)
      << "each key must train exactly once across the two runs";
  for (const StudyResult* result : {&result_a, &result_b}) {
    EXPECT_EQ(result->cache.hits + result->trained, kReplicates)
        << "per-run stats must be exact under concurrency";
    EXPECT_EQ(result->cache.corrupt, 0);
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(kReplicates); ++r) {
    expect_bitwise_equal(result_a.cells[0][r], result_b.cells[0][r]);
  }
}

// The resume contract: a study interrupted mid-grid (here: a prefix of the
// replicate grid already cached, as a killed run leaves behind) trains
// exactly the remaining replicates and ends bitwise identical to an
// uninterrupted run. The process-level kill -9 variant lives in
// tests/scripts/kill_resume_test.sh.
TEST_F(SchedulerTest, ResumedStudyTrainsExactlyTheRemainingReplicates) {
  const StudyPlan uninterrupted = tiny_plan(core::NoiseVariant::kControl, 4);
  const StudyResult fresh = run_plan(uninterrupted);

  FsCacheBackend cache(cache_dir_.string());
  RunOptions opts;
  opts.cache = &cache;
  // "Interrupted" run: only the first 2 replicates completed before the
  // kill; both are durably keyed on disk.
  const StudyResult partial =
      run_plan(tiny_plan(core::NoiseVariant::kControl, 2), opts);
  EXPECT_EQ(partial.trained, 2);

  const StudyResult resumed = run_plan(uninterrupted, opts);
  EXPECT_EQ(resumed.trained, 2) << "resume must train only the missing cells";
  EXPECT_EQ(resumed.cache.hits, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    expect_bitwise_equal(resumed.cells[0][r], fresh.cells[0][r]);
  }
}

// Batched submission: duplicate cacheable keys across queued plans are
// coalesced — trained once, shared in-memory, bit-identical everywhere.
TEST_F(SchedulerTest, BatchCoalescesDuplicateKeysAcrossPlans) {
  const StudyPlan plan_a = tiny_plan(core::NoiseVariant::kControl, 2);
  const StudyPlan plan_b = tiny_plan(core::NoiseVariant::kControl, 2);
  const BatchResult batch = run_batch({&plan_a, &plan_b});
  EXPECT_EQ(batch.trained, 2) << "each unique key must train exactly once";
  EXPECT_EQ(batch.coalesced, 2);
  ASSERT_EQ(batch.studies.size(), 2u);
  const StudyResult fresh = run_plan(tiny_plan(core::NoiseVariant::kControl,
                                               2));
  for (std::size_t r = 0; r < 2; ++r) {
    expect_bitwise_equal(batch.studies[0].cells[0][r], fresh.cells[0][r]);
    expect_bitwise_equal(batch.studies[1].cells[0][r], fresh.cells[0][r]);
  }

  // Distinct variants -> distinct keys -> nothing coalesces, and each plan's
  // replicates are tallied under its own study index.
  const StudyPlan plan_c = tiny_plan(core::NoiseVariant::kAlgoPlusImpl, 1);
  const BatchResult distinct = run_batch({&plan_a, &plan_c});
  EXPECT_EQ(distinct.coalesced, 0);
  EXPECT_EQ(distinct.trained, 3);
  ASSERT_EQ(distinct.studies.size(), 2u);
  EXPECT_EQ(distinct.studies[0].trained, 2);
  EXPECT_EQ(distinct.studies[1].trained, 1);
}

TEST_F(SchedulerTest, BatchWithCacheSharesOneClaimPass) {
  const StudyPlan plan_a = tiny_plan(core::NoiseVariant::kControl, 2);
  const StudyPlan plan_b = tiny_plan(core::NoiseVariant::kControl, 2);
  FsCacheBackend cache(cache_dir_.string());
  RunOptions opts;
  opts.cache = &cache;
  const BatchResult cold = run_batch({&plan_a, &plan_b}, opts);
  EXPECT_EQ(cold.trained, 2);
  EXPECT_EQ(cold.coalesced, 2);
  EXPECT_EQ(cold.cache.stores, 2) << "only leaders touch the cache";
  EXPECT_EQ(cold.cache.misses, 2);
  const BatchResult warm = run_batch({&plan_a, &plan_b}, opts);
  EXPECT_EQ(warm.trained, 0);
  EXPECT_EQ(warm.cache.hits, 2);
  EXPECT_EQ(warm.coalesced, 2);
  for (std::size_t p = 0; p < 2; ++p) {
    // Per-study invariant: hits + trained + coalesced == replicates.
    const StudyResult& study = warm.studies[p];
    EXPECT_EQ(study.cache.hits + study.trained + study.coalesced, 2);
    for (std::size_t r = 0; r < 2; ++r) {
      expect_bitwise_equal(warm.studies[p].cells[0][r],
                           cold.studies[p].cells[0][r]);
    }
  }
}

TEST_F(SchedulerTest, EmptyBatchIsANoOp) {
  const BatchResult batch = run_batch({});
  EXPECT_TRUE(batch.studies.empty());
  EXPECT_EQ(batch.trained, 0);
}

TEST_F(SchedulerTest, CacheStatsTableListsAllCounters) {
  StudyResult result;
  result.cache.hits = 3;
  result.trained = 7;
  const core::TextTable table = cache_stats_table(result);
  ASSERT_EQ(table.rows().size(), 7u);
  EXPECT_EQ(table.rows()[0][0], "hits");
  EXPECT_EQ(table.rows()[0][1], "3");
  EXPECT_EQ(table.rows()[6][0], "trained");
  EXPECT_EQ(table.rows()[6][1], "7");
}

}  // namespace
}  // namespace nnr::sched
