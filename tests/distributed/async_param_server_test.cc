// Async parameter server: determinism contract, staleness-driven divergence,
// and the degenerate single-worker case.
#include <gtest/gtest.h>

#include <utility>

#include "core/study.h"
#include "core/tasks.h"
#include "distributed/async_param_server.h"
#include "single_device_twin.h"

namespace nnr::distributed {
namespace {

using core::NoiseVariant;
using core::RunResult;
using core::Task;
using core::TrainJob;

Task tiny_task() {
  Task task = core::small_cnn_bn_cifar10();
  task.dataset = data::synth_cifar10(60, 30);
  task.recipe.epochs = 2;
  task.recipe.batch_size = 10;
  return task;
}

TEST(AsyncParamServer, FixedArrivalsDeterministicModeIsBitwiseReproducible) {
  const Task task = tiny_task();
  const TrainJob job = task.job(NoiseVariant::kControl, hw::v100());
  const AsyncConfig config{.workers = 4, .shuffled_arrivals = false};
  const RunResult a = train_replicate_async(job, config, 0);
  const RunResult b = train_replicate_async(job, config, 1);
  EXPECT_EQ(a.final_weights, b.final_weights);
  EXPECT_EQ(a.test_predictions, b.test_predictions);
}

TEST(AsyncParamServer, ControlVariantNeutralizesShuffledArrivals) {
  // Under CONTROL the scheduler channel is pinned, so even
  // shuffled_arrivals = true must reproduce bitwise (the shuffle draws from
  // a pinned stream is identical across replicates).
  const Task task = tiny_task();
  const TrainJob job = task.job(NoiseVariant::kControl, hw::v100());
  const AsyncConfig config{.workers = 4, .shuffled_arrivals = true};
  const RunResult a = train_replicate_async(job, config, 0);
  const RunResult b = train_replicate_async(job, config, 1);
  EXPECT_EQ(a.final_weights, b.final_weights);
}

TEST(AsyncParamServer, ArrivalOrderAloneCausesDivergence) {
  // IMPL variant: every algorithmic seed pinned; workers' push order varies
  // per replicate. Unlike kernel rounding noise, stale-gradient reordering
  // must diverge visibly even at tiny scale.
  const Task task = tiny_task();
  const TrainJob job = task.job(NoiseVariant::kImpl, hw::v100());
  const AsyncConfig config{.workers = 4, .shuffled_arrivals = true};
  const RunResult a = train_replicate_async(job, config, 0);
  const RunResult b = train_replicate_async(job, config, 1);
  EXPECT_NE(a.final_weights, b.final_weights);
}

TEST(AsyncParamServer, SingleWorkerHasNoStaleness) {
  // With one worker the fetch -> compute -> apply loop is sequential SGD;
  // shuffled arrivals have nothing to permute, so IMPL divergence collapses
  // to kernel rounding only — and in deterministic mode, to zero.
  Task task = tiny_task();
  TrainJob job = task.job(NoiseVariant::kImpl, hw::v100());
  // Force deterministic kernels while keeping the varying scheduler channel:
  core::ChannelToggles toggles = core::toggles_for(NoiseVariant::kImpl);
  toggles.mode = hw::DeterminismMode::kDeterministic;
  job.toggles_override = toggles;

  const AsyncConfig config{.workers = 1, .shuffled_arrivals = true};
  const RunResult a = train_replicate_async(job, config, 0);
  const RunResult b = train_replicate_async(job, config, 1);
  EXPECT_EQ(a.final_weights, b.final_weights);
}

TEST(AsyncParamServer, MoreWorkersMeansMoreStalenessNoise) {
  // Average pairwise churn across 4 replicates should not shrink when the
  // worker pool (and with it the maximum staleness) grows. We compare 2 vs
  // 8 workers under IMPL noise.
  const Task task = tiny_task();
  const TrainJob job = task.job(NoiseVariant::kImpl, hw::v100());

  auto mean_l2 = [&](int workers) {
    const AsyncConfig config{.workers = workers, .shuffled_arrivals = true};
    std::vector<RunResult> results;
    results.reserve(4);
    for (std::uint64_t r = 0; r < 4; ++r) {
      results.push_back(train_replicate_async(job, config, r));
    }
    return core::summarize(results).mean_l2;
  };

  const double l2_small = mean_l2(2);
  const double l2_large = mean_l2(8);
  EXPECT_GT(l2_large, 0.0);
  // Noise grows (or at least does not vanish) with staleness; allow equal
  // scale but catch regressions where large pools lose the noise entirely.
  EXPECT_GT(l2_large, l2_small * 0.25);
}

TEST(AsyncParamServer, TrainsToAboveChanceAccuracy) {
  Task task = core::small_cnn_bn_cifar10();
  task.dataset = data::synth_cifar10(200, 100);
  task.recipe.epochs = 8;
  task.recipe.batch_size = 20;
  const TrainJob job = task.job(NoiseVariant::kAlgoPlusImpl, hw::v100());
  const AsyncConfig config{.workers = 2, .shuffled_arrivals = true};
  const RunResult r = train_replicate_async(job, config, 0);
  EXPECT_GT(r.test_accuracy, 0.15);  // chance is 0.10 for 10 classes
}

TEST(AsyncParamServer, SingleWorkerMatchesSynchronousTrainerBitwise) {
  // fetch -> compute -> apply with one worker consumes every noise channel
  // in exactly the order core::train_replicate does, so the two trainers
  // must agree to the bit — the strongest equivalence statement between the
  // distributed and single-device code paths. The job's optimizer and warm
  // start must be honoured too.
  Task task = tiny_task();
  const TrainJob job = task.job(NoiseVariant::kAlgoPlusImpl, hw::v100());
  const AsyncConfig config{.workers = 1, .shuffled_arrivals = true};
  const std::pair<const char*, TrainJob> cases[] = {
      {"SGD", job},
      {"Adam, warm start", testutil::with_adam_and_warm_start(job)}};
  for (const auto& [label, j] : cases) {
    SCOPED_TRACE(label);
    testutil::expect_bitwise_equal(core::train_replicate(j, 3),
                                   train_replicate_async(j, config, 3));
  }
}

TEST(AsyncParamServer, AccuracyComparableToSynchronousTraining) {
  // Staleness costs some accuracy but must not destroy training: async
  // should reach at least half the synchronous accuracy on this toy cell.
  Task task = tiny_task();
  task.recipe.epochs = 6;
  const TrainJob job = task.job(NoiseVariant::kControl, hw::v100());

  const core::RunResult sync = core::train_replicate(job, 0);
  const AsyncConfig config{.workers = 4, .shuffled_arrivals = false};
  const RunResult async = train_replicate_async(job, config, 0);
  EXPECT_GT(async.test_accuracy, 0.5 * sync.test_accuracy);
}

}  // namespace
}  // namespace nnr::distributed
