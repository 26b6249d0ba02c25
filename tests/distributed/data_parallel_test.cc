#include "distributed/data_parallel.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/replicates.h"
#include "core/study.h"
#include "data/synth_images.h"
#include "nn/zoo.h"
#include "single_device_twin.h"

namespace nnr::distributed {
namespace {

class DataParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::ClassificationDataset(data::synth_cifar10(160, 80));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static core::TrainJob job(core::NoiseVariant variant) {
    core::TrainJob j;
    j.make_model = [] { return nn::small_cnn(10, true); };
    j.dataset = dataset_;
    j.recipe = core::cifar_recipe(2);
    j.variant = variant;
    j.device = hw::v100();
    j.base_seed = 0xD15Cull;
    return j;
  }

  static data::ClassificationDataset* dataset_;
};

data::ClassificationDataset* DataParallelTest::dataset_ = nullptr;

TEST_F(DataParallelTest, ProducesValidResults) {
  const DistributedConfig config{.workers = 4};
  const core::RunResult result =
      train_replicate_distributed(job(core::NoiseVariant::kControl), config, 0);
  EXPECT_EQ(result.test_predictions.size(), 80u);
  EXPECT_FALSE(result.final_weights.empty());
}

TEST_F(DataParallelTest, DeterministicModeIsBitwiseReproducible) {
  const DistributedConfig config{.workers = 4};
  const core::RunResult a =
      train_replicate_distributed(job(core::NoiseVariant::kControl), config, 0);
  const core::RunResult b =
      train_replicate_distributed(job(core::NoiseVariant::kControl), config, 0);
  EXPECT_EQ(a.final_weights, b.final_weights);
}

TEST_F(DataParallelTest, ControlReplicatesIdenticalAcrossReplicateIds) {
  const DistributedConfig config{.workers = 3};
  const core::RunResult a =
      train_replicate_distributed(job(core::NoiseVariant::kControl), config, 0);
  const core::RunResult b =
      train_replicate_distributed(job(core::NoiseVariant::kControl), config, 1);
  EXPECT_EQ(a.final_weights, b.final_weights);
}

TEST_F(DataParallelTest, ImplReplicatesDiverge) {
  const DistributedConfig config{.workers = 4};
  const core::RunResult a =
      train_replicate_distributed(job(core::NoiseVariant::kImpl), config, 0);
  const core::RunResult b =
      train_replicate_distributed(job(core::NoiseVariant::kImpl), config, 1);
  EXPECT_NE(a.final_weights, b.final_weights);
}

TEST_F(DataParallelTest, WorkerCountChangesRoundingButNotLearning) {
  // Different shardings reorder the same arithmetic: results differ bitwise
  // but represent the same optimization trajectory (similar accuracy).
  const core::RunResult one = train_replicate_distributed(
      job(core::NoiseVariant::kControl), DistributedConfig{.workers = 1}, 0);
  const core::RunResult four = train_replicate_distributed(
      job(core::NoiseVariant::kControl), DistributedConfig{.workers = 4}, 0);
  EXPECT_NE(one.final_weights, four.final_weights);
  EXPECT_NEAR(one.test_accuracy, four.test_accuracy, 0.25);
}

TEST_F(DataParallelTest, MoreWorkersThanExamplesClamps) {
  const DistributedConfig config{.workers = 64};  // batch is 32
  const core::RunResult result =
      train_replicate_distributed(job(core::NoiseVariant::kControl), config, 0);
  EXPECT_FALSE(result.final_weights.empty());
}

TEST_F(DataParallelTest, SingleWorkerMatchesSingleDeviceSemantics) {
  // workers=1 runs the single-device step: one shard, weight 1, and a
  // one-buffer all-reduce, on the same replicate setup. The results must
  // agree to the bit, with the job's optimizer and warm start honoured.
  const DistributedConfig config{.workers = 1};
  const std::pair<const char*, core::TrainJob> cases[] = {
      {"CONTROL", job(core::NoiseVariant::kControl)},
      {"ALGO+IMPL", job(core::NoiseVariant::kAlgoPlusImpl)},
      {"ALGO+IMPL, Adam, warm start",
       testutil::with_adam_and_warm_start(
           job(core::NoiseVariant::kAlgoPlusImpl))}};
  for (const auto& [label, j] : cases) {
    SCOPED_TRACE(label);
    testutil::expect_bitwise_equal(core::train_replicate(j, 0),
                                   train_replicate_distributed(j, config, 0));
  }
}

}  // namespace
}  // namespace nnr::distributed
