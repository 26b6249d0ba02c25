#include "core/trainer.h"

#include <gtest/gtest.h>

#include "core/replicates.h"
#include "data/synth_images.h"
#include "nn/zoo.h"

namespace nnr::core {
namespace {

TrainJob small_job(const data::ClassificationDataset* dataset,
                   NoiseVariant variant) {
  TrainJob job;
  job.make_model = [] { return nn::small_cnn(10, /*with_batchnorm=*/true); };
  job.dataset = dataset;
  job.recipe = cifar_recipe(/*epochs=*/4);
  job.variant = variant;
  job.device = hw::v100();
  job.base_seed = 0xABCDull;
  return job;
}

class TrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::ClassificationDataset(data::synth_cifar10(160, 80));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static data::ClassificationDataset* dataset_;
};

data::ClassificationDataset* TrainerTest::dataset_ = nullptr;

TEST_F(TrainerTest, ProducesPredictionsAndWeights) {
  const RunResult result =
      train_replicate(small_job(dataset_, NoiseVariant::kControl), 0);
  EXPECT_EQ(result.test_predictions.size(), 80u);
  EXPECT_FALSE(result.final_weights.empty());
  EXPECT_GE(result.test_accuracy, 0.0);
  EXPECT_LE(result.test_accuracy, 1.0);
}

TEST_F(TrainerTest, TrainingBeatsChance) {
  // Even 2 epochs on the easy synthetic set should beat the 10% prior.
  const RunResult result =
      train_replicate(small_job(dataset_, NoiseVariant::kControl), 0);
  EXPECT_GT(result.test_accuracy, 0.15);
}

TEST_F(TrainerTest, RunReplicatesSerialAndParallelAgree) {
  // Host threading is measurement infrastructure: results must be identical.
  const TrainJob job = small_job(dataset_, NoiseVariant::kAlgoPlusImpl);
  const auto serial = run_replicates(job, 2, /*threads=*/1);
  const auto parallel = run_replicates(job, 2, /*threads=*/2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].test_predictions, parallel[r].test_predictions);
    EXPECT_EQ(serial[r].final_weights, parallel[r].final_weights);
  }
}

TEST_F(TrainerTest, ConfidencesAlignWithPredictions) {
  const RunResult result =
      train_replicate(small_job(dataset_, NoiseVariant::kControl), 0);
  ASSERT_EQ(result.test_confidences.size(), result.test_predictions.size());
  // Max softmax probability over C classes lies in [1/C, 1].
  for (const float c : result.test_confidences) {
    EXPECT_GE(c, 1.0F / 10.0F - 1e-6F);
    EXPECT_LE(c, 1.0F + 1e-6F);
  }
}

TEST_F(TrainerTest, EvaluateMatchesStoredPredictionsSize) {
  const TrainJob job = small_job(dataset_, NoiseVariant::kControl);
  const RunResult result = train_replicate(job, 0);
  EXPECT_EQ(static_cast<std::int64_t>(result.test_predictions.size()),
            dataset_->test.size());
}

TEST_F(TrainerTest, FixedIdentityOrderIsHonored) {
  // With identity order, the CONTROL variant must still be reproducible.
  TrainJob job = small_job(dataset_, NoiseVariant::kControl);
  job.fixed_identity_order = true;
  const RunResult a = train_replicate(job, 0);
  const RunResult b = train_replicate(job, 1);
  EXPECT_EQ(a.final_weights, b.final_weights);
}

}  // namespace
}  // namespace nnr::core
