// Recycled scratch storage never reaches a result. Workspace slots take
// their storage from buffers that earlier runs on the same thread left
// behind (tensor/workspace.h), so every layer must overwrite a slot before
// reading it. A replicate trained on a thread whose spare list holds NaN
// and stale buffers must be bitwise equal to the same replicate trained on
// a fresh thread.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/recipe.h"
#include "core/trainer.h"
#include "data/synth_images.h"
#include "nn/zoo.h"
#include "tensor/workspace.h"

namespace nnr::core {
namespace {

TrainJob job_for(const data::ClassificationDataset& dataset,
                 ModelFactory make_model, NoiseVariant variant) {
  TrainJob job;
  job.make_model = std::move(make_model);
  job.dataset = &dataset;
  job.recipe = cifar_recipe(/*epochs=*/1);
  job.variant = variant;
  job.device = hw::v100();
  return job;
}

// Leaves NaN buffers of many sizes, 8 to ~750k floats, in this thread's
// spare list.
void poison_spares() {
  tensor::Workspace ws;
  int slot = 0;
  for (double n = 8; n < 7.5e5; n *= 1.25) {
    for (int copy = 0; copy < 2; ++copy) {
      ws.scratch(&ws, slot++, tensor::Shape{static_cast<std::int64_t>(n)})
          .fill(std::numeric_limits<float>::quiet_NaN());
    }
  }
}

std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out;
  out.reserve(v.size());
  for (const float x : v) out.push_back(std::bit_cast<std::uint32_t>(x));
  return out;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.test_predictions, b.test_predictions);
  EXPECT_EQ(bits(a.test_confidences), bits(b.test_confidences));
  EXPECT_EQ(bits(a.final_weights), bits(b.final_weights));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.final_train_loss),
            std::bit_cast<std::uint64_t>(b.final_train_loss));
}

TEST(RecycledScratch, StaleSparesNeverReachAResult) {
  // 90 train and 60 test images: training batches of 32, 32 and 26 and
  // evaluation batches of 32 and 28, so slots also resize within a run.
  const data::ClassificationDataset dataset = data::synth_cifar10(90, 60);
  const ModelFactory resnet = [] { return nn::resnet18s(10); };
  const ModelFactory small_bn = [] {
    return nn::small_cnn(10, /*with_batchnorm=*/true);
  };
  const TrainJob targets[] = {
      job_for(dataset, resnet, NoiseVariant::kControl),
      job_for(dataset, small_bn, NoiseVariant::kControl),
  };

  std::vector<RunResult> recycled;
  std::thread([&] {
    poison_spares();
    (void)train_replicate(
        job_for(dataset, resnet, NoiseVariant::kAlgoPlusImpl), 7);
    (void)train_replicate(
        job_for(dataset, small_bn, NoiseVariant::kAlgoPlusImpl), 7);
    for (const TrainJob& job : targets) {
      recycled.push_back(train_replicate(job, 0));
    }
  }).join();

  for (std::size_t i = 0; i < std::size(targets); ++i) {
    SCOPED_TRACE(i == 0 ? "ResNet-18s" : "SmallCNN+BN");
    RunResult fresh;
    std::thread([&] { fresh = train_replicate(targets[i], 0); }).join();
    expect_bitwise_equal(recycled[i], fresh);
  }
}

}  // namespace
}  // namespace nnr::core
