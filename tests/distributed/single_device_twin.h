// What the distributed trainer suites share to pin a one-worker run to
// core::train_replicate: a job that sets every field a trainer could
// ignore, and the bitwise comparison.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "opt/adam.h"
#include "rng/generator.h"

namespace nnr::testutil {

/// `job` trained with Adam from a warm start: a trainer that ignores
/// job.make_optimizer or job.warm_start_weights cannot match one that
/// honours them.
inline core::TrainJob with_adam_and_warm_start(core::TrainJob job) {
  job.make_optimizer = [](std::vector<nn::Param*> params) {
    return std::make_unique<opt::Adam>(std::move(params));
  };
  nn::Model donor = job.make_model();
  rng::Generator gen(0x3A9Dull);
  donor.init_weights(gen);
  job.warm_start_weights = donor.flat_weights();
  return job;
}

/// Everything a distributed result carries must equal the single-device
/// result to the bit (test confidences are not stored for distributed
/// runs).
inline void expect_bitwise_equal(const core::RunResult& single_device,
                                 const core::RunResult& distributed) {
  EXPECT_EQ(single_device.final_weights, distributed.final_weights);
  EXPECT_EQ(single_device.test_predictions, distributed.test_predictions);
  EXPECT_EQ(single_device.final_train_loss, distributed.final_train_loss);
  EXPECT_EQ(single_device.test_accuracy, distributed.test_accuracy);
}

}  // namespace nnr::testutil
