#include "core/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "data/batcher.h"
#include "metrics/classification.h"
#include "nn/loss.h"
#include "opt/sgd.h"
#include "rng/seed_channels.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace nnr::core {

using data::EpochShuffler;
using data::gather_images;
using data::gather_labels;
using rng::Channel;
using rng::make_channel_generator;
using tensor::Tensor;

EvalResult evaluate_full(nn::Model& model, const data::LabeledImages& split,
                         hw::ExecutionContext& hw_ctx,
                         std::int64_t batch_size) {
  tensor::Workspace workspace;
  nn::RunContext ctx{.hw = &hw_ctx,
                     .training = false,
                     .dropout = nullptr,
                     .workspace = &workspace};
  EvalResult result;
  result.predictions.reserve(static_cast<std::size_t>(split.size()));
  result.confidences.reserve(static_cast<std::size_t>(split.size()));

  std::vector<std::uint32_t> indices;
  for (std::int64_t start = 0; start < split.size(); start += batch_size) {
    const std::int64_t end = std::min(start + batch_size, split.size());
    indices.clear();
    for (std::int64_t i = start; i < end; ++i) {
      indices.push_back(static_cast<std::uint32_t>(i));
    }
    const Tensor batch = gather_images(split.images, indices);
    const Tensor logits = model.forward(batch, ctx);
    const std::int64_t classes = logits.shape()[1];
    for (std::int64_t r = 0; r < logits.shape()[0]; ++r) {
      const std::span<const float> row(logits.raw() + r * classes,
                                       static_cast<std::size_t>(classes));
      const std::size_t top = tensor::argmax(row);
      result.predictions.push_back(static_cast<std::int32_t>(top));
      // Max softmax probability via the numerically stable logsumexp form.
      // Measurement-side code: double accumulation, input order (see
      // metrics/running_stat.h for the convention).
      const double z_max = row[top];
      double sum = 0.0;
      for (const float z : row) sum += std::exp(static_cast<double>(z) - z_max);
      result.confidences.push_back(static_cast<float>(1.0 / sum));
    }
  }
  return result;
}

std::vector<std::int32_t> evaluate(nn::Model& model,
                                   const data::LabeledImages& split,
                                   hw::ExecutionContext& hw_ctx,
                                   std::int64_t batch_size) {
  return evaluate_full(model, split, hw_ctx, batch_size).predictions;
}

RunResult train_replicate(const TrainJob& job, std::uint64_t replicate) {
  return train_replicate(job, ReplicateIds{replicate, replicate});
}

RunResult train_replicate(const TrainJob& job, ReplicateIds ids) {
  assert(job.dataset != nullptr && job.make_model != nullptr);
  const ChannelToggles toggles =
      job.toggles_override ? *job.toggles_override : toggles_for(job.variant);
  const data::LabeledImages& train = job.dataset->train;
  const data::LabeledImages& test = job.dataset->test;

  // Independent noise channels; each is pinned or varying per the variant.
  // The ALGO bundle keys off ids.algo, the scheduler channel off ids.impl;
  // the named variants call this with algo == impl.
  auto init_gen = make_channel_generator(job.base_seed, Channel::kInit,
                                         ids.algo, toggles.init_varies);
  auto shuffle_gen = make_channel_generator(job.base_seed, Channel::kShuffle,
                                            ids.algo, toggles.shuffle_varies);
  auto augment_gen = make_channel_generator(job.base_seed, Channel::kAugment,
                                            ids.algo, toggles.augment_varies);
  auto dropout_gen = make_channel_generator(job.base_seed, Channel::kDropout,
                                            ids.algo, toggles.dropout_varies);
  auto scheduler_gen =
      make_channel_generator(job.base_seed, Channel::kScheduler, ids.impl,
                             toggles.scheduler_varies);

  hw::ExecutionContext hw_ctx(job.device, toggles.mode,
                              std::move(scheduler_gen));

  nn::Model model = job.make_model();
  if (job.warm_start_weights) {
    model.load_flat_weights(*job.warm_start_weights);
  } else {
    model.init_weights(init_gen);
  }
  const std::unique_ptr<opt::Optimizer> optimizer =
      job.make_optimizer
          ? job.make_optimizer(model.params())
          : std::make_unique<opt::Sgd>(model.params(), job.recipe.momentum);

  EpochShuffler shuffler(train.size(), std::move(shuffle_gen));
  // One scratch arena per replicate: conv/dense reuse their im2col, repack
  // and gradient staging buffers across every step of the run.
  tensor::Workspace workspace;
  nn::RunContext ctx{.hw = &hw_ctx,
                     .training = true,
                     .dropout = &dropout_gen,
                     .workspace = &workspace};

  double last_loss = 0.0;
  for (std::int64_t epoch = 0; epoch < job.recipe.epochs; ++epoch) {
    const float lr = job.recipe.learning_rate(epoch);
    const std::vector<std::uint32_t> order = job.fixed_identity_order
                                                 ? shuffler.identity_order()
                                                 : shuffler.next_epoch_order();
    for (std::int64_t start = 0; start < train.size();
         start += job.recipe.batch_size) {
      const std::int64_t end =
          std::min(start + job.recipe.batch_size, train.size());
      const std::span<const std::uint32_t> batch_idx(
          order.data() + start, static_cast<std::size_t>(end - start));

      Tensor images = gather_images(train.images, batch_idx);
      if (job.recipe.augment) {
        images = data::augment_batch(images, job.recipe.augment_config,
                                     augment_gen);
      }
      const std::vector<std::int32_t> labels =
          gather_labels(train.labels, batch_idx);

      model.zero_grads();
      const Tensor logits = model.forward(images, ctx);
      const nn::LossResult loss =
          nn::softmax_cross_entropy(logits, labels, ctx);
      last_loss = loss.loss;
      (void)model.backward(loss.grad_logits, ctx);
      optimizer->step(lr);
    }
  }

  RunResult result;
  result.final_train_loss = last_loss;
  EvalResult eval = evaluate_full(model, test, hw_ctx, job.recipe.batch_size);
  result.test_predictions = std::move(eval.predictions);
  result.test_confidences = std::move(eval.confidences);
  result.test_accuracy =
      metrics::accuracy(result.test_predictions, test.labels);
  result.final_weights = model.flat_weights();
  return result;
}

}  // namespace nnr::core
