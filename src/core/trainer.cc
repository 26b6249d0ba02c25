#include "core/trainer.h"

#include <algorithm>
#include <cmath>

#include "metrics/classification.h"
#include "nn/loss.h"
#include "opt/sgd.h"
#include "rng/seed_channels.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace nnr::core {

using data::gather_images;
using data::gather_labels;
using rng::Channel;
using rng::make_channel_generator;
using tensor::Tensor;

EvalResult evaluate_full(nn::Model& model, const data::LabeledImages& split,
                         hw::ExecutionContext& hw_ctx,
                         std::int64_t batch_size,
                         tensor::Workspace* workspace) {
  tensor::Workspace own;
  nn::RunContext ctx{.hw = &hw_ctx,
                     .training = false,
                     .dropout = nullptr,
                     .workspace = workspace != nullptr ? workspace : &own};
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

ReplicateRun::ReplicateRun(const TrainJob& job, ReplicateIds ids)
    : ReplicateRun(job, ids, job.toggles()) {}

// Independent noise channels; each is pinned or varying per the toggles. The
// ALGO bundle keys off ids.algo, the scheduler channel off ids.impl; the
// named variants run with algo == impl. Each channel is its own stream, so
// the order they are drawn in here does not matter.
ReplicateRun::ReplicateRun(const TrainJob& job, ReplicateIds ids,
                           const ChannelToggles& toggles)
    : job_(job),
      augment_gen_(make_channel_generator(job.base_seed, Channel::kAugment,
                                          ids.algo, toggles.augment_varies)),
      dropout_gen_(make_channel_generator(job.base_seed, Channel::kDropout,
                                          ids.algo, toggles.dropout_varies)),
      hw_ctx_(job.device, toggles.mode,
              make_channel_generator(job.base_seed, Channel::kScheduler,
                                     ids.impl, toggles.scheduler_varies)),
      model_(job.make_model()),
      shuffler_(job.dataset->train.size(),
                make_channel_generator(job.base_seed, Channel::kShuffle,
                                       ids.algo, toggles.shuffle_varies)),
      ctx_{.hw = &hw_ctx_,
           .training = true,
           .dropout = &dropout_gen_,
           .workspace = &workspace_} {
  if (job.warm_start_weights) {
    model_.load_flat_weights(*job.warm_start_weights);
  } else {
    rng::Generator init_gen = make_channel_generator(
        job.base_seed, Channel::kInit, ids.algo, toggles.init_varies);
    model_.init_weights(init_gen);
  }
  optimizer_ =
      job.make_optimizer
          ? job.make_optimizer(model_.params())
          : std::make_unique<opt::Sgd>(model_.params(), job.recipe.momentum);
}

std::vector<std::uint32_t> ReplicateRun::epoch_order() {
  return job_.fixed_identity_order ? shuffler_.identity_order()
                                   : shuffler_.next_epoch_order();
}

double ReplicateRun::backprop(std::span<const std::uint32_t> batch) {
  const data::LabeledImages& train = job_.dataset->train;
  Tensor images = gather_images(train.images, batch);
  if (job_.recipe.augment) {
    images = data::augment_batch(images, job_.recipe.augment_config,
                                 augment_gen_);
  }
  const std::vector<std::int32_t> labels = gather_labels(train.labels, batch);

  model_.zero_grads();
  const Tensor logits = model_.forward(images, ctx_);
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels, ctx_);
  (void)model_.backward(loss.grad_logits, ctx_);
  return loss.loss;
}

RunResult ReplicateRun::finish(double final_train_loss) {
  const data::LabeledImages& test = job_.dataset->test;
  EvalResult eval = evaluate_full(model_, test, hw_ctx_,
                                  job_.recipe.batch_size, &workspace_);
  RunResult result;
  result.final_train_loss = final_train_loss;
  result.test_predictions = std::move(eval.predictions);
  result.test_confidences = std::move(eval.confidences);
  result.test_accuracy =
      metrics::accuracy(result.test_predictions, test.labels);
  result.final_weights = model_.flat_weights();
  return result;
}

RunResult train_replicate(const TrainJob& job, std::uint64_t replicate) {
  return train_replicate(job, ReplicateIds{replicate, replicate});
}

RunResult train_replicate(const TrainJob& job, ReplicateIds ids) {
  ReplicateRun run(job, ids);
  const std::int64_t train_n = job.dataset->train.size();
  double last_loss = 0.0;
  for (std::int64_t epoch = 0; epoch < job.recipe.epochs; ++epoch) {
    const float lr = job.recipe.learning_rate(epoch);
    const std::vector<std::uint32_t> order = run.epoch_order();
    for (std::int64_t start = 0; start < train_n;
         start += job.recipe.batch_size) {
      const std::int64_t end = std::min(start + job.recipe.batch_size, train_n);
      last_loss = run.backprop(std::span<const std::uint32_t>(
          order.data() + start, static_cast<std::size_t>(end - start)));
      run.optimizer().step(lr);
    }
  }
  return run.finish(last_loss);
}

}  // namespace nnr::core
