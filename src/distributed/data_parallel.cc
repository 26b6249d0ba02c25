#include "distributed/data_parallel.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "rng/seed_channels.h"

namespace nnr::distributed {

using core::RunResult;
using core::TrainJob;
using rng::Channel;
using rng::make_channel_generator;

RunResult train_replicate_distributed(const TrainJob& job,
                                      const DistributedConfig& config,
                                      std::uint64_t replicate) {
  assert(config.workers >= 1);
  core::ReplicateRun run(job, core::ReplicateIds{replicate, replicate});
  // A separate entropy stream for the collective's arrival order (a
  // different consumer of the same logical scheduler channel).
  auto collective_gen = make_channel_generator(
      job.base_seed ^ 0xD157C0DEull, Channel::kScheduler, replicate,
      job.toggles().scheduler_varies);
  const std::vector<nn::Param*> params = run.model().params();

  // The collective algorithm: deterministic modes (and TPU pods) use the
  // fixed tree; default GPU clusters use the configured (shuffled) order.
  const AllReduceAlgo algo = run.hw().fully_deterministic()
                                 ? AllReduceAlgo::kTreeFixed
                                 : config.default_allreduce;

  // Per-worker gradient buffers, parallel to params.
  std::vector<std::vector<std::vector<float>>> worker_grads(
      static_cast<std::size_t>(config.workers));
  for (auto& grads : worker_grads) {
    grads.resize(params.size());
    for (std::size_t p = 0; p < params.size(); ++p) {
      grads[p].resize(static_cast<std::size_t>(params[p]->value.numel()));
    }
  }

  const std::int64_t train_n = job.dataset->train.size();
  double last_loss = 0.0;
  for (std::int64_t epoch = 0; epoch < job.recipe.epochs; ++epoch) {
    const float lr = job.recipe.learning_rate(epoch);
    const std::vector<std::uint32_t> order = run.epoch_order();
    for (std::int64_t start = 0; start < train_n;
         start += job.recipe.batch_size) {
      const std::int64_t end = std::min(start + job.recipe.batch_size, train_n);
      const std::int64_t global_batch = end - start;
      const int active_workers = static_cast<int>(std::min<std::int64_t>(
          config.workers, global_batch));

      // Contiguous sharding of the global batch across workers.
      double loss_acc = 0.0;
      for (int w = 0; w < active_workers; ++w) {
        const std::int64_t shard_begin =
            start + w * global_batch / active_workers;
        const std::int64_t shard_end =
            start + (w + 1) * global_batch / active_workers;
        const std::span<const std::uint32_t> shard_idx(
            order.data() + shard_begin,
            static_cast<std::size_t>(shard_end - shard_begin));
        loss_acc +=
            run.backprop(shard_idx) * static_cast<double>(shard_idx.size());

        // Snapshot this worker's gradient, weighted so the all-reduced sum
        // equals the global-batch mean-loss gradient.
        const float weight = static_cast<float>(shard_idx.size()) /
                             static_cast<float>(global_batch);
        for (std::size_t p = 0; p < params.size(); ++p) {
          const auto grad = params[p]->grad.data();
          auto& buffer = worker_grads[static_cast<std::size_t>(w)][p];
          for (std::size_t i = 0; i < buffer.size(); ++i) {
            buffer[i] = grad[i] * weight;
          }
        }
      }
      last_loss = loss_acc / static_cast<double>(global_batch);

      // All-reduce into the parameter gradients, then one optimizer step.
      for (std::size_t p = 0; p < params.size(); ++p) {
        std::vector<std::span<const float>> buffers;
        buffers.reserve(static_cast<std::size_t>(active_workers));
        for (int w = 0; w < active_workers; ++w) {
          buffers.emplace_back(worker_grads[static_cast<std::size_t>(w)][p]);
        }
        allreduce_sum(buffers, params[p]->grad.data(), algo, &collective_gen);
      }
      run.optimizer().step(lr);
    }
  }

  RunResult result = run.finish(last_loss);
  // This trainer's cache entries have always been stored without
  // confidences, and a cell key must keep addressing the same bytes.
  result.test_confidences.clear();
  return result;
}

}  // namespace nnr::distributed
