#include "distributed/async_param_server.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <vector>

#include "rng/seed_channels.h"

namespace nnr::distributed {

using core::RunResult;
using core::TrainJob;
using rng::Channel;
using rng::make_channel_generator;

namespace {

/// Serves mini-batch shards across epochs: each shard carries the indices of
/// its examples and the learning rate of its epoch.
class ShardStream {
 public:
  ShardStream(const TrainJob& job, core::ReplicateRun& run)
      : job_(job), run_(run) {}

  struct Shard {
    std::vector<std::uint32_t> indices;
    float learning_rate = 0.0F;
  };

  [[nodiscard]] std::optional<Shard> next() {
    const std::int64_t train_n = job_.dataset->train.size();
    if (cursor_ >= train_n) {
      if (epoch_ + 1 >= job_.recipe.epochs) return std::nullopt;
      ++epoch_;
      cursor_ = 0;
      order_.clear();
    }
    if (order_.empty()) order_ = run_.epoch_order();
    const std::int64_t end =
        std::min(cursor_ + job_.recipe.batch_size, train_n);
    Shard shard;
    shard.indices.assign(order_.begin() + cursor_, order_.begin() + end);
    shard.learning_rate = job_.recipe.learning_rate(epoch_);
    cursor_ = end;
    return shard;
  }

 private:
  const TrainJob& job_;
  core::ReplicateRun& run_;
  std::vector<std::uint32_t> order_;
  std::int64_t epoch_ = 0;
  std::int64_t cursor_ = 0;
};

}  // namespace

RunResult train_replicate_async(const TrainJob& job, const AsyncConfig& config,
                                std::uint64_t replicate) {
  assert(config.workers >= 1);
  core::ReplicateRun run(job, core::ReplicateIds{replicate, replicate});
  nn::Model& model = run.model();
  const bool scheduler_varies = job.toggles().scheduler_varies;
  // The push/pull arrival order is its own consumer of scheduler entropy.
  auto arrival_gen =
      make_channel_generator(job.base_seed ^ 0xA517C0DEull,
                             Channel::kScheduler, replicate, scheduler_varies);
  ShardStream stream(job, run);

  // Server state lives in the model params between completions; each
  // in-flight worker holds the weight snapshot it fetched plus its shard.
  struct InFlight {
    std::vector<float> snapshot;
    ShardStream::Shard shard;
  };
  std::vector<std::optional<InFlight>> in_flight(
      static_cast<std::size_t>(config.workers));

  std::vector<float> server = model.flat_weights();
  for (int w = 0; w < config.workers; ++w) {
    if (auto shard = stream.next()) {
      in_flight[static_cast<std::size_t>(w)] =
          InFlight{server, *std::move(shard)};
    }
  }

  // Arrivals are deterministic round-robin unless shuffled arrivals are
  // requested AND the run is in the nondeterministic regime.
  const bool shuffle_arrivals = config.shuffled_arrivals && scheduler_varies;

  double last_loss = 0.0;
  std::vector<std::uint32_t> round_order;
  for (;;) {
    round_order.clear();
    for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(config.workers);
         ++w) {
      if (in_flight[w].has_value()) round_order.push_back(w);
    }
    if (round_order.empty()) break;
    if (shuffle_arrivals) {
      // One permutation per round: the order in which pushes reach the
      // server this round.
      arrival_gen.shuffle(std::span<std::uint32_t>(round_order));
    }

    for (const std::uint32_t w : round_order) {
      InFlight work = *std::move(in_flight[w]);
      in_flight[w].reset();

      // Compute the gradient against the (stale) fetched snapshot.
      model.load_flat_weights(work.snapshot);
      last_loss = run.backprop(work.shard.indices);

      // Apply to the *current* server weights (the async step), then the
      // worker immediately fetches and takes the next shard.
      model.load_flat_weights(server);
      run.optimizer().step(work.shard.learning_rate);
      server = model.flat_weights();

      if (auto shard = stream.next()) {
        in_flight[w] = InFlight{server, *std::move(shard)};
      }
    }
  }

  // Every apply ends with the model holding the server weights.
  RunResult result = run.finish(last_loss);
  // This trainer's cache entries have always been stored without
  // confidences, and a cell key must keep addressing the same bytes.
  result.test_confidences.clear();
  return result;
}

}  // namespace nnr::distributed
