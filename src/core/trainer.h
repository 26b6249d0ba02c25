// Single-replicate trainer: one model trained from scratch on a simulated
// device under a noise variant's channel toggles. This is the unit of work
// every experiment fans out over. train_replicate and the distributed
// trainers (distributed/) are loops over one setup, ReplicateRun.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/noise_variant.h"
#include "core/recipe.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "hw/device.h"
#include "hw/execution_context.h"
#include "nn/model.h"
#include "opt/optimizer.h"
#include "rng/generator.h"
#include "tensor/workspace.h"

namespace nnr::core {

using ModelFactory = std::function<nn::Model()>;
using OptimizerFactory =
    std::function<std::unique_ptr<opt::Optimizer>(std::vector<nn::Param*>)>;

struct RunResult {
  std::vector<std::int32_t> test_predictions;
  /// Per-example max softmax probability (the confidence of the argmax
  /// prediction) — input to the calibration metrics (metrics/calibration.h).
  std::vector<float> test_confidences;
  std::vector<float> final_weights;
  double test_accuracy = 0.0;
  double final_train_loss = 0.0;
};

struct TrainJob {
  ModelFactory make_model;
  const data::ClassificationDataset* dataset = nullptr;  // non-owning
  TrainRecipe recipe;
  NoiseVariant variant = NoiseVariant::kAlgoPlusImpl;
  hw::DeviceSpec device;
  std::uint64_t base_seed = 0x5EEDull;

  /// Custom channel toggles for probe experiments that are not one of the
  /// four named variants (e.g. Fig. 6 varies *only* the shuffle channel on a
  /// TPU). When set, `variant` is ignored.
  std::optional<ChannelToggles> toggles_override;

  /// Optimizer override for ablations (optimizer choice vs noise
  /// amplification). Unset: SGD with the recipe's momentum — the paper's
  /// setting for every experiment.
  OptimizerFactory make_optimizer;

  /// When true the epoch order is *not* drawn from the shuffle channel and
  /// the identity order is used every epoch (the Fig. 6 probe uses a
  /// dedicated varying order instead).
  bool fixed_identity_order = false;

  /// Warm start: when set, the model is initialized from these weights
  /// (Model::flat_weights layout) instead of the init channel — the
  /// "launch and iterate" churn mitigation (core/churn_reduction.h). The
  /// init channel is not consumed at all in this mode.
  std::optional<std::vector<float>> warm_start_weights;

  /// The channel toggles this job trains under: the override when set,
  /// otherwise the variant's.
  [[nodiscard]] ChannelToggles toggles() const {
    return toggles_override ? *toggles_override : toggles_for(variant);
  }
};

/// Trains replicate `replicate` of `job` and evaluates on the test split.
[[nodiscard]] RunResult train_replicate(const TrainJob& job,
                                        std::uint64_t replicate);

/// Replicate indices for factorial designs: the ALGO channel bundle
/// (init/shuffle/augment/dropout) and the IMPL channel (scheduler entropy)
/// draw from *independent* replicate indices. train_replicate(job, r) is the
/// diagonal {r, r}. A varying channel is seeded by its index; a pinned
/// channel ignores it (same semantics as the named variants).
struct ReplicateIds {
  std::uint64_t algo = 0;
  std::uint64_t impl = 0;
};

/// Trains one cell of a factorial (algo seed x impl seed) grid — the unit of
/// work for the two-way variance-decomposition study (stats/anova.h).
[[nodiscard]] RunResult train_replicate(const TrainJob& job, ReplicateIds ids);

/// One replicate's training state. Construction draws the five noise
/// channels (the ALGO bundle keyed off ids.algo, the scheduler off ids.impl;
/// each pinned or varying per job.toggles()), builds the simulated device
/// context, the model (job.warm_start_weights, else the init channel) and
/// the optimizer (job.make_optimizer, else SGD with the recipe's momentum).
/// A trainer then alternates backprop() with its own optimizer steps and
/// ends with finish().
///
/// Holds a reference to `job`, which must outlive it and have its dataset
/// and make_model set. Its RunContext points at its own members, so it is
/// neither copied nor moved.
class ReplicateRun {
 public:
  ReplicateRun(const TrainJob& job, ReplicateIds ids);
  ReplicateRun(TrainJob&&, ReplicateIds) = delete;  // would dangle
  ReplicateRun(const ReplicateRun&) = delete;
  ReplicateRun& operator=(const ReplicateRun&) = delete;

  /// The next epoch's example order: a fresh draw from the shuffle channel,
  /// or the identity order under job.fixed_identity_order.
  [[nodiscard]] std::vector<std::uint32_t> epoch_order();

  /// One gradient on `batch` (indices into the train split): gather,
  /// augment, zero the gradients, forward, loss, backward. Leaves the
  /// gradient in the model's params and returns the batch's mean loss.
  double backprop(std::span<const std::uint32_t> batch);

  /// Evaluates the model on the test split and packages the result. This
  /// is the run's last call: evaluation runs under the run's own scratch
  /// arena, at the training batch size, so it reuses the training slots and
  /// overwrites the patch matrices the last backprop() left there.
  [[nodiscard]] RunResult finish(double final_train_loss);

  [[nodiscard]] nn::Model& model() noexcept { return model_; }
  [[nodiscard]] opt::Optimizer& optimizer() noexcept { return *optimizer_; }
  [[nodiscard]] const hw::ExecutionContext& hw() const noexcept {
    return hw_ctx_;
  }

 private:
  ReplicateRun(const TrainJob& job, ReplicateIds ids,
               const ChannelToggles& toggles);

  const TrainJob& job_;
  rng::Generator augment_gen_;
  rng::Generator dropout_gen_;
  hw::ExecutionContext hw_ctx_;
  nn::Model model_;
  std::unique_ptr<opt::Optimizer> optimizer_;
  data::EpochShuffler shuffler_;
  // One scratch arena per replicate: conv/dense reuse their im2col, repack
  // and gradient staging buffers across every step of the run and its
  // evaluation; its storage passes to this thread's next replicate.
  tensor::Workspace workspace_;
  nn::RunContext ctx_;
};

/// Predictions plus per-example argmax softmax confidence.
struct EvalResult {
  std::vector<std::int32_t> predictions;
  std::vector<float> confidences;
};

/// Evaluates `model` on a split, batched: argmax predictions and their
/// confidences from one forward pass. The layers' scratch comes from
/// `workspace` when given (ReplicateRun::finish passes its run's arena, so
/// evaluation builds no second one), else from a private arena.
[[nodiscard]] EvalResult evaluate_full(nn::Model& model,
                                       const data::LabeledImages& split,
                                       hw::ExecutionContext& hw_ctx,
                                       std::int64_t batch_size,
                                       tensor::Workspace* workspace = nullptr);

}  // namespace nnr::core
