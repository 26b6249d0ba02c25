// Procedural class-conditional image generator — the CIFAR-10/100 and
// ImageNet stand-ins (PAPER.md, "Scaled reproduction").
//
// Each class is a randomized superposition of sinusoidal gratings (a smooth
// "texture prototype"); samples are translated, contrast-jittered, noisy
// renderings of their class prototype. Two properties matter for fidelity to
// the paper's findings and are controlled here:
//
//   1. heterogeneous class difficulty — per-class noise level sigma_c is
//      drawn from a wide range, so some classes sit near the decision
//      boundary. Those classes carry most of the run-to-run variance,
//      reproducing the per-class amplification of Fig. 4;
//   2. fixed data, stochastic training — generation depends only on the
//      dataset seed, never on the replicate.
#pragma once

#include <cstdint>

#include "data/dataset.h"

namespace nnr::data {

struct SynthImageConfig {
  std::int64_t num_classes = 10;
  std::int64_t train_per_class = 48;
  std::int64_t test_per_class = 24;
  std::int64_t image_size = 16;
  std::uint64_t dataset_seed = 0xC1FA5EEDull;
  float sigma_min = 1.00F;  // easiest-class pixel noise
  float sigma_max = 2.00F;  // hardest-class pixel noise
};

/// Generates a full train/test split. Deterministic in `config`.
[[nodiscard]] ClassificationDataset make_synth_classification(
    const SynthImageConfig& config, std::string name);

/// The three classification stand-ins used across the benches. Sizes honor
/// NNR_TRAIN_N-style scaling at the call sites (core/experiment config).
[[nodiscard]] ClassificationDataset synth_cifar10(std::int64_t train_n,
                                                  std::int64_t test_n);
[[nodiscard]] ClassificationDataset synth_cifar100(std::int64_t train_n,
                                                   std::int64_t test_n);
[[nodiscard]] ClassificationDataset synth_imagenet(std::int64_t train_n,
                                                   std::int64_t test_n);

}  // namespace nnr::data
