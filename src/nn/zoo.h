// Model zoo: the scaled-down counterparts of the paper's benchmark networks.
//
// The paper trains SmallCNN (3 conv layers, no BN — Appendix C), ResNet-18
// and ResNet-50 at full scale on GPUs. This reproduction runs on CPU inside
// a simulated-accelerator substrate, so every architecture keeps its paper
// topology (depth pattern, BN placement, residual wiring, pooling scheme) at
// reduced width and input resolution (16x16). PAPER.md, "Scaled
// reproduction", documents the substitution and its effect on metric scales.
#pragma once

#include <cstdint>

#include "nn/model.h"

namespace nnr::nn {

/// Normalization choice for the model-design ablation: the paper's Fig. 2
/// contrasts only BN vs none; GroupNorm separates "normalization stabilizes
/// optimization" from "batch statistics transmit order noise".
enum class NormKind { kNone, kBatch, kGroup };

/// Activation choice for the smoothness ablation (Shamir et al. 2020,
/// cited in the paper's related work).
enum class ActKind { kReLU, kSiLU, kGELU, kTanh };

/// Three-conv SmallCNN (paper Appendix C, left column): three
/// conv3x3-[norm]-activation-maxpool stages (16/32/32 channels), then
/// Dense-32, activation, [Dropout], Dense-num_classes. Input: [N, 3, 16, 16].
/// This is the paper cell: ReLU, BatchNorm optional (the Fig. 2 ablation).
/// The three variants below vary one part of it for an ablation.
[[nodiscard]] Model small_cnn(std::int64_t num_classes, bool with_batchnorm);

/// No normalization, ReLU, and Dropout before the classifier: a consumer
/// for the kDropout noise channel (the channel-decomposition ablation).
[[nodiscard]] Model small_cnn_dropout(std::int64_t num_classes, float rate);

/// ReLU with a selectable per-stage normalization layer.
[[nodiscard]] Model small_cnn_norm(std::int64_t num_classes, NormKind norm);

/// BatchNorm with a selectable activation.
[[nodiscard]] Model small_cnn_activation(std::int64_t num_classes,
                                         ActKind act);

/// Scaled ResNet-18: stem + 3 stages of two BasicBlocks (8/16/32 channels),
/// GAP head. Input: [N, 3, 16, 16].
[[nodiscard]] Model resnet18s(std::int64_t num_classes);

/// Scaled ResNet-50: stem + 3 stages of BottleneckBlocks (expansion 2),
/// GAP head. Input: [N, 3, 16, 16].
[[nodiscard]] Model resnet50s(std::int64_t num_classes);

/// Scaled VGG: plain (non-residual) deep stack of conv-BN-ReLU pairs, three
/// 2x-pool stages (16/32/64 channels), GAP head. The paper profiles VGG-16/19
/// as its worst-case deterministic-overhead subjects (Fig. 8a); this is the
/// trainable counterpart for stability experiments — the deepest
/// plain-topology model in the zoo.
[[nodiscard]] Model vgg_s(std::int64_t num_classes);

/// Scaled MobileNet: depthwise-separable blocks (DepthwiseConv2D + pointwise
/// 1x1 Conv2D, each with BN+ReLU), three pool stages. The paper's
/// lowest-overhead profiling subject (Fig. 8a, ~101%); depthwise reductions
/// contract over only k*k taps, so this is also the zoo's *least*
/// IMPL-noise-exposed convnet per reduction.
[[nodiscard]] Model mobilenet_s(std::int64_t num_classes);

}  // namespace nnr::nn
