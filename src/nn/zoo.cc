#include "nn/zoo.h"

#include <optional>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv.h"
#include "nn/dropout.h"
#include "nn/flatten.h"
#include "nn/groupnorm.h"
#include "nn/pooling.h"
#include "nn/residual.h"

namespace nnr::nn {

namespace {

void emplace_activation(Model& m, ActKind act) {
  switch (act) {
    case ActKind::kReLU:
      m.emplace<ReLU>();
      return;
    case ActKind::kSiLU:
      m.emplace<SiLU>();
      return;
    case ActKind::kGELU:
      m.emplace<GELU>();
      return;
    case ActKind::kTanh:
      m.emplace<Tanh>();
      return;
  }
}

/// The one SmallCNN topology: three conv-[norm]-act-pool stages, then
/// Dense-32, act, [Dropout], Dense-num_classes.
Model build_small_cnn(std::int64_t num_classes, NormKind norm, ActKind act,
                      std::optional<float> dropout) {
  Model m;
  const std::int64_t widths[4] = {3, 16, 32, 32};
  for (int stage = 0; stage < 3; ++stage) {
    const std::int64_t out = widths[stage + 1];
    m.emplace<Conv2D>(widths[stage], out, 3);
    switch (norm) {
      case NormKind::kNone:
        break;
      case NormKind::kBatch:
        m.emplace<BatchNorm2D>(out);
        break;
      case NormKind::kGroup:
        m.emplace<GroupNorm>(out, /*groups=*/4);
        break;
    }
    emplace_activation(m, act);
    m.emplace<MaxPool2x2>();
  }
  // 16x16 -> 2x2 after three pools; 2*2*32 = 128 features.
  m.emplace<Flatten>();
  m.emplace<Dense>(128, 32);
  emplace_activation(m, act);
  if (dropout) m.emplace<Dropout>(*dropout);
  m.emplace<Dense>(32, num_classes);
  return m;
}

}  // namespace

Model small_cnn(std::int64_t num_classes, bool with_batchnorm) {
  return build_small_cnn(num_classes,
                         with_batchnorm ? NormKind::kBatch : NormKind::kNone,
                         ActKind::kReLU, std::nullopt);
}

Model small_cnn_dropout(std::int64_t num_classes, float rate) {
  return build_small_cnn(num_classes, NormKind::kNone, ActKind::kReLU, rate);
}

Model small_cnn_norm(std::int64_t num_classes, NormKind norm) {
  return build_small_cnn(num_classes, norm, ActKind::kReLU, std::nullopt);
}

Model small_cnn_activation(std::int64_t num_classes, ActKind act) {
  return build_small_cnn(num_classes, NormKind::kBatch, act, std::nullopt);
}

Model resnet18s(std::int64_t num_classes) {
  Model m;
  m.emplace<Conv2D>(3, 8, 3);
  m.emplace<BatchNorm2D>(8);
  m.emplace<ReLU>();
  // Stage 1: 8 channels @ 16x16.
  m.emplace<BasicBlock>(8, 8, 1);
  m.emplace<BasicBlock>(8, 8, 1);
  // Stage 2: 16 channels @ 8x8.
  m.emplace<BasicBlock>(8, 16, 2);
  m.emplace<BasicBlock>(16, 16, 1);
  // Stage 3: 32 channels @ 4x4.
  m.emplace<BasicBlock>(16, 32, 2);
  m.emplace<BasicBlock>(32, 32, 1);
  m.emplace<GlobalAvgPool>();
  m.emplace<Dense>(32, num_classes);
  return m;
}

Model resnet50s(std::int64_t num_classes) {
  constexpr std::int64_t kExpansion = 2;
  Model m;
  m.emplace<Conv2D>(3, 8, 3);
  m.emplace<BatchNorm2D>(8);
  m.emplace<ReLU>();
  // Stage 1: bottleneck 8 -> 16 @ 16x16.
  m.emplace<BottleneckBlock>(8, 8, kExpansion, 1);
  m.emplace<BottleneckBlock>(16, 8, kExpansion, 1);
  // Stage 2: bottleneck -> 32 @ 8x8.
  m.emplace<BottleneckBlock>(16, 16, kExpansion, 2);
  m.emplace<BottleneckBlock>(32, 16, kExpansion, 1);
  // Stage 3: bottleneck -> 64 @ 4x4.
  m.emplace<BottleneckBlock>(32, 32, kExpansion, 2);
  m.emplace<BottleneckBlock>(64, 32, kExpansion, 1);
  m.emplace<GlobalAvgPool>();
  m.emplace<Dense>(64, num_classes);
  return m;
}

Model vgg_s(std::int64_t num_classes) {
  Model m;
  const std::int64_t widths[4] = {3, 16, 32, 64};
  // VGG pattern: two 3x3 conv-BN-ReLU per stage, then pool. 16x16 -> 2x2.
  for (int stage = 0; stage < 3; ++stage) {
    m.emplace<Conv2D>(widths[stage], widths[stage + 1], 3);
    m.emplace<BatchNorm2D>(widths[stage + 1]);
    m.emplace<ReLU>();
    m.emplace<Conv2D>(widths[stage + 1], widths[stage + 1], 3);
    m.emplace<BatchNorm2D>(widths[stage + 1]);
    m.emplace<ReLU>();
    m.emplace<MaxPool2x2>();
  }
  m.emplace<GlobalAvgPool>();
  m.emplace<Dense>(64, num_classes);
  return m;
}

namespace {

/// Depthwise-separable unit: DW 3x3 -> BN -> ReLU -> PW 1x1 -> BN -> ReLU.
void emplace_separable(Model& m, std::int64_t in, std::int64_t out) {
  m.emplace<DepthwiseConv2D>(in, 3);
  m.emplace<BatchNorm2D>(in);
  m.emplace<ReLU>();
  m.emplace<Conv2D>(in, out, 1);
  m.emplace<BatchNorm2D>(out);
  m.emplace<ReLU>();
}

}  // namespace

Model mobilenet_s(std::int64_t num_classes) {
  Model m;
  // Stem.
  m.emplace<Conv2D>(3, 16, 3);
  m.emplace<BatchNorm2D>(16);
  m.emplace<ReLU>();
  // Three separable stages with 2x pooling between: 16x16 -> 2x2.
  emplace_separable(m, 16, 32);
  m.emplace<MaxPool2x2>();
  emplace_separable(m, 32, 64);
  m.emplace<MaxPool2x2>();
  emplace_separable(m, 64, 64);
  m.emplace<MaxPool2x2>();
  m.emplace<GlobalAvgPool>();
  m.emplace<Dense>(64, num_classes);
  return m;
}

}  // namespace nnr::nn
