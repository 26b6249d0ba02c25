#include "profiler/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nnr::profiler {

namespace {

/// Deterministic-kernel shape sensitivity: the always-deterministic direct
/// kernels degrade on "skewed" workloads (huge spatial extent, few channels)
/// where the atomic/tiled kernels shine. This is the mechanism behind the
/// medium CNN's large overhead even at 1x1 kernels (Fig. 8b) while
/// channel-heavy layers in the ten production networks stay closer to the
/// Fig. 8a range.
double shape_badness(const LayerDesc& layer) {
  const double spatial = static_cast<double>(layer.out_h * layer.out_w);
  const double channel_work = std::max<double>(
      1.0, static_cast<double>(layer.in_channels * layer.out_channels));
  // Superlinear channel exponent: production networks (wide channels even in
  // early blocks) escape the penalty quickly, while channel-thin probes like
  // the medium CNN stay deep inside it.
  return spatial / std::pow(channel_work, 1.5);
}

struct ArchTuning {
  double macs_per_ms;
  double bytes_per_ms;
  double det_wgrad_base;   // direct deterministic wgrad efficiency at k=1
  double det_k_slope;      // efficiency decay with kernel area
  double badness_coeff;    // shape-sensitivity of deterministic kernels
  double det_bn_penalty;   // deterministic batch-norm/bias kernels slowdown
  bool tiled_deterministic;  // Winograd/FFT fwd+bgrad deterministic variants
};

ArchTuning tuning_for(hw::GpuArch arch) {
  switch (arch) {
    case hw::GpuArch::kPascal:
      // P100: no deterministic tiled algos, weak direct kernels, very
      // shape-sensitive. Calibration targets: medium CNN 284%-746%,
      // network suite up to ~211% (paper Fig. 8).
      return {.macs_per_ms = 4.7e9,
              .bytes_per_ms = 3.0e9,
              .det_wgrad_base = 0.70,
              .det_k_slope = 0.13,
              .badness_coeff = 2.0,
              .det_bn_penalty = 2.2,
              .tiled_deterministic = false};
    case hw::GpuArch::kVolta:
      // V100 targets: medium CNN 129%-241%, VGG-19 ~185%, MobileNet ~101%.
      return {.macs_per_ms = 7.8e9,
              .bytes_per_ms = 4.5e9,
              .det_wgrad_base = 0.55,
              .det_k_slope = 0.050,
              .badness_coeff = 0.35,
              .det_bn_penalty = 1.15,
              .tiled_deterministic = true};
    case hw::GpuArch::kTuring:
      // T4 targets: medium CNN 117%-196%.
      return {.macs_per_ms = 4.0e9,
              .bytes_per_ms = 2.4e9,
              .det_wgrad_base = 0.65,
              .det_k_slope = 0.042,
              .badness_coeff = 0.25,
              .det_bn_penalty = 1.12,
              .tiled_deterministic = true};
    case hw::GpuArch::kNone:
      break;
  }
  assert(false && "cost model requires a GPU architecture");
  return {};
}

}  // namespace

std::string algo_name(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kImplicitGemm:
      return "implicit_gemm";
    case ConvAlgo::kImplicitPrecompGemm:
      return "implicit_precomp_gemm";
    case ConvAlgo::kWinograd:
      return "winograd";
    case ConvAlgo::kFft:
      return "fft";
    case ConvAlgo::kAtomicReduction:
      return "atomic_reduction";
    case ConvAlgo::kDirectDeterministic:
      return "direct_deterministic";
  }
  return "?";
}

std::string pass_name(ConvPass pass) {
  switch (pass) {
    case ConvPass::kForward:
      return "fwd";
    case ConvPass::kWgrad:
      return "wgrad";
    case ConvPass::kBgrad:
      return "bgrad";
  }
  return "?";
}

CostModel CostModel::for_arch(hw::GpuArch arch) {
  const ArchTuning tuning = tuning_for(arch);
  CostModel model;
  model.arch_ = arch;
  model.macs_per_ms_ = tuning.macs_per_ms;
  model.bytes_per_ms_ = tuning.bytes_per_ms;
  model.det_base_fwd_ = 1.0;  // implicit GEMM forward is deterministic
  model.det_base_wgrad_ = tuning.det_wgrad_base;
  model.det_k_slope_ = tuning.det_k_slope;
  model.tiled_algos_deterministic_ = tuning.tiled_deterministic;
  return model;
}

std::vector<AlgoOption> CostModel::menu(ConvPass pass,
                                        std::int64_t kernel) const {
  std::vector<AlgoOption> options;
  const double k = static_cast<double>(kernel);
  const bool tiled_det = tiled_algos_deterministic_;

  switch (pass) {
    case ConvPass::kForward: {
      // Forward implicit-GEMM kernels are deterministic in cuDNN; the fast
      // tiled variants are deterministic only on newer generations.
      options.push_back({ConvAlgo::kImplicitGemm, true, 1.0});
      options.push_back({ConvAlgo::kImplicitPrecompGemm, tiled_det, 1.25});
      if (kernel == 3) {
        options.push_back({ConvAlgo::kWinograd, tiled_det, 2.1});
      }
      if (kernel >= 5) {
        options.push_back(
            {ConvAlgo::kFft, tiled_det, 1.5 + 0.15 * (k - 5.0)});
      }
      break;
    }
    case ConvPass::kBgrad: {
      options.push_back(
          {ConvAlgo::kAtomicReduction, false, 1.15 + 0.03 * (k - 1.0)});
      options.push_back({ConvAlgo::kDirectDeterministic, true,
                         1.0 / (1.0 + 0.4 * det_k_slope_ * (k - 1.0))});
      if (kernel == 3) {
        options.push_back({ConvAlgo::kWinograd, tiled_det, 1.9});
      }
      if (kernel >= 5) {
        options.push_back(
            {ConvAlgo::kFft, tiled_det, 1.45 + 0.15 * (k - 5.0)});
      }
      break;
    }
    case ConvPass::kWgrad: {
      // Atomic accumulation: fastest, never deterministic. The tiled wgrad
      // variants are nondeterministic on every generation (cuDNN docs).
      options.push_back(
          {ConvAlgo::kAtomicReduction, false, 1.3 + 0.05 * (k - 1.0)});
      if (kernel == 3) {
        options.push_back({ConvAlgo::kWinograd, false, 1.9});
      }
      if (kernel >= 5) {
        options.push_back({ConvAlgo::kFft, false, 1.9 + 0.25 * (k - 5.0)});
      }
      options.push_back(
          {ConvAlgo::kDirectDeterministic, true,
           det_base_wgrad_ / (1.0 + det_k_slope_ * (k * k - 1.0) / 7.0)});
      break;
    }
  }
  return options;
}

AlgoOption CostModel::autotune(ConvPass pass, std::int64_t kernel,
                               hw::DeterminismMode mode) const {
  const std::vector<AlgoOption> options = menu(pass, kernel);
  AlgoOption best{};
  best.efficiency = 0.0;
  for (const AlgoOption& option : options) {
    if (mode == hw::DeterminismMode::kDeterministic && !option.deterministic) {
      continue;
    }
    if (option.efficiency > best.efficiency) best = option;
  }
  assert(best.efficiency > 0.0 && "menu must contain a deterministic option");
  return best;
}

std::vector<KernelLaunch> CostModel::lower_step(const NetworkDesc& net,
                                                hw::DeterminismMode mode,
                                                std::int64_t batch) const {
  const ArchTuning tuning = tuning_for(arch_);
  std::vector<KernelLaunch> launches;
  const double b = static_cast<double>(batch);
  const bool deterministic = mode == hw::DeterminismMode::kDeterministic;

  for (const LayerDesc& layer : net.layers) {
    switch (layer.kind) {
      case LayerKind::kConv: {
        if (layer.gemm_lowered) {
          // Pointwise conv lowered to batched GEMM: deterministic fast path
          // in both modes (fwd + dgrad + wgrad as three GEMMs).
          const double t = b * layer.macs() / (macs_per_ms_ * 1.2);
          for (const char* pass : {"fwd", "bgrad", "wgrad"}) {
            launches.push_back({std::string("gemm_pointwise_") + pass, t});
          }
          break;
        }
        // Deterministic direct kernels lose additional ground on skewed
        // shapes (spatially huge, channel-thin layers).
        const double det_shape_penalty =
            1.0 + tuning.badness_coeff * std::log1p(shape_badness(layer) / 0.5);
        for (const ConvPass pass :
             {ConvPass::kForward, ConvPass::kBgrad, ConvPass::kWgrad}) {
          const AlgoOption algo = autotune(pass, layer.kernel, mode);
          double efficiency = algo.efficiency;
          if (deterministic &&
              algo.algo == ConvAlgo::kDirectDeterministic) {
            efficiency /= det_shape_penalty;
          }
          const double t = b * layer.macs() / (macs_per_ms_ * efficiency);
          // GEMM-style kernels are kernel-size-agnostic (one parametrized
          // kernel); Winograd/FFT ship one specialized tiling per size —
          // this naming split is what skews the deterministic-mode kernel
          // distribution toward fewer types (paper Fig. 7).
          std::string name = algo_name(algo.algo) + "_" + pass_name(pass);
          if (algo.algo == ConvAlgo::kWinograd || algo.algo == ConvAlgo::kFft) {
            name += '_';
            name += std::to_string(layer.kernel);
            name += 'x';
            name += std::to_string(layer.kernel);
          }
          launches.push_back({std::move(name), t});
        }
        break;
      }
      case LayerKind::kDepthwiseConv: {
        // Direct depthwise kernels; no nondeterministic fast path exists, so
        // both modes run the same kernels (memory-bound).
        const double t =
            b * (layer.macs() / macs_per_ms_ +
                 2.0 * layer.activation_bytes() / bytes_per_ms_);
        for (const char* pass : {"fwd", "bgrad", "wgrad"}) {
          launches.push_back({std::string("depthwise_") + pass, t});
        }
        break;
      }
      case LayerKind::kDense: {
        const double t = b * layer.macs() / (macs_per_ms_ * 1.2);
        for (const char* pass : {"fwd", "bgrad", "wgrad"}) {
          launches.push_back({std::string("gemm_dense_") + pass, t});
        }
        break;
      }
      case LayerKind::kBatchNorm: {
        // Fused BN: two memory-bound passes. Deterministic mode swaps the
        // atomic BN-gradient kernel for a slower tree-reduction variant.
        const double det_factor = deterministic ? tuning.det_bn_penalty : 1.0;
        const double t =
            b * 2.0 * layer.activation_bytes() / bytes_per_ms_ * det_factor;
        const char* suffix = deterministic ? "_det" : "";
        launches.push_back({std::string("batchnorm_fwd") + suffix, t});
        launches.push_back({std::string("batchnorm_bwd") + suffix, t});
        break;
      }
      case LayerKind::kPool: {
        const double t = b * 2.0 * layer.activation_bytes() / bytes_per_ms_;
        launches.push_back({"pool_fwd", t * 0.5});
        launches.push_back({"pool_bwd", t * 0.5});
        break;
      }
      case LayerKind::kActivation: {
        const double t = b * 2.0 * layer.activation_bytes() / bytes_per_ms_;
        launches.push_back({"relu_fwd", t * 0.5});
        launches.push_back({"relu_bwd", t * 0.5});
        break;
      }
    }
  }
  return launches;
}

double CostModel::step_time_ms(const NetworkDesc& net,
                               hw::DeterminismMode mode,
                               std::int64_t batch) const {
  double total = 0.0;
  for (const KernelLaunch& launch : lower_step(net, mode, batch)) {
    total += launch.time_ms;
  }
  return total;
}

OverheadResult deterministic_overhead(const NetworkDesc& net,
                                      hw::GpuArch arch, std::int64_t batch) {
  const CostModel model = CostModel::for_arch(arch);
  OverheadResult result;
  result.default_ms =
      model.step_time_ms(net, hw::DeterminismMode::kDefault, batch);
  result.deterministic_ms =
      model.step_time_ms(net, hw::DeterminismMode::kDeterministic, batch);
  return result;
}

}  // namespace nnr::profiler
