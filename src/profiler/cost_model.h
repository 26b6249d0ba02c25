// Calibrated kernel-time cost model (the nvprof / cuDNN-autotuner stand-in).
//
// Mechanism reproduced from the paper (§4): for every convolution pass the
// library holds a menu of algorithms with different throughputs; several of
// the fastest entries (atomic weight-gradient accumulation, FFT/Winograd
// tilings) are nondeterministic. The autotuner picks the fastest admissible
// entry; deterministic mode shrinks the menu, so training time rises by a
// factor that depends on architecture generation and kernel size.
//
// Calibration targets (paper Fig. 8): the medium-CNN overhead spans roughly
// 284%-746% on P100, 129%-241% on V100, and 117%-196% on T4 as the kernel
// grows 1x1 -> 7x7; per-network overheads on V100 span ~101% (MobileNet) to
// ~185% (VGG19). bench/fig8_overhead prints the model's numbers beside the
// paper's ranges.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/device.h"
#include "hw/execution_context.h"
#include "profiler/kernels.h"
#include "profiler/network_desc.h"

namespace nnr::profiler {

/// One admissible algorithm for a conv pass.
struct AlgoOption {
  ConvAlgo algo = ConvAlgo::kImplicitGemm;
  bool deterministic = true;
  double efficiency = 1.0;  // throughput multiplier vs implicit GEMM
};

class CostModel {
 public:
  [[nodiscard]] static CostModel for_arch(hw::GpuArch arch);

  /// The algorithm menu for a pass of a dense conv with the given kernel
  /// size on this architecture. Depthwise convs and dense layers have a
  /// single deterministic option and are handled internally.
  [[nodiscard]] std::vector<AlgoOption> menu(ConvPass pass,
                                             std::int64_t kernel) const;

  /// Fastest admissible option (deterministic-only when `mode` says so).
  [[nodiscard]] AlgoOption autotune(ConvPass pass, std::int64_t kernel,
                                    hw::DeterminismMode mode) const;

  /// Expands one training step (forward + backward) of `net` into kernel
  /// launches with simulated times, batch `batch`.
  [[nodiscard]] std::vector<KernelLaunch> lower_step(
      const NetworkDesc& net, hw::DeterminismMode mode,
      std::int64_t batch) const;

  /// Total simulated GPU time of one training step (ms).
  [[nodiscard]] double step_time_ms(const NetworkDesc& net,
                                    hw::DeterminismMode mode,
                                    std::int64_t batch) const;

  [[nodiscard]] hw::GpuArch arch() const noexcept { return arch_; }

 private:
  hw::GpuArch arch_ = hw::GpuArch::kVolta;
  double macs_per_ms_ = 0.0;   // compute throughput at efficiency 1.0
  double bytes_per_ms_ = 0.0;  // memory throughput for memory-bound kernels

  // Deterministic-kernel quality of this generation: the efficiency of the
  // always-deterministic direct kernel at k=1 and its decay per unit kernel
  // width (older architectures ship far weaker deterministic kernels).
  double det_base_fwd_ = 1.0;
  double det_base_wgrad_ = 1.0;
  double det_k_slope_ = 0.0;
  // Whether this generation's fast tiled algos (Winograd/FFT) have
  // deterministic forward/bgrad variants (Pascal's do not).
  bool tiled_algos_deterministic_ = true;
};

/// Overhead of deterministic mode for a network on an architecture.
struct OverheadResult {
  double default_ms = 0.0;
  double deterministic_ms = 0.0;

  /// "Normalized deterministic execution GPU time" as plotted in Fig. 8:
  /// 100% means no overhead.
  [[nodiscard]] double normalized_pct() const {
    return default_ms > 0.0 ? 100.0 * deterministic_ms / default_ms : 0.0;
  }
};

[[nodiscard]] OverheadResult deterministic_overhead(const NetworkDesc& net,
                                                    hw::GpuArch arch,
                                                    std::int64_t batch = 64);

}  // namespace nnr::profiler
