// Simulated accelerator descriptors.
//
// The paper evaluates NVIDIA P100 (Pascal), V100 (Volta), RTX5000 and T4
// (Turing, with and without Tensor Cores) and a TPUv2-8. What matters for the
// noise study is each device's *reduction semantics*:
//
//   - CUDA-core GPUs retire partial sums in scheduler order -> per-launch
//     random combine order, entropy growing with core count;
//   - Tensor-Core paths use fixed systolic-style tiling for GEMM, but fall
//     back to CUDA cores for unsupported ops (batch-norm statistics, bias
//     gradients, loss reductions), so training remains nondeterministic
//     (paper §3.3 "Accelerator comparison");
//   - TPUs are single-threaded/systolic: reductions are deterministic *given
//     the input layout*, which leaves them sensitive to input ordering
//     (paper Fig. 6).
//
// DeviceSpec carries the parameters that drive these behaviours plus the
// profiler's architecture tag for the deterministic-overhead cost model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nnr::hw {

enum class DeviceKind {
  kGpuCudaCores,
  kGpuTensorCores,
  kTpu,
};

enum class GpuArch {
  kNone,    // TPUs
  kPascal,  // P100
  kVolta,   // V100
  kTuring,  // RTX5000, T4
};

struct DeviceSpec {
  std::string name;
  DeviceKind kind = DeviceKind::kGpuCudaCores;
  GpuArch arch = GpuArch::kNone;
  int cuda_cores = 0;    // FP32 ALU count (P100: 3584, V100: 5120, ...)
  int tensor_cores = 0;  // dedicated MMA units (0 if absent/unused)
};

/// The devices benchmarked in the paper (§2.2, Fig. 5, Fig. 8).
[[nodiscard]] DeviceSpec p100();
[[nodiscard]] DeviceSpec v100();
[[nodiscard]] DeviceSpec rtx5000();
[[nodiscard]] DeviceSpec rtx5000_tensor_cores();
[[nodiscard]] DeviceSpec t4();
[[nodiscard]] DeviceSpec tpu_v2();

/// All registered devices, in the paper's presentation order.
[[nodiscard]] const std::vector<DeviceSpec>& all_devices();

/// Lookup by name ("P100", "V100", "RTX5000", "RTX5000 TC", "T4", "TPUv2").
[[nodiscard]] std::optional<DeviceSpec> find_device(std::string_view name);

}  // namespace nnr::hw
