#include "hw/device.h"

#include <gtest/gtest.h>

namespace nnr::hw {
namespace {

TEST(Device, PaperCoreCounts) {
  // §2.2: P100 3584, V100 5120, RTX5000 3072, T4 2560 CUDA cores.
  EXPECT_EQ(p100().cuda_cores, 3584);
  EXPECT_EQ(v100().cuda_cores, 5120);
  EXPECT_EQ(rtx5000().cuda_cores, 3072);
  EXPECT_EQ(t4().cuda_cores, 2560);
}

TEST(Device, Architectures) {
  EXPECT_EQ(p100().arch, GpuArch::kPascal);
  EXPECT_EQ(v100().arch, GpuArch::kVolta);
  EXPECT_EQ(rtx5000().arch, GpuArch::kTuring);
  EXPECT_EQ(t4().arch, GpuArch::kTuring);
  // Only the TPU is deterministic by construction (systolic reductions).
  EXPECT_EQ(tpu_v2().kind, DeviceKind::kTpu);
  EXPECT_EQ(v100().kind, DeviceKind::kGpuCudaCores);
}

TEST(Device, TensorCoreVariantSharesSilicon) {
  const DeviceSpec tc = rtx5000_tensor_cores();
  EXPECT_EQ(tc.kind, DeviceKind::kGpuTensorCores);
  EXPECT_EQ(tc.cuda_cores, rtx5000().cuda_cores);
}

TEST(Device, RegistryHasSixDevices) {
  EXPECT_EQ(all_devices().size(), 6u);
}

TEST(Device, LookupByName) {
  const auto found = find_device("RTX5000 TC");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->kind, DeviceKind::kGpuTensorCores);
}

TEST(Device, LookupMissReturnsNullopt) {
  EXPECT_FALSE(find_device("A100").has_value());
}

}  // namespace
}  // namespace nnr::hw
