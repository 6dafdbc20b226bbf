// §5 continuous-validation tests: "After DriverShim sends its memory dump
// to the client, it unmaps the dumped memory regions from CPU... any
// spurious access to the memory region will be trapped... In the same
// fashion, GPUShim unmaps the shared memory from the GPU's page table when
// the GPU becomes idle; any spurious access from GPU will be trapped."
#include <gtest/gtest.h>

#include <memory>

#include "src/cloud/session.h"
#include "src/harness/rig.h"
#include "src/shim/drivershim.h"

namespace grt {
namespace {

TEST(ContinuousValidation, CloudCpuSealedWhileGpuBusy) {
  ClientDevice device(SkuId::kMaliG71Mp8, 139);
  Timeline cloud_tl("cloud");
  PhysicalMemory cloud_mem(kCarveoutBase, kCarveoutSize);
  SpeculationHistory history;
  ShimConfig config = ShimConfig::OursMD();
  GpuShim gpushim(&device.gpu(), &device.tzasc(), &device.mem(),
                  &device.timeline(), config.meta_only_sync,
                  config.compress_sync, &device.soc());
  NetChannel channel(WifiConditions(), &cloud_tl, &device.timeline());
  DriverShim shim(config, &channel, &gpushim, &cloud_mem, &history);
  gpushim.BeginSession();

  // Before any job: the cloud CPU may touch the shared memory freely.
  EXPECT_TRUE(cloud_mem.WriteU32(kCarveoutBase, 1).ok());

  // Commit a batch containing a job-start write: the window seals. (The
  // IRQ mask rides in the same batch so the fault interrupt can fire.)
  shim.EnterHotFunction("fn");
  shim.WriteReg(kRegJobIrqMask, RegValue(0xFFFFFFFF), "init:mask");
  shim.WriteReg(JobSlotRegister(0, kJsCommandNext), RegValue(kJsCommandStart),
                "job:start");
  shim.LeaveHotFunction();

  // A buggy driver touching GPU memory mid-job traps (§5 safety net).
  Status trapped = cloud_mem.WriteU32(kCarveoutBase, 2);
  EXPECT_EQ(trapped.code(), StatusCode::kPermissionDenied);
  EXPECT_GE(shim.stats().spurious_cpu_traps, 1u);

  // The (faulting, since nothing is mapped) job raises its interrupt; the
  // window reopens.
  auto irq = shim.WaitForIrq(kSecond);
  ASSERT_TRUE(irq.ok()) << irq.status().ToString();
  EXPECT_TRUE(cloud_mem.WriteU32(kCarveoutBase, 3).ok());
  gpushim.EndSession();
}

TEST(ContinuousValidation, DestroyedShimLeavesNothingOnTheMemory) {
  // The seal policy and the snapshot observer both call into the shim; the
  // memory outlives it here, and later accesses must not reach it.
  ClientDevice device(SkuId::kMaliG71Mp8, 157);
  Timeline cloud_tl("cloud");
  PhysicalMemory cloud_mem(kCarveoutBase, kCarveoutSize);
  SpeculationHistory history;
  ShimConfig config = ShimConfig::OursMD();
  GpuShim gpushim(&device.gpu(), &device.tzasc(), &device.mem(),
                  &device.timeline(), config.meta_only_sync,
                  config.compress_sync, &device.soc());
  NetChannel channel(WifiConditions(), &cloud_tl, &device.timeline());
  auto shim = std::make_unique<DriverShim>(config, &channel, &gpushim,
                                           &cloud_mem, &history);
  gpushim.BeginSession();
  // Destroyed mid-job, with the window sealed.
  shim->EnterHotFunction("fn");
  shim->WriteReg(JobSlotRegister(0, kJsCommandNext), RegValue(kJsCommandStart),
                 "job:start");
  shim->LeaveHotFunction();
  EXPECT_EQ(cloud_mem.WriteU32(kCarveoutBase, 1).code(),
            StatusCode::kPermissionDenied);
  shim.reset();

  EXPECT_TRUE(cloud_mem.WriteU32(kCarveoutBase, 2).ok());
  EXPECT_EQ(cloud_mem.ReadU32(kCarveoutBase).value(), 2u);
  cloud_mem.ZeroAll();
  gpushim.EndSession();
}

TEST(ContinuousValidation, SpuriousClientGpuAccessTrapped) {
  ClientDevice device(SkuId::kMaliG71Mp8, 149);
  GpuShim shim(&device.gpu(), &device.tzasc(), &device.mem(),
               &device.timeline(), true, true, &device.soc());
  shim.BeginSession();

  // Rogue GPU activity outside any cloud-directed work: power the cores
  // and kick a job directly (simulating misbehaving firmware).
  Tzasc& tzasc = device.tzasc();
  auto w = [&](uint32_t reg, uint32_t v) {
    ASSERT_TRUE(tzasc.WriteGpuRegister(World::kSecure, &device.gpu(), reg, v)
                    .ok());
  };
  w(kRegL2PwrOnLo, 1);
  w(kRegShaderPwrOnLo, 0xFF);
  device.timeline().Advance(kMillisecond);
  w(kRegJobIrqMask, 0xFFFFFFFF);
  // Point the address space at the carveout so the rogue job's descriptor
  // fetch actually reaches the (policy-guarded) shared memory.
  w(AsRegister(0, kAsTranstabLo), static_cast<uint32_t>(kCarveoutBase));
  w(AsRegister(0, kAsCommand), kAsCommandUpdate);
  device.timeline().Advance(kMillisecond);
  w(JobSlotRegister(0, kJsHeadNextLo), 0x10000000);
  w(JobSlotRegister(0, kJsAffinityNextLo), 0xFF);
  w(JobSlotRegister(0, kJsCommandNext), kJsCommandStart);
  device.timeline().Advance(kMillisecond);

  // The descriptor fetch was trapped: job failed, access counted.
  EXPECT_GT(shim.spurious_gpu_traps(), 0u);
  EXPECT_EQ(device.gpu()
                .ReadRegister(JobSlotRegister(0, kJsStatus))
                .value(),
            kJsStatusFaulted);
  shim.EndSession();

  // Outside a session the policy is gone: GPU-origin access is governed by
  // the TZASC alone again.
  EXPECT_TRUE(
      device.mem().WriteU32(kCarveoutBase, 7, MemAccessOrigin::kGpu).ok());
}

TEST(ContinuousValidation, CleanRecordRunHasZeroTraps) {
  ClientDevice device(SkuId::kMaliG71Mp8, 151);
  CloudService service;
  SpeculationHistory history;
  RecordSessionConfig config;
  config.shim = ShimConfig::OursMDS();
  RecordSession session(&service, &device, config, &history);
  ASSERT_TRUE(session.Connect().ok());
  ASSERT_TRUE(session.RecordWorkload(BuildMnist(), 1).ok());
  // The protocol's own accesses all fall inside sanctioned windows: the
  // safety net never fires in correct operation.
  EXPECT_EQ(session.shim().stats().spurious_cpu_traps, 0u);
  EXPECT_EQ(session.gpushim().spurious_gpu_traps(), 0u);
}

}  // namespace
}  // namespace grt
