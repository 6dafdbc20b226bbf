// MaliGpu device-model tests: reset protocol, power-domain state machines
// (including transition cancellation), cache flush + erratum, address
// spaces, job lifecycle, IRQ lines, and nondeterministic registers.
#include <gtest/gtest.h>

#include "src/hw/gpu.h"

namespace grt {
namespace {

constexpr uint64_t kBase = 0x80000000ull;
constexpr uint64_t kSize = 16 << 20;

class GpuTest : public ::testing::Test {
 protected:
  GpuTest()
      : sku_(FindSku(SkuId::kMaliG71Mp8).value()),
        mem_(kBase, kSize),
        tl_("client"),
        gpu_(sku_, &mem_, &tl_, 7) {}

  uint32_t Read(uint32_t reg) { return gpu_.ReadRegister(reg).value(); }
  void Write(uint32_t reg, uint32_t v) {
    ASSERT_TRUE(gpu_.WriteRegister(reg, v).ok());
  }

  GpuSku sku_;
  PhysicalMemory mem_;
  Timeline tl_;
  MaliGpu gpu_;
};

TEST_F(GpuTest, DiscoveryRegistersMatchSku) {
  EXPECT_EQ(Read(kRegGpuId), sku_.gpu_id_reg);
  EXPECT_EQ(Read(kRegShaderPresentLo), sku_.shader_present);
  EXPECT_EQ(Read(kRegShaderPresentHi), 0u);
  EXPECT_EQ(Read(kRegMmuFeatures), sku_.mmu_features);
  EXPECT_EQ(Read(kRegAsPresent), (1u << sku_.as_count) - 1);
  EXPECT_EQ(Read(kRegThreadMaxThreads), sku_.thread_max);
}

TEST_F(GpuTest, BadOffsetsRejected) {
  EXPECT_FALSE(gpu_.ReadRegister(kGpuMmioSize).ok());
  EXPECT_FALSE(gpu_.ReadRegister(0x101).ok());  // unaligned
  EXPECT_FALSE(gpu_.WriteRegister(kGpuMmioSize + 4, 0).ok());
}

TEST_F(GpuTest, SoftResetRaisesCompletionAfterLatency) {
  Write(kRegGpuCommand, kGpuCommandSoftReset);
  EXPECT_EQ(Read(kRegGpuIrqRawstat) & kGpuIrqResetCompleted, 0u);
  EXPECT_NE(gpu_.NextEventTime(), kNoEvent);
  tl_.Advance(200 * kMicrosecond);
  EXPECT_NE(Read(kRegGpuIrqRawstat) & kGpuIrqResetCompleted, 0u);
  // Write-to-clear.
  Write(kRegGpuIrqClear, kGpuIrqResetCompleted);
  EXPECT_EQ(Read(kRegGpuIrqRawstat) & kGpuIrqResetCompleted, 0u);
}

TEST_F(GpuTest, PowerOnTransitionsThenReady) {
  Write(kRegShaderPwrOnLo, sku_.shader_present);
  EXPECT_EQ(Read(kRegShaderPwrTransLo), sku_.shader_present);
  EXPECT_EQ(Read(kRegShaderReadyLo), 0u);
  tl_.Advance(100 * kMicrosecond);
  EXPECT_EQ(Read(kRegShaderPwrTransLo), 0u);
  EXPECT_EQ(Read(kRegShaderReadyLo), sku_.shader_present);
  EXPECT_NE(Read(kRegGpuIrqRawstat) & kGpuIrqPowerChangedAll, 0u);
}

TEST_F(GpuTest, PowerOffAfterOn) {
  Write(kRegShaderPwrOnLo, sku_.shader_present);
  tl_.Advance(100 * kMicrosecond);
  Write(kRegShaderPwrOffLo, sku_.shader_present);
  tl_.Advance(100 * kMicrosecond);
  EXPECT_EQ(Read(kRegShaderReadyLo), 0u);
}

TEST_F(GpuTest, PowerOnCancelsInflightPowerOff) {
  Write(kRegShaderPwrOnLo, sku_.shader_present);
  tl_.Advance(100 * kMicrosecond);
  // Kick off power-off, then immediately re-power before it completes.
  Write(kRegShaderPwrOffLo, sku_.shader_present);
  Write(kRegShaderPwrOnLo, sku_.shader_present);
  // Cores never dropped: still ready, no transition pending.
  EXPECT_EQ(Read(kRegShaderReadyLo), sku_.shader_present);
  EXPECT_EQ(Read(kRegShaderPwrTransLo), 0u);
  tl_.Advance(200 * kMicrosecond);
  EXPECT_EQ(Read(kRegShaderReadyLo), sku_.shader_present);
}

TEST_F(GpuTest, CacheFlushCompletesAndCountsNondeterministically) {
  uint32_t flush0 = Read(kRegLatestFlush);
  Write(kRegGpuCommand, kGpuCommandCleanInvCaches);
  EXPECT_EQ(Read(kRegGpuStatus) & 1u, 1u);  // flush active
  tl_.Advance(kMillisecond);
  EXPECT_EQ(Read(kRegGpuStatus) & 1u, 0u);
  EXPECT_NE(Read(kRegGpuIrqRawstat) & kGpuIrqCleanCachesCompleted, 0u);
  EXPECT_EQ(Read(kRegLatestFlush), flush0 + 1);

  // LATEST_FLUSH base varies with the nondeterminism seed (§7.3).
  MaliGpu other(sku_, &mem_, &tl_, /*nondet_seed=*/999);
  EXPECT_NE(other.ReadRegister(kRegLatestFlush).value(), flush0);
}

TEST_F(GpuTest, SlowFlushQuirkHonorsWorkaround) {
  // MP8 carries kQuirkSlowCacheFlush: without the SHADER_CONFIG bit the
  // flush takes ~120us; with it, ~25us.
  Write(kRegGpuCommand, kGpuCommandCleanInvCaches);
  tl_.Advance(50 * kMicrosecond);
  EXPECT_EQ(Read(kRegGpuIrqRawstat) & kGpuIrqCleanCachesCompleted, 0u);
  tl_.Advance(100 * kMicrosecond);
  EXPECT_NE(Read(kRegGpuIrqRawstat) & kGpuIrqCleanCachesCompleted, 0u);
  Write(kRegGpuIrqClear, 0xFFFFFFFF);

  Write(kRegShaderConfig, kShaderConfigLsAllowAttrTypes);
  Write(kRegGpuCommand, kGpuCommandCleanInvCaches);
  tl_.Advance(50 * kMicrosecond);
  EXPECT_NE(Read(kRegGpuIrqRawstat) & kGpuIrqCleanCachesCompleted, 0u);
}

TEST_F(GpuTest, AsUpdateLatchesRootAndGoesIdle) {
  Write(AsRegister(0, kAsTranstabLo), 0x80004000);
  Write(AsRegister(0, kAsTranstabHi), 0);
  Write(AsRegister(0, kAsCommand), kAsCommandUpdate);
  EXPECT_EQ(Read(AsRegister(0, kAsStatus)) & kAsStatusActive, kAsStatusActive);
  tl_.Advance(100 * kMicrosecond);
  EXPECT_EQ(Read(AsRegister(0, kAsStatus)) & kAsStatusActive, 0u);
}

TEST_F(GpuTest, IrqMaskGatesStatusAndLines) {
  Write(kRegGpuCommand, kGpuCommandSoftReset);
  tl_.Advance(kMillisecond);
  // Raw status set, but masked: no line, no status.
  EXPECT_NE(Read(kRegGpuIrqRawstat) & kGpuIrqResetCompleted, 0u);
  EXPECT_EQ(Read(kRegGpuIrqStatus), 0u);
  EXPECT_FALSE(gpu_.GpuIrqAsserted());
  Write(kRegGpuIrqMask, kGpuIrqResetCompleted);
  EXPECT_NE(Read(kRegGpuIrqStatus) & kGpuIrqResetCompleted, 0u);
  EXPECT_TRUE(gpu_.GpuIrqAsserted());
}

TEST_F(GpuTest, JobWithoutPowerFails) {
  Write(kRegJobIrqMask, 0xFFFFFFFF);
  Write(JobSlotRegister(0, kJsHeadNextLo), 0x10000000);
  Write(JobSlotRegister(0, kJsAffinityNextLo), sku_.shader_present);
  Write(JobSlotRegister(0, kJsCommandNext), kJsCommandStart);
  tl_.Advance(kMillisecond);
  EXPECT_NE(Read(kRegJobIrqRawstat) & JobIrqFailBit(0), 0u);
  EXPECT_EQ(Read(JobSlotRegister(0, kJsStatus)), kJsStatusFaulted);
}

TEST_F(GpuTest, JobIrqAckReturnsSlotToIdle) {
  Write(kRegJobIrqMask, 0xFFFFFFFF);
  Write(JobSlotRegister(0, kJsHeadNextLo), 0x10000000);
  Write(JobSlotRegister(0, kJsAffinityNextLo), sku_.shader_present);
  Write(JobSlotRegister(0, kJsCommandNext), kJsCommandStart);
  tl_.Advance(kMillisecond);
  Write(kRegJobIrqClear, JobIrqFailBit(0) | JobIrqDoneBit(0));
  EXPECT_EQ(Read(JobSlotRegister(0, kJsStatus)), kJsStatusIdle);
  EXPECT_EQ(Read(kRegJobIrqRawstat), 0u);
}

TEST_F(GpuTest, TimestampTracksVirtualTime) {
  uint32_t t0 = Read(kRegTimestampLo);
  tl_.Advance(kMillisecond);
  uint32_t t1 = Read(kRegTimestampLo);
  EXPECT_GT(t1, t0);
}

TEST_F(GpuTest, NondeterministicRegisterClassification) {
  EXPECT_TRUE(IsNondeterministicRegister(kRegLatestFlush));
  EXPECT_TRUE(IsNondeterministicRegister(kRegTimestampLo));
  EXPECT_TRUE(IsNondeterministicRegister(kRegCycleCountHi));
  EXPECT_FALSE(IsNondeterministicRegister(kRegGpuId));
  EXPECT_FALSE(IsNondeterministicRegister(kRegShaderReadyLo));
  EXPECT_FALSE(IsNondeterministicRegister(kRegJobIrqRawstat));
}

TEST_F(GpuTest, RegisterNamesAreStable) {
  EXPECT_STREQ(RegisterName(kRegGpuId), "GPU_ID");
  EXPECT_STREQ(RegisterName(kRegLatestFlush), "LATEST_FLUSH");
  EXPECT_STREQ(RegisterName(JobSlotRegister(0, kJsCommandNext)),
               "JS0_COMMAND_NEXT");
  EXPECT_STREQ(RegisterName(AsRegister(1, kAsStatus)), "AS1_STATUS");
}

TEST_F(GpuTest, HardResetScrubsEverything) {
  Write(kRegShaderPwrOnLo, sku_.shader_present);
  Write(kRegJobIrqMask, 0xFFFFFFFF);
  tl_.Advance(kMillisecond);
  gpu_.HardReset();
  EXPECT_EQ(Read(kRegShaderReadyLo), 0u);
  EXPECT_EQ(Read(kRegJobIrqMask), 0u);
  EXPECT_EQ(Read(kRegGpuIrqRawstat), 0u);
  EXPECT_EQ(gpu_.NextEventTime(), kNoEvent);
  EXPECT_FALSE(gpu_.AnyCoresPowered());
}

}  // namespace
}  // namespace grt
