// Clobber / side-effect model tests (the register-semantics section of
// src/hw/regs.h). The safety arguments of the footprint analysis and of
// planopt bottom out in these tables, so each classification is pinned
// against the device model's actual behavior (src/hw/gpu.cc): a register
// the model calls a pure latch must never change anything else, and a
// stimulus the model calls clobbering must cover every register gpu.cc
// may touch.
#include <gtest/gtest.h>

#include "src/hw/regs.h"

namespace grt {
namespace {

TEST(RegClassify, ConstantsSurviveEverything) {
  EXPECT_EQ(ClassifyRegister(kRegGpuId), RegClass::kConstant);
  EXPECT_EQ(ClassifyRegister(kRegShaderPresentLo), RegClass::kConstant);
  EXPECT_EQ(ClassifyRegister(kRegShaderPresentHi), RegClass::kConstant);
  EXPECT_EQ(ClassifyRegister(kRegThreadMaxThreads), RegClass::kConstant);
  // Not even a hard reset clobbers them.
  EXPECT_FALSE(MayClobberRegister(kRegGpuCommand, kGpuCommandHardReset,
                                  kRegGpuId));
  EXPECT_FALSE(MayClobberRegister(kRegGpuCommand, kGpuCommandSoftReset,
                                  kRegShaderPresentLo));
}

TEST(RegClassify, LatchesTriggersStatusNondet) {
  EXPECT_EQ(ClassifyRegister(kRegGpuIrqMask), RegClass::kCpuConfig);
  EXPECT_EQ(ClassifyRegister(kJobSlotBase + kJsHeadNextLo),
            RegClass::kCpuConfig);
  EXPECT_EQ(ClassifyRegister(kRegShaderConfig), RegClass::kCpuConfig);
  EXPECT_EQ(ClassifyRegister(kAsBase + kAsTranstabLo), RegClass::kCpuConfig);

  EXPECT_EQ(ClassifyRegister(kRegGpuCommand), RegClass::kTrigger);
  EXPECT_EQ(ClassifyRegister(kRegGpuIrqClear), RegClass::kTrigger);
  EXPECT_EQ(ClassifyRegister(kRegShaderPwrOnLo), RegClass::kTrigger);
  EXPECT_EQ(ClassifyRegister(kJobSlotBase + kJsCommandNext),
            RegClass::kTrigger);

  EXPECT_EQ(ClassifyRegister(kRegGpuIrqRawstat), RegClass::kDeviceStatus);
  EXPECT_EQ(ClassifyRegister(kRegShaderReadyLo), RegClass::kDeviceStatus);
  EXPECT_EQ(ClassifyRegister(kJobSlotBase + kJsStatus),
            RegClass::kDeviceStatus);

  EXPECT_EQ(ClassifyRegister(kRegLatestFlush), RegClass::kNondet);
  EXPECT_EQ(ClassifyRegister(kRegTimestampLo), RegClass::kNondet);

  EXPECT_EQ(ClassifyRegister(0x3FF0), RegClass::kUnknown);
}

TEST(SideEffects, PureLatchesHaveNone) {
  EXPECT_FALSE(WriteHasSideEffects(kRegGpuIrqMask, 0x7));
  EXPECT_FALSE(WriteHasSideEffects(kJobSlotBase + kJsConfigNext, 0x1234));
  EXPECT_TRUE(WriteHasSideEffects(kRegGpuCommand, kGpuCommandCleanCaches));
  EXPECT_TRUE(WriteHasSideEffects(kRegShaderPwrOnLo, 0xFF));
  EXPECT_TRUE(WriteHasSideEffects(kRegGpuIrqClear, 0x1));
  // Unknown offsets: assume the worst.
  EXPECT_TRUE(WriteHasSideEffects(0x3FF0, 0));
}

TEST(PowerHelpers, RegisterMapping) {
  EXPECT_TRUE(IsPowerControlRegister(kRegShaderPwrOnLo));
  EXPECT_TRUE(IsPowerControlRegister(kRegL2PwrOffHi));
  EXPECT_FALSE(IsPowerControlRegister(kRegShaderReadyLo));

  uint32_t ready = 0, trans = 0;
  ASSERT_TRUE(PowerStatusRegistersFor(kRegTilerPwrOffLo, &ready, &trans));
  EXPECT_EQ(ready, kRegTilerReadyLo);
  EXPECT_EQ(trans, kRegTilerPwrTransLo);
  EXPECT_FALSE(PowerStatusRegistersFor(kRegGpuIrqMask, &ready, &trans));
}

TEST(ClobberModel, ResetsClobberAllButConstants) {
  for (uint32_t cmd : {kGpuCommandSoftReset, kGpuCommandHardReset}) {
    EXPECT_TRUE(MayClobberRegister(kRegGpuCommand, cmd, kRegGpuIrqMask));
    EXPECT_TRUE(MayClobberRegister(kRegGpuCommand, cmd, kRegShaderReadyLo));
    EXPECT_TRUE(
        MayClobberRegister(kRegGpuCommand, cmd, kJobSlotBase + kJsStatus));
    EXPECT_FALSE(MayClobberRegister(kRegGpuCommand, cmd, kRegGpuId));
  }
  // A NOP command is not a reset.
  EXPECT_FALSE(
      MayClobberRegister(kRegGpuCommand, kGpuCommandNop, kRegGpuIrqMask));
}

TEST(ClobberModel, ConfigWritesOnlyLatch) {
  // A pure latch write clobbers itself and nothing device-owned.
  EXPECT_TRUE(
      MayClobberRegister(kRegShaderConfig, 0x5, kRegShaderConfig));
  EXPECT_FALSE(
      MayClobberRegister(kRegShaderConfig, 0x5, kRegShaderReadyLo));
  EXPECT_FALSE(
      MayClobberRegister(kJobSlotBase + kJsHeadNextLo, 0x1000,
                         kJobSlotBase + kJsStatus));
  // ...except IRQ masks, which gate the matching IRQ_STATUS view.
  EXPECT_TRUE(MayClobberRegister(kRegGpuIrqMask, 0x1, kRegGpuIrqStatus));
}

TEST(ClobberModel, JobStartsClobberJobButNotPower) {
  const uint32_t js_cmd = kJobSlotBase + kJsCommand;
  EXPECT_TRUE(MayClobberRegister(js_cmd, kJsCommandStart,
                                 kJobSlotBase + kJsStatus));
  EXPECT_TRUE(MayClobberRegister(js_cmd, kJsCommandStart, kRegJobIrqRawstat));
  EXPECT_TRUE(MayClobberRegister(js_cmd, kJsCommandStart, kRegMmuIrqRawstat));
  EXPECT_TRUE(MayClobberRegister(js_cmd, kJsCommandStart, kRegGpuFaultStatus));
  // The power surface is CPU-driven; a job cannot flip core power.
  EXPECT_FALSE(MayClobberRegister(js_cmd, kJsCommandStart, kRegShaderReadyLo));
  EXPECT_FALSE(
      MayClobberRegister(js_cmd, kJsCommandStart, kRegShaderPwrTransLo));
}

TEST(ClobberModel, PowerWritesClobberOwnDomainWord) {
  EXPECT_TRUE(
      MayClobberRegister(kRegShaderPwrOnLo, 0xF, kRegShaderReadyLo));
  EXPECT_TRUE(
      MayClobberRegister(kRegShaderPwrOnLo, 0xF, kRegShaderPwrTransLo));
  EXPECT_TRUE(MayClobberRegister(kRegShaderPwrOnLo, 0xF, kRegGpuIrqRawstat));
  // Other domains and the Hi word of the same domain are untouched.
  EXPECT_FALSE(MayClobberRegister(kRegShaderPwrOnLo, 0xF, kRegTilerReadyLo));
  EXPECT_FALSE(MayClobberRegister(kRegShaderPwrOnLo, 0xF, kRegShaderReadyHi));
}

TEST(ClobberModel, IrqClears) {
  EXPECT_TRUE(MayClobberRegister(kRegGpuIrqClear, 0x1, kRegGpuIrqRawstat));
  EXPECT_FALSE(MayClobberRegister(kRegGpuIrqClear, 0x1, kRegJobIrqRawstat));
  // JOB_IRQ_CLEAR also re-idles acknowledged slots' status registers.
  EXPECT_TRUE(MayClobberRegister(kRegJobIrqClear, 0x1, kRegJobIrqRawstat));
  EXPECT_TRUE(
      MayClobberRegister(kRegJobIrqClear, 0x1, kJobSlotBase + kJsStatus));
  EXPECT_TRUE(MayClobberRegister(kRegMmuIrqClear, 0x1, kRegMmuIrqRawstat));
  EXPECT_FALSE(MayClobberRegister(kRegMmuIrqClear, 0x1, kRegGpuIrqRawstat));
}

TEST(ClobberModel, ValueClassesPartitionTheModel) {
  // ClobberValueClass's contract: for one stimulus register, any two
  // values in the same class have identical clobber windows. The
  // footprint analysis leans on this to sweep the MMIO window once per
  // class instead of once per distinct recorded write, so verify the
  // partition against the model exhaustively over the window for a
  // stimulus set spanning every register family and command category.
  const uint32_t stimulus_regs[] = {
      kRegGpuCommand,           kRegGpuIrqClear,
      kRegJobIrqClear,          kRegMmuIrqClear,
      kRegGpuIrqMask,           kRegShaderConfig,
      kRegShaderPwrOnLo,        kRegL2PwrOffHi,
      kJobSlotBase + kJsCommand,
      kJobSlotBase + kJsHeadNextLo,
      kAsBase + kAsCommand,     kAsBase + kAsTranstabLo,
      kRegGpuStatus /* status write: worst-case stimulus */};
  const uint32_t values[] = {0,
                             1,
                             kGpuCommandSoftReset,
                             kGpuCommandHardReset,
                             kGpuCommandCleanCaches,
                             kGpuCommandCleanInvCaches,
                             kGpuCommandNop,
                             0xDEADBEEFu};
  for (uint32_t sreg : stimulus_regs) {
    for (uint32_t v1 : values) {
      for (uint32_t v2 : values) {
        if (ClobberValueClass(sreg, v1) != ClobberValueClass(sreg, v2)) {
          continue;
        }
        for (uint32_t target = 0; target < kGpuMmioSize; target += 4) {
          ASSERT_EQ(MayClobberRegister(sreg, v1, target),
                    MayClobberRegister(sreg, v2, target))
              << "reg " << RegisterName(sreg) << " values " << v1 << "/"
              << v2 << " diverge at target " << RegisterName(target);
        }
      }
    }
  }
  // The command categories the model distinguishes get distinct classes.
  EXPECT_NE(ClobberValueClass(kRegGpuCommand, kGpuCommandSoftReset),
            ClobberValueClass(kRegGpuCommand, kGpuCommandCleanCaches));
  EXPECT_NE(ClobberValueClass(kRegGpuCommand, kGpuCommandCleanCaches),
            ClobberValueClass(kRegGpuCommand, kGpuCommandNop));
  EXPECT_EQ(ClobberValueClass(kRegGpuCommand, kGpuCommandSoftReset),
            ClobberValueClass(kRegGpuCommand, kGpuCommandHardReset));
}

TEST(IrqBitsRaised, PerStimulusAttribution) {
  EXPECT_EQ(GpuIrqBitsRaisedBy(kRegGpuCommand, kGpuCommandSoftReset),
            kGpuIrqResetCompleted | kGpuIrqPowerChangedSingle |
                kGpuIrqPowerChangedAll);
  EXPECT_EQ(GpuIrqBitsRaisedBy(kRegGpuCommand, kGpuCommandCleanCaches),
            kGpuIrqCleanCachesCompleted);
  EXPECT_EQ(GpuIrqBitsRaisedBy(kRegGpuCommand, kGpuCommandNop), 0u);
  // Power writes raise the PowerChanged bits (gpu.cc asserts bit 10 even
  // on a no-change request, so the model must include it).
  EXPECT_EQ(GpuIrqBitsRaisedBy(kRegShaderPwrOnLo, 0xF) &
                (kGpuIrqPowerChangedSingle | kGpuIrqPowerChangedAll),
            kGpuIrqPowerChangedSingle | kGpuIrqPowerChangedAll);
  // Job/AS activity may fault, nothing more, on the GPU IRQ surface.
  EXPECT_EQ(GpuIrqBitsRaisedBy(kJobSlotBase + kJsCommand, kJsCommandStart),
            kGpuIrqFault);
  EXPECT_EQ(GpuIrqBitsRaisedBy(kAsBase + kAsCommand, kAsCommandFlushMem),
            kGpuIrqFault);
  // Pure latches raise nothing.
  EXPECT_EQ(GpuIrqBitsRaisedBy(kRegGpuIrqMask, 0x7FF), 0u);
}

}  // namespace
}  // namespace grt
