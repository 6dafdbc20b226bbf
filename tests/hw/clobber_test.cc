// Clobber / side-effect model tests (the register-semantics section of
// src/hw/regs.h). The safety arguments of the footprint analysis and of
// planopt bottom out in these tables, so each classification is pinned
// against the device model's actual behavior (src/hw/gpu.cc): a register
// the model calls a pure latch must never change anything else, and a
// stimulus the model calls clobbering must cover every register gpu.cc
// may touch.
#include <gtest/gtest.h>

#include <string>

#include "src/hw/gpu.h"
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
  EXPECT_EQ(ClassifyRegister(JobSlotRegister(0, kJsHeadNextLo)),
            RegClass::kCpuConfig);
  EXPECT_EQ(ClassifyRegister(kRegShaderConfig), RegClass::kCpuConfig);
  EXPECT_EQ(ClassifyRegister(AsRegister(0, kAsTranstabLo)),
            RegClass::kCpuConfig);

  EXPECT_EQ(ClassifyRegister(kRegGpuCommand), RegClass::kTrigger);
  EXPECT_EQ(ClassifyRegister(kRegGpuIrqClear), RegClass::kTrigger);
  EXPECT_EQ(ClassifyRegister(kRegShaderPwrOnLo), RegClass::kTrigger);
  EXPECT_EQ(ClassifyRegister(JobSlotRegister(0, kJsCommandNext)),
            RegClass::kTrigger);

  EXPECT_EQ(ClassifyRegister(kRegGpuIrqRawstat), RegClass::kDeviceStatus);
  EXPECT_EQ(ClassifyRegister(kRegShaderReadyLo), RegClass::kDeviceStatus);
  EXPECT_EQ(ClassifyRegister(JobSlotRegister(0, kJsStatus)),
            RegClass::kDeviceStatus);

  EXPECT_EQ(ClassifyRegister(kRegLatestFlush), RegClass::kNondet);
  EXPECT_EQ(ClassifyRegister(kRegTimestampLo), RegClass::kNondet);

  EXPECT_EQ(ClassifyRegister(0x3FF0), RegClass::kUnknown);
}

TEST(SideEffects, PureLatchesHaveNone) {
  EXPECT_FALSE(WriteHasSideEffects(kRegGpuIrqMask, 0x7));
  EXPECT_FALSE(WriteHasSideEffects(JobSlotRegister(0, kJsConfigNext), 0x1234));
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
        MayClobberRegister(kRegGpuCommand, cmd, JobSlotRegister(0, kJsStatus)));
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
      MayClobberRegister(JobSlotRegister(0, kJsHeadNextLo), 0x1000,
                         JobSlotRegister(0, kJsStatus)));
  // ...except IRQ masks, which gate the matching IRQ_STATUS view.
  EXPECT_TRUE(MayClobberRegister(kRegGpuIrqMask, 0x1, kRegGpuIrqStatus));
}

TEST(ClobberModel, JobStartsClobberJobButNotPower) {
  const uint32_t js_cmd = JobSlotRegister(0, kJsCommand);
  EXPECT_TRUE(MayClobberRegister(js_cmd, kJsCommandStart,
                                 JobSlotRegister(0, kJsStatus)));
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
      MayClobberRegister(kRegJobIrqClear, 0x1, JobSlotRegister(0, kJsStatus)));
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
      JobSlotRegister(0, kJsCommand), JobSlotRegister(0, kJsHeadNextLo),
      AsRegister(0, kAsCommand), AsRegister(0, kAsTranstabLo),
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
  EXPECT_EQ(GpuIrqBitsRaisedBy(JobSlotRegister(0, kJsCommand), kJsCommandStart),
            kGpuIrqFault);
  EXPECT_EQ(GpuIrqBitsRaisedBy(AsRegister(0, kAsCommand), kAsCommandFlushMem),
            kGpuIrqFault);
  // Pure latches raise nothing.
  EXPECT_EQ(GpuIrqBitsRaisedBy(kRegGpuIrqMask, 0x7FF), 0u);
}

// ------------------------------------------------------- one register map

// The block index n of a register named "<prefix><n>_...", or -1.
int NamedBlockIndex(const std::string& name, const char* prefix) {
  const std::string p(prefix);
  size_t i = p.size();
  if (name.compare(0, i, p) != 0 || i >= name.size() ||
      name[i] < '0' || name[i] > '9') {
    return -1;
  }
  int n = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    n = n * 10 + (name[i++] - '0');
  }
  return i < name.size() && name[i] == '_' ? n : -1;
}

TEST(RegisterMap, BlockDecodersAgreeWithNamesAndClasses) {
  int js_regs = 0;
  int as_regs = 0;
  int job_starts = 0;
  for (uint32_t off = 0; off < kGpuMmioSize; off += 4) {
    const std::string name = RegisterName(off);
    // JSn_FEATURES sits in the GPU control block, not a slot block.
    const bool features = name.ends_with("_FEATURES");
    const bool unnamed = name.ends_with("_?");

    int slot = -1;
    uint32_t js_rel = 0;
    const bool js = DecodeJobSlotRegister(off, &slot, &js_rel);
    EXPECT_EQ(js, IsJobSlotRegister(off)) << name;
    const int js_named = features ? -1 : NamedBlockIndex(name, "JS");
    EXPECT_EQ(js, js_named >= 0) << name;
    if (js) {
      ++js_regs;
      EXPECT_EQ(slot, js_named) << name;
      EXPECT_EQ(JobSlotRegister(slot, js_rel), off) << name;
      EXPECT_EQ(unnamed, ClassifyRegister(off) == RegClass::kUnknown)
          << name;
    }

    int as = -1;
    uint32_t as_rel = 0;
    const bool in_as = DecodeAsRegister(off, &as, &as_rel);
    EXPECT_EQ(in_as, IsAsRegister(off)) << name;
    EXPECT_EQ(in_as, NamedBlockIndex(name, "AS") >= 0) << name;
    if (in_as) {
      ++as_regs;
      EXPECT_EQ(as, NamedBlockIndex(name, "AS")) << name;
      EXPECT_EQ(AsRegister(as, as_rel), off) << name;
      EXPECT_EQ(unnamed, ClassifyRegister(off) == RegClass::kUnknown)
          << name;
    }

    // A job starts exactly on JSn_COMMAND_NEXT = START.
    const bool command_next =
        js && name == "JS" + std::to_string(slot) + "_COMMAND_NEXT";
    int start_slot = -1;
    EXPECT_EQ(IsJobStartWrite(off, kJsCommandStart, &start_slot),
              command_next)
        << name;
    if (command_next) {
      ++job_starts;
      EXPECT_EQ(start_slot, slot) << name;
      EXPECT_TRUE(IsJobStartWrite(off, kJsCommandStart));
    }
    for (uint32_t value : {kJsCommandNop, kJsCommandSoftStop,
                           kJsCommandHardStop, 0xFFFFFFFFu}) {
      EXPECT_FALSE(IsJobStartWrite(off, value)) << name << " = " << value;
    }
  }
  EXPECT_EQ(js_regs, static_cast<int>((JobSlotRegister(kMaxJobSlots, 0) -
                                        JobSlotRegister(0, 0)) / 4));
  EXPECT_EQ(as_regs, static_cast<int>((AsRegister(kMaxAddressSpaces, 0) -
                                        AsRegister(0, 0)) / 4));
  EXPECT_EQ(job_starts, kMaxJobSlots);
}

TEST(RegisterMap, IrqLinesNameTheirRawstatAndMask) {
  const char* const kBlocks[] = {"JOB_", "GPU_", "MMU_"};
  const uint8_t kBits[] = {kIrqLineJob, kIrqLineGpu, kIrqLineMmu};
  uint8_t all = 0;
  int i = 0;
  for (const IrqLine& line : kIrqLines) {
    EXPECT_EQ(line.bit, kBits[i]);
    EXPECT_EQ(line.bit & all, 0);
    all |= line.bit;
    const std::string block = kBlocks[i++];
    EXPECT_EQ(RegisterName(line.rawstat), block + "IRQ_RAWSTAT");
    EXPECT_EQ(RegisterName(line.mask), block + "IRQ_MASK");
    EXPECT_EQ(ClassifyRegister(line.rawstat), RegClass::kDeviceStatus);
    EXPECT_EQ(ClassifyRegister(line.mask), RegClass::kCpuConfig);
  }
  EXPECT_EQ(i, 3);
  EXPECT_EQ(all, kIrqLinesAll);
  EXPECT_EQ(PackIrqLines(true, false, false), kIrqLineJob);
  EXPECT_EQ(PackIrqLines(false, true, false), kIrqLineGpu);
  EXPECT_EQ(PackIrqLines(false, false, true), kIrqLineMmu);
  EXPECT_EQ(PackIrqLines(true, true, true), kIrqLinesAll);
}

class DeviceRegisterMapTest : public ::testing::Test {
 protected:
  DeviceRegisterMapTest()
      : sku_(FindSku(SkuId::kMaliG71Mp8).value()),
        mem_(0x80000000ull, 1 << 20),
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

TEST_F(DeviceRegisterMapTest, ResetKeepsExactlyTheSurvivingLatches) {
  // Latch a nonzero value into every CPU-owned latch the device models,
  // soft-reset, and compare what survived with LatchSurvivesReset.
  std::vector<std::pair<uint32_t, uint32_t>> latched;
  for (uint32_t off = 0; off < kGpuMmioSize; off += 4) {
    if (ClassifyRegister(off) != RegClass::kCpuConfig) {
      EXPECT_FALSE(LatchSurvivesReset(off)) << RegisterName(off);
      continue;
    }
    Write(off, 0x00A5A5A0u | off);
    const uint32_t before = Read(off);
    if (before != 0) {
      latched.emplace_back(off, before);
    }
  }
  Write(kRegGpuCommand, kGpuCommandSoftReset);
  int survivors = 0;
  for (const auto& [off, before] : latched) {
    const uint32_t after = Read(off);
    EXPECT_EQ(after, LatchSurvivesReset(off) ? before : 0u)
        << RegisterName(off);
    survivors += LatchSurvivesReset(off) ? 1 : 0;
  }
  EXPECT_EQ(survivors, 3);
  EXPECT_GT(latched.size(), 20u);
}

TEST_F(DeviceRegisterMapTest, AssertedIrqLinesPacksTheLevels) {
  EXPECT_EQ(gpu_.AssertedIrqLines(), 0);
  Write(kRegGpuCommand, kGpuCommandSoftReset);
  Write(kRegGpuIrqMask, kGpuIrqResetCompleted);
  tl_.Advance(200 * kMicrosecond);
  EXPECT_EQ(gpu_.AssertedIrqLines(), kIrqLineGpu);
  Write(kRegGpuIrqClear, kGpuIrqResetCompleted);
  EXPECT_EQ(gpu_.AssertedIrqLines(), 0);
}

}  // namespace
}  // namespace grt
