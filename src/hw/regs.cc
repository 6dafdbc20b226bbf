#include "src/hw/regs.h"

#include <cstdio>

namespace grt {
namespace {

thread_local char g_name_buf[48];

}  // namespace

const char* RegisterName(uint32_t offset) {
  switch (offset) {
    case kRegGpuId: return "GPU_ID";
    case kRegL2Features: return "L2_FEATURES";
    case kRegCoreFeatures: return "CORE_FEATURES";
    case kRegTilerFeatures: return "TILER_FEATURES";
    case kRegMemFeatures: return "MEM_FEATURES";
    case kRegMmuFeatures: return "MMU_FEATURES";
    case kRegAsPresent: return "AS_PRESENT";
    case kRegJsPresent: return "JS_PRESENT";
    case kRegGpuIrqRawstat: return "GPU_IRQ_RAWSTAT";
    case kRegGpuIrqClear: return "GPU_IRQ_CLEAR";
    case kRegGpuIrqMask: return "GPU_IRQ_MASK";
    case kRegGpuIrqStatus: return "GPU_IRQ_STATUS";
    case kRegGpuCommand: return "GPU_COMMAND";
    case kRegGpuStatus: return "GPU_STATUS";
    case kRegLatestFlush: return "LATEST_FLUSH";
    case kRegGpuFaultStatus: return "GPU_FAULTSTATUS";
    case kRegGpuFaultAddressLo: return "GPU_FAULTADDRESS_LO";
    case kRegGpuFaultAddressHi: return "GPU_FAULTADDRESS_HI";
    case kRegPwrKey: return "PWR_KEY";
    case kRegPwrOverride0: return "PWR_OVERRIDE0";
    case kRegPwrOverride1: return "PWR_OVERRIDE1";
    case kRegCycleCountLo: return "CYCLE_COUNT_LO";
    case kRegCycleCountHi: return "CYCLE_COUNT_HI";
    case kRegTimestampLo: return "TIMESTAMP_LO";
    case kRegTimestampHi: return "TIMESTAMP_HI";
    case kRegThreadMaxThreads: return "THREAD_MAX_THREADS";
    case kRegThreadMaxWorkgroup: return "THREAD_MAX_WORKGROUP";
    case kRegThreadMaxBarrier: return "THREAD_MAX_BARRIER";
    case kRegThreadFeatures: return "THREAD_FEATURES";
    case kRegTextureFeatures0: return "TEXTURE_FEATURES_0";
    case kRegTextureFeatures1: return "TEXTURE_FEATURES_1";
    case kRegTextureFeatures2: return "TEXTURE_FEATURES_2";
    case kRegShaderPresentLo: return "SHADER_PRESENT_LO";
    case kRegShaderPresentHi: return "SHADER_PRESENT_HI";
    case kRegTilerPresentLo: return "TILER_PRESENT_LO";
    case kRegTilerPresentHi: return "TILER_PRESENT_HI";
    case kRegL2PresentLo: return "L2_PRESENT_LO";
    case kRegL2PresentHi: return "L2_PRESENT_HI";
    case kRegShaderReadyLo: return "SHADER_READY_LO";
    case kRegShaderReadyHi: return "SHADER_READY_HI";
    case kRegTilerReadyLo: return "TILER_READY_LO";
    case kRegTilerReadyHi: return "TILER_READY_HI";
    case kRegL2ReadyLo: return "L2_READY_LO";
    case kRegL2ReadyHi: return "L2_READY_HI";
    case kRegShaderPwrOnLo: return "SHADER_PWRON_LO";
    case kRegShaderPwrOnHi: return "SHADER_PWRON_HI";
    case kRegTilerPwrOnLo: return "TILER_PWRON_LO";
    case kRegTilerPwrOnHi: return "TILER_PWRON_HI";
    case kRegL2PwrOnLo: return "L2_PWRON_LO";
    case kRegL2PwrOnHi: return "L2_PWRON_HI";
    case kRegShaderPwrOffLo: return "SHADER_PWROFF_LO";
    case kRegShaderPwrOffHi: return "SHADER_PWROFF_HI";
    case kRegTilerPwrOffLo: return "TILER_PWROFF_LO";
    case kRegTilerPwrOffHi: return "TILER_PWROFF_HI";
    case kRegL2PwrOffLo: return "L2_PWROFF_LO";
    case kRegL2PwrOffHi: return "L2_PWROFF_HI";
    case kRegShaderPwrTransLo: return "SHADER_PWRTRANS_LO";
    case kRegShaderPwrTransHi: return "SHADER_PWRTRANS_HI";
    case kRegTilerPwrTransLo: return "TILER_PWRTRANS_LO";
    case kRegTilerPwrTransHi: return "TILER_PWRTRANS_HI";
    case kRegL2PwrTransLo: return "L2_PWRTRANS_LO";
    case kRegL2PwrTransHi: return "L2_PWRTRANS_HI";
    case kRegShaderConfig: return "SHADER_CONFIG";
    case kRegTilerConfig: return "TILER_CONFIG";
    case kRegL2MmuConfig: return "L2_MMU_CONFIG";
    case kRegJobIrqRawstat: return "JOB_IRQ_RAWSTAT";
    case kRegJobIrqClear: return "JOB_IRQ_CLEAR";
    case kRegJobIrqMask: return "JOB_IRQ_MASK";
    case kRegJobIrqStatus: return "JOB_IRQ_STATUS";
    case kRegMmuIrqRawstat: return "MMU_IRQ_RAWSTAT";
    case kRegMmuIrqClear: return "MMU_IRQ_CLEAR";
    case kRegMmuIrqMask: return "MMU_IRQ_MASK";
    case kRegMmuIrqStatus: return "MMU_IRQ_STATUS";
    default:
      break;
  }
  int index = 0;
  uint32_t rel = 0;
  if (DecodeJobSlotRegister(offset, &index, &rel)) {
    const char* sub = "?";
    switch (rel) {
      case kJsHeadLo: sub = "HEAD_LO"; break;
      case kJsHeadHi: sub = "HEAD_HI"; break;
      case kJsTailLo: sub = "TAIL_LO"; break;
      case kJsTailHi: sub = "TAIL_HI"; break;
      case kJsAffinityLo: sub = "AFFINITY_LO"; break;
      case kJsAffinityHi: sub = "AFFINITY_HI"; break;
      case kJsConfig: sub = "CONFIG"; break;
      case kJsCommand: sub = "COMMAND"; break;
      case kJsStatus: sub = "STATUS"; break;
      case kJsHeadNextLo: sub = "HEAD_NEXT_LO"; break;
      case kJsHeadNextHi: sub = "HEAD_NEXT_HI"; break;
      case kJsAffinityNextLo: sub = "AFFINITY_NEXT_LO"; break;
      case kJsAffinityNextHi: sub = "AFFINITY_NEXT_HI"; break;
      case kJsConfigNext: sub = "CONFIG_NEXT"; break;
      case kJsCommandNext: sub = "COMMAND_NEXT"; break;
      default: break;
    }
    std::snprintf(g_name_buf, sizeof(g_name_buf), "JS%d_%s", index, sub);
    return g_name_buf;
  }
  if (DecodeAsRegister(offset, &index, &rel)) {
    const char* sub = "?";
    switch (rel) {
      case kAsTranstabLo: sub = "TRANSTAB_LO"; break;
      case kAsTranstabHi: sub = "TRANSTAB_HI"; break;
      case kAsMemattrLo: sub = "MEMATTR_LO"; break;
      case kAsMemattrHi: sub = "MEMATTR_HI"; break;
      case kAsLockaddrLo: sub = "LOCKADDR_LO"; break;
      case kAsLockaddrHi: sub = "LOCKADDR_HI"; break;
      case kAsCommand: sub = "COMMAND"; break;
      case kAsFaultStatus: sub = "FAULTSTATUS"; break;
      case kAsFaultAddressLo: sub = "FAULTADDRESS_LO"; break;
      case kAsFaultAddressHi: sub = "FAULTADDRESS_HI"; break;
      case kAsStatus: sub = "STATUS"; break;
      default: break;
    }
    std::snprintf(g_name_buf, sizeof(g_name_buf), "AS%d_%s", index, sub);
    return g_name_buf;
  }
  if (offset >= kRegJsFeatures0 && offset < kRegJsFeatures0 + 16 * 4) {
    std::snprintf(g_name_buf, sizeof(g_name_buf), "JS%u_FEATURES",
                  (offset - kRegJsFeatures0) / 4);
    return g_name_buf;
  }
  std::snprintf(g_name_buf, sizeof(g_name_buf), "REG_0x%04X", offset);
  return g_name_buf;
}

bool IsNondeterministicRegister(uint32_t offset) {
  switch (offset) {
    case kRegLatestFlush:
    case kRegCycleCountLo:
    case kRegCycleCountHi:
    case kRegTimestampLo:
    case kRegTimestampHi:
      return true;
    default:
      return false;
  }
}

namespace {

bool IsGpuIrqSurface(uint32_t offset) {
  return offset == kRegGpuIrqRawstat || offset == kRegGpuIrqStatus;
}

}  // namespace

RegClass ClassifyRegister(uint32_t offset) {
  switch (offset) {
    case kRegGpuId:
    case kRegL2Features:
    case kRegCoreFeatures:
    case kRegTilerFeatures:
    case kRegMemFeatures:
    case kRegMmuFeatures:
    case kRegAsPresent:
    case kRegJsPresent:
    case kRegThreadMaxThreads:
    case kRegThreadMaxWorkgroup:
    case kRegThreadMaxBarrier:
    case kRegThreadFeatures:
    case kRegTextureFeatures0:
    case kRegTextureFeatures1:
    case kRegTextureFeatures2:
    case kRegShaderPresentLo:
    case kRegShaderPresentHi:
    case kRegTilerPresentLo:
    case kRegTilerPresentHi:
    case kRegL2PresentLo:
    case kRegL2PresentHi:
      return RegClass::kConstant;
    case kRegLatestFlush:
    case kRegCycleCountLo:
    case kRegCycleCountHi:
    case kRegTimestampLo:
    case kRegTimestampHi:
      return RegClass::kNondet;
    case kRegGpuIrqMask:
    case kRegJobIrqMask:
    case kRegMmuIrqMask:
    case kRegPwrKey:
    case kRegPwrOverride0:
    case kRegPwrOverride1:
    case kRegShaderConfig:
    case kRegTilerConfig:
    case kRegL2MmuConfig:
      return RegClass::kCpuConfig;
    case kRegGpuCommand:
    case kRegGpuIrqClear:
    case kRegJobIrqClear:
    case kRegMmuIrqClear:
      return RegClass::kTrigger;
    case kRegGpuIrqRawstat:
    case kRegGpuIrqStatus:
    case kRegGpuStatus:
    case kRegGpuFaultStatus:
    case kRegGpuFaultAddressLo:
    case kRegGpuFaultAddressHi:
    case kRegShaderReadyLo:
    case kRegShaderReadyHi:
    case kRegTilerReadyLo:
    case kRegTilerReadyHi:
    case kRegL2ReadyLo:
    case kRegL2ReadyHi:
    case kRegShaderPwrTransLo:
    case kRegShaderPwrTransHi:
    case kRegTilerPwrTransLo:
    case kRegTilerPwrTransHi:
    case kRegL2PwrTransLo:
    case kRegL2PwrTransHi:
    case kRegJobIrqRawstat:
    case kRegJobIrqStatus:
    case kRegMmuIrqRawstat:
    case kRegMmuIrqStatus:
      return RegClass::kDeviceStatus;
    default:
      break;
  }
  if (IsPowerControlRegister(offset)) {
    return RegClass::kTrigger;
  }
  int index = 0;
  uint32_t rel = 0;
  if (DecodeJobSlotRegister(offset, &index, &rel)) {
    switch (rel) {
      case kJsHeadNextLo:
      case kJsHeadNextHi:
      case kJsAffinityNextLo:
      case kJsAffinityNextHi:
      case kJsConfigNext:
        return RegClass::kCpuConfig;
      case kJsCommand:
      case kJsCommandNext:
        return RegClass::kTrigger;
      case kJsHeadLo:
      case kJsHeadHi:
      case kJsTailLo:
      case kJsTailHi:
      case kJsAffinityLo:
      case kJsAffinityHi:
      case kJsConfig:
      case kJsStatus:
        // Active copies are device-written at job start.
        return RegClass::kDeviceStatus;
      default:
        return RegClass::kUnknown;
    }
  }
  if (DecodeAsRegister(offset, &index, &rel)) {
    switch (rel) {
      case kAsTranstabLo:
      case kAsTranstabHi:
      case kAsMemattrLo:
      case kAsMemattrHi:
      case kAsLockaddrLo:
      case kAsLockaddrHi:
        return RegClass::kCpuConfig;
      case kAsCommand:
        return RegClass::kTrigger;
      case kAsFaultStatus:
      case kAsFaultAddressLo:
      case kAsFaultAddressHi:
      case kAsStatus:
        return RegClass::kDeviceStatus;
      default:
        return RegClass::kUnknown;
    }
  }
  if (offset >= kRegJsFeatures0 && offset < kRegJsFeatures0 + 16 * 4) {
    return RegClass::kConstant;
  }
  return RegClass::kUnknown;
}

bool IsPowerControlRegister(uint32_t offset) {
  switch (offset) {
    case kRegShaderPwrOnLo:
    case kRegShaderPwrOnHi:
    case kRegTilerPwrOnLo:
    case kRegTilerPwrOnHi:
    case kRegL2PwrOnLo:
    case kRegL2PwrOnHi:
    case kRegShaderPwrOffLo:
    case kRegShaderPwrOffHi:
    case kRegTilerPwrOffLo:
    case kRegTilerPwrOffHi:
    case kRegL2PwrOffLo:
    case kRegL2PwrOffHi:
      return true;
    default:
      return false;
  }
}

bool PowerStatusRegistersFor(uint32_t offset, uint32_t* ready_reg,
                             uint32_t* pwrtrans_reg) {
  if (!IsPowerControlRegister(offset)) {
    return false;
  }
  const uint32_t word = offset & 0x4;
  switch (offset & ~0x4u) {
    case kRegShaderPwrOnLo:
    case kRegShaderPwrOffLo:
      *ready_reg = kRegShaderReadyLo + word;
      *pwrtrans_reg = kRegShaderPwrTransLo + word;
      return true;
    case kRegTilerPwrOnLo:
    case kRegTilerPwrOffLo:
      *ready_reg = kRegTilerReadyLo + word;
      *pwrtrans_reg = kRegTilerPwrTransLo + word;
      return true;
    case kRegL2PwrOnLo:
    case kRegL2PwrOffLo:
      *ready_reg = kRegL2ReadyLo + word;
      *pwrtrans_reg = kRegL2PwrTransLo + word;
      return true;
    default:
      return false;
  }
}

bool WriteHasSideEffects(uint32_t reg, uint32_t value) {
  (void)value;
  switch (ClassifyRegister(reg)) {
    case RegClass::kCpuConfig:
      return false;
    case RegClass::kTrigger:
      return true;
    default:
      // Writes to constants/status/unknown offsets do not occur in healthy
      // recordings; assume the worst.
      return true;
  }
}

bool MayClobberRegister(uint32_t stimulus_reg, uint32_t stimulus_value,
                        uint32_t observed_reg) {
  // Constants survive everything, including reset.
  if (ClassifyRegister(observed_reg) == RegClass::kConstant) {
    return false;
  }
  // Resets rewrite every non-constant register.
  if (stimulus_reg == kRegGpuCommand && IsResetCommand(stimulus_value)) {
    return true;
  }
  switch (ClassifyRegister(stimulus_reg)) {
    case RegClass::kCpuConfig:
      // A pure latch write changes only the latch itself — plus the
      // derived IRQ status word when the latch is an IRQ mask
      // (STATUS = RAWSTAT & MASK).
      if (stimulus_reg == kRegGpuIrqMask) {
        return observed_reg == stimulus_reg ||
               observed_reg == kRegGpuIrqStatus;
      }
      if (stimulus_reg == kRegJobIrqMask) {
        return observed_reg == stimulus_reg ||
               observed_reg == kRegJobIrqStatus;
      }
      if (stimulus_reg == kRegMmuIrqMask) {
        return observed_reg == stimulus_reg ||
               observed_reg == kRegMmuIrqStatus;
      }
      return observed_reg == stimulus_reg;
    case RegClass::kTrigger:
      break;  // per-trigger table below
    default:
      // Stimulus writes to status/constant/unknown offsets: assume the
      // worst.
      return true;
  }

  if (stimulus_reg == kRegGpuCommand) {
    // Non-reset commands: cache flushes complete by raising the
    // clean-caches IRQ bit and bumping the flush counter.
    if (IsFlushCommand(stimulus_value)) {
      return IsGpuIrqSurface(observed_reg) || observed_reg == kRegGpuStatus ||
             observed_reg == kRegLatestFlush;
    }
    if (stimulus_value == kGpuCommandNop) {
      return false;
    }
    return true;  // unknown command value
  }
  if (stimulus_reg == kRegGpuIrqClear) {
    return IsGpuIrqSurface(observed_reg);
  }
  if (stimulus_reg == kRegJobIrqClear) {
    // Acknowledging a done slot also transitions its JSn_STATUS back to
    // idle (gpu.cc HandleJobIrqClear).
    if (observed_reg == kRegJobIrqRawstat ||
        observed_reg == kRegJobIrqStatus) {
      return true;
    }
    int slot = 0;
    uint32_t rel = 0;
    return DecodeJobSlotRegister(observed_reg, &slot, &rel) && rel == kJsStatus;
  }
  if (stimulus_reg == kRegMmuIrqClear) {
    return observed_reg == kRegMmuIrqRawstat ||
           observed_reg == kRegMmuIrqStatus;
  }
  if (IsPowerControlRegister(stimulus_reg)) {
    // Power transitions move READY/PWRTRANS of their own domain+word and
    // raise PowerChanged IRQ bits (even a same-state request raises them).
    uint32_t ready = 0;
    uint32_t pwrtrans = 0;
    (void)PowerStatusRegistersFor(stimulus_reg, &ready, &pwrtrans);
    return IsGpuIrqSurface(observed_reg) || observed_reg == ready ||
           observed_reg == pwrtrans;
  }
  int stim_index = 0;
  int obs_index = 0;
  uint32_t rel = 0;
  if (DecodeJobSlotRegister(stimulus_reg, &stim_index, &rel)) {
    // JSn_COMMAND[_NEXT]: a job start rewrites the slot's active block and
    // may complete (or fault) asynchronously — job IRQ surface, GPU fault
    // surface (+ fault IRQ bit), and the MMU/AS fault surface (a bad chain
    // can raise translation faults). Other slots and the power-state
    // surface are untouched.
    if (DecodeJobSlotRegister(observed_reg, &obs_index, &rel)) {
      return obs_index == stim_index;
    }
    switch (observed_reg) {
      case kRegJobIrqRawstat:
      case kRegJobIrqStatus:
      case kRegGpuIrqRawstat:
      case kRegGpuIrqStatus:
      case kRegGpuStatus:
      case kRegGpuFaultStatus:
      case kRegGpuFaultAddressLo:
      case kRegGpuFaultAddressHi:
      case kRegMmuIrqRawstat:
      case kRegMmuIrqStatus:
        return true;
      default:
        return IsAsRegister(observed_reg);
    }
  }
  if (DecodeAsRegister(stimulus_reg, &stim_index, &rel)) {
    // AS_COMMAND: completes by clearing the AS active bit; faults surface
    // on the MMU IRQ block and the AS fault registers.
    if (DecodeAsRegister(observed_reg, &obs_index, &rel)) {
      return obs_index == stim_index;
    }
    return observed_reg == kRegMmuIrqRawstat ||
           observed_reg == kRegMmuIrqStatus;
  }
  return true;  // unrecognized trigger: assume the worst
}

uint32_t ClobberValueClass(uint32_t stimulus_reg, uint32_t stimulus_value) {
  // Keep in lockstep with MayClobberRegister: GPU_COMMAND is the only
  // stimulus whose clobber window depends on the written value.
  if (stimulus_reg != kRegGpuCommand) {
    return 0;
  }
  if (IsResetCommand(stimulus_value)) {
    return 1;
  }
  if (IsFlushCommand(stimulus_value)) {
    return 2;
  }
  if (stimulus_value == kGpuCommandNop) {
    return 3;
  }
  return 4;
}

uint32_t GpuIrqBitsRaisedBy(uint32_t reg, uint32_t value) {
  if (reg == kRegGpuCommand) {
    if (IsResetCommand(value)) {
      // Reset completion, plus bring-up re-powers cores afterwards.
      return kGpuIrqResetCompleted | kGpuIrqPowerChangedSingle |
             kGpuIrqPowerChangedAll;
    }
    if (IsFlushCommand(value)) {
      return kGpuIrqCleanCachesCompleted;
    }
    if (value == kGpuCommandNop) {
      return 0;
    }
    return ~0u;  // unknown command: may raise anything
  }
  if (IsPowerControlRegister(reg)) {
    // gpu.cc raises PowerChangedAll even for a same-state request. The Hi
    // words are included conservatively.
    return kGpuIrqPowerChangedSingle | kGpuIrqPowerChangedAll;
  }
  int index = 0;
  uint32_t rel = 0;
  if (DecodeJobSlotRegister(reg, &index, &rel)) {
    return rel == kJsCommand || rel == kJsCommandNext ? kGpuIrqFault : 0;
  }
  if (DecodeAsRegister(reg, &index, &rel)) {
    return rel == kAsCommand ? kGpuIrqFault : 0;
  }
  return 0;
}

PowerDomain PowerControlDomain(uint32_t offset, bool* is_on, bool* is_hi) {
  if (!IsPowerControlRegister(offset)) {
    return PowerDomain::kNone;
  }
  *is_hi = (offset & 0x4) != 0;
  const uint32_t base = offset & ~0x4u;
  *is_on = base < kRegShaderPwrOffLo;
  switch (base) {
    case kRegShaderPwrOnLo:
    case kRegShaderPwrOffLo:
      return PowerDomain::kShader;
    case kRegTilerPwrOnLo:
    case kRegTilerPwrOffLo:
      return PowerDomain::kTiler;
    case kRegL2PwrOnLo:
    case kRegL2PwrOffLo:
      return PowerDomain::kL2;
    default:
      return PowerDomain::kNone;
  }
}

PowerDomain PowerStatusDomain(uint32_t offset, bool* is_trans, bool* is_hi) {
  *is_hi = (offset & 0x4) != 0;
  switch (offset & ~0x4u) {
    case kRegShaderReadyLo:
      *is_trans = false;
      return PowerDomain::kShader;
    case kRegTilerReadyLo:
      *is_trans = false;
      return PowerDomain::kTiler;
    case kRegL2ReadyLo:
      *is_trans = false;
      return PowerDomain::kL2;
    case kRegShaderPwrTransLo:
      *is_trans = true;
      return PowerDomain::kShader;
    case kRegTilerPwrTransLo:
      *is_trans = true;
      return PowerDomain::kTiler;
    case kRegL2PwrTransLo:
      *is_trans = true;
      return PowerDomain::kL2;
    default:
      return PowerDomain::kNone;
  }
}

bool IsReadIdempotentRegister(uint32_t offset) {
  switch (offset) {
    case kRegGpuCommand:
    case kRegGpuIrqClear:
    case kRegJobIrqClear:
    case kRegMmuIrqClear:
    case kRegPwrKey:
    case kRegPwrOverride0:
    case kRegPwrOverride1:
    case kRegShaderPwrOnLo:
    case kRegShaderPwrOnHi:
    case kRegTilerPwrOnLo:
    case kRegTilerPwrOnHi:
    case kRegL2PwrOnLo:
    case kRegL2PwrOnHi:
    case kRegShaderPwrOffLo:
    case kRegShaderPwrOffHi:
    case kRegTilerPwrOffLo:
    case kRegTilerPwrOffHi:
    case kRegL2PwrOffLo:
    case kRegL2PwrOffHi:
      return false;
    default:
      break;
  }
  int index = 0;
  uint32_t rel = 0;
  if (DecodeJobSlotRegister(offset, &index, &rel)) {
    return rel != kJsCommand && rel != kJsCommandNext;
  }
  if (DecodeAsRegister(offset, &index, &rel)) {
    return rel != kAsCommand;
  }
  return true;
}

}  // namespace grt
