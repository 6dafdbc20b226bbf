// Register map of the simulated Mali-Bifrost-class GPU.
//
// Offsets and bit layouts follow the structure of the open Mali kbase
// driver's register interface (GPU control / job control / MMU blocks),
// simplified where the detail does not affect CPU/GPU interaction patterns.
//
// This is the one definition of every MMIO-map fact the rest of the tree
// reasons with: the block decoders (job slot, address space), the
// job-start write, the reset and flush commands, the IRQ lines with their
// RAWSTAT/MASK registers, the latches a reset leaves in place, and the
// register semantics below. The TEE-side verifier, footprint analysis,
// planopt, recorder, replayer and shim all call these; none keeps a copy.
// The decoders are header-inline so the replay loop pays no call for
// them. The device model (gpu.cc) and the cloud driver (src/driver) are
// what this map describes, not consumers of it.
#ifndef GRT_SRC_HW_REGS_H_
#define GRT_SRC_HW_REGS_H_

#include <cstdint>

namespace grt {

// MMIO window size.
constexpr uint32_t kGpuMmioSize = 0x4000;
// Physical base address of the GPU register window (matches devicetree).
constexpr uint64_t kGpuMmioBase = 0xE82C0000ull;

// ---------------------------------------------------------------- GPU control
constexpr uint32_t kRegGpuId = 0x000;
constexpr uint32_t kRegL2Features = 0x004;
constexpr uint32_t kRegCoreFeatures = 0x008;
constexpr uint32_t kRegTilerFeatures = 0x00C;
constexpr uint32_t kRegMemFeatures = 0x010;
constexpr uint32_t kRegMmuFeatures = 0x014;
constexpr uint32_t kRegAsPresent = 0x018;
constexpr uint32_t kRegJsPresent = 0x01C;

constexpr uint32_t kRegGpuIrqRawstat = 0x020;
constexpr uint32_t kRegGpuIrqClear = 0x024;
constexpr uint32_t kRegGpuIrqMask = 0x028;
constexpr uint32_t kRegGpuIrqStatus = 0x02C;

constexpr uint32_t kRegGpuCommand = 0x030;
constexpr uint32_t kRegGpuStatus = 0x034;
constexpr uint32_t kRegLatestFlush = 0x038;  // nondeterministic flush counter
constexpr uint32_t kRegGpuFaultStatus = 0x03C;
constexpr uint32_t kRegGpuFaultAddressLo = 0x040;
constexpr uint32_t kRegGpuFaultAddressHi = 0x044;

constexpr uint32_t kRegPwrKey = 0x050;
constexpr uint32_t kRegPwrOverride0 = 0x054;
constexpr uint32_t kRegPwrOverride1 = 0x058;

constexpr uint32_t kRegCycleCountLo = 0x090;  // nondeterministic
constexpr uint32_t kRegCycleCountHi = 0x094;
constexpr uint32_t kRegTimestampLo = 0x098;  // nondeterministic
constexpr uint32_t kRegTimestampHi = 0x09C;

constexpr uint32_t kRegThreadMaxThreads = 0x0A0;
constexpr uint32_t kRegThreadMaxWorkgroup = 0x0A4;
constexpr uint32_t kRegThreadMaxBarrier = 0x0A8;
constexpr uint32_t kRegThreadFeatures = 0x0AC;

constexpr uint32_t kRegTextureFeatures0 = 0x0B0;
constexpr uint32_t kRegTextureFeatures1 = 0x0B4;
constexpr uint32_t kRegTextureFeatures2 = 0x0B8;

// JSn_FEATURES, n in [0, 16).
constexpr uint32_t kRegJsFeatures0 = 0x0C0;

constexpr uint32_t kRegShaderPresentLo = 0x100;
constexpr uint32_t kRegShaderPresentHi = 0x104;
constexpr uint32_t kRegTilerPresentLo = 0x110;
constexpr uint32_t kRegTilerPresentHi = 0x114;
constexpr uint32_t kRegL2PresentLo = 0x120;
constexpr uint32_t kRegL2PresentHi = 0x124;

constexpr uint32_t kRegShaderReadyLo = 0x140;
constexpr uint32_t kRegShaderReadyHi = 0x144;
constexpr uint32_t kRegTilerReadyLo = 0x150;
constexpr uint32_t kRegTilerReadyHi = 0x154;
constexpr uint32_t kRegL2ReadyLo = 0x160;
constexpr uint32_t kRegL2ReadyHi = 0x164;

constexpr uint32_t kRegShaderPwrOnLo = 0x180;
constexpr uint32_t kRegShaderPwrOnHi = 0x184;
constexpr uint32_t kRegTilerPwrOnLo = 0x190;
constexpr uint32_t kRegTilerPwrOnHi = 0x194;
constexpr uint32_t kRegL2PwrOnLo = 0x1A0;
constexpr uint32_t kRegL2PwrOnHi = 0x1A4;

constexpr uint32_t kRegShaderPwrOffLo = 0x1C0;
constexpr uint32_t kRegShaderPwrOffHi = 0x1C4;
constexpr uint32_t kRegTilerPwrOffLo = 0x1D0;
constexpr uint32_t kRegTilerPwrOffHi = 0x1D4;
constexpr uint32_t kRegL2PwrOffLo = 0x1E0;
constexpr uint32_t kRegL2PwrOffHi = 0x1E4;

constexpr uint32_t kRegShaderPwrTransLo = 0x200;
constexpr uint32_t kRegShaderPwrTransHi = 0x204;
constexpr uint32_t kRegTilerPwrTransLo = 0x210;
constexpr uint32_t kRegTilerPwrTransHi = 0x214;
constexpr uint32_t kRegL2PwrTransLo = 0x220;
constexpr uint32_t kRegL2PwrTransHi = 0x224;

// Quirk/workaround configuration (Listing 1(a) territory).
constexpr uint32_t kRegShaderConfig = 0xF04;
constexpr uint32_t kRegTilerConfig = 0xF08;
constexpr uint32_t kRegL2MmuConfig = 0xF0C;

// GPU_COMMAND values.
constexpr uint32_t kGpuCommandNop = 0x00;
constexpr uint32_t kGpuCommandSoftReset = 0x01;
constexpr uint32_t kGpuCommandHardReset = 0x02;
constexpr uint32_t kGpuCommandCleanCaches = 0x07;
constexpr uint32_t kGpuCommandCleanInvCaches = 0x08;

inline bool IsResetCommand(uint32_t value) {
  return value == kGpuCommandSoftReset || value == kGpuCommandHardReset;
}
// CLEAN_CACHES / CLEAN_INV_CACHES (same completion protocol).
inline bool IsFlushCommand(uint32_t value) {
  return value == kGpuCommandCleanCaches || value == kGpuCommandCleanInvCaches;
}

// The CPU-owned latches (RegClass::kCpuConfig) a reset leaves in place:
// SoftReset and HardReset (gpu.cc) zero every other latch. Exact, unlike
// MayClobberRegister's reset entry (see there).
inline bool LatchSurvivesReset(uint32_t offset) {
  return offset == kRegPwrKey || offset == kRegPwrOverride0 ||
         offset == kRegPwrOverride1;
}

// GPU_IRQ bits.
constexpr uint32_t kGpuIrqFault = 1u << 0;
constexpr uint32_t kGpuIrqResetCompleted = 1u << 8;
constexpr uint32_t kGpuIrqPowerChangedSingle = 1u << 9;
constexpr uint32_t kGpuIrqPowerChangedAll = 1u << 10;
constexpr uint32_t kGpuIrqCleanCachesCompleted = 1u << 17;

// MMU_ALLOW_SNOOP_DISPARITY-style quirk bit in L2_MMU_CONFIG.
constexpr uint32_t kL2MmuConfigAllowSnoopDisparity = 1u << 4;
// SHADER_CONFIG workaround bit for the slow-cache-flush erratum.
constexpr uint32_t kShaderConfigLsAllowAttrTypes = 1u << 16;

// ---------------------------------------------------------------- Job control
constexpr uint32_t kRegJobIrqRawstat = 0x1000;
constexpr uint32_t kRegJobIrqClear = 0x1004;
constexpr uint32_t kRegJobIrqMask = 0x1008;
constexpr uint32_t kRegJobIrqStatus = 0x100C;

constexpr uint32_t kJobSlotBase = 0x1800;
constexpr uint32_t kJobSlotStride = 0x80;
constexpr int kMaxJobSlots = 3;

// Per-slot register offsets (relative to the slot base).
constexpr uint32_t kJsHeadLo = 0x00;
constexpr uint32_t kJsHeadHi = 0x04;
constexpr uint32_t kJsTailLo = 0x08;
constexpr uint32_t kJsTailHi = 0x0C;
constexpr uint32_t kJsAffinityLo = 0x10;
constexpr uint32_t kJsAffinityHi = 0x14;
constexpr uint32_t kJsConfig = 0x18;
constexpr uint32_t kJsCommand = 0x20;
constexpr uint32_t kJsStatus = 0x24;
constexpr uint32_t kJsHeadNextLo = 0x40;
constexpr uint32_t kJsHeadNextHi = 0x44;
constexpr uint32_t kJsAffinityNextLo = 0x50;
constexpr uint32_t kJsAffinityNextHi = 0x54;
constexpr uint32_t kJsConfigNext = 0x58;
constexpr uint32_t kJsCommandNext = 0x60;

// JSn_COMMAND values.
constexpr uint32_t kJsCommandNop = 0x00;
constexpr uint32_t kJsCommandStart = 0x01;
constexpr uint32_t kJsCommandSoftStop = 0x02;
constexpr uint32_t kJsCommandHardStop = 0x03;

// JSn_STATUS values (subset).
constexpr uint32_t kJsStatusIdle = 0x00;
constexpr uint32_t kJsStatusActive = 0x08;
constexpr uint32_t kJsStatusDone = 0x01;
constexpr uint32_t kJsStatusFaulted = 0x40;

// Job IRQ bit for slot n: done = bit n, fail = bit (16 + n).
inline uint32_t JobIrqDoneBit(int slot) { return 1u << slot; }
inline uint32_t JobIrqFailBit(int slot) { return 1u << (16 + slot); }

constexpr uint32_t JobSlotRegister(int slot, uint32_t rel) {
  return kJobSlotBase + static_cast<uint32_t>(slot) * kJobSlotStride + rel;
}
inline bool IsJobSlotRegister(uint32_t offset) {
  return offset >= kJobSlotBase &&
         offset < kJobSlotBase + kMaxJobSlots * kJobSlotStride;
}
// Decomposes a job-slot register into (slot, offset within the slot
// block). False outside the job-slot blocks.
inline bool DecodeJobSlotRegister(uint32_t offset, int* slot, uint32_t* rel) {
  if (!IsJobSlotRegister(offset)) {
    return false;
  }
  *slot = static_cast<int>((offset - kJobSlotBase) / kJobSlotStride);
  *rel = (offset - kJobSlotBase) % kJobSlotStride;
  return true;
}

// The write that starts a job: JSn_COMMAND_NEXT = START. `slot` (when
// non-null) receives n.
inline bool IsJobStartWrite(uint32_t offset, uint32_t value,
                            int* slot = nullptr) {
  int s = 0;
  uint32_t rel = 0;
  if (value != kJsCommandStart || !DecodeJobSlotRegister(offset, &s, &rel) ||
      rel != kJsCommandNext) {
    return false;
  }
  if (slot != nullptr) {
    *slot = s;
  }
  return true;
}

// ---------------------------------------------------------------------- MMU
constexpr uint32_t kRegMmuIrqRawstat = 0x2000;
constexpr uint32_t kRegMmuIrqClear = 0x2004;
constexpr uint32_t kRegMmuIrqMask = 0x2008;
constexpr uint32_t kRegMmuIrqStatus = 0x200C;

constexpr uint32_t kAsBase = 0x2400;
constexpr uint32_t kAsStride = 0x40;
constexpr int kMaxAddressSpaces = 8;

// Per-AS register offsets (relative to the AS base).
constexpr uint32_t kAsTranstabLo = 0x00;
constexpr uint32_t kAsTranstabHi = 0x04;
constexpr uint32_t kAsMemattrLo = 0x08;
constexpr uint32_t kAsMemattrHi = 0x0C;
constexpr uint32_t kAsLockaddrLo = 0x10;
constexpr uint32_t kAsLockaddrHi = 0x14;
constexpr uint32_t kAsCommand = 0x18;
constexpr uint32_t kAsFaultStatus = 0x1C;
constexpr uint32_t kAsFaultAddressLo = 0x20;
constexpr uint32_t kAsFaultAddressHi = 0x24;
constexpr uint32_t kAsStatus = 0x28;

// AS_COMMAND values.
constexpr uint32_t kAsCommandNop = 0x00;
constexpr uint32_t kAsCommandUpdate = 0x01;
constexpr uint32_t kAsCommandLock = 0x02;
constexpr uint32_t kAsCommandUnlock = 0x03;
constexpr uint32_t kAsCommandFlushPt = 0x04;
constexpr uint32_t kAsCommandFlushMem = 0x05;

// AS_STATUS bits.
constexpr uint32_t kAsStatusActive = 1u << 0;

constexpr uint32_t AsRegister(int as, uint32_t rel) {
  return kAsBase + static_cast<uint32_t>(as) * kAsStride + rel;
}
inline bool IsAsRegister(uint32_t offset) {
  return offset >= kAsBase && offset < kAsBase + kMaxAddressSpaces * kAsStride;
}
// Decomposes an address-space register into (AS index, offset within the
// AS block). False outside the AS blocks.
inline bool DecodeAsRegister(uint32_t offset, int* as, uint32_t* rel) {
  if (!IsAsRegister(offset)) {
    return false;
  }
  *as = static_cast<int>((offset - kAsBase) / kAsStride);
  *rel = (offset - kAsBase) % kAsStride;
  return true;
}

// ---------------------------------------------------------------- IRQ lines
// The three level-triggered interrupt lines; a line is asserted while
// RAWSTAT & MASK of its block is nonzero. These bits are how an IRQ wait
// names its lines (LogEntry::irq_lines, PlanOp::irq_lines, the shim's IRQ
// event): job = bit 0, gpu = bit 1, mmu = bit 2.
constexpr uint8_t kIrqLineJob = 1u << 0;
constexpr uint8_t kIrqLineGpu = 1u << 1;
constexpr uint8_t kIrqLineMmu = 1u << 2;
constexpr uint8_t kIrqLinesAll = kIrqLineJob | kIrqLineGpu | kIrqLineMmu;

struct IrqLine {
  uint8_t bit;
  uint32_t rawstat;  // the register an IRQ wait on the line level-checks
  uint32_t mask;
};
inline constexpr IrqLine kIrqLines[] = {
    {kIrqLineJob, kRegJobIrqRawstat, kRegJobIrqMask},
    {kIrqLineGpu, kRegGpuIrqRawstat, kRegGpuIrqMask},
    {kIrqLineMmu, kRegMmuIrqRawstat, kRegMmuIrqMask},
};

constexpr uint8_t PackIrqLines(bool job, bool gpu, bool mmu) {
  return static_cast<uint8_t>((job ? kIrqLineJob : 0) |
                              (gpu ? kIrqLineGpu : 0) |
                              (mmu ? kIrqLineMmu : 0));
}

// Human-readable register name for logs/recordings ("JS0_COMMAND_NEXT").
const char* RegisterName(uint32_t offset);

// True for registers whose read values are inherently nondeterministic
// across runs (timestamps, cycle counters, flush ids). The speculation
// engine refuses to predict these (§7.3: LATEST_FLUSH_ID example).
bool IsNondeterministicRegister(uint32_t offset);

// True if reading the register has no side effect on device state, so a
// replayer may poll it an unbounded number of times (§4.3 polling offload
// requires read-idempotent targets). Command and write-to-clear registers
// (GPU/JOB/MMU IRQ_CLEAR, *_COMMAND, PWRON/PWROFF, PWR_KEY/OVERRIDE) are
// not; status/ready/rawstat registers are.
bool IsReadIdempotentRegister(uint32_t offset);

// ------------------------------------------------------ Register semantics
// Conservative register semantics for static analysis of recordings and
// plans (the footprint analysis in src/analysis/footprint and the plan
// superoptimizer in src/analysis/planopt). Every classification is derived
// from the device model (src/hw/gpu.cc) and errs toward "the device may
// change this": a wrong answer here may only cost an optimization or a
// co-residency, never correctness.

enum class RegClass : uint8_t {
  // Identity / feature / present registers: fixed for the lifetime of the
  // part; not even reset changes them.
  kConstant,
  // Plain CPU-owned latches (IRQ masks, *_NEXT job descriptors, AS
  // TRANSTAB/MEMATTR/LOCKADDR, SHADER/TILER/L2_MMU_CONFIG, PWR_KEY,
  // PWR_OVERRIDE*): the device only ever reads them; writing latches the
  // value with no other effect, and only a reset clobbers them.
  kCpuConfig,
  // Write-triggers: GPU/JS/AS commands, IRQ clears, PWRON/PWROFF. Writing
  // starts an operation or acknowledges an event.
  kTrigger,
  // Device-volatile status the GPU updates asynchronously (RAWSTAT/STATUS,
  // READY/PWRTRANS, JSn_STATUS/HEAD/TAIL, AS status/fault registers).
  kDeviceStatus,
  // Values nondeterministic across runs (LATEST_FLUSH, counters); the
  // replayer never verifies reads of these.
  kNondet,
  // Unmapped offset: assume the worst (volatile, side-effecting).
  kUnknown,
};

RegClass ClassifyRegister(uint32_t offset);

// True for the PWRON/PWROFF trigger pairs (all domains, Lo and Hi words).
bool IsPowerControlRegister(uint32_t offset);
// For a power-control register, the matching *_READY_* / *_PWRTRANS_*
// registers of the same domain and word. Returns false if `offset` is not
// a power-control register.
bool PowerStatusRegistersFor(uint32_t offset, uint32_t* ready_reg,
                             uint32_t* pwrtrans_reg);

// True if a CPU write of `value` to `reg` may change device state beyond
// latching `value` into the register itself. Triggers qualify; pure
// latches (kCpuConfig) do not — so a kCpuConfig write whose reaching
// definition already latched the same value is a provable no-op.
bool WriteHasSideEffects(uint32_t reg, uint32_t value);

// Clobber model: may a CPU write of `value` to `stimulus_reg` (including
// the asynchronous completion of the operation it starts) change the value
// subsequently read from `observed_reg`? The model is conservative per
// gpu.cc semantics; notable entries:
//   * resets (GPU_COMMAND soft/hard) clobber everything but constants.
//     Coarser than the device on purpose: the latches LatchSurvivesReset
//     names keep their value, but every stamped footprint (and so every
//     recording's signed bytes) was computed with this answer, and it
//     only ever over-approximates;
//   * JOB_IRQ_CLEAR clobbers JSn_STATUS too (acknowledging a done slot
//     transitions its status back to idle);
//   * JSn_COMMAND[_NEXT] job starts clobber the job block, the MMU/AS
//     fault surface, and the GPU fault/IRQ surface — but not the
//     power-state surface (READY/PWRTRANS);
//   * power writes clobber READY/PWRTRANS of their own domain and word
//     plus the GPU IRQ surface (PowerChanged bits).
bool MayClobberRegister(uint32_t stimulus_reg, uint32_t stimulus_value,
                        uint32_t observed_reg);

// Value-equivalence classes of the clobber model: for a fixed
// `stimulus_reg`, MayClobberRegister(stimulus_reg, v, ·) is the same
// predicate of the observed register for every value `v` in one class.
// Only GPU_COMMAND distinguishes values (reset / flush / nop / unknown);
// every other register's clobber window is value-independent. Lets
// analyses take the clobber closure once per (register, class) instead of
// once per distinct recorded write value (tests/hw/clobber_test
// cross-checks the partition against the model over the full MMIO window).
uint32_t ClobberValueClass(uint32_t stimulus_reg, uint32_t stimulus_value);

// GPU_IRQ_RAWSTAT bits that a CPU write of `value` to `reg` may raise
// (directly or through the completion event of the operation it starts).
// planopt uses it to find the IRQ bits an elided write owns. Faults
// (kGpuIrqFault) are attributed to job/AS activity; resets conservatively
// include the power-changed bits because bring-up re-powers cores.
uint32_t GpuIrqBitsRaisedBy(uint32_t reg, uint32_t value);

// Power-domain decomposition of the power-control / power-status blocks,
// used by the planopt abstract power evaluator.
enum class PowerDomain : uint8_t { kShader, kTiler, kL2, kNone };
// Decodes a PWRON/PWROFF register: domain, on-vs-off, Lo-vs-Hi word.
// Returns kNone for non-power-control offsets.
PowerDomain PowerControlDomain(uint32_t offset, bool* is_on, bool* is_hi);
// Decodes a READY/PWRTRANS status register the same way. `is_trans` is
// true for PWRTRANS, false for READY. Returns kNone otherwise.
PowerDomain PowerStatusDomain(uint32_t offset, bool* is_trans, bool* is_hi);

}  // namespace grt

#endif  // GRT_SRC_HW_REGS_H_
