// Shared machinery of the plan superoptimizer: closure grammars,
// abstract latch/power state, and op predicates. Used by both the
// builder and the checker — the checker re-derives every judgment from
// the source plan with these primitives rather than trusting anything
// the builder recorded, so agreement between the two is a proof
// obligation, not an artifact of shared state. Facts about the MMIO map
// itself (job-slot and AS decoding, the job-start write, reset commands,
// IRQ lines, the latches a reset keeps) come from src/hw/regs.h; this
// header only adapts them to plan ops.
#ifndef GRT_SRC_ANALYSIS_PLANOPT_PLANOPT_INTERNAL_H_
#define GRT_SRC_ANALYSIS_PLANOPT_PLANOPT_INTERNAL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/hw/regs.h"
#include "src/record/plan.h"
#include "src/sku/sku.h"

namespace grt {
namespace planopt {

// ------------------------------------------------------------ predicates

// IsJobStartWrite over a plan op (the plan-op analogue of
// IsReplayJobStart). `slot` receives the slot index when non-null.
inline bool IsJobStartOp(const PlanOp& op, int* slot = nullptr) {
  return op.kind == PlanOpKind::kRegWrite &&
         IsJobStartWrite(op.reg, op.value, slot);
}

// True for writes to JOB_IRQ_CLEAR.
inline bool IsJobIrqClearWrite(const PlanOp& op) {
  return op.kind == PlanOpKind::kRegWrite && op.reg == kRegJobIrqClear;
}

// Decodes a JSn_AFFINITY_NEXT_LO/HI write. Returns false otherwise.
bool IsAffinityNextWrite(uint32_t reg, int* slot, bool* is_hi);

// --------------------------------------------------------- closure model

enum class ClosureKind : uint8_t { kFlush, kReset, kPower, kAs };

const char* ClosureKindName(ClosureKind kind);

// A contiguous run of plan ops forming one device-op closure: the
// stimulus, the completion observation, and the acknowledgment.
struct Closure {
  ClosureKind kind = ClosureKind::kFlush;
  size_t begin = 0;
  size_t end = 0;  // [begin, end)
};

// Matches the maximal closure whose first op is ops[i]. The grammars
// (DESIGN.md §6h, rules R4-R7) are anchored on the device model:
//
//   flush  := GPU_COMMAND(clean-caches)
//             poll GPU_IRQ_RAWSTAT mask<=CLEAN_CACHES exp==mask
//             { delay | GPU_IRQ_CLEAR<=CLEAN_CACHES
//             | unverified read of LATEST_FLUSH }*
//   reset  := { GPU_IRQ_CLEAR | GPU_IRQ_MASK write }*
//             GPU_COMMAND(soft/hard reset)
//             { poll GPU_IRQ_RAWSTAT mask<=RESET_COMPLETED exp==mask
//             | delay | GPU_IRQ_CLEAR<=RESET_COMPLETED }*
//   power  := power-control write
//             { power-control write | poll *_PWRTRANS exp==0
//             | read of *_READY / *_PWRTRANS }*
//   as     := { AS latch write }* AS_COMMAND(UPDATE)
//             { poll AS_STATUS mask==ACTIVE exp==0 }*
//
// Deterministic and maximal, so builder and checker agree exactly on
// extents. Returns nullopt when no grammar matches at i.
std::optional<Closure> MatchClosureAt(const std::vector<PlanOp>& ops,
                                      size_t i);

// True if every register write in [c.begin, c.end) is a PWRON (used to
// pick the retained bring-up closures; PWROFF-bearing closures elide).
bool ClosureIsPureBringUp(const std::vector<PlanOp>& ops, const Closure& c);

// ---------------------------------------------------- abstract latch state

// CPU-owned latch values (RegClass::kCpuConfig) plus the per-AS active
// translation root. Default value is 0 for every latch: the analysis
// starts from the scrubbed device (HardReset), whose SoftReset zeroes
// every latch it owns — and the latches a reset leaves alone
// (LatchSurvivesReset) are zero out of construction.
class LatchState {
 public:
  uint32_t Get(uint32_t reg) const {
    auto it = regs_.find(reg);
    return it == regs_.end() ? 0 : it->second;
  }
  uint64_t as_root(int as_index) const { return as_root_[as_index]; }
  // The translation root latched in an AS's TRANSTAB_LO/HI, which an
  // UPDATE would make active.
  uint64_t transtab(int as_index) const {
    return (uint64_t{Get(AsRegister(as_index, kAsTranstabHi))} << 32) |
           Get(AsRegister(as_index, kAsTranstabLo));
  }

  // Processes a register write: latches kCpuConfig values, applies
  // reset clobbering on GPU_COMMAND resets, latches the active root on
  // AS_COMMAND UPDATE. Non-latch triggers (IRQ clears, power, job
  // commands) leave the latch state untouched.
  void Write(uint32_t reg, uint32_t value);

 private:
  void Reset();

  std::map<uint32_t, uint32_t> regs_;
  uint64_t as_root_[kMaxAddressSpaces] = {};
};

// ---------------------------------------------------- abstract power state

// Ready-bit state of the three power domains, transitions assumed
// complete (replay polls completion before depending on it, and the
// evaluator rejects schedules that do not).
struct PowerState {
  uint64_t shader = 0;
  uint64_t tiler = 0;
  uint64_t l2 = 0;

  bool operator==(const PowerState& o) const {
    return shader == o.shader && tiler == o.tiler && l2 == o.l2;
  }
  uint64_t& domain(PowerDomain d) {
    return d == PowerDomain::kShader ? shader
                                     : (d == PowerDomain::kTiler ? tiler : l2);
  }
  uint64_t present(PowerDomain d, const GpuSku& sku) const {
    return d == PowerDomain::kShader
               ? sku.shader_present
               : (d == PowerDomain::kTiler ? sku.tiler_present
                                           : sku.l2_present);
  }
  // Applies a PWRON/PWROFF write. No-op for non-power registers.
  void ApplyWrite(uint32_t reg, uint32_t value, const GpuSku& sku);
  void ResetClobber() { shader = tiler = l2 = 0; }
};

// Power state after the full source schedule runs from the scrubbed
// device: the state a warm replay enters in (entry A).
PowerState SourceExitPower(const std::vector<PlanOp>& ops, const GpuSku& sku);

// Walks the warm schedule from `entry`, checking every power-dependent
// retained op: job starts must see a powered shader subset (via the
// tracked JSn_AFFINITY_NEXT latches) and a powered L2; retained
// PWRTRANS polls must expect 0; retained verified READY reads must
// match the abstract ready value under their verify mask; retained GPU
// commands must be NOP. On success stores the exit state in `*exit`;
// on failure returns a description of the violating op.
std::optional<std::string> EvalWarmPower(const WarmProgram& warm,
                                         const GpuSku& sku,
                                         const PowerState& entry,
                                         PowerState* exit);

// -------------------------------------------------------------- owned bits

// GPU_IRQ_RAWSTAT bits "owned" by the rewrite: bits that elided writes
// would have raised, plus the PowerChanged bits of retained power
// writes (a re-issued PWRON on an already-powered domain still raises
// POWER_CHANGED_ALL). Retained verified reads/polls of the GPU IRQ
// surface must not depend on these bits.
uint32_t OwnedGpuIrqBits(const std::vector<PlanOp>& ops,
                         const PlanProvenance& prov);

inline bool RewriteIsElision(PlanRewriteKind k) {
  return k != PlanRewriteKind::kKeep && k != PlanRewriteKind::kFuseSpan &&
         k != PlanRewriteKind::kMaskWeaken;
}

}  // namespace planopt
}  // namespace grt

#endif  // GRT_SRC_ANALYSIS_PLANOPT_PLANOPT_INTERNAL_H_
