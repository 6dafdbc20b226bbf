// Plan-effect analysis and provenance-checked plan superoptimization.
//
// A compiled ReplayPlan (src/record/plan.h) still replays the recorded
// driver conversation literally: every cache-flush closure, every
// power-gate off/on cycle, every post-reset configuration write is
// re-issued on every warm replay even though, between back-to-back
// replays on a retained device, they provably re-establish state the
// device is already in. This module performs a static effect/dependence
// analysis over the plan's op schedule, partitions ops into
// warm-invariant and input-dependent slices, and compiles a fused "warm
// program" (plan format v2) that:
//
//   * elides whole device-op closures (cache flush, soft reset, power
//     off/on cycles, AS re-latch) whose effects are invisible at the
//     warm entry state;
//   * elides no-op latch writes, constant-register reads, and
//     nondeterministic unverified reads;
//   * weakens the verify mask of retained GPU_IRQ_RAWSTAT reads to
//     exclude interrupt bits owned by elided closures (so verification
//     still fires on faults, but not on completion bits that are no
//     longer raised);
//   * fuses maximal runs of adjacent retained register writes into
//     dense kRegSpan ops executed as one mediated burst
//     (Tzasc::WriteGpuRegisterSpan).
//
// Every rewrite is stamped into PlanProvenance with a machine-checkable
// justification. CheckWarmProgram re-derives each justification from
// the source plan and the register semantics in src/hw/regs.h — it
// never trusts the builder — so a tampered, stale, or buggy warm
// program is rejected before it can touch the GPU. The replayer runs
// the check on load, and a verifier pass ("planopt-soundness",
// registered from this module) builds and checks a warm program as part
// of recording admission. DESIGN.md §6h documents the effect lattice
// and the legality rules R1-R7 plus obligations A-G.
#ifndef GRT_SRC_ANALYSIS_PLANOPT_PLANOPT_H_
#define GRT_SRC_ANALYSIS_PLANOPT_PLANOPT_H_

#include <string>

#include "src/common/status.h"
#include "src/record/plan.h"
#include "src/sku/sku.h"

namespace grt {

// Builds a warm program for `plan`, proves it sound with
// CheckWarmProgram, and attaches it (plan->version becomes 2).
// Conservative: when the schedule contains structure the analysis cannot
// prove (an unmatched GPU command, an unsupported poll, a closure grammar
// miss — chaos recordings exercise all of these), the plan is left
// untouched at version 1 and `reason` (optional) says why.
// Returns non-OK only on an internal contradiction: the builder
// produced a program its own checker rejects.
Status AttachWarmProgram(ReplayPlan* plan, const GpuSku& sku,
                         std::string* reason = nullptr);

// Re-derives every PlanProvenance justification of `warm` against
// `plan` and the device register semantics: coverage (every source op
// rewritten exactly once, every warm op accounted for), span integrity,
// per-rule elision legality, owned-interrupt-bit isolation, abstract
// power evaluation from both warm entry states (with exit fixpoint),
// job-IRQ freshness, and stats consistency. OK iff the warm program is
// safe to execute in place of the full schedule on a retained device.
Status CheckWarmProgram(const ReplayPlan& plan, const WarmProgram& warm,
                        const GpuSku& sku);

const char* PlanOpKindName(PlanOpKind kind);
const char* PlanRewriteKindName(PlanRewriteKind kind);

// Renders the fused schedule, the per-op provenance, and the
// invariant/input-dependent partition for tools (recording_inspector
// --plan --fused, grt_lint --fused [--json]). `plan.warm` must be set.
std::string FormatWarmProgram(const ReplayPlan& plan, bool json);

}  // namespace grt

#endif  // GRT_SRC_ANALYSIS_PLANOPT_PLANOPT_H_
