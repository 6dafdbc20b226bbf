// Warm-program builder: applies the elision/fusion policy, stamps every
// decision into PlanProvenance, then proves the result with the
// independent checker before attaching it. The builder is allowed to be
// clever; it is not allowed to be trusted — anything it produces passes
// through CheckWarmProgram, and a policy/legality mismatch is surfaced
// as an error rather than an unsound program.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/planopt/planopt.h"
#include "src/analysis/planopt/planopt_internal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace grt {

namespace {

using planopt::Closure;
using planopt::ClosureKind;
using planopt::LatchState;

PlanRewriteKind ClosureRewriteKind(ClosureKind kind) {
  switch (kind) {
    case ClosureKind::kFlush:
      return PlanRewriteKind::kElideFlushClosure;
    case ClosureKind::kReset:
      return PlanRewriteKind::kElideResetClosure;
    case ClosureKind::kPower:
      return PlanRewriteKind::kElidePowerClosure;
    case ClosureKind::kAs:
      return PlanRewriteKind::kElideAsClosure;
  }
  return PlanRewriteKind::kKeep;
}

// Builds the warm program for `plan`. Returns false with `*reason` set
// when the schedule has structure the policy declines to optimize.
bool BuildWarmProgram(const ReplayPlan& plan, const GpuSku& /*sku*/,
                      WarmProgram* out, std::string* reason) {
  const std::vector<PlanOp>& ops = plan.ops;
  auto decline = [&](std::string why) {
    *reason = std::move(why);
    return false;
  };
  if (ops.empty()) {
    return decline("plan has no ops");
  }

  size_t first_start = ops.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (planopt::IsJobStartOp(ops[i])) {
      first_start = i;
      break;
    }
  }
  if (first_start == ops.size()) {
    return decline("plan never starts a job");
  }

  // Warm-entry latch state: the source schedule's exit (last write
  // wins, resets modeled) — a retained device still holds it.
  LatchState exit_latch;
  for (const PlanOp& op : ops) {
    if (op.kind == PlanOpKind::kRegWrite) {
      exit_latch.Write(op.reg, op.value);
    }
  }

  // Closure discovery: deterministic maximal matches over unconsumed
  // ops. Power closures that purely bring cores up before the first job
  // start are retained (they are no-ops on an already-powered device
  // and re-establish power after a pool scrub); every other closure is
  // elided.
  struct FoundClosure {
    Closure c;
    bool elide = false;
  };
  std::vector<FoundClosure> closures;
  std::vector<int> closure_of(ops.size(), -1);
  for (size_t i = 0; i < ops.size();) {
    std::optional<Closure> c = planopt::MatchClosureAt(ops, i);
    if (!c.has_value()) {
      ++i;
      continue;
    }
    bool elide = true;
    if (c->kind == ClosureKind::kPower) {
      elide = !(c->begin < first_start && planopt::ClosureIsPureBringUp(ops, *c));
    }
    if (elide) {
      for (size_t j = c->begin; j < c->end; ++j) {
        closure_of[j] = static_cast<int>(closures.size());
      }
      closures.push_back(FoundClosure{*c, true});
    }
    i = c->end;
  }

  // Per-op rewrite decisions. Two abstract latch interpretations run in
  // lockstep: `src_latch` models what the recorded driver saw (all
  // writes, resets included); `warm_latch` models the retained schedule
  // from the exit state. An elision is only taken when the relevant
  // interpretation proves it a no-op.
  std::vector<PlanRewrite> rewrites(ops.size());
  LatchState src_latch;
  LatchState warm_latch = exit_latch;
  std::vector<size_t> weaken_candidates;
  for (size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    PlanRewrite& r = rewrites[i];
    r.src_index = static_cast<uint32_t>(i);
    r.kind = PlanRewriteKind::kKeep;

    if (closure_of[i] >= 0) {
      r.kind = ClosureRewriteKind(closures[closure_of[i]].c.kind);
      r.aux = static_cast<uint32_t>(closure_of[i]);
    } else {
      switch (op.kind) {
        case PlanOpKind::kRegRead: {
          RegClass cls = ClassifyRegister(op.reg);
          if (op.verify && cls == RegClass::kConstant) {
            r.kind = PlanRewriteKind::kElideConstRead;
          } else if (op.verify && cls == RegClass::kCpuConfig &&
                     op.value == src_latch.Get(op.reg)) {
            // The recorded value is the latch value the schedule itself
            // establishes at this point (e.g. a post-reset RMW read):
            // statically determined, nothing left to check at run time.
            r.kind = PlanRewriteKind::kElideConstRead;
          } else if (!op.verify && IsReadIdempotentRegister(op.reg)) {
            r.kind = PlanRewriteKind::kElideNondetRead;
          } else if (op.verify && (op.reg == kRegGpuIrqRawstat ||
                                   op.reg == kRegGpuIrqStatus)) {
            weaken_candidates.push_back(i);
          }
          break;
        }
        case PlanOpKind::kRegWrite: {
          // Job-slot writes are never latch-elided: the soundness walk
          // derives per-slot affinity and job-start legality from the
          // retained schedule alone, so every _NEXT write must stay
          // visible in the warm program.
          if (ClassifyRegister(op.reg) == RegClass::kCpuConfig &&
              !WriteHasSideEffects(op.reg, op.value) &&
              !IsJobSlotRegister(op.reg) &&
              op.value == warm_latch.Get(op.reg)) {
            r.kind = PlanRewriteKind::kElideNoopLatch;
          } else if (op.reg == kRegGpuCommand && op.value != kGpuCommandNop) {
            // A reset or flush outside its closure grammar cannot be
            // retained (it would bump the reset epoch or wedge the IRQ
            // line) and cannot be proven elidable on its own.
            return decline("GPU_COMMAND at op " + std::to_string(i) +
                           " does not match a closure grammar");
          }
          break;
        }
        case PlanOpKind::kIrqWait: {
          // The warm schedule must mask each waited line exactly as the
          // recorded schedule did at this point, else line assertion
          // could diverge.
          for (const IrqLine& line : kIrqLines) {
            if ((op.irq_lines & line.bit) != 0 &&
                src_latch.Get(line.mask) != warm_latch.Get(line.mask)) {
              return decline("irq wait at op " + std::to_string(i) +
                             " under a diverged " +
                             std::string(RegisterName(line.mask)));
            }
          }
          break;
        }
        default:
          break;
      }
    }

    if (op.kind == PlanOpKind::kRegWrite) {
      src_latch.Write(op.reg, op.value);
      if (!planopt::RewriteIsElision(r.kind)) {
        warm_latch.Write(op.reg, op.value);
      }
    }
  }

  // Interrupt bits owned by the rewrite: retained observers of the GPU
  // IRQ surface must not depend on them.
  PlanProvenance provisional;
  provisional.rewrites = rewrites;
  uint32_t owned = planopt::OwnedGpuIrqBits(ops, provisional);
  for (size_t i : weaken_candidates) {
    if (owned != 0) {
      rewrites[i].kind = PlanRewriteKind::kMaskWeaken;
      rewrites[i].aux = owned;
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    if (planopt::RewriteIsElision(rewrites[i].kind)) {
      continue;
    }
    if (op.kind == PlanOpKind::kPollWait &&
        (op.reg == kRegGpuIrqRawstat || op.reg == kRegGpuIrqStatus) &&
        (op.mask & owned) != 0) {
      return decline("retained poll at op " + std::to_string(i) +
                     " depends on elided interrupt bits");
    }
    if (op.kind == PlanOpKind::kIrqWait &&
        (op.irq_lines & kIrqLineGpu) != 0 && owned != 0) {
      return decline("retained GPU-line irq wait at op " + std::to_string(i) +
                     " with elided GPU interrupt sources");
    }
  }

  // Emit the warm schedule, fusing maximal runs (>= 2) of retained
  // register writes at consecutive source indices into kRegSpan ops.
  WarmProgram warm;
  auto retained_write = [&](size_t i) {
    return i < ops.size() && ops[i].kind == PlanOpKind::kRegWrite &&
           rewrites[i].kind == PlanRewriteKind::kKeep;
  };
  for (size_t i = 0; i < ops.size();) {
    const PlanOp& op = ops[i];
    if (planopt::RewriteIsElision(rewrites[i].kind)) {
      ++i;
      continue;
    }
    if (retained_write(i) && retained_write(i + 1)) {
      size_t end = i + 1;
      while (retained_write(end)) {
        ++end;
      }
      PlanOp span;
      span.kind = PlanOpKind::kRegSpan;
      span.span_begin = static_cast<uint32_t>(warm.span_writes.size());
      span.span_len = static_cast<uint32_t>(end - i);
      span.log_index = op.log_index;
      uint32_t warm_index = static_cast<uint32_t>(warm.ops.size());
      for (size_t j = i; j < end; ++j) {
        warm.span_writes.push_back(RegSpanWrite{
            ops[j].reg, ops[j].value, static_cast<uint32_t>(j)});
        rewrites[j].kind = PlanRewriteKind::kFuseSpan;
        rewrites[j].warm_index = warm_index;
        rewrites[j].aux = static_cast<uint32_t>(j - i);
      }
      warm.ops.push_back(span);
      i = end;
      continue;
    }
    PlanOp kept = op;
    if (rewrites[i].kind == PlanRewriteKind::kMaskWeaken) {
      kept.verify_mask = ~rewrites[i].aux;
    }
    rewrites[i].warm_index = static_cast<uint32_t>(warm.ops.size());
    warm.ops.push_back(kept);
    ++i;
  }

  // Stats + partition (prefix bring-up and metastate reapplication are
  // warm-invariant; everything from the first job start on is
  // input-dependent).
  WarmStats& st = warm.stats;
  for (size_t i = 0; i < ops.size(); ++i) {
    const PlanRewrite& r = rewrites[i];
    bool invariant = i < first_start || ops[i].kind == PlanOpKind::kMemPage;
    ++(invariant ? st.invariant_ops : st.input_dep_ops);
    switch (r.kind) {
      case PlanRewriteKind::kKeep:
      case PlanRewriteKind::kMaskWeaken:
        st.weakened_reads += r.kind == PlanRewriteKind::kMaskWeaken ? 1 : 0;
        break;
      case PlanRewriteKind::kFuseSpan:
        ++st.fused_writes;
        break;
      case PlanRewriteKind::kElideConstRead:
        ++st.elided_const_reads;
        ++st.elided_ops;
        break;
      case PlanRewriteKind::kElideNondetRead:
        ++st.elided_nondet_reads;
        ++st.elided_ops;
        break;
      case PlanRewriteKind::kElideNoopLatch:
        ++st.elided_noop_latches;
        ++st.elided_ops;
        break;
      case PlanRewriteKind::kElideFlushClosure:
      case PlanRewriteKind::kElideResetClosure:
      case PlanRewriteKind::kElidePowerClosure:
      case PlanRewriteKind::kElideAsClosure:
        ++st.elided_ops;
        break;
    }
  }
  for (const FoundClosure& fc : closures) {
    switch (fc.c.kind) {
      case ClosureKind::kFlush:
        ++st.elided_flush_closures;
        break;
      case ClosureKind::kReset:
        ++st.elided_reset_closures;
        break;
      case ClosureKind::kPower:
        ++st.elided_power_closures;
        break;
      case ClosureKind::kAs:
        ++st.elided_as_closures;
        break;
    }
  }
  st.retained_ops = static_cast<uint32_t>(warm.ops.size());
  for (const PlanOp& wop : warm.ops) {
    st.fused_spans += wop.kind == PlanOpKind::kRegSpan ? 1 : 0;
  }
  warm.owned_gpu_irq_bits = owned;

  warm.provenance.plan_format = 2;
  warm.provenance.rewrites = std::move(rewrites);
  *out = std::move(warm);
  return true;
}

}  // namespace

Status AttachWarmProgram(ReplayPlan* plan, const GpuSku& sku,
                         std::string* reason) {
  GRT_TRACE_SPAN("planopt.attach", "planopt");
  std::string why;
  auto warm = std::make_shared<WarmProgram>();
  if (!BuildWarmProgram(*plan, sku, warm.get(), &why)) {
    GRT_OBS_COUNT("planopt.declined", 1);
    if (reason != nullptr) {
      *reason = why;
    }
    return OkStatus();
  }

  // The builder is not trusted: the independent checker must accept the
  // program before it is attached.
  GRT_RETURN_IF_ERROR(CheckWarmProgram(*plan, *warm, sku));

  plan->version = 2;
  plan->warm = std::move(warm);
  GRT_OBS_COUNT("planopt.attached", 1);
  if (reason != nullptr) {
    reason->clear();
  }
  return OkStatus();
}

}  // namespace grt
