// Warm-program soundness checker: re-derives every provenance record
// from the source plan and the register semantics of src/hw/regs.h.
// Nothing the builder wrote is trusted beyond being a *claim*; each
// claim is re-proved here. The obligations (DESIGN.md §6h):
//
//   (A) coverage      — exactly one rewrite per source op, ascending;
//                       retained rewrites visit warm ops in order and
//                       reproduce their content exactly
//   (B) span integrity— fused members are consecutive source register
//                       writes, order preserved, span length >= 2
//   (C) elision rules — R1 no-op latch, R2 nondet read, R3 statically
//                       determined read, R4-R7 closure grammars with
//                       per-member no-op side conditions
//   (D) owned bits    — retained observers of the GPU IRQ surface are
//                       independent of interrupt bits owned by elided
//                       closures; waited lines are masked identically
//   (E) power         — abstract evaluation from both warm entry
//                       states, with an exit fixpoint
//   (F) freshness     — every retained job-IRQ wait is preceded by a
//                       fresh job start and followed by its ack
//   (G) format/stats  — plan-format v2, non-empty schedule, stats
//                       recount to the same values
//
// Also hosts the "planopt-soundness" verifier pass: recording admission
// compiles a skeleton plan, builds a warm program, and requires the
// checker to accept it — so the optimizer's soundness argument is
// exercised on every recording the TEE admits.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/planopt/planopt.h"
#include "src/analysis/planopt/planopt_internal.h"
#include "src/analysis/verifier.h"

namespace grt {

namespace {

using planopt::Closure;
using planopt::ClosureKind;
using planopt::LatchState;
using planopt::PowerState;
using planopt::RewriteIsElision;

Status CheckFail(size_t src_index, const std::string& message) {
  return IntegrityViolation("planopt soundness: op " +
                            std::to_string(src_index) + ": " + message);
}

std::optional<ClosureKind> ClosureKindOfRewrite(PlanRewriteKind kind) {
  switch (kind) {
    case PlanRewriteKind::kElideFlushClosure:
      return ClosureKind::kFlush;
    case PlanRewriteKind::kElideResetClosure:
      return ClosureKind::kReset;
    case PlanRewriteKind::kElidePowerClosure:
      return ClosureKind::kPower;
    case PlanRewriteKind::kElideAsClosure:
      return ClosureKind::kAs;
    default:
      return std::nullopt;
  }
}

// Field-for-field match between a retained source op and its warm op
// (the verify mask is the caller's to check).
bool WarmOpMatches(const PlanOp& op, const PlanOp& wop) {
  if (wop.kind != op.kind || wop.log_index != op.log_index) {
    return false;
  }
  switch (op.kind) {
    case PlanOpKind::kMemPage:
      return wop.image == op.image;
    case PlanOpKind::kRegWrite:
      return wop.reg == op.reg && wop.value == op.value;
    case PlanOpKind::kRegRead:
      return wop.reg == op.reg && wop.value == op.value &&
             wop.verify == op.verify;
    case PlanOpKind::kPollWait:
      return wop.reg == op.reg && wop.mask == op.mask &&
             wop.expected == op.expected;
    case PlanOpKind::kDelay:
      return wop.delay == op.delay;
    case PlanOpKind::kIrqWait:
      return wop.irq_lines == op.irq_lines;
    case PlanOpKind::kRegSpan:
      return false;  // a compiled plan never carries spans
  }
  return false;
}

}  // namespace

Status CheckWarmProgram(const ReplayPlan& plan, const WarmProgram& warm,
                        const GpuSku& sku) {
  const std::vector<PlanOp>& ops = plan.ops;
  const PlanProvenance& prov = warm.provenance;

  // ----------------------------------------------------------- (G) format
  if (prov.plan_format != 2) {
    return IntegrityViolation("planopt soundness: provenance format " +
                              std::to_string(prov.plan_format) +
                              " (expected 2)");
  }
  if (warm.ops.empty()) {
    return IntegrityViolation("planopt soundness: empty warm schedule");
  }
  for (size_t w = 0; w < warm.ops.size(); ++w) {
    const PlanOp& wop = warm.ops[w];
    if (wop.kind == PlanOpKind::kRegSpan) {
      if (wop.span_len < 2 ||
          static_cast<size_t>(wop.span_begin) + wop.span_len >
              warm.span_writes.size()) {
        return IntegrityViolation("planopt soundness: warm op " +
                                  std::to_string(w) +
                                  ": malformed register span");
      }
    } else if (wop.kind == PlanOpKind::kMemPage &&
               wop.image >= plan.mid_images.size()) {
      return IntegrityViolation("planopt soundness: warm op " +
                                std::to_string(w) +
                                ": mid-image index out of range");
    }
  }

  // --------------------------------------------------------- (A) coverage
  if (prov.rewrites.size() != ops.size()) {
    return IntegrityViolation(
        "planopt soundness: " + std::to_string(prov.rewrites.size()) +
        " rewrites for " + std::to_string(ops.size()) + " plan ops");
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (prov.rewrites[i].src_index != i) {
      return CheckFail(i, "rewrite src_index " +
                              std::to_string(prov.rewrites[i].src_index) +
                              " out of order");
    }
  }

  uint32_t owned = planopt::OwnedGpuIrqBits(ops, prov);
  if (warm.owned_gpu_irq_bits != owned) {
    return CheckFail(0, "stamped owned_gpu_irq_bits " +
                            std::to_string(warm.owned_gpu_irq_bits) +
                            " do not match the provenance-derived bits " +
                            std::to_string(owned));
  }

  // Warm-entry latch state (source exit, last write wins).
  LatchState exit_latch;
  for (const PlanOp& op : ops) {
    if (op.kind == PlanOpKind::kRegWrite) {
      exit_latch.Write(op.reg, op.value);
    }
  }

  size_t first_start = ops.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (planopt::IsJobStartOp(ops[i])) {
      first_start = i;
      break;
    }
  }

  // Lockstep abstract walk over the source schedule: `src_latch` is
  // what the recorded driver observed, `warm_latch` what a warm replay
  // observes (exit state, retained writes only).
  LatchState src_latch;
  LatchState warm_latch = exit_latch;

  // Closure bookkeeping: id -> [first, last] member plus member count.
  struct ClosureClaim {
    ClosureKind kind;
    size_t first, last;
    size_t members = 0;
  };
  std::map<uint32_t, ClosureClaim> closures;

  // (A) retained ordering, (B) span membership, (F) freshness.
  int64_t last_warm = -1;
  std::vector<uint32_t> span_members(warm.ops.size(), 0);
  bool started_since_wait = false;
  int pending_ack_slot = -1;
  int last_started_slot = -1;
  int outstanding = 0;
  WarmStats re;  // (G) recount

  for (size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    const PlanRewrite& r = prov.rewrites[i];
    const bool elided = RewriteIsElision(r.kind);
    const bool invariant = i < first_start || op.kind == PlanOpKind::kMemPage;
    ++(invariant ? re.invariant_ops : re.input_dep_ops);

    switch (r.kind) {
      case PlanRewriteKind::kKeep: {
        if (r.warm_index >= warm.ops.size()) {
          return CheckFail(i, "warm index out of range");
        }
        if (static_cast<int64_t>(r.warm_index) != last_warm + 1) {
          return CheckFail(i, "retained ops out of warm-schedule order");
        }
        last_warm = r.warm_index;
        const PlanOp& wop = warm.ops[r.warm_index];
        if (!WarmOpMatches(op, wop)) {
          return CheckFail(i, "warm op content does not match source op");
        }
        if (op.kind == PlanOpKind::kRegRead && wop.verify_mask != 0xFFFFFFFFu) {
          return CheckFail(i, "kept read carries a weakened verify mask");
        }
        break;
      }
      case PlanRewriteKind::kFuseSpan: {
        if (op.kind != PlanOpKind::kRegWrite) {
          return CheckFail(i, "non-write fused into a register span");
        }
        if (r.warm_index >= warm.ops.size() ||
            warm.ops[r.warm_index].kind != PlanOpKind::kRegSpan) {
          return CheckFail(i, "span member points at a non-span warm op");
        }
        const PlanOp& wop = warm.ops[r.warm_index];
        if (r.aux >= wop.span_len) {
          return CheckFail(i, "span member ordinal out of range");
        }
        if (r.aux == 0) {
          if (static_cast<int64_t>(r.warm_index) != last_warm + 1) {
            return CheckFail(i, "retained ops out of warm-schedule order");
          }
          last_warm = r.warm_index;
          if (wop.log_index != op.log_index) {
            return CheckFail(i, "span log index does not name first member");
          }
        } else {
          // Consecutive source indices, order preserved: member k must
          // directly follow member k-1 of the same span.
          if (static_cast<int64_t>(r.warm_index) != last_warm || i == 0) {
            return CheckFail(i, "span member outside its span's window");
          }
          const PlanRewrite& prev = prov.rewrites[i - 1];
          if (prev.kind != PlanRewriteKind::kFuseSpan ||
              prev.warm_index != r.warm_index || prev.aux != r.aux - 1) {
            return CheckFail(i, "span members are not consecutive source ops");
          }
        }
        const RegSpanWrite& sw = warm.span_writes[wop.span_begin + r.aux];
        if (sw.reg != op.reg || sw.value != op.value || sw.src_index != i) {
          return CheckFail(i, "span write does not match source write");
        }
        ++span_members[r.warm_index];
        ++re.fused_writes;
        break;
      }
      case PlanRewriteKind::kMaskWeaken: {
        if (op.kind != PlanOpKind::kRegRead || !op.verify ||
            (op.reg != kRegGpuIrqRawstat && op.reg != kRegGpuIrqStatus)) {
          return CheckFail(i, "mask weakening on a non-GPU-IRQ read");
        }
        if (owned == 0 || r.aux != owned) {
          return CheckFail(i, "weakened bits do not equal the owned bits");
        }
        if (r.warm_index >= warm.ops.size() ||
            static_cast<int64_t>(r.warm_index) != last_warm + 1) {
          return CheckFail(i, "retained ops out of warm-schedule order");
        }
        last_warm = r.warm_index;
        const PlanOp& wop = warm.ops[r.warm_index];
        if (!WarmOpMatches(op, wop) ||
            wop.verify_mask != ~owned) {
          return CheckFail(i, "weakened warm read does not match source op");
        }
        ++re.weakened_reads;
        break;
      }
      case PlanRewriteKind::kElideConstRead: {
        RegClass cls = ClassifyRegister(op.reg);
        bool statically_determined =
            op.kind == PlanOpKind::kRegRead && op.verify &&
            (cls == RegClass::kConstant ||
             (cls == RegClass::kCpuConfig &&
              op.value == src_latch.Get(op.reg)));
        if (!statically_determined) {
          return CheckFail(i, "read is not statically determined");
        }
        ++re.elided_const_reads;
        ++re.elided_ops;
        break;
      }
      case PlanRewriteKind::kElideNondetRead: {
        if (op.kind != PlanOpKind::kRegRead || op.verify ||
            !IsReadIdempotentRegister(op.reg)) {
          return CheckFail(i, "read is verified or not read-idempotent");
        }
        ++re.elided_nondet_reads;
        ++re.elided_ops;
        break;
      }
      case PlanRewriteKind::kElideNoopLatch: {
        if (op.kind != PlanOpKind::kRegWrite ||
            ClassifyRegister(op.reg) != RegClass::kCpuConfig ||
            WriteHasSideEffects(op.reg, op.value) ||
            op.value != warm_latch.Get(op.reg)) {
          return CheckFail(i, "write is not a no-op on the warm latch state");
        }
        if (IsJobSlotRegister(op.reg)) {
          return CheckFail(i, "job-slot write hidden from the power walk");
        }
        ++re.elided_noop_latches;
        ++re.elided_ops;
        break;
      }
      default: {  // closure membership
        std::optional<ClosureKind> ck = ClosureKindOfRewrite(r.kind);
        if (!ck.has_value()) {
          return CheckFail(i, "unknown rewrite kind");
        }
        auto [it, inserted] = closures.try_emplace(
            r.aux, ClosureClaim{*ck, i, i, 0});
        if (!inserted && it->second.kind != *ck) {
          return CheckFail(i, "closure id spans two closure kinds");
        }
        it->second.last = i;
        ++it->second.members;
        // Elided reads and polls must be side-effect-free on the
        // device; waits and pages are never closure members.
        if ((op.kind == PlanOpKind::kRegRead ||
             op.kind == PlanOpKind::kPollWait) &&
            !IsReadIdempotentRegister(op.reg)) {
          return CheckFail(i, "elided closure member is not read-idempotent");
        }
        if (op.kind == PlanOpKind::kIrqWait ||
            op.kind == PlanOpKind::kMemPage) {
          return CheckFail(i, "irq wait / mem page inside an elided closure");
        }
        // AS closures must be architectural no-ops at the warm entry
        // state: latch re-writes of the latched values and an UPDATE
        // re-latching the already-active root.
        if (*ck == ClosureKind::kAs && op.kind == PlanOpKind::kRegWrite) {
          int as_index = -1;
          uint32_t as_reg = 0;
          if (!DecodeAsRegister(op.reg, &as_index, &as_reg)) {
            return CheckFail(i, "AS closure member outside the AS block");
          }
          if (as_reg == kAsCommand) {
            if (op.value != kAsCommandUpdate ||
                warm_latch.transtab(as_index) !=
                    warm_latch.as_root(as_index)) {
              return CheckFail(i, "elided AS UPDATE would change the root");
            }
          } else if (op.value != warm_latch.Get(op.reg)) {
            return CheckFail(i, "elided AS latch write is not a no-op");
          }
        }
        ++re.elided_ops;
        break;
      }
    }

    // ------------------------------------ (D) retained-observer isolation
    if (!elided) {
      if (op.kind == PlanOpKind::kRegRead && op.verify &&
          (op.reg == kRegGpuIrqRawstat || op.reg == kRegGpuIrqStatus) &&
          r.kind != PlanRewriteKind::kMaskWeaken && owned != 0) {
        return CheckFail(i, "retained GPU-IRQ read not weakened against "
                            "owned bits");
      }
      if (op.kind == PlanOpKind::kPollWait &&
          (op.reg == kRegGpuIrqRawstat || op.reg == kRegGpuIrqStatus) &&
          (op.mask & owned) != 0) {
        return CheckFail(i, "retained poll depends on owned interrupt bits");
      }
      if (op.kind == PlanOpKind::kIrqWait) {
        if ((op.irq_lines & kIrqLineGpu) != 0 && owned != 0) {
          return CheckFail(i, "retained GPU-line wait with owned bits");
        }
        for (const IrqLine& line : kIrqLines) {
          if ((op.irq_lines & line.bit) != 0 &&
              src_latch.Get(line.mask) != warm_latch.Get(line.mask)) {
            return CheckFail(i, std::string("waited line masked differently "
                                            "in warm schedule (") +
                                    RegisterName(line.mask) + ")");
          }
        }
        // --------------------------------------------- (F) job freshness
        if ((op.irq_lines & kIrqLineJob) != 0) {
          if (!started_since_wait) {
            return CheckFail(i, "job-IRQ wait without a fresh job start");
          }
          started_since_wait = false;
          --outstanding;
          pending_ack_slot = last_started_slot;
        }
      }
      if (op.kind == PlanOpKind::kRegWrite) {
        int slot = -1;
        if (planopt::IsJobStartOp(op, &slot)) {
          if (pending_ack_slot >= 0) {
            return CheckFail(i, "job start before the previous completion "
                                "was acknowledged");
          }
          if (outstanding != 0) {
            return CheckFail(i, "overlapping retained job starts");
          }
          started_since_wait = true;
          last_started_slot = slot;
          ++outstanding;
        } else if (planopt::IsJobIrqClearWrite(op) && pending_ack_slot >= 0 &&
                   (op.value & JobIrqDoneBit(pending_ack_slot)) != 0) {
          pending_ack_slot = -1;
        }
      }
    }

    if (op.kind == PlanOpKind::kRegWrite) {
      src_latch.Write(op.reg, op.value);
      if (!elided) {
        warm_latch.Write(op.reg, op.value);
      }
    }
  }

  if (last_warm + 1 != static_cast<int64_t>(warm.ops.size())) {
    return IntegrityViolation(
        "planopt soundness: warm schedule has unclaimed ops (" +
        std::to_string(last_warm + 1) + " of " +
        std::to_string(warm.ops.size()) + " claimed)");
  }
  for (size_t w = 0; w < warm.ops.size(); ++w) {
    if (warm.ops[w].kind == PlanOpKind::kRegSpan &&
        span_members[w] != warm.ops[w].span_len) {
      return IntegrityViolation("planopt soundness: warm op " +
                                std::to_string(w) + " claims " +
                                std::to_string(warm.ops[w].span_len) +
                                " members, " +
                                std::to_string(span_members[w]) + " found");
    }
  }
  if (outstanding != 0 || pending_ack_slot >= 0 || started_since_wait) {
    return IntegrityViolation(
        "planopt soundness: unbalanced job start/wait/ack at schedule end");
  }

  // -------------------------------------------- (C) closure re-derivation
  for (const auto& [id, claim] : closures) {
    if (claim.members != claim.last - claim.first + 1) {
      return CheckFail(claim.first, "closure " + std::to_string(id) +
                                        " is not contiguous");
    }
    std::optional<Closure> m = planopt::MatchClosureAt(ops, claim.first);
    if (!m.has_value() || m->kind != claim.kind || m->begin != claim.first ||
        m->end != claim.last + 1) {
      return CheckFail(claim.first,
                       "closure " + std::to_string(id) + " does not match "
                       "the " + planopt::ClosureKindName(claim.kind) +
                       " grammar");
    }
  }

  // ------------------------------------------------- (E) power evaluation
  PowerState entry_a = planopt::SourceExitPower(ops, sku);
  PowerState exit_a, exit_b;
  if (auto err = planopt::EvalWarmPower(warm, sku, entry_a, &exit_a)) {
    return IntegrityViolation("planopt soundness (entry A): " + *err);
  }
  if (auto err = planopt::EvalWarmPower(warm, sku, exit_a, &exit_b)) {
    return IntegrityViolation("planopt soundness (entry B): " + *err);
  }
  if (!(exit_b == exit_a)) {
    return IntegrityViolation(
        "planopt soundness: warm power exit is not a fixpoint");
  }

  // ---------------------------------------------------- (G) stats recount
  re.retained_ops = static_cast<uint32_t>(warm.ops.size());
  for (const PlanOp& wop : warm.ops) {
    re.fused_spans += wop.kind == PlanOpKind::kRegSpan ? 1 : 0;
  }
  for (const auto& [id, claim] : closures) {
    switch (claim.kind) {
      case ClosureKind::kFlush:
        ++re.elided_flush_closures;
        break;
      case ClosureKind::kReset:
        ++re.elided_reset_closures;
        break;
      case ClosureKind::kPower:
        ++re.elided_power_closures;
        break;
      case ClosureKind::kAs:
        ++re.elided_as_closures;
        break;
    }
  }
  const WarmStats& st = warm.stats;
  struct FieldCheck {
    const char* name;
    uint32_t claimed, derived;
  };
  const FieldCheck fields[] = {
      {"fused_spans", st.fused_spans, re.fused_spans},
      {"fused_writes", st.fused_writes, re.fused_writes},
      {"elided_flush_closures", st.elided_flush_closures,
       re.elided_flush_closures},
      {"elided_power_closures", st.elided_power_closures,
       re.elided_power_closures},
      {"elided_reset_closures", st.elided_reset_closures,
       re.elided_reset_closures},
      {"elided_as_closures", st.elided_as_closures, re.elided_as_closures},
      {"elided_const_reads", st.elided_const_reads, re.elided_const_reads},
      {"elided_nondet_reads", st.elided_nondet_reads, re.elided_nondet_reads},
      {"elided_noop_latches", st.elided_noop_latches, re.elided_noop_latches},
      {"weakened_reads", st.weakened_reads, re.weakened_reads},
      {"retained_ops", st.retained_ops, re.retained_ops},
      {"elided_ops", st.elided_ops, re.elided_ops},
      {"invariant_ops", st.invariant_ops, re.invariant_ops},
      {"input_dep_ops", st.input_dep_ops, re.input_dep_ops},
  };
  for (const FieldCheck& f : fields) {
    if (f.claimed != f.derived) {
      return IntegrityViolation(
          std::string("planopt soundness: stats field ") + f.name +
          " claims " + std::to_string(f.claimed) + ", recount " +
          std::to_string(f.derived));
    }
  }

  return OkStatus();
}

// ----------------------------------------------- verifier pass (eighth)

namespace {

// Recording admission exercises the optimizer's soundness argument: the
// pass compiles a skeleton plan (no image bytes), builds a warm program
// for it, and requires the independent checker to accept the result. A
// build *decline* is not an admission error (chaos/adversarial logs may
// simply not be optimizable); a built program failing its check is.
class PlanoptSoundnessPass : public AnalysisPass {
 public:
  const char* name() const override { return "planopt-soundness"; }

  void Run(const AnalysisInput& in, AnalysisReport* report) const override {
    if (in.sku == nullptr || in.continuation) {
      return;  // sku-compat reports the former; segments are interpreted
    }
    if (report->error_count() > 0) {
      // The recording is already rejected; superoptimizing it would only
      // re-report the same defects with planopt vocabulary (and the
      // corpus tests pin each corruption to exactly one pass).
      return;
    }
    PlanCompileOptions options;
    options.include_images = false;
    ReplayPlan plan = CompileReplayPlan(*in.recording, options);
    std::string reason;
    Status attached = AttachWarmProgram(&plan, *in.sku, &reason);
    // AttachWarmProgram runs CheckWarmProgram on the built program and
    // returns its verdict; a declined build attaches nothing and leaves
    // the interpreter/plan paths available.
    if (!attached.ok()) {
      Error(report, -1,
            std::string("warm program failed its soundness check: ") +
                attached.message());
    }
  }
};

const bool kRegistered = [] {
  RegisterVerifierPass([]() -> std::unique_ptr<AnalysisPass> {
    return std::make_unique<PlanoptSoundnessPass>();
  });
  return true;
}();

}  // namespace

}  // namespace grt
