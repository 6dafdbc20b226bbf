// Human/JSON rendering of a warm program for the inspection tools
// (recording_inspector --plan --fused, grt_lint --fused [--json]).

#include <cstdio>
#include <string>

#include "src/analysis/planopt/planopt.h"
#include "src/analysis/planopt/planopt_internal.h"

namespace grt {

const char* PlanOpKindName(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kMemPage:
      return "mem_page";
    case PlanOpKind::kRegWrite:
      return "reg_write";
    case PlanOpKind::kRegRead:
      return "reg_read";
    case PlanOpKind::kPollWait:
      return "poll_wait";
    case PlanOpKind::kDelay:
      return "delay";
    case PlanOpKind::kIrqWait:
      return "irq_wait";
    case PlanOpKind::kRegSpan:
      return "reg_span";
  }
  return "?";
}

const char* PlanRewriteKindName(PlanRewriteKind kind) {
  switch (kind) {
    case PlanRewriteKind::kKeep:
      return "keep";
    case PlanRewriteKind::kFuseSpan:
      return "fuse-span";
    case PlanRewriteKind::kMaskWeaken:
      return "mask-weaken";
    case PlanRewriteKind::kElideConstRead:
      return "elide-const-read";
    case PlanRewriteKind::kElideNondetRead:
      return "elide-nondet-read";
    case PlanRewriteKind::kElideNoopLatch:
      return "elide-noop-latch";
    case PlanRewriteKind::kElideFlushClosure:
      return "elide-flush-closure";
    case PlanRewriteKind::kElideResetClosure:
      return "elide-reset-closure";
    case PlanRewriteKind::kElidePowerClosure:
      return "elide-power-closure";
    case PlanRewriteKind::kElideAsClosure:
      return "elide-as-closure";
  }
  return "?";
}

namespace {

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%x", v);
  return buf;
}

void AppendWarmOpText(const WarmProgram& warm, size_t w, std::string* out) {
  const PlanOp& op = warm.ops[w];
  char head[64];
  std::snprintf(head, sizeof(head), "  [%4zu] %-9s ", w,
                PlanOpKindName(op.kind));
  *out += head;
  switch (op.kind) {
    case PlanOpKind::kRegWrite:
      *out += std::string(RegisterName(op.reg)) + " = " + Hex(op.value);
      break;
    case PlanOpKind::kRegRead:
      *out += std::string(RegisterName(op.reg)) + " == " + Hex(op.value);
      if (!op.verify) {
        *out += "  unverified";
      } else if (op.verify_mask != 0xFFFFFFFFu) {
        *out += "  mask " + Hex(op.verify_mask);
      }
      break;
    case PlanOpKind::kPollWait:
      *out += std::string(RegisterName(op.reg)) + " & " + Hex(op.mask) +
              " == " + Hex(op.expected);
      break;
    case PlanOpKind::kDelay:
      *out += std::to_string(op.delay) + "ns";
      break;
    case PlanOpKind::kIrqWait:
      *out += "lines " + Hex(op.irq_lines);
      break;
    case PlanOpKind::kMemPage:
      *out += "mid image " + std::to_string(op.image);
      break;
    case PlanOpKind::kRegSpan:
      *out += "x" + std::to_string(op.span_len);
      break;
  }
  *out += "  (log " + std::to_string(op.log_index) + ")";
  if (op.kind == PlanOpKind::kRegSpan) {
    for (uint32_t k = 0; k < op.span_len; ++k) {
      const RegSpanWrite& sw = warm.span_writes[op.span_begin + k];
      *out += "\n            " + std::string(RegisterName(sw.reg)) + " = " +
              Hex(sw.value);
    }
  }
  *out += "\n";
}

std::string FormatText(const ReplayPlan& plan) {
  const WarmProgram& warm = *plan.warm;
  const WarmStats& st = warm.stats;
  std::string out;
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "warm program (plan format v%u)\n"
                "  source ops %zu -> retained %u (%u spans fusing %u writes), "
                "elided %u\n"
                "  partition: %u warm-invariant, %u input-dependent\n"
                "  closures elided: %u flush, %u power, %u reset, %u as\n"
                "  reads elided: %u const, %u nondet; noop latches %u; "
                "weakened reads %u\n\n",
                plan.version, plan.ops.size(), st.retained_ops, st.fused_spans,
                st.fused_writes, st.elided_ops, st.invariant_ops,
                st.input_dep_ops, st.elided_flush_closures,
                st.elided_power_closures, st.elided_reset_closures,
                st.elided_as_closures, st.elided_const_reads,
                st.elided_nondet_reads, st.elided_noop_latches,
                st.weakened_reads);
  out += buf;
  out += "fused schedule:\n";
  for (size_t w = 0; w < warm.ops.size(); ++w) {
    AppendWarmOpText(warm, w, &out);
  }
  out += "\nprovenance:\n";
  for (const PlanRewrite& r : warm.provenance.rewrites) {
    const PlanOp& op = plan.ops[r.src_index];
    std::snprintf(buf, sizeof(buf), "  [src %4u] %-19s", r.src_index,
                  PlanRewriteKindName(r.kind));
    out += buf;
    if (op.kind == PlanOpKind::kRegWrite || op.kind == PlanOpKind::kRegRead ||
        op.kind == PlanOpKind::kPollWait) {
      out += " ";
      out += RegisterName(op.reg);
    }
    switch (r.kind) {
      case PlanRewriteKind::kKeep:
        out += " -> warm " + std::to_string(r.warm_index);
        break;
      case PlanRewriteKind::kFuseSpan:
        out += " -> warm " + std::to_string(r.warm_index) + " member " +
               std::to_string(r.aux);
        break;
      case PlanRewriteKind::kMaskWeaken:
        out += " -> warm " + std::to_string(r.warm_index) + " owned bits " +
               Hex(r.aux);
        break;
      case PlanRewriteKind::kElideFlushClosure:
      case PlanRewriteKind::kElideResetClosure:
      case PlanRewriteKind::kElidePowerClosure:
      case PlanRewriteKind::kElideAsClosure:
        out += " closure " + std::to_string(r.aux);
        break;
      default:
        break;
    }
    out += "\n";
  }
  return out;
}

std::string FormatJson(const ReplayPlan& plan) {
  const WarmProgram& warm = *plan.warm;
  const WarmStats& st = warm.stats;
  std::string out = "{\n  \"plan_format\": " + std::to_string(plan.version);
  auto field = [&out](const char* name, uint64_t v, bool first = false) {
    out += first ? "" : ",";
    out += "\n    \"";
    out += name;
    out += "\": " + std::to_string(v);
  };
  out += ",\n  \"stats\": {";
  field("source_ops", plan.ops.size(), true);
  field("retained_ops", st.retained_ops);
  field("elided_ops", st.elided_ops);
  field("fused_spans", st.fused_spans);
  field("fused_writes", st.fused_writes);
  field("invariant_ops", st.invariant_ops);
  field("input_dep_ops", st.input_dep_ops);
  field("elided_flush_closures", st.elided_flush_closures);
  field("elided_power_closures", st.elided_power_closures);
  field("elided_reset_closures", st.elided_reset_closures);
  field("elided_as_closures", st.elided_as_closures);
  field("elided_const_reads", st.elided_const_reads);
  field("elided_nondet_reads", st.elided_nondet_reads);
  field("elided_noop_latches", st.elided_noop_latches);
  field("weakened_reads", st.weakened_reads);
  out += "\n  },\n  \"ops\": [";
  for (size_t w = 0; w < warm.ops.size(); ++w) {
    const PlanOp& op = warm.ops[w];
    out += w == 0 ? "\n" : ",\n";
    out += "    {\"kind\": \"";
    out += PlanOpKindName(op.kind);
    out += "\", \"log\": " + std::to_string(op.log_index);
    if (op.kind == PlanOpKind::kRegSpan) {
      out += ", \"span_len\": " + std::to_string(op.span_len);
    } else if (op.kind == PlanOpKind::kRegWrite ||
               op.kind == PlanOpKind::kRegRead ||
               op.kind == PlanOpKind::kPollWait) {
      out += ", \"reg\": \"";
      out += RegisterName(op.reg);
      out += "\"";
      if (op.kind == PlanOpKind::kRegRead && op.verify &&
          op.verify_mask != 0xFFFFFFFFu) {
        out += ", \"verify_mask\": " + std::to_string(op.verify_mask);
      }
    }
    out += "}";
  }
  out += "\n  ],\n  \"provenance\": [";
  for (size_t i = 0; i < warm.provenance.rewrites.size(); ++i) {
    const PlanRewrite& r = warm.provenance.rewrites[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"src\": " + std::to_string(r.src_index) + ", \"kind\": \"";
    out += PlanRewriteKindName(r.kind);
    out += "\", \"warm\": " + std::to_string(r.warm_index) +
           ", \"aux\": " + std::to_string(r.aux) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace

std::string FormatWarmProgram(const ReplayPlan& plan, bool json) {
  if (plan.warm == nullptr) {
    return json ? "{\"plan_format\": 1}\n"
                : "no warm program attached (plan format v1)\n";
  }
  return json ? FormatJson(plan) : FormatText(plan);
}

}  // namespace grt
