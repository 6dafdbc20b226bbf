#include "src/analysis/planopt/planopt_internal.h"

#include <string>

namespace grt {
namespace planopt {

bool IsAffinityNextWrite(uint32_t reg, int* slot, bool* is_hi) {
  int s = 0;
  uint32_t js_reg = 0;
  if (!DecodeJobSlotRegister(reg, &s, &js_reg)) {
    return false;
  }
  if (js_reg != kJsAffinityNextLo && js_reg != kJsAffinityNextHi) {
    return false;
  }
  *slot = s;
  *is_hi = js_reg == kJsAffinityNextHi;
  return true;
}

const char* ClosureKindName(ClosureKind kind) {
  switch (kind) {
    case ClosureKind::kFlush:
      return "flush";
    case ClosureKind::kReset:
      return "reset";
    case ClosureKind::kPower:
      return "power";
    case ClosureKind::kAs:
      return "as";
  }
  return "?";
}

namespace {

bool IsAsLatchWrite(const PlanOp& op, int* as_index) {
  uint32_t as_reg = 0;
  if (op.kind != PlanOpKind::kRegWrite ||
      !DecodeAsRegister(op.reg, as_index, &as_reg)) {
    return false;
  }
  switch (as_reg) {
    case kAsTranstabLo:
    case kAsTranstabHi:
    case kAsMemattrLo:
    case kAsMemattrHi:
    case kAsLockaddrLo:
    case kAsLockaddrHi:
      return true;
    default:
      return false;
  }
}

bool IsGpuIrqAckWrite(const PlanOp& op, uint32_t allowed_bits) {
  return op.kind == PlanOpKind::kRegWrite && op.reg == kRegGpuIrqClear &&
         (op.value & ~allowed_bits) == 0;
}

bool IsGpuIrqPoll(const PlanOp& op, uint32_t allowed_bits) {
  return op.kind == PlanOpKind::kPollWait && op.reg == kRegGpuIrqRawstat &&
         (op.mask & ~allowed_bits) == 0 && op.expected == op.mask;
}

std::optional<Closure> MatchFlushAt(const std::vector<PlanOp>& ops, size_t i) {
  const PlanOp& first = ops[i];
  if (first.kind != PlanOpKind::kRegWrite || first.reg != kRegGpuCommand ||
      !IsFlushCommand(first.value)) {
    return std::nullopt;
  }
  size_t j = i + 1;
  while (j < ops.size()) {
    const PlanOp& op = ops[j];
    bool member = IsGpuIrqPoll(op, kGpuIrqCleanCachesCompleted) ||
                  IsGpuIrqAckWrite(op, kGpuIrqCleanCachesCompleted) ||
                  op.kind == PlanOpKind::kDelay ||
                  (op.kind == PlanOpKind::kRegRead && !op.verify &&
                   op.reg == kRegLatestFlush);
    if (!member) {
      break;
    }
    ++j;
  }
  return Closure{ClosureKind::kFlush, i, j};
}

std::optional<Closure> MatchResetAt(const std::vector<PlanOp>& ops, size_t i) {
  // Leading acknowledgments/mask setup the driver issues before the
  // reset command (they only matter because the reset they precede
  // clobbers them; the grammar binds them to it).
  size_t j = i;
  while (j < ops.size() && ops[j].kind == PlanOpKind::kRegWrite &&
         (ops[j].reg == kRegGpuIrqClear || ops[j].reg == kRegGpuIrqMask)) {
    ++j;
  }
  if (j >= ops.size() || ops[j].kind != PlanOpKind::kRegWrite ||
      ops[j].reg != kRegGpuCommand) {
    return std::nullopt;
  }
  if (!IsResetCommand(ops[j].value)) {
    return std::nullopt;
  }
  ++j;
  while (j < ops.size()) {
    const PlanOp& op = ops[j];
    bool member = IsGpuIrqPoll(op, kGpuIrqResetCompleted) ||
                  IsGpuIrqAckWrite(op, kGpuIrqResetCompleted) ||
                  op.kind == PlanOpKind::kDelay;
    if (!member) {
      break;
    }
    ++j;
  }
  return Closure{ClosureKind::kReset, i, j};
}

std::optional<Closure> MatchPowerAt(const std::vector<PlanOp>& ops, size_t i) {
  bool is_on = false, is_hi = false, is_trans = false;
  if (ops[i].kind != PlanOpKind::kRegWrite ||
      PowerControlDomain(ops[i].reg, &is_on, &is_hi) == PowerDomain::kNone) {
    return std::nullopt;
  }
  size_t j = i;
  while (j < ops.size()) {
    const PlanOp& op = ops[j];
    bool member = false;
    if (op.kind == PlanOpKind::kRegWrite &&
        PowerControlDomain(op.reg, &is_on, &is_hi) != PowerDomain::kNone) {
      member = true;
    } else if (op.kind == PlanOpKind::kPollWait &&
               PowerStatusDomain(op.reg, &is_trans, &is_hi) !=
                   PowerDomain::kNone) {
      member = true;
    } else if (op.kind == PlanOpKind::kRegRead &&
               PowerStatusDomain(op.reg, &is_trans, &is_hi) !=
                   PowerDomain::kNone) {
      member = true;
    }
    if (!member) {
      break;
    }
    ++j;
  }
  return Closure{ClosureKind::kPower, i, j};
}

std::optional<Closure> MatchAsAt(const std::vector<PlanOp>& ops, size_t i) {
  int as_index = -1;
  size_t j = i;
  while (j < ops.size()) {
    int idx = -1;
    if (!IsAsLatchWrite(ops[j], &idx)) {
      break;
    }
    if (as_index == -1) {
      as_index = idx;
    } else if (idx != as_index) {
      return std::nullopt;  // interleaved AS blocks: unsupported
    }
    ++j;
  }
  // Mandatory UPDATE on the same AS.
  int cmd_idx = -1;
  uint32_t as_reg = 0;
  if (j >= ops.size() || ops[j].kind != PlanOpKind::kRegWrite ||
      !DecodeAsRegister(ops[j].reg, &cmd_idx, &as_reg) ||
      as_reg != kAsCommand || ops[j].value != kAsCommandUpdate ||
      (as_index != -1 && cmd_idx != as_index)) {
    return std::nullopt;
  }
  as_index = cmd_idx;
  ++j;
  while (j < ops.size()) {
    const PlanOp& op = ops[j];
    int idx = -1;
    if (op.kind != PlanOpKind::kPollWait ||
        !DecodeAsRegister(op.reg, &idx, &as_reg) || as_reg != kAsStatus ||
        idx != as_index || op.mask != kAsStatusActive || op.expected != 0) {
      break;
    }
    ++j;
  }
  return Closure{ClosureKind::kAs, i, j};
}

}  // namespace

std::optional<Closure> MatchClosureAt(const std::vector<PlanOp>& ops,
                                      size_t i) {
  if (i >= ops.size()) {
    return std::nullopt;
  }
  if (auto c = MatchResetAt(ops, i)) {
    return c;
  }
  if (auto c = MatchFlushAt(ops, i)) {
    return c;
  }
  if (auto c = MatchPowerAt(ops, i)) {
    return c;
  }
  if (auto c = MatchAsAt(ops, i)) {
    return c;
  }
  return std::nullopt;
}

bool ClosureIsPureBringUp(const std::vector<PlanOp>& ops, const Closure& c) {
  for (size_t i = c.begin; i < c.end; ++i) {
    if (ops[i].kind != PlanOpKind::kRegWrite) {
      continue;
    }
    bool is_on = false, is_hi = false;
    if (PowerControlDomain(ops[i].reg, &is_on, &is_hi) == PowerDomain::kNone ||
        !is_on) {
      return false;
    }
  }
  return true;
}

void LatchState::Reset() {
  for (auto it = regs_.begin(); it != regs_.end();) {
    if (LatchSurvivesReset(it->first)) {
      ++it;
    } else {
      it = regs_.erase(it);
    }
  }
  for (auto& root : as_root_) {
    root = 0;
  }
}

void LatchState::Write(uint32_t reg, uint32_t value) {
  if (reg == kRegGpuCommand) {
    if (IsResetCommand(value)) {
      Reset();
    }
    return;
  }
  int as_index = -1;
  uint32_t as_reg = 0;
  if (DecodeAsRegister(reg, &as_index, &as_reg) && as_reg == kAsCommand) {
    if (value == kAsCommandUpdate) {
      as_root_[as_index] = transtab(as_index);
    }
    return;
  }
  if (ClassifyRegister(reg) == RegClass::kCpuConfig) {
    regs_[reg] = value;
  }
}

void PowerState::ApplyWrite(uint32_t reg, uint32_t value, const GpuSku& sku) {
  bool is_on = false, is_hi = false;
  PowerDomain d = PowerControlDomain(reg, &is_on, &is_hi);
  if (d == PowerDomain::kNone) {
    return;
  }
  uint64_t bits = is_hi ? (static_cast<uint64_t>(value) << 32)
                        : static_cast<uint64_t>(value);
  bits &= present(d, sku);
  if (is_on) {
    domain(d) |= bits;
  } else {
    domain(d) &= ~bits;
  }
}

PowerState SourceExitPower(const std::vector<PlanOp>& ops, const GpuSku& sku) {
  PowerState state;  // scrubbed device: everything off
  for (const PlanOp& op : ops) {
    if (op.kind != PlanOpKind::kRegWrite) {
      continue;
    }
    if (op.reg == kRegGpuCommand) {
      if (IsResetCommand(op.value)) {
        state.ResetClobber();
      }
      continue;
    }
    state.ApplyWrite(op.reg, op.value, sku);
  }
  return state;
}

namespace {

struct WarmPowerWalk {
  PowerState state;
  const GpuSku& sku;
  uint32_t affinity_lo[kMaxJobSlots] = {};
  uint32_t affinity_hi[kMaxJobSlots] = {};
  std::optional<std::string> error;

  explicit WarmPowerWalk(const PowerState& entry, const GpuSku& s)
      : state(entry), sku(s) {}

  void Write(uint32_t reg, uint32_t value) {
    if (error.has_value()) {
      return;
    }
    if (reg == kRegGpuCommand && value != kGpuCommandNop) {
      error = "retained GPU_COMMAND with device effects (" +
              std::string(RegisterName(reg)) + ")";
      return;
    }
    int slot = 0;
    bool is_hi = false;
    if (IsAffinityNextWrite(reg, &slot, &is_hi)) {
      (is_hi ? affinity_hi : affinity_lo)[slot] = value;
    }
    if (IsJobStartWrite(reg, value, &slot)) {
      uint64_t affinity = (static_cast<uint64_t>(affinity_hi[slot]) << 32) |
                          affinity_lo[slot];
      if ((affinity & state.shader) == 0) {
        error = "job start on slot " + std::to_string(slot) +
                " with no powered shader core in its affinity";
        return;
      }
      if (state.l2 == 0) {
        error = "job start on slot " + std::to_string(slot) +
                " with L2 unpowered";
        return;
      }
    }
    state.ApplyWrite(reg, value, sku);
  }

  void Op(const PlanOp& op, const std::vector<RegSpanWrite>& span_writes) {
    if (error.has_value()) {
      return;
    }
    bool is_trans = false, is_hi = false;
    switch (op.kind) {
      case PlanOpKind::kRegWrite:
        Write(op.reg, op.value);
        break;
      case PlanOpKind::kRegSpan:
        for (uint32_t k = 0; k < op.span_len; ++k) {
          const RegSpanWrite& w = span_writes[op.span_begin + k];
          Write(w.reg, w.value);
        }
        break;
      case PlanOpKind::kPollWait: {
        PowerDomain d = PowerStatusDomain(op.reg, &is_trans, &is_hi);
        if (d != PowerDomain::kNone) {
          if (is_trans && op.expected != 0) {
            error = "retained poll expects an in-flight power transition";
          } else if (!is_trans) {
            error = "retained poll on a power READY register";
          }
        }
        break;
      }
      case PlanOpKind::kRegRead: {
        PowerDomain d = PowerStatusDomain(op.reg, &is_trans, &is_hi);
        if (d != PowerDomain::kNone && op.verify) {
          uint64_t word64 = is_trans ? 0 : state.domain(d);
          uint32_t word = static_cast<uint32_t>(is_hi ? word64 >> 32
                                                      : word64 & 0xFFFFFFFFu);
          if (((word ^ op.value) & op.verify_mask) != 0) {
            error = std::string("retained verified read of ") +
                    RegisterName(op.reg) +
                    " disagrees with the abstract power state";
          }
        }
        break;
      }
      default:
        break;
    }
  }
};

}  // namespace

std::optional<std::string> EvalWarmPower(const WarmProgram& warm,
                                         const GpuSku& sku,
                                         const PowerState& entry,
                                         PowerState* exit) {
  WarmPowerWalk walk(entry, sku);
  for (const PlanOp& op : warm.ops) {
    walk.Op(op, warm.span_writes);
    if (walk.error.has_value()) {
      return walk.error;
    }
  }
  *exit = walk.state;
  return std::nullopt;
}

uint32_t OwnedGpuIrqBits(const std::vector<PlanOp>& ops,
                         const PlanProvenance& prov) {
  uint32_t owned = 0;
  for (const PlanRewrite& r : prov.rewrites) {
    if (r.src_index >= ops.size()) {
      continue;  // coverage obligation reports this separately
    }
    const PlanOp& op = ops[r.src_index];
    if (op.kind != PlanOpKind::kRegWrite) {
      continue;
    }
    if (RewriteIsElision(r.kind)) {
      owned |= GpuIrqBitsRaisedBy(op.reg, op.value);
    } else if (IsPowerControlRegister(op.reg)) {
      // A retained PWRON/PWROFF raises POWER_CHANGED even when the
      // domain is already in the requested state (gpu.cc).
      owned |= kGpuIrqPowerChangedSingle | kGpuIrqPowerChangedAll;
    }
  }
  return owned;
}

}  // namespace planopt
}  // namespace grt
