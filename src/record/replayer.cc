#include "src/record/replayer.h"

#include <chrono>
#include <cstring>

#include "src/analysis/planopt/planopt.h"
#include "src/analysis/verifier.h"
#include "src/common/log.h"
#include "src/hw/regs.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace grt {

namespace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One call per completed replay, regardless of path; gated on
// obs::Enabled() inside the macros, so the disabled path costs a handful
// of relaxed loads.
void CountReplayReport(const ReplayReport& report) {
  GRT_OBS_COUNT("replay.ops_executed", report.entries_replayed);
  GRT_OBS_COUNT("replay.pages_applied", report.pages_applied);
  GRT_OBS_COUNT("replay.pages_skipped_clean", report.pages_skipped_clean);
  GRT_OBS_COUNT("replay.mem_bytes_applied", report.mem_bytes_applied);
  GRT_OBS_COUNT("replay.reads_verified", report.reads_verified);
  if (report.warm) {
    GRT_OBS_COUNT("replay.warm", 1);
  } else {
    GRT_OBS_COUNT("replay.cold", 1);
  }
  GRT_OBS_HIST("replay.delay_ns", report.delay);
}

}  // namespace

Replayer::~Replayer() {
  if (write_observer_id_ != 0) {
    mem_->RemoveWriteObserver(write_observer_id_);
  }
}

Status Replayer::LoadSigned(const Bytes& raw, const Bytes& signing_key) {
  GRT_ASSIGN_OR_RETURN(Recording rec, Recording::ParseSigned(raw, signing_key));
  return Load(std::move(rec));
}

Status Replayer::Load(Recording recording) {
  return LoadShared(std::make_shared<const Recording>(std::move(recording)));
}

Status Replayer::LoadShared(std::shared_ptr<const Recording> recording,
                            std::shared_ptr<const ReplayPlan> plan) {
  // Every step below can fail after the previous load's state is gone or
  // replaced; a failed load leaves the replayer unloaded, never running a
  // recording or plan it just refused.
  loaded_ = false;
  if (recording == nullptr) {
    return InvalidArgument("LoadShared with a null recording");
  }
  // SKU check: recordings are SKU-specific; even subtle differences break
  // replay (§2.4), so refuse early and explicitly.
  if (recording->header.sku != gpu_->sku().id) {
    return FailedPrecondition(
        "recording was produced for a different GPU SKU");
  }
  // Static admission gate: a valid signature proves provenance, not
  // well-formedness. Run the analysis passes before the log can reach
  // the device. This happens exactly once per Load — every subsequent
  // Replay() trusts the cached verdict.
  if (config_.static_verify) {
    GRT_RETURN_IF_ERROR(VerifyRecording(*recording));
  }
  ResetReplayState();
  recording_ = std::move(recording);
  // An observed log needs one op per applied log entry, so it always runs
  // the interpreter, even when a compiled plan is supplied.
  interpreted_ =
      config_.collect_observed || (plan == nullptr && !config_.use_plan);
  if (interpreted_) {
    plan_ = std::make_shared<const ReplayPlan>(LowerRecording(*recording_));
  } else if (plan != nullptr) {
    plan_ = std::move(plan);
  } else {
    plan_ = std::make_shared<const ReplayPlan>(CompileReplayPlan(*recording_));
  }
  // Defense in depth: a warm program arriving from outside (e.g. the
  // serving engine's shared plan cache) is re-checked against its
  // provenance before it can ever drive this device — the attach-time
  // check does not travel with trust.
  if (plan_->warm != nullptr) {
    GRT_RETURN_IF_ERROR(CheckWarmProgram(*plan_, *plan_->warm, gpu_->sku()));
  }
  loaded_ = true;
  return OkStatus();
}

void Replayer::ResetReplayState() {
  if (write_observer_id_ != 0) {
    mem_->RemoveWriteObserver(write_observer_id_);
    write_observer_id_ = 0;
  }
  observer_active_ = false;
  have_image_state_ = false;
  warm_armed_ = false;
  dirty_pages_.Clear();
  staged_.clear();
  injected_pages_.clear();
  injected_pages_valid_ = false;
  observed_.Clear();
}

Status Replayer::StageTensor(const std::string& name,
                             const std::vector<float>& data) {
  if (!loaded_) {
    return FailedPrecondition("StageTensor before Load");
  }
  auto it = recording_->bindings.find(name);
  if (it == recording_->bindings.end()) {
    return NotFound("no tensor binding '" + name + "'");
  }
  if (!it->second.writable_at_replay) {
    return PermissionDenied("tensor '" + name + "' is not injectable");
  }
  if (data.size() != it->second.n_floats) {
    return InvalidArgument("tensor '" + name + "' size mismatch");
  }
  // Overwrite in place: re-staging (the per-inference input refresh) reuses
  // the existing buffer instead of re-inserting into the map. Only a
  // first-time staging changes the injected-page set.
  auto [slot, inserted] = staged_.try_emplace(name);
  if (inserted) {
    injected_pages_valid_ = false;
  }
  slot->second.data.assign(data.begin(), data.end());
  slot->second.restaged = true;
  return OkStatus();
}

const std::unordered_set<uint64_t>& Replayer::InjectedPages() {
  // Pages owned by injected tensors are skipped when applying recorded
  // images: the recorded (dry-run) content would clobber real data.
  if (!injected_pages_valid_) {
    injected_pages_.clear();
    for (const auto& [name, staged] : staged_) {
      for (uint64_t pa : recording_->bindings.at(name).pages) {
        injected_pages_.insert(pa);
      }
    }
    injected_pages_valid_ = true;
  }
  return injected_pages_;
}

Status Replayer::InjectTensors(bool warm) {
  for (auto& [name, staged] : staged_) {
    auto it = plan_->patches.find(name);
    if (it == plan_->patches.end()) {
      return Internal("no patch-table entry for tensor '" + name + "'");
    }
    const TensorPatch& patch = it->second;
    if (!patch.complete) {
      return Internal("binding page list too short");
    }
    // Warm: a tensor not restaged since its last injection, on pages no
    // write touched since, still holds exactly its staged bytes. Pages
    // injected earlier in this pass are marked below, so a tensor sharing
    // a page with one re-injected ahead of it is re-injected too and the
    // last writer in staging order still wins, as in a full pass.
    // A chunk is at most a page long, so it touches at most two pages.
    if (warm && !staged.restaged &&
        std::none_of(patch.chunks.begin(), patch.chunks.end(),
                     [this](const PatchChunk& c) {
                       return dirty_pages_.Contains(c.pa) ||
                              dirty_pages_.Contains(c.pa + c.len - 1);
                     })) {
      continue;
    }
    const auto* src = reinterpret_cast<const uint8_t*>(staged.data.data());
    for (const PatchChunk& c : patch.chunks) {
      GRT_RETURN_IF_ERROR(mem_->Write(c.pa, src + c.src_offset, c.len,
                                      MemAccessOrigin::kCpuSecureWorld));
      dirty_pages_.MarkRange(c.pa, c.len);
    }
    staged.restaged = false;
  }
  return OkStatus();
}

Status Replayer::WaitIrqLines(uint8_t lines, uint8_t tolerated) {
  TimePoint deadline = timeline_->now() + config_.irq_timeout;
  for (;;) {
    uint8_t have = gpu_->AssertedIrqLines();
    if ((have & lines) == lines) {
      return OkStatus();
    }
    if ((have & ~(lines | tolerated)) != 0) {
      // An interrupt the recording did not expect (e.g. an MMU fault while
      // waiting for job completion): replay divergence.
      return IntegrityViolation("unexpected interrupt lines during replay");
    }
    TimePoint next = gpu_->NextEventTime();
    if (next == kNoEvent || next > deadline) {
      return IrqExpired("replay IRQ wait timed out (want=" +
                        std::to_string(lines) + " have=" +
                        std::to_string(have) + " no_event=" +
                        std::to_string(next == kNoEvent) + ")");
    }
    timeline_->AdvanceTo(next);
  }
}

Status Replayer::ApplyPlanImages(bool warm, ReplayReport* report) {
  const std::unordered_set<uint64_t>& injected = InjectedPages();
  // Re-establishing image content is not a clobber: suspend the observer
  // so an applied page comes out clean for the NEXT replay unless someone
  // actually writes it afterwards.
  observer_active_ = false;
  for (const PlanRegion& region : plan_->regions) {
    uint32_t run_start = 0;
    bool in_run = false;
    for (uint32_t i = 0; i <= region.n_pages; ++i) {
      bool apply = false;
      if (i < region.n_pages) {
        uint64_t pa = region.page_pa(i);
        if (injected.count(pa) > 0) {
          apply = false;  // superseded by injected tensor data
        } else if (warm && !dirty_pages_.Contains(pa)) {
          apply = false;  // provably still holds the image content
          ++report->pages_skipped_clean;
        } else {
          apply = true;
        }
      }
      if (apply && !in_run) {
        run_start = i;
        in_run = true;
      } else if (!apply && in_run) {
        uint64_t len = static_cast<uint64_t>(i - run_start) * kPageSize;
        GRT_RETURN_IF_ERROR(
            mem_->Write(region.page_pa(run_start),
                        region.image.data() +
                            static_cast<size_t>(run_start) * kPageSize,
                        len, MemAccessOrigin::kCpuSecureWorld));
        report->pages_applied += i - run_start;
        report->mem_bytes_applied += len;
        if (i - run_start >= 2) {
          report->mem_bytes_applied_fused += len;
        }
        timeline_->Advance(static_cast<Duration>(len / 8));  // ~8 B/ns
        in_run = false;
      }
    }
  }
  return OkStatus();
}

Result<ReplayReport> Replayer::Replay() {
  if (!loaded_) {
    return FailedPrecondition("Replay before Load");
  }
  ReplayReport report;
  report.plan_used = !interpreted_;
  observed_.Clear();
  TimePoint start = timeline_->now();
  const uint64_t wall0 = WallNowNs();
  const uint64_t gpu_wall0 = gpu_->exec_wall_ns();

  // Lock the GPU into the TEE (§3.2).
  tzasc_->AssignGpu(World::kSecure);

  // Arm the clobber observer once per loaded plan. It stays registered
  // between replays: external writes to image pages (another replayer
  // sharing this device, a debugging poke) must invalidate them too.
  if (!interpreted_ && write_observer_id_ == 0) {
    dirty_pages_.Init(mem_->base(), mem_->size());
    write_observer_id_ =
        mem_->AddWriteObserver([this](uint64_t pa, uint64_t len) {
          if (!observer_active_) {
            return;
          }
          dirty_pages_.MarkRange(pa, len);
        });
  }
  const bool warm = have_image_state_;
  report.warm = warm;
  // Fused fast path: execute the checked warm program instead of the full
  // op array. Requires an armed device — the previous replay on this
  // replayer succeeded and left the hardware in the warm program's proven
  // entry state — and an unchanged reset epoch (nobody scrubbed the
  // device in between).
  const bool fused = plan_->warm != nullptr && warm && warm_armed_ &&
                     gpu_->reset_epoch() == warm_epoch_;
  report.warm_program_used = fused;
  // Arming is single-shot: anything short of a full successful replay
  // leaves the device state unproven.
  warm_armed_ = false;
  // Scrub hardware state (§3.2); the fused program instead starts from
  // the proven state the previous replay left.
  if (config_.scrub_before && !fused) {
    gpu_->HardReset();
  }
  GRT_TRACE_SPAN(interpreted_ ? "replay.interp"
                 : fused      ? "replay.fused"
                              : (warm ? "replay.warm" : "replay.cold"),
                 "replay");

  {
    GRT_TRACE_SPAN("replay.stage.page_apply", "replay");
    TimePoint t0 = timeline_->now();
    const uint64_t w0 = WallNowNs();
    GRT_RETURN_IF_ERROR(ApplyPlanImages(warm, &report));
    // Injection runs with the observer still suspended, so the tensor
    // pages it writes come out clean like the image pages: the next warm
    // replay skips a tensor until it is restaged or its pages are written.
    const Status injected = InjectTensors(warm);
    // Image state is established; from here every write dirties its page.
    dirty_pages_.Clear();
    observer_active_ = !interpreted_;
    have_image_state_ = !interpreted_ && injected.ok();
    GRT_RETURN_IF_ERROR(injected);
    report.stage_page_apply += timeline_->now() - t0;
    report.wall_page_apply_ns += WallNowNs() - w0;
  }

  // The full plan has no spans, full verify masks and tolerates no stray
  // interrupt line. The fused program tolerates the GPU line only if it
  // owns rawstat bits that can hold it asserted.
  if (fused) {
    const WarmProgram& prog = *plan_->warm;
    GRT_RETURN_IF_ERROR(Execute(prog.ops, prog.span_writes.data(),
                                prog.owned_gpu_irq_bits != 0 ? kIrqLineGpu : 0,
                                &report));
  } else {
    GRT_RETURN_IF_ERROR(Execute(plan_->ops, nullptr, 0, &report));
  }

  // With a warm program attached, a scrub-eligible successful replay
  // skips the scrub: the device stays secure-locked in the program's
  // proven exit state (a checked fixpoint of its own entry state), so
  // the next replay here can take the fused path. Any reset by anyone
  // else bumps the epoch and voids the arm.
  if (config_.scrub_after) {
    if (plan_->warm != nullptr) {
      warm_armed_ = true;
      warm_epoch_ = gpu_->reset_epoch();
    } else {
      gpu_->HardReset();
      tzasc_->AssignGpu(World::kNormal);
    }
  }

  report.delay = timeline_->now() - start;
  report.wall_ns = WallNowNs() - wall0;
  report.wall_shader_exec_ns = gpu_->exec_wall_ns() - gpu_wall0;
  CountReplayReport(report);
  return report;
}

// The one executor, for the full plan, the interpreter's uncoalesced
// lowering and the fused warm program alike. Modeled costs: 200 ns of
// MMIO mediation per register op and per poll iteration; a span pays it
// once plus 40 ns per extra write (one ownership/rail check for the whole
// batch, see Tzasc::WriteGpuRegisterSpan); a page costs len/8 ns of CPU
// copy. Verified reads compare under the op's verify_mask, so only the
// warm program's weakened reads ignore the bits it owns; everything else
// (notably fault bits) stays loud. Interrupt lines in
// `tolerated_irq_lines` may be asserted during waits.
Status Replayer::Execute(const std::vector<PlanOp>& ops,
                         const RegSpanWrite* spans,
                         uint8_t tolerated_irq_lines, ReplayReport* report) {
  constexpr Duration kMmioCost = 200 * kNanosecond;
  constexpr Duration kSpanWriteCost = 40 * kNanosecond;
  const std::unordered_set<uint64_t>& injected = InjectedPages();
  const bool observe = config_.collect_observed;
  for (const PlanOp& op : ops) {
    ++report->entries_replayed;
    uint32_t read_value = 0;
    switch (op.kind) {
      case PlanOpKind::kMemPage: {
        const PlanImage& im = plan_->mid_images[op.image];
        if (injected.count(im.pa) > 0) {
          continue;  // superseded by injected tensor data
        }
        const uint64_t w0 = WallNowNs();
        GRT_RETURN_IF_ERROR(mem_->Write(im.pa, im.data.data(), im.data.size(),
                                        MemAccessOrigin::kCpuSecureWorld));
        ++report->pages_applied;
        report->mem_bytes_applied += im.data.size();
        report->wall_page_apply_ns += WallNowNs() - w0;
        const auto cost = static_cast<Duration>(im.data.size() / 8);
        timeline_->Advance(cost);
        report->stage_page_apply += cost;
        break;
      }
      case PlanOpKind::kRegWrite: {
        timeline_->Advance(kMmioCost);
        // Job-slot register writes form the dispatch stage of the
        // per-stage breakdown; all other MMIO traffic is reg-io.
        (IsJobSlotRegister(op.reg) ? report->stage_dispatch
                                   : report->stage_reg_io) += kMmioCost;
        GRT_RETURN_IF_ERROR(
            tzasc_->WriteGpuRegister(World::kSecure, gpu_, op.reg, op.value));
        break;
      }
      case PlanOpKind::kRegSpan: {
        GRT_TRACE_SPAN("replay.stage.dispatch", "replay");
        span_buf_.clear();
        for (uint32_t k = 0; k < op.span_len; ++k) {
          const RegSpanWrite& sw = spans[op.span_begin + k];
          span_buf_.push_back(Tzasc::RegWrite{sw.reg, sw.value});
        }
        Duration cost = kMmioCost + (op.span_len - 1) * kSpanWriteCost;
        timeline_->Advance(cost);
        report->stage_dispatch += cost;
        GRT_RETURN_IF_ERROR(tzasc_->WriteGpuRegisterSpan(
            World::kSecure, gpu_, span_buf_.data(), span_buf_.size()));
        ++report->fused_spans_executed;
        report->fused_writes_executed += op.span_len;
        break;
      }
      case PlanOpKind::kRegRead: {
        timeline_->Advance(kMmioCost);
        report->stage_reg_io += kMmioCost;
        GRT_ASSIGN_OR_RETURN(read_value, tzasc_->ReadGpuRegister(
                                             World::kSecure, gpu_, op.reg));
        if (config_.verify_reads && op.verify) {
          if (((read_value ^ op.value) & op.verify_mask) != 0) {
            if (observe) {
              Observe(op, read_value);  // the divergence belongs in the log
            }
            return IntegrityViolation(
                std::string("replay divergence at register ") +
                RegisterName(op.reg) + ", log entry " +
                std::to_string(op.log_index) + ": got " +
                std::to_string(read_value) + " want " +
                std::to_string(op.value));
          }
          ++report->reads_verified;
        }
        break;
      }
      case PlanOpKind::kPollWait: {
        bool satisfied = false;
        for (int i = 0; i < config_.poll_max_iters; ++i) {
          timeline_->Advance(kMmioCost);
          report->stage_reg_io += kMmioCost;
          GRT_ASSIGN_OR_RETURN(uint32_t v, tzasc_->ReadGpuRegister(
                                               World::kSecure, gpu_, op.reg));
          if ((v & op.mask) == op.expected) {
            satisfied = true;
            break;
          }
          // Between iterations, let the device make progress.
          TimePoint wait0 = timeline_->now();
          TimePoint next = gpu_->NextEventTime();
          if (next != kNoEvent) {
            timeline_->AdvanceTo(next);
          } else {
            timeline_->Advance(config_.poll_iter_delay);
          }
          report->stage_shader_exec += timeline_->now() - wait0;
        }
        if (!satisfied) {
          return PollExhausted("replay poll never satisfied at log entry " +
                               std::to_string(op.log_index));
        }
        break;
      }
      case PlanOpKind::kDelay: {
        timeline_->Advance(op.delay);
        report->stage_shader_exec += op.delay;
        break;
      }
      case PlanOpKind::kIrqWait: {
        GRT_TRACE_SPAN("replay.stage.shader_exec", "replay");
        TimePoint wait0 = timeline_->now();
        Status irq_status = WaitIrqLines(op.irq_lines, tolerated_irq_lines);
        report->stage_shader_exec += timeline_->now() - wait0;
        if (!irq_status.ok()) {
          return Status(irq_status.code(),
                        irq_status.message() + " at log entry " +
                            std::to_string(op.log_index));
        }
        break;
      }
    }
    if (observe) {
      Observe(op, read_value);
    }
  }
  return OkStatus();
}

// The observed log records what the device did, entry for entry: the
// recorded entry, with a read's value replaced by the value read.
void Replayer::Observe(const PlanOp& op, uint32_t read_value) {
  LogEntry e = recording_->log.entries()[op.log_index];
  if (op.kind == PlanOpKind::kRegRead) {
    e.value = read_value;
  }
  observed_.Add(std::move(e));
}

Status Replayer::ReadTensorInto(const std::string& name, float* out,
                                size_t n_floats) const {
  if (!loaded_) {
    return FailedPrecondition("ReadTensor before Load");
  }
  GRT_TRACE_SPAN("replay.stage.readback", "replay");
  auto it = plan_->patches.find(name);
  if (it == plan_->patches.end()) {
    return NotFound("no tensor binding '" + name + "'");
  }
  const TensorPatch& patch = it->second;
  if (n_floats != patch.n_floats) {
    return InvalidArgument("tensor '" + name + "' size mismatch");
  }
  if (!patch.complete) {
    return Internal("binding page list too short");
  }
  auto* dst = reinterpret_cast<uint8_t*>(out);
  for (const PatchChunk& c : patch.chunks) {
    GRT_RETURN_IF_ERROR(mem_->Read(c.pa, dst + c.src_offset, c.len,
                                   MemAccessOrigin::kCpuSecureWorld));
  }
  return OkStatus();
}

Result<std::vector<float>> Replayer::ReadTensor(const std::string& name) const {
  if (!loaded_) {
    return FailedPrecondition("ReadTensor before Load");
  }
  auto it = recording_->bindings.find(name);
  if (it == recording_->bindings.end()) {
    return NotFound("no tensor binding '" + name + "'");
  }
  std::vector<float> out(it->second.n_floats);
  GRT_RETURN_IF_ERROR(ReadTensorInto(name, out.data(), out.size()));
  return out;
}

}  // namespace grt
