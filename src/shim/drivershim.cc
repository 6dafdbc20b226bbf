#include "src/shim/drivershim.h"

#include <algorithm>

#include "src/analysis/footprint/footprint.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/hw/regs.h"
#include "src/obs/metrics.h"

namespace grt {
namespace {

// Cloud-side CPU cost of the shim bookkeeping per access ("the
// instrumentation itself incurs negligible overhead", §6).
constexpr Duration kShimAccessCost = 100 * kNanosecond;
// Misprediction recovery, cloud side: driver reload dominates, plus GPU
// job recompilation proportional to progress (§7.3: "delays are primarily
// dominated by driver reload and GPU job recompilation on the cloud").
constexpr Duration kDriverReloadCost = 500 * kMillisecond;
constexpr Duration kRecompilePerJob = 20 * kMillisecond;

bool IsJobStartItem(bool is_write, uint32_t reg, const SymNodePtr& node) {
  if (!is_write || !IsJobSlotRegister(reg)) {
    return false;
  }
  auto v = EvalSym(node);
  return v.ok() && IsJobStartWrite(reg, v.value());
}

}  // namespace

ShimConfig ShimConfig::Naive() {
  ShimConfig c;
  c.defer = false;
  c.speculate = false;
  c.offload_polls = false;
  c.meta_only_sync = false;
  c.compress_sync = false;
  return c;
}

ShimConfig ShimConfig::OursM() {
  ShimConfig c = Naive();
  c.meta_only_sync = true;
  c.compress_sync = true;
  return c;
}

ShimConfig ShimConfig::OursMD() {
  ShimConfig c = OursM();
  c.defer = true;
  return c;
}

ShimConfig ShimConfig::OursMDS() {
  ShimConfig c = OursMD();
  c.speculate = true;
  c.offload_polls = true;
  return c;
}

const std::vector<uint32_t>* SpeculationHistory::Predict(uint64_t shape,
                                                         int k) const {
  auto it = entries_.find(shape);
  if (it == entries_.end() || it->second.size() < static_cast<size_t>(k)) {
    return nullptr;
  }
  const auto& dq = it->second;
  const std::vector<uint32_t>& latest = dq.back();
  for (size_t i = dq.size() - k; i < dq.size(); ++i) {
    if (dq[i] != latest) {
      return nullptr;
    }
  }
  return &latest;
}

void SpeculationHistory::Record(uint64_t shape,
                                const std::vector<uint32_t>& values) {
  auto& dq = entries_[shape];
  dq.push_back(values);
  while (dq.size() > kCap) {
    dq.pop_front();
  }
}

DriverShim::DriverShim(const ShimConfig& config, NetChannel* channel,
                       GpuShim* client, PhysicalMemory* cloud_mem,
                       SpeculationHistory* history)
    : config_(config),
      channel_(channel),
      client_(client),
      link_(channel, client),
      cloud_mem_(cloud_mem),
      cloud_tl_(channel->timeline(kCloudEnd)),
      history_(history),
      sync_(cloud_mem, config.meta_only_sync, config.compress_sync),
      snapshot_(cloud_mem) {
  // §5 continuous validation: after dumping memory to the client at a job
  // start, the dumped regions are unmapped from the CPU until the job's
  // interrupt returns; spurious accesses trap as errors instead of
  // silently desynchronizing the two memory views.
  seal_policy_id_ = cloud_mem_->AddAccessPolicy(
      [this](uint64_t, uint64_t, bool, MemAccessOrigin origin) {
        if (gpu_busy_sealed_ && origin != MemAccessOrigin::kGpu) {
          ++stats_.spurious_cpu_traps;
          return false;
        }
        return true;
      });
}

DriverShim::~DriverShim() { cloud_mem_->RemoveAccessPolicy(seal_policy_id_); }

void DriverShim::SetError(Status s) {
  if (last_error_.ok() && !s.ok()) {
    GRT_WLOG << "DriverShim error: " << s.ToString();
    last_error_ = std::move(s);
  }
}

std::string DriverShim::CategoryOf(const char* site) {
  std::string s(site);
  size_t colon = s.find(':');
  std::string prefix = colon == std::string::npos ? s : s.substr(0, colon);
  if (prefix == "init") return "Init";
  if (prefix == "irq") return "Interrupt";
  if (prefix == "pm") return "Power";
  if (prefix == "poll") return "Polling";
  return "Other";
}

RegValue DriverShim::ReadReg(uint32_t offset, const char* site) {
  cloud_tl_->Advance(kShimAccessCost);
  SymNodePtr node = MakeReadNode(next_read_id_++, offset);
  queue().push_back(QueuedAccess{false, offset, node, site});
  if (!ShouldDefer()) {
    Status s = CommitQueue();
    if (!s.ok()) {
      SetError(s);
    }
  }
  GRT_OBS_GAUGE_SET("shim.defer_queue_depth", queue().size());
  return RegValue(node, this);
}

void DriverShim::WriteReg(uint32_t offset, const RegValue& value,
                          const char* site) {
  cloud_tl_->Advance(kShimAccessCost);
  queue().push_back(QueuedAccess{true, offset, value.node(), site});
  if (!ShouldDefer()) {
    Status s = CommitQueue();
    if (!s.ok()) {
      SetError(s);
    }
  }
  GRT_OBS_GAUGE_SET("shim.defer_queue_depth", queue().size());
}

uint32_t DriverShim::Force(const SymNodePtr& node) {
  if (!node->resolved && !IsConcreteSym(node)) {
    // Control/data dependency on an uncommitted read: commit now (§4.1).
    Status s = CommitQueue();
    if (!s.ok()) {
      SetError(s);
    }
  }
  auto v = EvalSym(node);
  if (!v.ok()) {
    SetError(Internal("Force failed to resolve a symbolic value"));
    return 0;
  }
  if (IsSpeculativeSym(node)) {
    // The driver is about to branch on a predicted value: everything it
    // does from here is speculative state (§4.2 taint tracking).
    tainted_ = true;
  }
  return v.value();
}

void DriverShim::EnterHotFunction(const char* /*fn*/) { ++hot_depth_; }

void DriverShim::LeaveHotFunction() {
  if (--hot_depth_ == 0 && config_.defer) {
    // Control flow left the instrumented scope: commit (§4.1).
    Status s = CommitQueue();
    if (!s.ok()) {
      SetError(s);
    }
  }
}

void DriverShim::KernelApi(KernelEvent ev) {
  Status s = OkStatus();
  switch (ev) {
    case KernelEvent::kLockAcquire:
      break;
    case KernelEvent::kLockRelease:
    case KernelEvent::kSchedule:
      // Release consistency: queued accesses reach the device before any
      // other context can observe the shared state (§4.1).
      s = CommitQueue();
      break;
    case KernelEvent::kPrintk:
      // Externalization: all speculation must be validated first (§4.2).
      s = CommitQueue();
      if (s.ok()) {
        s = DrainOutstanding();
      }
      break;
  }
  if (!s.ok()) {
    SetError(s);
  }
}

void DriverShim::Delay(Duration d) {
  // Drivers use delays as device barriers: commit first (§4.1).
  Status s = CommitQueue();
  if (!s.ok()) {
    SetError(s);
  }
  cloud_tl_->Advance(d);
  LogEntry e;
  e.op = LogOp::kDelay;
  e.delay = d;
  log_.Add(std::move(e));
}

void DriverShim::SnapshotMemory() {
  if (driver_ == nullptr) {
    return;
  }
  stats_.pages_hashed +=
      snapshot_
          .Snapshot(driver_->AllGpuPages(), driver_->MetastatePages(), &log_)
          .hashed;
}

Status DriverShim::MaybeSyncBeforeJobStart(
    const std::vector<QueuedAccess>& batch) {
  bool has_start = false;
  for (const QueuedAccess& a : batch) {
    if (IsJobStartItem(a.is_write, a.reg, a.node)) {
      has_start = true;
      break;
    }
  }
  if (!has_start) {
    return OkStatus();
  }
  ++jobs_started_;
  if (driver_ != nullptr) {
    // Pre-job memory image into the recording (§5 sync point #1)...
    SnapshotMemory();
    // ...and over the network to the client, ahead of the start write.
    std::vector<PageRun> manifest =
        BuildManifest(driver_->AllGpuPages(), driver_->MetastatePages());
    GRT_ASSIGN_OR_RETURN(Bytes sync, sync_.BuildSync(manifest));
    // One-way over the reliable link: BuildSync advanced the shared
    // baseline, so the sync must be applied exactly once (retransmits and
    // duplicates are absorbed by the client's dedup).
    GRT_ASSIGN_OR_RETURN(
        ReliableLink::Reply ack,
        link_.Call(FrameType::kCloudSync, sync, ReliableLink::Mode::kOneWay));
    (void)ack;
  }
  // The GPU is about to become busy: seal the CPU out of the shared
  // memory until its interrupt arrives (§5 continuous validation).
  gpu_busy_sealed_ = true;
  return OkStatus();
}

Status DriverShim::CommitQueue() {
  std::vector<QueuedAccess> batch = std::move(queue());
  queue().clear();
  if (batch.empty()) {
    return OkStatus();
  }
  return CommitBatch(std::move(batch));
}

Status DriverShim::CommitBatch(std::vector<QueuedAccess> batch) {
  // Taint rule (§4.2 optimization): never ship accesses that themselves
  // depend on unvalidated predictions — stall for validation instead, so
  // the client never holds speculative state and needs no rollback on its
  // own in the common case.
  bool batch_tainted = tainted_;
  for (const QueuedAccess& a : batch) {
    if (a.is_write && IsSpeculativeSym(a.node)) {
      batch_tainted = true;
      break;
    }
  }
  if (batch_tainted) {
    GRT_RETURN_IF_ERROR(DrainOutstanding());
  }

  GRT_RETURN_IF_ERROR(MaybeSyncBeforeJobStart(batch));

  // Assemble the wire message.
  CommitBatchMsg msg;
  msg.seq = next_seq_++;
  std::vector<const SymNode*> batch_reads;
  std::vector<SymNodePtr> read_nodes;
  bool all_reads_deterministic = true;
  for (const QueuedAccess& a : batch) {
    BatchItem item;
    item.is_write = a.is_write;
    item.reg = a.reg;
    if (a.is_write) {
      GRT_ASSIGN_OR_RETURN(item.expr, CompileExpr(a.node, batch_reads));
    } else {
      batch_reads.push_back(a.node.get());
      read_nodes.push_back(a.node);
      if (IsNondeterministicRegister(a.reg)) {
        all_reads_deterministic = false;
      }
    }
    msg.items.push_back(std::move(item));
  }
  Bytes wire = msg.Serialize();

  const char* trigger_site = batch.front().site;
  std::string category = CategoryOf(trigger_site);
  uint64_t shape = Fnv1a(trigger_site);
  for (const QueuedAccess& a : batch) {
    shape = FnvMix(shape, (static_cast<uint64_t>(a.reg) << 1) | a.is_write);
  }

  ++stats_.commits;
  stats_.commit_wire_bytes += wire.size();
  stats_.accesses_committed += batch.size();
  stats_.reads_committed += read_nodes.size();
  stats_.commits_by_category[category] += 1;
  GRT_OBS_COUNT("shim.commits", 1);
  GRT_OBS_COUNT("shim.commit_wire_bytes", wire.size());
  GRT_OBS_HIST("shim.commit_batch_size", batch.size());

  const std::vector<uint32_t>* prediction =
      config_.speculate && all_reads_deterministic && !read_nodes.empty()
          ? history_->Predict(shape, config_.confidence_k)
          : nullptr;
  if (prediction != nullptr && prediction->size() != read_nodes.size()) {
    prediction = nullptr;
  }

  auto append_log = [&](const std::vector<uint32_t>& read_values,
                        bool speculative,
                        std::vector<std::pair<size_t, size_t>>*
                            read_log_indices) -> Status {
    size_t read_idx = 0;
    for (const QueuedAccess& a : batch) {
      LogEntry e;
      if (a.is_write) {
        e.op = LogOp::kRegWrite;
        e.reg = a.reg;
        GRT_ASSIGN_OR_RETURN(uint32_t v, EvalSym(a.node));
        e.value = v;
      } else {
        size_t slot = read_idx++;
        if (!a.log) {
          continue;  // poll-iteration read: logged as one kPollWait
        }
        e.op = LogOp::kRegRead;
        e.reg = a.reg;
        // Nondeterministic registers (timestamps, cycle counters) are
        // canonicalized to zero in the recording: their live values depend
        // on *when* the read executed, and retransmission delays must not
        // be able to change the recording's bytes (the chaos suite's
        // identical-recording invariant). Replay never verifies these
        // registers, so the value carries no information anyway.
        e.value = IsNondeterministicRegister(a.reg) ? 0 : read_values[slot];
        // Predicted values are marked until the device validates them;
        // Validate()/Recover() clear or patch these entries through
        // read_log_indices (§4.2).
        e.speculative = speculative;
        if (read_log_indices != nullptr) {
          read_log_indices->emplace_back(slot, log_.size());
        }
      }
      log_.Add(std::move(e));
    }
    return OkStatus();
  };

  if (prediction != nullptr) {
    // --- Asynchronous, speculative commit (§4.2). ---
    std::vector<uint32_t> predicted = *prediction;
    for (size_t i = 0; i < read_nodes.size(); ++i) {
      read_nodes[i]->resolved = true;
      read_nodes[i]->value = predicted[i];
      read_nodes[i]->speculative = true;
    }
    if (inject_at_job_ >= 0 &&
        jobs_started_ >= static_cast<uint64_t>(inject_at_job_)) {
      inject_at_job_ = -1;
      inject_mispredict_ = true;
    }
    if (inject_mispredict_) {
      inject_mispredict_ = false;
      client_->CorruptNextReply();
    }
    GRT_ASSIGN_OR_RETURN(
        ReliableLink::Reply lr,
        link_.Call(FrameType::kCommit, wire, ReliableLink::Mode::kAsync));
    GRT_ASSIGN_OR_RETURN(CommitReplyMsg reply,
                         CommitReplyMsg::Deserialize(lr.payload));

    Outstanding o;
    o.response_arrival = lr.response_arrival;
    o.seq = msg.seq;
    o.shape = shape;
    o.category = category;
    o.read_nodes = read_nodes;
    o.predicted = std::move(predicted);
    o.replied = std::move(reply.read_values);
    GRT_RETURN_IF_ERROR(append_log(o.predicted, /*speculative=*/true,
                                   &o.log_indices));
    outstanding_.push_back(std::move(o));
    ++stats_.spec_commits;
    stats_.spec_by_category[category] += 1;
    GRT_OBS_COUNT("shim.spec_commits", 1);
    GRT_OBS_COUNT("shim.spec_predicts", read_nodes.size());
    return OkStatus();
  }

  // Resolution order: validate everything in flight before a synchronous
  // exchange resolves newer values.
  GRT_RETURN_IF_ERROR(DrainOutstanding());

  if (read_nodes.empty() && config_.speculate) {
    // Write-only commits need no response; ship asynchronously (the empty
    // reply is suppressed on the wire).
    GRT_ASSIGN_OR_RETURN(
        ReliableLink::Reply ack,
        link_.Call(FrameType::kCommit, wire, ReliableLink::Mode::kOneWay));
    (void)ack;
    ++stats_.writeonly_commits;
    stats_.spec_by_category[category] += 1;  // asynchronous; Fig. 8 bucket
    GRT_OBS_COUNT("shim.writeonly_commits", 1);
    return append_log({}, /*speculative=*/false, nullptr);
  }

  // --- Synchronous commit: one blocking round trip. ---
  GRT_ASSIGN_OR_RETURN(
      ReliableLink::Reply lr,
      link_.Call(FrameType::kCommit, wire, ReliableLink::Mode::kBlocking));
  GRT_ASSIGN_OR_RETURN(CommitReplyMsg reply,
                       CommitReplyMsg::Deserialize(lr.payload));
  ++stats_.sync_commits;
  GRT_OBS_COUNT("shim.sync_commits", 1);

  if (reply.read_values.size() != read_nodes.size()) {
    return IntegrityViolation("commit reply arity mismatch");
  }
  for (size_t i = 0; i < read_nodes.size(); ++i) {
    read_nodes[i]->resolved = true;
    read_nodes[i]->value = reply.read_values[i];
    read_nodes[i]->speculative = false;
  }
  if (!read_nodes.empty()) {
    history_->Record(shape, reply.read_values);
  }
  return append_log(reply.read_values, /*speculative=*/false, nullptr);
}

Status DriverShim::DrainOutstanding() {
  while (!outstanding_.empty()) {
    Outstanding o = std::move(outstanding_.front());
    outstanding_.pop_front();
    cloud_tl_->AdvanceTo(o.response_arrival);
    ++stats_.drains;
    GRT_RETURN_IF_ERROR(Validate(o));
  }
  tainted_ = false;
  return OkStatus();
}

Status DriverShim::Validate(Outstanding& o) {
  if (o.is_poll) {
    bool actual_ok = !o.replied.empty() && o.replied[0] != 0;
    if (actual_ok == o.poll_pred_ok_predicted) {
      history_->Record(o.shape, {1u});
      GRT_OBS_COUNT("shim.spec_validated", 1);
      return OkStatus();
    }
    ++stats_.mispredictions;
    GRT_OBS_COUNT("shim.spec_mispredicts", 1);
    return Recover(o);
  }
  if (o.replied == o.predicted) {
    for (auto& node : o.read_nodes) {
      node->speculative = false;  // confirmed by the device
    }
    for (const auto& [slot, log_index] : o.log_indices) {
      (void)slot;
      GRT_RETURN_IF_ERROR(log_.ConfirmReadValue(log_index));
    }
    history_->Record(o.shape, o.replied);
    GRT_OBS_COUNT("shim.spec_validated", 1);
    return OkStatus();
  }
  ++stats_.mispredictions;
  GRT_OBS_COUNT("shim.spec_mispredicts", 1);
  return Recover(o);
}

Status DriverShim::Recover(Outstanding& o) {
  // §4.2: both parties roll back and fast-forward *independently* by
  // replaying the interaction log — no network needed during recovery.
  TimePoint start = cloud_tl_->now();

  // Exchange of the misprediction location (one small message each way).
  channel_->SendOneWay(kCloudEnd, 64);
  channel_->SendOneWay(kClientEnd, 64);

  // The client resets its GPU and replays the log.
  SkuId sku = driver_ != nullptr ? driver_->sku().id : SkuId::kMaliG71Mp8;
  GRT_ASSIGN_OR_RETURN(Duration client_replay,
                       client_->RecoverByReplay(log_, sku));
  (void)client_replay;  // already charged to the client timeline

  // The cloud reloads the driver and recompiles jobs submitted so far.
  cloud_tl_->Advance(kDriverReloadCost +
                     static_cast<Duration>(jobs_started_) * kRecompilePerJob);

  // Reconcile with the device's true values.
  const std::vector<uint32_t>* truth = client_->TrueValuesFor(o.seq);
  if (!o.is_poll) {
    if (truth == nullptr || truth->size() != o.read_nodes.size()) {
      return Internal("recovery: true values unavailable");
    }
    bool genuine = *truth != o.predicted;
    if (genuine) {
      for (size_t i = 0; i < o.read_nodes.size(); ++i) {
        GRT_WLOG << "mispredict " << o.category << " reg="
                 << RegisterName(o.read_nodes[i]->reg_offset) << " predicted=0x"
                 << std::hex << o.predicted[i] << " true=0x" << (*truth)[i]
                 << std::dec;
      }
    }
    for (size_t i = 0; i < o.read_nodes.size(); ++i) {
      o.read_nodes[i]->value = (*truth)[i];
      o.read_nodes[i]->speculative = false;
    }
    for (const auto& [slot, log_index] : o.log_indices) {
      GRT_RETURN_IF_ERROR(log_.PatchReadValue(log_index, (*truth)[slot]));
    }
    history_->Record(o.shape, *truth);
    if (genuine) {
      // A genuinely wrong prediction means the driver consumed a wrong
      // value before validation; the full paper system restarts the driver
      // — we surface it so tests can prove it never happens in normal
      // operation (§7.3: zero mispredictions in 1,000 runs per workload).
      SetError(Internal("genuine misprediction: driver state rolled back"));
    }
  }
  stats_.rollback_time += cloud_tl_->now() - start;
  GRT_OBS_COUNT("shim.spec_recoveries", 1);
  GRT_OBS_HIST("shim.rollback_ns", cloud_tl_->now() - start);
  return OkStatus();
}

PollResult DriverShim::Poll(uint32_t offset, uint32_t mask, uint32_t expected,
                            int max_iters, Duration iter_delay,
                            const char* site) {
  ++stats_.poll_instances;
  GRT_OBS_COUNT("shim.polls", 1);

  PollResult result;
  if (!config_.offload_polls) {
    // Each iteration is a remote register read (one RTT); the first
    // iteration rides in the same commit as any accesses still queued
    // (e.g. the write that kicked off the operation being polled). The
    // device makes progress while the RTT is in flight, so loops
    // terminate in a couple of iterations.
    for (int i = 0; i < max_iters; ++i) {
      SymNodePtr node = MakeReadNode(next_read_id_++, offset);
      queue().push_back(QueuedAccess{false, offset, node, site,
                                     /*log=*/false});
      Status s = CommitQueue();
      if (!s.ok()) {
        SetError(s);
        result.timed_out = true;
        return result;
      }
      auto v = EvalSym(node);
      if (!v.ok()) {
        SetError(Internal("poll read failed to resolve"));
        result.timed_out = true;
        return result;
      }
      ++stats_.poll_rtts;
      GRT_OBS_COUNT("shim.poll_rtts", 1);
      result.final_value = v.value();
      ++result.iterations;
      if ((result.final_value & mask) == expected) {
        break;
      }
      cloud_tl_->Advance(iter_delay);
      if (i + 1 == max_iters) {
        result.timed_out = true;
      }
    }
  } else {
    Status s = CommitQueue();  // flush ahead of the offloaded loop
    if (!s.ok()) {
      SetError(s);
    }
    ++stats_.polls_offloaded;
    GRT_OBS_COUNT("shim.polls_offloaded", 1);
    PollRequestMsg req;
    req.seq = next_seq_++;
    req.reg = offset;
    req.mask = mask;
    req.expected = expected;
    req.max_iters = max_iters;
    req.iter_delay_ns = iter_delay;
    Bytes wire = req.Serialize();

    uint64_t shape = Fnv1a(site) ^ Fnv1a(&offset, sizeof(offset)) ^
                     Fnv1a(&mask, sizeof(mask));
    const std::vector<uint32_t>* pred =
        config_.speculate ? history_->Predict(shape, config_.confidence_k)
                          : nullptr;
    bool speculate_poll = pred != nullptr && !pred->empty() && (*pred)[0] == 1;

    auto lr = link_.Call(FrameType::kPoll, wire,
                         speculate_poll ? ReliableLink::Mode::kAsync
                                        : ReliableLink::Mode::kBlocking);
    if (!lr.ok()) {
      SetError(lr.status());
      result.timed_out = true;
      return result;
    }
    auto reply = PollReplyMsg::Deserialize(lr.value().payload);
    if (!reply.ok()) {
      SetError(reply.status());
      result.timed_out = true;
      return result;
    }

    if (speculate_poll) {
      // Predict the *predicate*, not the iteration count (§4.3); continue
      // without waiting for the client's answer.
      ++stats_.polls_speculated;
      GRT_OBS_COUNT("shim.polls_speculated", 1);
      Outstanding o;
      o.response_arrival = lr.value().response_arrival;
      o.seq = req.seq;
      o.shape = shape;
      o.category = "Polling";
      o.is_poll = true;
      o.poll_mask = mask;
      o.poll_expected = expected;
      o.poll_pred_ok_predicted = true;
      o.replied = {reply.value().timed_out ? 0u : 1u};
      outstanding_.push_back(std::move(o));
      ++stats_.spec_commits;
      stats_.spec_by_category["Polling"] += 1;
      ++stats_.commits;
      stats_.commits_by_category["Polling"] += 1;

      auto it = last_poll_final_.find(shape);
      result.final_value =
          it != last_poll_final_.end() ? it->second : expected;
      result.iterations = 1;
    } else {
      ++stats_.poll_rtts;
      GRT_OBS_COUNT("shim.poll_rtts", 1);
      ++stats_.commits;
      ++stats_.sync_commits;
      stats_.commits_by_category["Polling"] += 1;
      result.final_value = reply.value().final_value;
      result.iterations = reply.value().iterations;
      result.timed_out = reply.value().timed_out;
      history_->Record(shape, {result.timed_out ? 0u : 1u});
      last_poll_final_[shape] = result.final_value;
    }
  }

  LogEntry e;
  e.op = LogOp::kPollWait;
  e.reg = offset;
  e.mask = mask;
  e.expected = expected;
  e.value = result.final_value;
  log_.Add(std::move(e));
  return result;
}

Result<IrqStatus> DriverShim::WaitForIrq(Duration timeout) {
  // Everything queued (the job start in particular) must reach the GPU.
  DriverContext saved = context_;
  for (int c = 0; c < kNumDriverContexts; ++c) {
    context_ = static_cast<DriverContext>(c);
    GRT_RETURN_IF_ERROR(CommitQueue());
  }
  context_ = saved;

  auto event = client_->AwaitIrq(timeout);
  if (!event.ok()) {
    return event.status();
  }
  Bytes wire = event.value().Serialize();
  // Client->cloud push (advances the cloud to the event's arrival).
  GRT_RETURN_IF_ERROR(link_.PushToCloud(FrameType::kIrqEvent, wire).status());
  // The GPU signaled completion: the shared memory is CPU-visible again.
  gpu_busy_sealed_ = false;
  // §5 sync point #2: apply the client's post-job dump.
  GRT_RETURN_IF_ERROR(sync_.ApplySync(event.value().mem_dump));

  LogEntry e;
  e.op = LogOp::kIrqWait;
  e.irq_lines = event.value().lines;
  log_.Add(std::move(e));

  IrqStatus status;
  status.job = (event.value().lines & kIrqLineJob) != 0;
  status.gpu = (event.value().lines & kIrqLineGpu) != 0;
  status.mmu = (event.value().lines & kIrqLineMmu) != 0;
  return status;
}

Status DriverShim::Quiesce() {
  DriverContext saved = context_;
  for (int c = 0; c < kNumDriverContexts; ++c) {
    context_ = static_cast<DriverContext>(c);
    GRT_RETURN_IF_ERROR(CommitQueue());
  }
  context_ = saved;
  GRT_RETURN_IF_ERROR(DrainOutstanding());
  return last_error_;
}

Status DriverShim::SnapshotNow() {
  GRT_RETURN_IF_ERROR(Quiesce());
  SnapshotMemory();
  return OkStatus();
}

Status DriverShim::MarkCut() {
  // The segment must be replayable standalone: flush queues and validate
  // all in-flight speculation before cutting.
  GRT_RETURN_IF_ERROR(Quiesce());
  cuts_.push_back(log_.size());
  return OkStatus();
}

Result<std::vector<Recording>> DriverShim::FinishLayeredRecording(
    const std::string& workload, SkuId sku,
    const std::map<std::string, TensorBinding>& bindings, uint64_t nonce) {
  GRT_RETURN_IF_ERROR(Quiesce());
  SnapshotMemory();

  std::vector<size_t> boundaries = cuts_;
  boundaries.push_back(log_.size());
  std::vector<Recording> segments;
  size_t start = 0;
  for (size_t i = 0; i < boundaries.size(); ++i) {
    Recording rec;
    rec.header.workload = workload + "/layer" + std::to_string(i);
    rec.header.sku = sku;
    rec.header.record_nonce = nonce;
    rec.header.segment_index = static_cast<uint32_t>(i);
    rec.header.segment_count = static_cast<uint32_t>(boundaries.size());
    rec.bindings = bindings;
    for (size_t e = start; e < boundaries[i]; ++e) {
      rec.log.Add(log_.entries()[e]);
    }
    start = boundaries[i];
    StampFootprint(&rec);
    segments.push_back(std::move(rec));
  }
  return segments;
}

Result<Recording> DriverShim::FinishRecording(
    const std::string& workload, SkuId sku,
    const std::map<std::string, TensorBinding>& bindings, uint64_t nonce) {
  GRT_RETURN_IF_ERROR(Quiesce());
  SnapshotMemory();
  Recording rec;
  rec.header.workload = workload;
  rec.header.sku = sku;
  rec.header.record_nonce = nonce;
  rec.bindings = bindings;
  rec.log = log_;
  StampFootprint(&rec);
  return rec;
}

}  // namespace grt
