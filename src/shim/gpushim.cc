#include "src/shim/gpushim.h"

#include "src/record/recording.h"
#include "src/record/replayer.h"

namespace grt {
namespace {

constexpr Duration kMmioCost = 200 * kNanosecond;

}  // namespace

GpuShim::GpuShim(MaliGpu* gpu, Tzasc* tzasc, PhysicalMemory* mem,
                 Timeline* timeline, bool meta_only_sync, bool compress_sync,
                 SocResources* soc)
    : gpu_(gpu),
      tzasc_(tzasc),
      soc_(soc),
      mem_(mem),
      timeline_(timeline),
      sync_(mem, meta_only_sync, compress_sync) {}

void GpuShim::BeginSession() {
  tzasc_->AssignGpu(World::kSecure);
  // §5 continuous validation, client side: "GPUShim unmaps the shared
  // memory from the GPU's page table when the GPU becomes idle; any
  // spurious access from GPU will be trapped." We model the unmap as a
  // policy: GPU-origin accesses are only permitted during cloud-directed
  // activity (commit/poll/irq handling).
  session_policy_id_ = mem_->AddAccessPolicy(
      [this](uint64_t, uint64_t, bool, MemAccessOrigin origin) {
        if (origin == MemAccessOrigin::kGpu && !sanctioned_) {
          ++spurious_gpu_traps_;
          return false;
        }
        return true;
      });
  // §6: the TEE bootstraps the GPU's SoC resources itself (power/clock),
  // rather than trusting the normal-world OS via RPC.
  if (soc_ != nullptr) {
    (void)soc_->SetGpuRail(World::kSecure, true);
  }
  gpu_->HardReset();
  expected_seq_ = 0;
}

void GpuShim::EndSession() {
  gpu_->HardReset();
  if (session_policy_id_ != 0) {
    mem_->RemoveAccessPolicy(session_policy_id_);
    session_policy_id_ = 0;
  }
  tzasc_->AssignGpu(World::kNormal);
}

Result<Bytes> GpuShim::ExecuteCommit(const Bytes& batch_bytes) {
  GRT_ASSIGN_OR_RETURN(CommitBatchMsg batch,
                       CommitBatchMsg::Deserialize(batch_bytes));
  if (batch.seq != expected_seq_) {
    return IntegrityViolation("commit batch out of order");
  }
  ++expected_seq_;
  ++batches_executed_;
  Sanction sanction(this);

  CommitReplyMsg reply;
  reply.seq = batch.seq;
  for (const BatchItem& item : batch.items) {
    timeline_->Advance(kMmioCost);
    if (item.is_write) {
      GRT_ASSIGN_OR_RETURN(uint32_t value,
                           EvalExpr(item.expr, reply.read_values));
      GRT_RETURN_IF_ERROR(
          tzasc_->WriteGpuRegister(World::kSecure, gpu_, item.reg, value));
    } else {
      GRT_ASSIGN_OR_RETURN(uint32_t value, tzasc_->ReadGpuRegister(
                                               World::kSecure, gpu_, item.reg));
      reply.read_values.push_back(value);
    }
  }

  true_values_[batch.seq] = reply.read_values;
  if (true_values_.size() > 64) {
    true_values_.erase(true_values_.find(batch.seq - 64) !=
                               true_values_.end()
                           ? true_values_.find(batch.seq - 64)
                           : true_values_.begin());
  }
  if (corrupt_next_reply_ && !reply.read_values.empty()) {
    corrupt_next_reply_ = false;
    reply.read_values[0] ^= 0xDEADu;  // injected wrong register value
  }
  return reply.Serialize();
}

Result<Bytes> GpuShim::ExecutePoll(const Bytes& request_bytes) {
  GRT_ASSIGN_OR_RETURN(PollRequestMsg req,
                       PollRequestMsg::Deserialize(request_bytes));
  if (req.seq != expected_seq_) {
    return IntegrityViolation("poll request out of order");
  }
  ++expected_seq_;
  Sanction sanction(this);
  PollReplyMsg reply;
  reply.seq = req.seq;
  for (int i = 0; i < req.max_iters; ++i) {
    timeline_->Advance(kMmioCost);
    GRT_ASSIGN_OR_RETURN(
        uint32_t v, tzasc_->ReadGpuRegister(World::kSecure, gpu_, req.reg));
    reply.final_value = v;
    ++reply.iterations;
    if ((v & req.mask) == req.expected) {
      return reply.Serialize();
    }
    timeline_->Advance(req.iter_delay_ns);
  }
  reply.timed_out = true;
  return reply.Serialize();
}

void GpuShim::SetLinkKey(Bytes key, uint32_t epoch) {
  link_key_ = std::move(key);
  link_epoch_ = epoch;
}

Result<Bytes> GpuShim::HandleFrame(const Bytes& sealed_frame) {
  auto frame = LinkFrame::Open(sealed_frame, link_key_);
  if (!frame.ok()) {
    ++link_mac_rejects_;
    return frame.status();
  }
  if (frame->epoch != link_epoch_) {
    // A frame from a previous link incarnation (pre-disconnect): the old
    // key is dead, so treat it like a forgery.
    ++link_mac_rejects_;
    return IntegrityViolation("link frame from stale epoch");
  }
  LinkFrame reply;
  reply.type = frame->type;
  reply.epoch = link_epoch_;
  reply.seq = frame->seq;
  if (frame->seq < next_link_seq_) {
    // Retransmission of an already-executed frame (our ack was lost):
    // absorb the duplicate and re-send the cached reply, re-sealed under
    // the current key in case the session re-keyed in between.
    auto it = link_replies_.find(frame->seq);
    if (it == link_replies_.end()) {
      return IntegrityViolation("duplicate link frame outside reply window");
    }
    ++link_dup_drops_;
    reply.payload = it->second;
    return reply.Seal(link_key_);
  }
  if (frame->seq != next_link_seq_) {
    return IntegrityViolation("link frame sequence gap");
  }
  switch (frame->type) {
    case FrameType::kCommit: {
      GRT_ASSIGN_OR_RETURN(reply.payload, ExecuteCommit(frame->payload));
      break;
    }
    case FrameType::kPoll: {
      GRT_ASSIGN_OR_RETURN(reply.payload, ExecutePoll(frame->payload));
      break;
    }
    case FrameType::kCloudSync: {
      GRT_RETURN_IF_ERROR(ApplyCloudSync(frame->payload));
      break;  // empty ack
    }
    case FrameType::kControl: {
      break;  // payload has no client-side effect; ack it
    }
    case FrameType::kIrqEvent: {
      return InvalidArgument("kIrqEvent frames flow client->cloud");
    }
  }
  ++next_link_seq_;
  link_replies_[frame->seq] = reply.payload;
  if (link_replies_.size() > 64) {
    link_replies_.erase(link_replies_.count(frame->seq - 64) != 0
                            ? link_replies_.find(frame->seq - 64)
                            : link_replies_.begin());
  }
  return reply.Seal(link_key_);
}

void GpuShim::ForgetLinkFrameForResume(uint64_t link_seq) {
  if (link_seq >= next_link_seq_) {
    return;  // the in-flight frame never executed; nothing to rewind
  }
  next_link_seq_ = link_seq;
  link_replies_.erase(link_seq);
  // Each executed commit/poll consumed exactly one message-level sequence
  // number; the re-execution re-presents the same one.
  --expected_seq_;
}

Status GpuShim::ApplyCloudSync(const Bytes& msg) {
  // CPU copy cost proportional to payload.
  timeline_->Advance(static_cast<Duration>(msg.size() / 8));
  return sync_.ApplySync(msg);
}

Result<IrqEventMsg> GpuShim::AwaitIrq(Duration timeout) {
  Sanction sanction(this);
  TimePoint deadline = timeline_->now() + timeout;
  for (;;) {
    IrqEventMsg event;
    event.lines = gpu_->AssertedIrqLines();
    if (event.lines != 0) {
      // §5: "Right after the client GPU raises an interrupt signaling job
      // completion, GPUShim forwards the interrupt and uploads its memory
      // dump to the cloud." The dump scope follows the manifest the cloud
      // taught us (metastate-only or everything).
      GRT_ASSIGN_OR_RETURN(event.mem_dump,
                           sync_.BuildSync(sync_.learned_manifest()));
      return event;
    }
    TimePoint next = gpu_->NextEventTime();
    if (next == kNoEvent || next > deadline) {
      return Timeout("client GPU raised no interrupt");
    }
    timeline_->AdvanceTo(next);
  }
}

Result<Duration> GpuShim::RecoverByReplay(const InteractionLog& log,
                                          SkuId sku) {
  Sanction sanction(this);
  TimePoint start = timeline_->now();
  Recording rec;
  rec.header.workload = "recovery";
  rec.header.sku = sku;
  rec.log = log;

  ReplayConfig config;
  config.verify_reads = false;   // the log tail may hold predicted values
  config.scrub_after = false;    // the session resumes from this state
  config.static_verify = false;  // mid-session log: speculative residue and
                                 // in-flight protocol state are expected
  Replayer replayer(gpu_, tzasc_, mem_, timeline_, config);
  GRT_RETURN_IF_ERROR(replayer.Load(std::move(rec)));
  auto report = replayer.Replay();
  if (!report.ok()) {
    return report.status();
  }
  return timeline_->now() - start;
}

}  // namespace grt
