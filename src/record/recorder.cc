#include "src/record/recorder.h"

#include "src/analysis/footprint/footprint.h"
#include "src/hw/regs.h"
#include "src/obs/metrics.h"

namespace grt {

void Recorder::OnRegRead(uint32_t offset, uint32_t value) {
  GRT_OBS_COUNT("recorder.entries", 1);
  LogEntry e;
  e.op = LogOp::kRegRead;
  e.reg = offset;
  e.value = value;
  log_.Add(std::move(e));
}

void Recorder::OnRegWrite(uint32_t offset, uint32_t value) {
  if (IsJobStartWrite(offset, value)) {
    // §5: "Right before the register write that starts a new GPU job,
    // [the recorder] dumps its local memory allocated to GPU."
    SnapshotMemory();
  }
  GRT_OBS_COUNT("recorder.entries", 1);
  LogEntry e;
  e.op = LogOp::kRegWrite;
  e.reg = offset;
  e.value = value;
  log_.Add(std::move(e));
}

void Recorder::OnPoll(uint32_t offset, uint32_t mask, uint32_t expected,
                      const PollResult& result) {
  LogEntry e;
  e.op = LogOp::kPollWait;
  e.reg = offset;
  e.mask = mask;
  e.expected = expected;
  e.value = result.final_value;
  log_.Add(std::move(e));
}

void Recorder::OnDelay(Duration d) {
  LogEntry e;
  e.op = LogOp::kDelay;
  e.delay = d;
  log_.Add(std::move(e));
}

void Recorder::OnIrqWait(const IrqStatus& status) {
  LogEntry e;
  e.op = LogOp::kIrqWait;
  e.irq_lines = PackIrqLines(status.job, status.gpu, status.mmu);
  log_.Add(std::move(e));
}

void Recorder::SnapshotMemory() {
  GRT_OBS_COUNT("recorder.snapshots", 1);
  [[maybe_unused]] const SnapshotCounts counts = snapshot_.Snapshot(
      driver_->AllGpuPages(), driver_->MetastatePages(), &log_);
  GRT_OBS_COUNT("recorder.pages_hashed", counts.hashed);
  GRT_OBS_COUNT("recorder.pages_logged", counts.logged);
}

Result<Recording> Recorder::Finish(
    const std::string& workload, SkuId sku,
    const std::map<std::string, TensorBinding>& bindings, uint64_t nonce) {
  Recording rec;
  rec.header.workload = workload;
  rec.header.sku = sku;
  rec.header.record_nonce = nonce;
  rec.bindings = bindings;
  rec.log = std::move(log_);
  StampFootprint(&rec);
  return rec;
}

Result<TensorBinding> MakeBinding(const KbaseDriver& driver, uint64_t va,
                                  uint64_t n_floats, bool writable_at_replay) {
  TensorBinding b;
  b.va = va;
  b.n_floats = n_floats;
  b.writable_at_replay = writable_at_replay;
  uint64_t bytes = n_floats * sizeof(float);
  for (uint64_t off = 0; off < bytes; off += kPageSize) {
    GRT_ASSIGN_OR_RETURN(uint64_t pa, driver.VaToPa(va + off));
    b.pages.push_back(PageAlignDown(pa));
  }
  return b;
}

}  // namespace grt
