// Recorder: the record-phase interposer at the CPU/GPU boundary.
//
// Implements BusObserver so it sees every register access, poll, delay,
// and interrupt wait the driver performs; on each job-start write it
// snapshots the GPU shared memory (deduplicated page images, tagged
// metastate vs program data). The result is an InteractionLog that the
// Recording container wraps and signs.
//
// Used by the local GR baseline (wrapping DirectBus). GR-T's DriverShim
// assembles the same log from the cloud side and takes its snapshots with
// the same PageSnapshotter (src/record/page_snapshot.h).
#ifndef GRT_SRC_RECORD_RECORDER_H_
#define GRT_SRC_RECORD_RECORDER_H_

#include <cstdint>

#include "src/driver/direct_bus.h"
#include "src/driver/kbase.h"
#include "src/record/log.h"
#include "src/record/page_snapshot.h"
#include "src/record/recording.h"

namespace grt {

class Recorder : public BusObserver {
 public:
  // The recorder introspects the driver for the GPU page sets (which pages
  // exist, which are metastate) and reads page content from `mem`, whose
  // writes it observes (see PageSnapshotter).
  Recorder(const KbaseDriver* driver, PhysicalMemory* mem)
      : driver_(driver), snapshot_(mem) {}

  // BusObserver.
  void OnRegRead(uint32_t offset, uint32_t value) override;
  void OnRegWrite(uint32_t offset, uint32_t value) override;
  void OnPoll(uint32_t offset, uint32_t mask, uint32_t expected,
              const PollResult& result) override;
  void OnDelay(Duration d) override;
  void OnIrqWait(const IrqStatus& status) override;

  // Snapshot the GPU pages now (only pages changed since they were last
  // logged). Called automatically on job-start writes; call manually to
  // capture the final state.
  void SnapshotMemory();

  const InteractionLog& log() const { return log_; }
  InteractionLog TakeLog() { return std::move(log_); }

  // Builds a complete recording for `workload`, attaching tensor bindings
  // (VA -> physical pages resolved through the driver).
  Result<Recording> Finish(const std::string& workload, SkuId sku,
                           const std::map<std::string, TensorBinding>& bindings,
                           uint64_t nonce);

 private:
  const KbaseDriver* driver_;
  PageSnapshotter snapshot_;
  InteractionLog log_;
};

// Helper: resolves a tensor's physical pages through the driver's regions.
Result<TensorBinding> MakeBinding(const KbaseDriver& driver, uint64_t va,
                                  uint64_t n_floats, bool writable_at_replay);

}  // namespace grt

#endif  // GRT_SRC_RECORD_RECORDER_H_
