// MaliGpu: the register-level device model.
//
// The GPU is passive: it reacts to register writes and to virtual time.
// State transitions that take hardware time (power-domain transitions,
// soft reset, cache flushes, AS commands, job execution) are queued as
// pending events with absolute completion times on the owning Timeline;
// every register access first settles all events up to `timeline->now()`.
// This yields realistic driver polling behaviour — a poll loop iterates,
// burning virtual microseconds, until the modeled latency elapses.
#ifndef GRT_SRC_HW_GPU_H_
#define GRT_SRC_HW_GPU_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/hw/executor.h"
#include "src/hw/mmu.h"
#include "src/hw/regs.h"
#include "src/mem/phys_mem.h"
#include "src/sku/sku.h"

namespace grt {

constexpr TimePoint kNoEvent = std::numeric_limits<TimePoint>::max();

// Hardware latencies of the device model; tuned to yield driver polling
// iteration counts comparable to the paper's Table 1 / §7.3 statistics.
struct GpuTimings {
  Duration reset = 150 * kMicrosecond;
  Duration power_trans = 60 * kMicrosecond;
  Duration cache_flush = 25 * kMicrosecond;
  Duration cache_flush_slow = 120 * kMicrosecond;  // quirk w/o workaround
  Duration as_command = 12 * kMicrosecond;
};

class MaliGpu {
 public:
  // `nondet_seed` varies across record runs and feeds genuinely
  // nondeterministic architectural state (e.g. LATEST_FLUSH's base value).
  MaliGpu(const GpuSku& sku, PhysicalMemory* mem, Timeline* timeline,
          uint64_t nondet_seed = 1);

  // Register file access. Reads/writes settle pending events first.
  Result<uint32_t> ReadRegister(uint32_t offset);
  Status WriteRegister(uint32_t offset, uint32_t value);

  // Interrupt lines (level-triggered: rawstat & mask).
  bool JobIrqAsserted();
  bool GpuIrqAsserted();
  bool MmuIrqAsserted();
  bool AnyIrqAsserted() {
    return JobIrqAsserted() || GpuIrqAsserted() || MmuIrqAsserted();
  }
  // The asserted lines as kIrqLine* bits (regs.h).
  uint8_t AssertedIrqLines() {
    return PackIrqLines(JobIrqAsserted(), GpuIrqAsserted(), MmuIrqAsserted());
  }

  // Earliest pending completion, or kNoEvent. The simulation advances the
  // client timeline here when the driver sleeps waiting for an IRQ.
  TimePoint NextEventTime() const;

  // Full power-on-reset (also used by the TEE before/after replay to
  // scrub hardware state, §3.2).
  void HardReset();

  // Fault injection: XORs `xor_mask` into every read of `offset`,
  // modeling firmware/hardware malfunction (§3.4's remote-debugging
  // use case diffs logs to localize exactly this kind of deviation).
  void InjectRegisterFault(uint32_t offset, uint32_t xor_mask) {
    fault_reg_ = offset;
    fault_xor_ = xor_mask;
  }
  void ClearRegisterFault() { fault_xor_ = 0; }

  const GpuSku& sku() const { return sku_; }

  // Kernel-engine selection for the shader-core executor (results are
  // bitwise-identical either way; benches flip this to compare wall-clock
  // cost of the optimized engine against the pinned reference).
  void SetKernelEngine(KernelEngine engine) { executor_.set_engine(engine); }
  KernelEngine kernel_engine() const { return executor_.engine(); }

  // Cumulative host wall-clock ns spent executing job chains (chains run
  // synchronously inside the dispatch register write; replay reports diff
  // this counter to attribute wall time to the shader stage).
  uint64_t exec_wall_ns() const { return executor_.exec_wall_ns(); }

  // Monotone counter bumped on every reset (HardReset or a soft-reset
  // command completing). A fused warm program (src/analysis/planopt) is
  // valid only while the device state it assumes survives; callers
  // snapshot the epoch after establishing that state and re-check it
  // before every fast-path replay — any reset in between (e.g. another
  // engine scrubbing a shared pool device) invalidates the snapshot.
  uint64_t reset_epoch() const { return reset_epoch_; }

  // Introspection for tests and the energy model.
  uint64_t jobs_completed() const { return jobs_completed_; }
  uint64_t flushes_completed() const { return flush_count_; }
  bool AnyCoresPowered() {
    Settle();
    return shader_.ready != 0 || tiler_.ready != 0 || l2_.ready != 0;
  }
  Duration busy_time() const { return busy_time_; }

 private:
  struct PowerDomain {
    uint64_t present = 0;
    uint64_t ready = 0;
    uint64_t trans = 0;  // bits currently transitioning
  };

  enum class EventKind {
    kResetDone,
    kPowerOnDone,
    kPowerOffDone,
    kCacheFlushDone,
    kAsCommandDone,
    kJobDone,
  };

  struct PendingEvent {
    TimePoint time;
    EventKind kind;
    int index = 0;       // domain id / AS index / job slot
    uint64_t mask = 0;   // power bits
    bool job_failed = false;
    bool job_mmu_fault = false;
    MmuFault fault;
    uint64_t job_tail = 0;
  };

  struct JobSlot {
    // *_NEXT staging registers.
    uint32_t head_next_lo = 0, head_next_hi = 0;
    uint32_t affinity_next_lo = 0, affinity_next_hi = 0;
    uint32_t config_next = 0;
    // Active state.
    uint64_t head = 0, tail = 0;
    uint64_t affinity = 0;
    uint32_t config = 0;
    uint32_t status = kJsStatusIdle;
    bool busy = false;
  };

  struct AddressSpace {
    uint32_t transtab_lo = 0, transtab_hi = 0;
    uint32_t memattr_lo = 0, memattr_hi = 0;
    uint64_t active_root = 0;  // latched by AS_COMMAND UPDATE
    bool command_active = false;
    uint32_t fault_status = 0;
    uint64_t fault_address = 0;
  };

  void Settle();
  void Apply(const PendingEvent& ev);
  void Schedule(PendingEvent ev);
  void SoftReset();

  PowerDomain* DomainByIndex(int idx);
  void HandlePowerWrite(PowerDomain* domain, int domain_idx, uint64_t bits,
                        bool on);
  void HandleGpuCommand(uint32_t command);
  void HandleAsCommand(int as_index, uint32_t command);
  void StartJob(int slot_index);

  uint32_t ReadGpuControl(uint32_t offset);
  uint32_t ReadJobControl(uint32_t offset);
  uint32_t ReadMmu(uint32_t offset);

  const GpuSku sku_;
  PhysicalMemory* mem_;
  Timeline* timeline_;
  GpuTimings timings_;
  ShaderCoreExecutor executor_;
  GpuTlb tlb_;
  Rng nondet_;

  PowerDomain shader_, tiler_, l2_;
  JobSlot slots_[kMaxJobSlots];
  AddressSpace as_[kMaxAddressSpaces];

  uint32_t gpu_irq_rawstat_ = 0, gpu_irq_mask_ = 0;
  uint32_t job_irq_rawstat_ = 0, job_irq_mask_ = 0;
  uint32_t mmu_irq_rawstat_ = 0, mmu_irq_mask_ = 0;

  uint32_t shader_config_ = 0, tiler_config_ = 0, l2_mmu_config_ = 0;
  uint32_t pwr_key_ = 0, pwr_override0_ = 0, pwr_override1_ = 0;

  bool cache_flush_active_ = false;
  bool reset_active_ = false;
  uint32_t flush_count_ = 0;
  uint32_t latest_flush_base_;

  uint32_t gpu_fault_status_ = 0;
  uint64_t gpu_fault_address_ = 0;
  uint32_t fault_reg_ = 0;
  uint32_t fault_xor_ = 0;

  std::vector<PendingEvent> events_;
  uint64_t reset_epoch_ = 0;
  uint64_t jobs_completed_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace grt

#endif  // GRT_SRC_HW_GPU_H_
