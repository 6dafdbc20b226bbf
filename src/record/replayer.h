// Replayer: reproduces recorded GPU computation inside the TEE, with no
// GPU stack present (§2.3, §3.2).
//
// The replayer is deliberately tiny and has no dependency on the driver,
// runtime, or ML framework — the paper's point is that this is the only
// GPU-facing code deployed inside TrustZone ("a few KSLoC, ... contains no
// vulnerabilities commonly seen in a GPU stack").
//
// Replay procedure:
//   1. verify the recording's signature and SKU identity;
//   2. lock the GPU to the secure world and reset it;
//   3. apply recorded memory images (metastate always; program-data pages
//      unless superseded by injected tensors);
//   4. inject new input / model parameters at the recorded addresses;
//   5. replay register stimuli, re-validating recorded read values on
//      deterministic registers, re-waiting polls and interrupts;
//   6. read outputs from the recorded output addresses; reset the GPU and
//      release it.
//
// One executor runs every replay over one op vocabulary (PlanOp, see
// src/record/plan.h). What it runs selects the engine:
//   * the interpreter: the recording's uncoalesced lowering, every initial
//     page snapshot its own op in log order (reference engine, and the
//     only one that can produce an observed log for §3.4 diffing);
//   * the compiled plan: the same ops with the initial memory image
//     pre-coalesced, plus dirty-page tracking: replay N+1 re-applies only
//     the pages replay N clobbered (tracked by PhysicalMemory write
//     interposition) and re-injects only the staged tensors that were
//     restaged or clobbered — back-to-back inferences stop paying the
//     full memsync cost;
//   * the fused warm program (plan format v2, src/analysis/planopt) on
//     warm replays of a plan that carries one.
// Every replay error names the 0-based log entry of the failing op.
//
// Dirty-page soundness: a page is skipped only if no write — CPU either
// world, GPU DMA, this replayer's own mid-replay reapplications — touched
// it since its image or tensor bytes were applied. An untouched page still
// holds exactly that content, so skipping the copy cannot change any
// replay-visible state (see DESIGN.md §6d).
#ifndef GRT_SRC_RECORD_REPLAYER_H_
#define GRT_SRC_RECORD_REPLAYER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/hw/gpu.h"
#include "src/mem/phys_mem.h"
#include "src/record/plan.h"
#include "src/record/recording.h"
#include "src/tee/tzasc.h"

namespace grt {

// Dirty-page set over the physical carveout, kept as a bitmap so the
// write-observer hot path (fired on every PhysicalMemory write, including
// each GPU DMA commit) marks a run of pages with a few word ops instead of
// per-page hash inserts.
class DirtyPageSet {
 public:
  // (Re)binds the set to [base, base+size); clears all marks.
  void Init(uint64_t base, uint64_t size) {
    base_ = base;
    bits_.assign((size / kPageSize + 63) / 64, 0);
    count_ = 0;
  }

  // Marks every page overlapping [pa, pa+len). Addresses outside the bound
  // range are ignored (they cannot hold plan image pages).
  void MarkRange(uint64_t pa, uint64_t len) {
    if (len == 0) {
      return;
    }
    for (uint64_t p = PageAlignDown(pa); p < pa + len; p += kPageSize) {
      if (p < base_) {
        continue;
      }
      const uint64_t idx = (p - base_) / kPageSize;
      const uint64_t word = idx / 64;
      if (word >= bits_.size()) {
        break;
      }
      const uint64_t mask = 1ull << (idx % 64);
      if ((bits_[word] & mask) == 0) {
        bits_[word] |= mask;
        ++count_;
      }
    }
  }

  bool Contains(uint64_t page_pa) const {
    if (page_pa < base_) {
      return false;
    }
    const uint64_t idx = (page_pa - base_) / kPageSize;
    const uint64_t word = idx / 64;
    return word < bits_.size() && (bits_[word] >> (idx % 64)) & 1;
  }

  void Clear() {
    std::fill(bits_.begin(), bits_.end(), 0);
    count_ = 0;
  }

  size_t Count() const { return count_; }

 private:
  uint64_t base_ = 0;
  std::vector<uint64_t> bits_;
  size_t count_ = 0;
};

struct ReplayConfig {
  bool verify_reads = true;
  // Reset the GPU before starting. Segment 0 of a layered replay (and any
  // monolithic replay) wants this; later segments continue from the
  // hardware state the previous segment left.
  bool scrub_before = true;
  // Reset the GPU and release it to the normal world when done. Normal
  // replay wants this (§3.2); misprediction recovery must NOT scrub —
  // the recording session resumes from the replayed hardware state.
  bool scrub_after = true;
  Duration poll_iter_delay = 3 * kMicrosecond;
  int poll_max_iters = 100000;
  Duration irq_timeout = 60 * kSecond;  // virtual
  // Collect the interactions actually observed on this device; diffing the
  // observed log against the recording localizes firmware malfunction
  // (§3.4 remote debugging). Adds memory/time overhead. Selects the
  // interpreter: a compiled plan folds page snapshots together at compile
  // time, so it cannot produce a faithful observed log.
  bool collect_observed = false;
  // Run the static verifier (src/analysis) at Load and refuse recordings
  // with errors. On by default: a signed-but-malformed recording must never
  // reach the GPU. Misprediction recovery turns this off — it replays a
  // mid-session log that legitimately still carries speculative reads.
  // Verification happens ONCE per Load; Replay() never re-verifies.
  bool static_verify = true;
  // Compile the recording into a ReplayPlan at Load (fast path, with
  // dirty-page tracking and, when the plan carries one, the fused warm
  // program). Off: run the uncoalesced lowering (interpreter engine).
  bool use_plan = true;
};

struct ReplayReport {
  Duration delay = 0;          // end-to-end replay time (Table 2 metric)
  size_t entries_replayed = 0;
  size_t pages_applied = 0;
  size_t reads_verified = 0;
  // Memory-application accounting (perf gates: a warm plan replay must
  // apply strictly fewer bytes than the interpreter).
  uint64_t mem_bytes_applied = 0;
  // Plan path: initial-image pages skipped because they were provably
  // clean (no write since their last application).
  size_t pages_skipped_clean = 0;
  bool plan_used = false;
  // True when the replay skipped provably clean pages and tensors: second
  // and later compiled-plan replays on the same loaded recording. Never
  // set by the interpreter.
  bool warm = false;
  // True when the fused warm program executed instead of the full op
  // array (requires a plan carrying a checked warm program and a device
  // armed by the previous replay).
  bool warm_program_used = false;
  // Fused register spans executed and the total writes they covered.
  size_t fused_spans_executed = 0;
  size_t fused_writes_executed = 0;
  // Subset of mem_bytes_applied issued as coalesced multi-page runs
  // (>= 2 contiguous pages per Write call).
  uint64_t mem_bytes_applied_fused = 0;
  // Per-stage virtual-time breakdown of the replay (plan and interpreter
  // paths). dispatch = job-slot register writes incl. fused spans;
  // reg_io = all other MMIO traffic incl. poll iterations; shader_exec =
  // interrupt waits and recorded device delays; page_apply = image,
  // mid-replay page, and tensor-injection copies. Readback is not part
  // of Replay() — ReadTensor/ReadTensorInto time it separately.
  Duration stage_dispatch = 0;
  Duration stage_reg_io = 0;
  Duration stage_shader_exec = 0;
  Duration stage_page_apply = 0;
  // Host wall-clock breakdown (steady_clock ns). Unlike the virtual-time
  // stages above, these observe the real cost of the shader-core kernel
  // engine and page application — the modeled timeline is engine-invariant
  // by construction, so kernel speedups are only visible here.
  uint64_t wall_ns = 0;
  uint64_t wall_shader_exec_ns = 0;  // inside ExecuteChain (kernel engine)
  uint64_t wall_page_apply_ns = 0;   // image/mid-page/tensor copies
};

class Replayer {
 public:
  Replayer(MaliGpu* gpu, Tzasc* tzasc, PhysicalMemory* mem,
           Timeline* timeline, ReplayConfig config = ReplayConfig{})
      : gpu_(gpu), tzasc_(tzasc), mem_(mem), timeline_(timeline),
        config_(config) {}
  ~Replayer();

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  // Verifies signature + SKU and loads the recording.
  Status LoadSigned(const Bytes& raw, const Bytes& signing_key);
  // Loads a parsed recording (trusted path for tests).
  Status Load(Recording recording);
  // Loads a shared recording, optionally with a pre-compiled plan (the
  // serving engine compiles once and shares the plan across workers; pass
  // nullptr to compile here; ignored under config.collect_observed). The
  // recording/plan must outlive all use — shared_ptr ownership guarantees
  // it even across plan-cache eviction.
  Status LoadShared(std::shared_ptr<const Recording> recording,
                    std::shared_ptr<const ReplayPlan> plan = nullptr);

  // Stages tensor data to inject (model parameters, new input). Data is
  // written at replay start through the recorded physical pages.
  // Re-staging an already-staged tensor overwrites it in place and marks
  // it for injection on the next replay; a warm plan replay skips staged
  // tensors that were neither restaged nor written since their last
  // injection (weights staged once are not rewritten per inference).
  Status StageTensor(const std::string& name, const std::vector<float>& data);

  // Runs the replay. May be called repeatedly (each call resets the GPU,
  // reapplies memory, and re-injects staged tensors; warm plan replays
  // limit both to what changed since the previous replay) — "the replay
  // can recur within the TEE on new input repeatedly".
  Result<ReplayReport> Replay();

  // Reads a tensor (typically the output) from the recorded pages.
  Result<std::vector<float>> ReadTensor(const std::string& name) const;

  // Reads a tensor directly into a caller-owned buffer of n_floats
  // elements, skipping the intermediate vector: the copy walks the plan's
  // chunk table. Internal if the binding's page list is too short.
  Status ReadTensorInto(const std::string& name, float* out,
                        size_t n_floats) const;

  // The device-observed interaction log of the last Replay() (only
  // populated with config.collect_observed).
  const InteractionLog& observed_log() const { return observed_; }

  const Recording& recording() const { return *recording_; }
  // The plan Replay() runs: compiled, or the uncoalesced lowering under
  // the interpreter. Null before Load.
  const ReplayPlan* plan() const { return plan_.get(); }

  // Bench/test introspection: physical pages written since the image
  // state was last established (empty under the interpreter). The
  // dirty-page sweep uses this to target pages that are actually clean
  // at steady state — pages the replay itself rewrites every run are
  // re-applied regardless, so dirtying them is not marginal work.
  const DirtyPageSet& dirty_pages() const { return dirty_pages_; }

  // Adjusts the scrub behaviour between replays (layered replay reuses one
  // loaded replayer per segment across ReplayAll calls whose boundary
  // scrubbing differs per call).
  void SetScrub(bool before, bool after) {
    config_.scrub_before = before;
    config_.scrub_after = after;
  }

 private:
  Status InjectTensors(bool warm);
  Status WaitIrqLines(uint8_t lines, uint8_t tolerated);
  Status Execute(const std::vector<PlanOp>& ops, const RegSpanWrite* spans,
                 uint8_t tolerated_irq_lines, ReplayReport* report);
  void Observe(const PlanOp& op, uint32_t read_value);
  Status ApplyPlanImages(bool warm, ReplayReport* report);
  const std::unordered_set<uint64_t>& InjectedPages();
  void ResetReplayState();

  MaliGpu* gpu_;
  Tzasc* tzasc_;
  PhysicalMemory* mem_;
  Timeline* timeline_;
  ReplayConfig config_;
  std::shared_ptr<const Recording> recording_;
  std::shared_ptr<const ReplayPlan> plan_;
  // plan_ is the uncoalesced lowering: the interpreter engine, which
  // neither tracks dirty pages nor runs a warm program.
  bool interpreted_ = false;
  InteractionLog observed_;
  bool loaded_ = false;
  struct StagedTensor {
    std::vector<float> data;
    // Set by StageTensor, cleared when a replay injects the values.
    bool restaged = true;
  };
  std::map<std::string, StagedTensor> staged_;
  // Pages owned by currently-staged tensors; rebuilt lazily when staging
  // changes instead of on every Replay().
  std::unordered_set<uint64_t> injected_pages_;
  bool injected_pages_valid_ = false;
  // ---- dirty-page tracking (compiled plans) ----
  // Observer registered with mem_ while a plan is loaded; it records pages
  // clobbered after the initial image was applied (GPU DMA during replay,
  // mid-replay metastate reapplications, and any external write between
  // replays all count). Suspended while the replayer itself re-applies the
  // image — those writes re-establish image content, they don't dirty it.
  int write_observer_id_ = 0;
  bool observer_active_ = false;
  bool have_image_state_ = false;
  DirtyPageSet dirty_pages_;
  // ---- fused warm program (plan format v2) ----
  // Armed after a successful replay that left the device un-scrubbed in
  // the warm program's proven entry power state; disarmed by any replay
  // failure or reload. The reset-epoch snapshot detects a device reset
  // between replays (e.g. another engine scrubbing a shared pool device)
  // and falls back to the full plan.
  bool warm_armed_ = false;
  uint64_t warm_epoch_ = 0;
  // Fused spans' writes in Tzasc form; kept across replays so a span
  // costs no allocation.
  std::vector<Tzasc::RegWrite> span_buf_;
};

}  // namespace grt

#endif  // GRT_SRC_RECORD_REPLAYER_H_
