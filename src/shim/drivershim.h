// DriverShim: the cloud half of GR-T's recorder — a GpuBus backend that
// runs the unmodified driver against a GPU on the other side of a wireless
// network (§3.2, §4, §5).
//
// Mechanisms, selectable per ShimConfig (the paper's evaluation variants):
//  * register access deferral (§4.1): per-context queues, symbolic driver
//    execution, commits on control dependencies / kernel APIs / explicit
//    delays / hot-function exits;
//  * speculation (§4.2): commit-history prediction keyed by driver source
//    site with confidence k, asynchronous commits, taint tracking to keep
//    speculative state off the client, validation + two-sided rollback;
//  * polling-loop offload (§4.3): one round trip per loop, predicate
//    (not iteration-count) prediction;
//  * memory synchronization (§5): metastate-only, delta + range-coded, at
//    GPU busy/idle transitions.
//
// The shim simultaneously assembles the InteractionLog that becomes the
// recording the client downloads.
#ifndef GRT_SRC_SHIM_DRIVERSHIM_H_
#define GRT_SRC_SHIM_DRIVERSHIM_H_

#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/driver/bus.h"
#include "src/driver/kbase.h"
#include "src/net/channel.h"
#include "src/record/page_snapshot.h"
#include "src/record/recording.h"
#include "src/shim/gpushim.h"
#include "src/shim/memsync.h"
#include "src/shim/transport.h"

namespace grt {

struct ShimConfig {
  bool defer = true;
  bool speculate = true;
  bool offload_polls = true;
  bool meta_only_sync = true;
  bool compress_sync = true;
  int confidence_k = 3;               // §4.2: k identical histories required
  bool restrict_to_hot_functions = true;  // §4.1 optimization
  Duration irq_timeout = 120 * kSecond;   // virtual

  // The paper's evaluation variants (§7.2).
  static ShimConfig Naive();
  static ShimConfig OursM();
  static ShimConfig OursMD();
  static ShimConfig OursMDS();
};

// Commit history: per (site, access-shape) hash, recent read-value vectors.
class SpeculationHistory {
 public:
  // Returns the last-k-identical read values, or nullptr.
  const std::vector<uint32_t>* Predict(uint64_t shape, int k) const;
  void Record(uint64_t shape, const std::vector<uint32_t>& values);
  size_t sites() const { return entries_.size(); }
  void Clear() { entries_.clear(); }

 private:
  static constexpr size_t kCap = 8;
  std::unordered_map<uint64_t, std::deque<std::vector<uint32_t>>> entries_;
};

struct ShimStats {
  uint64_t commits = 0;
  uint64_t sync_commits = 0;       // blocking round trips
  uint64_t spec_commits = 0;       // asynchronous, validated later
  uint64_t writeonly_commits = 0;  // asynchronous, nothing to validate
  uint64_t accesses_committed = 0;
  uint64_t reads_committed = 0;
  uint64_t poll_instances = 0;
  uint64_t polls_offloaded = 0;
  uint64_t polls_speculated = 0;
  uint64_t poll_rtts = 0;  // round trips spent in non-offloaded polls
  uint64_t mispredictions = 0;
  uint64_t drains = 0;
  uint64_t commit_wire_bytes = 0;  // commit-path payload bytes (§7.1)
  // §5 continuous validation: spurious CPU accesses to GPU memory while
  // the GPU is busy (the region is "unmapped" between sync points).
  uint64_t spurious_cpu_traps = 0;
  // Pages CRC'd by the job-start memory snapshots (§5): only pages
  // written since their last CRC are hashed (PageSnapshotter).
  uint64_t pages_hashed = 0;
  Duration rollback_time = 0;
  // Fig. 8: speculative commits by driver-routine category.
  std::map<std::string, uint64_t> spec_by_category;
  std::map<std::string, uint64_t> commits_by_category;
};

class DriverShim : public GpuBus {
 public:
  // `cloud_mem` must outlive the shim, which installs an access policy
  // and a write observer on it and removes both when destroyed.
  DriverShim(const ShimConfig& config, NetChannel* channel, GpuShim* client,
             PhysicalMemory* cloud_mem, SpeculationHistory* history);
  ~DriverShim() override;

  // The shim snapshots memory and derives sync manifests through the
  // driver's introspection surface; attach once the driver exists.
  void AttachDriver(const KbaseDriver* driver) { driver_ = driver; }

  // GpuBus implementation.
  RegValue ReadReg(uint32_t offset, const char* site) override;
  void WriteReg(uint32_t offset, const RegValue& value,
                const char* site) override;
  uint32_t Force(const SymNodePtr& node) override;
  PollResult Poll(uint32_t offset, uint32_t mask, uint32_t expected,
                  int max_iters, Duration iter_delay,
                  const char* site) override;
  void Delay(Duration d) override;
  void KernelApi(KernelEvent ev) override;
  Result<IrqStatus> WaitForIrq(Duration timeout) override;
  void SetContext(DriverContext ctx) override { context_ = ctx; }
  void EnterHotFunction(const char* fn) override;
  void LeaveHotFunction() override;
  Timeline* timeline() override { return cloud_tl_; }

  // Completes the recording: final memory snapshot + container assembly.
  Result<Recording> FinishRecording(
      const std::string& workload, SkuId sku,
      const std::map<std::string, TensorBinding>& bindings, uint64_t nonce);

  // Per-layer granularity (Fig. 2): marks a cut point at the current log
  // position (quiesces first so the segment is self-contained).
  Status MarkCut();
  // Forces a memory snapshot into the log now (used to close segment 0
  // with the post-setup memory image so tensor injection lands there).
  Status SnapshotNow();
  // Splits the log at the recorded cuts into one recording per segment;
  // segment 0 carries driver init, each later segment one layer.
  Result<std::vector<Recording>> FinishLayeredRecording(
      const std::string& workload, SkuId sku,
      const std::map<std::string, TensorBinding>& bindings, uint64_t nonce);

  // Flushes queues and validates all outstanding speculation (end of run).
  Status Quiesce();

  const ShimStats& stats() const { return stats_; }
  const InteractionLog& log() const { return log_; }
  const MemSyncStats& sync_stats() const { return sync_.stats(); }
  const Status& last_error() const { return last_error_; }

  // The fault-tolerant transport all recording traffic rides on; the
  // session installs the key, fault plan, and resume handler here.
  ReliableLink& link() { return link_; }

  // Called by the session's resume handler before re-keying: settles all
  // in-flight speculation so both sides agree on the log prefix the §4.2
  // resume replay rewinds to.
  Status PrepareForResume() { return DrainOutstanding(); }

  // §7.3 fault injection: corrupt the next speculative commit's reply so
  // validation fails and recovery runs.
  void InjectMispredictionOnce() { inject_mispredict_ = true; }
  // Worst-case variant: arm the injection for the first speculative commit
  // after `job_index` jobs have started (the paper measures rollback at
  // the END of a record run, where recompilation cost peaks).
  void InjectMispredictionAtJob(uint64_t job_index) {
    inject_at_job_ = static_cast<int64_t>(job_index);
  }

 private:
  struct QueuedAccess {
    bool is_write = false;
    uint32_t reg = 0;
    SymNodePtr node;
    const char* site = "";
    // Poll-loop iteration reads are timing-sensitive: they ride in commit
    // batches but are excluded from the interaction log (the whole loop is
    // logged as one kPollWait).
    bool log = true;
  };

  struct Outstanding {
    TimePoint response_arrival = 0;
    uint64_t seq = 0;
    uint64_t shape = 0;
    std::string category;
    std::vector<SymNodePtr> read_nodes;
    std::vector<uint32_t> predicted;
    std::vector<uint32_t> replied;  // what the client answered (maybe corrupt)
    // (read slot, log entry index) pairs to patch on recovery.
    std::vector<std::pair<size_t, size_t>> log_indices;
    // Poll offloads validate the predicate, not values.
    bool is_poll = false;
    uint32_t poll_mask = 0, poll_expected = 0;
    bool poll_pred_ok_predicted = true;
  };

  bool ShouldDefer() const {
    return config_.defer &&
           (!config_.restrict_to_hot_functions || hot_depth_ > 0);
  }
  std::vector<QueuedAccess>& queue() {
    return queues_[static_cast<int>(context_)];
  }

  Status CommitQueue();
  Status CommitBatch(std::vector<QueuedAccess> batch);
  Status DrainOutstanding();
  Status Validate(Outstanding& o);
  Status Recover(Outstanding& o);
  Status MaybeSyncBeforeJobStart(const std::vector<QueuedAccess>& batch);
  void SnapshotMemory();
  void SetError(Status s);
  static std::string CategoryOf(const char* site);
  uint64_t jobs_started() const { return jobs_started_; }

  ShimConfig config_;
  NetChannel* channel_;
  GpuShim* client_;
  ReliableLink link_;
  PhysicalMemory* cloud_mem_;
  Timeline* cloud_tl_;
  SpeculationHistory* history_;
  const KbaseDriver* driver_ = nullptr;

  std::vector<QueuedAccess> queues_[kNumDriverContexts];
  DriverContext context_ = DriverContext::kTask;
  int hot_depth_ = 0;
  bool tainted_ = false;
  bool inject_mispredict_ = false;
  int64_t inject_at_job_ = -1;
  uint64_t next_read_id_ = 1;
  uint64_t next_seq_ = 0;
  uint64_t jobs_started_ = 0;

  std::deque<Outstanding> outstanding_;
  MemSyncEngine sync_;  // both directions share the last-agreed baseline

  InteractionLog log_;
  bool gpu_busy_sealed_ = false;  // §5 continuous validation window
  int seal_policy_id_ = 0;        // cloud_mem_ policy enforcing the window
  std::vector<size_t> cuts_;  // log indices of layer boundaries
  PageSnapshotter snapshot_;
  std::unordered_map<uint64_t, uint32_t> last_poll_final_;

  ShimStats stats_;
  Status last_error_;
};

}  // namespace grt

#endif  // GRT_SRC_SHIM_DRIVERSHIM_H_
