// Replay serving engine: the multi-session front end over the compiled
// replay fast path (src/record/plan.h).
//
// The paper's deployed artifact is not a one-shot demonstrator — replay
// "can recur within the TEE on new input repeatedly" (§3.2), and the
// north-star is serving heavy traffic as fast as the hardware allows. A
// ReplayService owns:
//
//   * a plan cache: recordings loaded from a RecordingStore, verified
//     once, compiled once into a ReplayPlan, and kept keyed by the
//     SHA-256 digest of the stored signed bytes, with LRU eviction at
//     `max_plans`. Workers hold shared_ptrs, so evicting a plan mid-replay
//     is safe — the replay finishes on the old plan and the next request
//     recompiles, from the recording already admitted while the store is
//     unchanged.
//   * an admission queue (bounded at `max_queue`) with per-request
//     wall-clock deadlines: a request that waits past its deadline fails
//     with a timeout instead of wasting a GPU on a stale answer.
//   * a device pool: `devices` simulated GPUs (each a full ClientDevice
//     from harness/rig — its own carveout memory, GPU model, TZASC, and
//     virtual timeline, like one physical device in a fleet), shared by
//     `workers` worker threads. Plans keep resident per-device Replayers
//     between requests, so consecutive requests for the same plan on the
//     same device hit the dirty-page warm path. Which plans may share a
//     device is gated by the static footprint analysis
//     (src/analysis/footprint): proven-disjoint plans co-reside freely,
//     serializable pairs co-reside behind the per-replay reset fence, and
//     conflicting pairs are kept on separate devices or reset-fenced by
//     evicting the conflicting resident engine (its next replay runs
//     cold, reapplying the full image). With `devices == workers` (the
//     default) and one workload per worker this degenerates to the
//     classic one-device-per-worker layout.
//
// Threading model: OS threads are real (the bench's throughput scaling is
// measured wall-clock); each worker's *replay time* is still charged to
// its own virtual timeline, so per-request replay delay stays exactly the
// deterministic Table-2 metric. The queue, cache, and stats are the only
// shared state, each behind its own mutex; recordings and plans are
// immutable once published (shared_ptr<const>).
#ifndef GRT_SRC_SERVE_SERVICE_H_
#define GRT_SRC_SERVE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/sha256.h"
#include "src/common/status.h"
#include "src/harness/rig.h"
#include "src/obs/metrics.h"
#include "src/record/plan.h"
#include "src/record/replayer.h"
#include "src/record/store.h"
#include "src/serve/scheduler.h"

namespace grt {

struct ServeConfig {
  SkuId sku = SkuId::kMaliG71Mp8;
  int workers = 1;        // worker threads serving concurrently
  // Simulated GPUs in the device pool. 0 (default): one per worker — the
  // pre-pool layout. Fewer devices than workers oversubscribes: the
  // footprint interference verdicts decide which plans may share.
  int devices = 0;
  size_t max_plans = 8;   // plan-cache LRU capacity (and engines/device)
  size_t max_queue = 256; // admission bound; excess submits are rejected
  // Per-device nondeterminism seed base (device i uses seed+i).
  uint64_t nondet_seed = 1;
  // Engine knobs for every worker replayer. `static_verify` applies at
  // admission (once per workload and store version, not per plan compile,
  // worker or request); `use_plan=false` runs the interpreter on every
  // request (baseline mode for benches). `collect_observed` is ignored —
  // a serving worker never collects observed logs. Disabling
  // `scrub_before` (the per-replay reset fence) demotes serializable
  // co-residency to conflicting at placement: the fence is the
  // kSerializable verdict's soundness argument (src/analysis/footprint).
  ReplayConfig replay;
  // Run the planopt superoptimizer on each cold-resolved plan and attach
  // the checked warm program (plan format v2). Workers then execute the
  // fused schedule on warm replays of a compiled plan (replay.use_plan;
  // the interpreter never runs it). A program that fails its provenance
  // check is never attached — the resolve fails loudly rather than
  // serving unchecked rewrites; a declined build (unfusable recording)
  // serves the v1 plan.
  bool fuse_plans = true;
  // --- Multi-tenant scheduling (DESIGN.md §6j) ---
  // Per-tenant token-bucket admission. A tenant named in `tenant_limits`
  // uses its own limit; every other tenant (the default tenant ""
  // included) uses `default_tenant_limit`. rate_per_sec <= 0 means
  // unlimited — the seed behavior, so single-tenant deployments see no
  // change. An over-bucket submit is refused inline with
  // StatusCode::kTenantThrottled (never queued: over-rate traffic must
  // not hold dispatch slots against in-rate tenants).
  TenantLimit default_tenant_limit;
  std::map<std::string, TenantLimit> tenant_limits;
  // Virtual deadline (EDF ordering only, never expiry) assigned to
  // deadline-free requests: item.enqueued + default_deadline_ms. Without
  // it, `deadline_ms = -1` requests would order after every deadlined
  // request forever under sustained load — the EDF starvation bug.
  int64_t default_deadline_ms = 100;
  // Same-digest batching: a worker that pops a request also pulls up to
  // max_batch-1 more queued requests for the same workload and replays
  // them back-to-back on one resident engine — one placement, one engine
  // build, one device hold; per-request work shrinks to stage + replay +
  // readback. 1 disables batching.
  size_t max_batch = 8;
};

// Largest deadline the service honors (~11.5 days). Anything above is
// clamped at submission: deadline_ms arrives over the wire as an
// arbitrary int64, and `now + milliseconds(INT64_MAX)` would overflow
// the steady_clock rep (signed UB wrapping to a past deadline). The TCP
// front-end rejects above-bound deadlines as BAD_REQUEST before they
// reach the service.
constexpr int64_t kMaxDeadlineMs = 1'000'000'000;

struct ReplayRequest {
  std::string workload;
  // Tensors staged before the replay (input, and model parameters on the
  // first request that lands a plan on a given worker). Staged tensors
  // persist on the worker between requests — a model server keeps
  // parameters resident — and re-staging overwrites in place.
  std::map<std::string, std::vector<float>> tensors;
  std::string output_tensor;  // read back after replay; empty: none
  // Wall-clock admission deadline, measured from submission. A request
  // still queued `deadline_ms` after submission fails with a timeout
  // instead of replaying. Negative: no deadline; above kMaxDeadlineMs:
  // clamped.
  int64_t deadline_ms = -1;
  // Pinned plan identity: when nonzero, the request runs only if the
  // digest the workload resolves to matches exactly (the client asked
  // for specific verified bytes). Checked on the worker path after
  // Resolve — a mismatch fails with StatusCode::kDigestMismatch before
  // any tensor is staged.
  Sha256Digest pinned_digest{};
  // Owning tenant for admission control and accounting; empty is the
  // default tenant (where all pre-tenant clients land). Every outcome —
  // completion, rejection, expiry, throttle — is charged to this tenant.
  std::string tenant;
};

struct ReplayResponse {
  Status status = OkStatus();
  std::string workload;
  // Plan-cache identity actually served (SHA-256 of the stored signed
  // bytes); all-zero when the request failed before resolution. The TCP
  // front-end echoes it so remote clients can pin subsequent requests.
  Sha256Digest digest{};
  std::vector<float> output;  // empty unless output_tensor was set
  ReplayReport report;        // virtual-timeline replay accounting
  int64_t queue_wait_ns = 0;  // wall-clock submission -> dequeue
  int64_t service_ns = 0;     // wall-clock stage + replay + readout
  int worker = -1;
  int device = -1;         // pool device the replay ran on
  bool coresident = false; // device hosted another plan's engine too
  bool plan_cache_hit = false;
  // Requests replayed in the same worker pop as this one (1: unbatched).
  // Batch members share one placement + engine acquisition.
  size_t batch_size = 1;
};

// Per-tenant slice of the outcome counters. `submitted` counts every
// submit attempt by the tenant, including ones refused at the door;
// submitted == completed + failed + rejected + expired + throttled once
// the tenant's traffic has drained.
struct TenantServeStats {
  size_t submitted = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t rejected = 0;   // admission queue full
  size_t expired = 0;    // deadline misses (in queue or at dequeue)
  size_t throttled = 0;  // token bucket empty at submit
};

// Snapshot of service counters (Stats() — coherent under one lock).
struct ServeStats {
  size_t submitted = 0;
  size_t completed = 0;  // fulfilled with an OK replay
  size_t failed = 0;     // stage/replay/readout errors
  size_t rejected = 0;   // admission queue full
  size_t expired = 0;    // total deadline misses (= in_queue + at_dequeue)
  // Where the deadline miss was noticed: swept out of the queue by an
  // admission/pop sweep, vs. discovered by the worker that popped it.
  size_t expired_in_queue = 0;
  size_t expired_at_dequeue = 0;
  // Submits refused because the tenant's token bucket was empty. Never
  // queued, so throttles are invisible to queue_depth/expired.
  size_t throttled = 0;
  // Same-digest batching: worker pops that replayed more than one
  // request, and how many requests rode along as batch followers
  // (a batch of n adds 1 batch and n-1 followers).
  size_t batches = 0;
  size_t batched_requests = 0;
  size_t queue_depth = 0;
  size_t plans_cached = 0;
  size_t plan_hits = 0;
  size_t plan_misses = 0;
  size_t plan_evictions = 0;
  // Resolves that loaded a recording from the store and admitted it:
  // verified it, unless static_verify is off. A plan-cache miss on a
  // current workload binding compiles from the recording already
  // admitted and does not count.
  size_t admissions = 0;
  // Device-pool accounting. A placement is "coresident" when the chosen
  // device already hosted a different plan's engine; "serializable" when
  // the worst interference verdict on that device needed the reset fence;
  // a "conflict eviction" removed a conflicting resident engine (its next
  // replay runs cold); a "spillover" steered a request off its affinity
  // device to avoid evicting a conflicting resident.
  size_t pool_devices = 0;
  size_t coresident_placements = 0;
  size_t serializable_placements = 0;
  size_t conflict_evictions = 0;
  size_t pool_spillovers = 0;
  // A worker placed a plan, then found it evicted from the device shadow
  // by a concurrent conflicting placement before the device was acquired,
  // and redid placement instead of running unadmitted.
  size_t placement_retries = 0;
  size_t warm_replays = 0;  // replays that ran the dirty-page warm path
  // Fused-schedule accounting: plans that got a warm program attached at
  // resolve, builds the superoptimizer declined, and replays that
  // actually executed the fused warm program.
  size_t plans_fused = 0;
  size_t fuse_declined = 0;
  size_t fused_replays = 0;
  // Memory-application accounting across all replays (the perf gate's
  // numerator: warm replays should push bytes/replay far below cold).
  uint64_t pages_applied = 0;
  uint64_t pages_skipped_clean = 0;
  uint64_t mem_bytes_applied = 0;
  // Warm-path page accounting only (dirty-page ratio denominator).
  uint64_t warm_pages_applied = 0;
  uint64_t warm_pages_skipped = 0;
  // Virtual-timeline replay delay percentiles over completed replays,
  // extracted from a bounded log-linear histogram (≤ ~3% quantization
  // above 32 ns; exact below). Memory is O(1) regardless of traffic —
  // this replaced an unbounded per-sample vector.
  Duration replay_delay_p50 = 0;
  Duration replay_delay_p95 = 0;
  Duration replay_delay_p99 = 0;

  // Per-tenant outcome slices, keyed by tenant id ("" = default tenant).
  // A tenant appears after its first submit.
  std::map<std::string, TenantServeStats> tenants;

  // Fraction of image pages a warm replay had to re-apply because the
  // previous run dirtied them (staged-tensor pages excluded by the
  // replayer before the dirty test). 0 when no warm replay ran.
  double dirty_page_ratio() const {
    uint64_t total = warm_pages_applied + warm_pages_skipped;
    return total == 0 ? 0.0
                      : static_cast<double>(warm_pages_applied) /
                            static_cast<double>(total);
  }
};

class ReplayService {
 public:
  // `store` must outlive the service; it is the source of truth for
  // signed recordings (Install admits, the service serves).
  ReplayService(const RecordingStore* store, ServeConfig config);
  ~ReplayService();

  ReplayService(const ReplayService&) = delete;
  ReplayService& operator=(const ReplayService&) = delete;

  // Spawns the worker threads. Requests may be submitted (async) before
  // Start — they queue and their deadline clock runs; nothing executes
  // until workers exist.
  Status Start();

  // Stops accepting work, joins workers after their in-flight request,
  // and fails still-queued requests. Idempotent; the destructor calls it.
  void Stop();

  // Queues a request; the future is fulfilled by a worker (or immediately
  // with an error when the queue is full / the service is stopped).
  std::future<ReplayResponse> SubmitAsync(ReplayRequest request);

  // Callback-form submission, for event-driven callers (the TCP front-end
  // cannot block a thread per future). `done` runs exactly once: on a
  // worker thread after the replay, on an admission sweep's thread when
  // the deadline expires in the queue, or inline on the submitting thread
  // when the request is rejected outright (queue full / service stopped).
  // It must be cheap and must not re-enter the service.
  void SubmitCallback(ReplayRequest request,
                      std::function<void(ReplayResponse)> done);

  // Convenience: SubmitAsync + wait. Requires a started service (a sync
  // submit with no workers would deadlock the caller).
  ReplayResponse Submit(ReplayRequest request);

  // Resolves `workload` through the store, verifies it (once per store
  // version), compiles its plan into the cache, and returns the plan-cache
  // digest. Serving does this lazily on first request; Preload lets a
  // deployment pay compilation before opening the floodgates.
  Result<Sha256Digest> Preload(const std::string& workload);

  ServeStats Stats() const;

  // Everything observable about the service as one generic snapshot:
  // `serve.*` counters/gauges/histograms derived from the service's own
  // always-on accounting, merged over whatever the global obs registry
  // collected (shim.*, net.*, replay.* — populated when
  // obs::SetEnabled(true)). Consumed by bench/replay_serving.
  obs::MetricsSnapshot SnapshotMetrics() const;

  int workers() const { return config_.workers; }
  int devices() const { return static_cast<int>(pool_.size()); }

 private:
  using SteadyPoint = std::chrono::steady_clock::time_point;

  struct QueueItem {
    ReplayRequest request;
    std::function<void(ReplayResponse)> done;
    SteadyPoint enqueued;
    bool has_deadline = false;
    SteadyPoint deadline;
    // EDF dispatch key. For deadlined requests this is the real deadline;
    // deadline-free requests get the virtual deadline enqueued +
    // default_deadline_ms, which orders them (no starvation under
    // sustained deadlined load) but never expires them — the sweeps only
    // ever look at has_deadline/deadline.
    SteadyPoint edf_deadline;
    // Admission order, the EDF tie-break: equal deadlines pop FIFO.
    uint64_t seq = 0;
  };

  // One compiled, verified plan published to all workers. `generation`
  // distinguishes a recompiled plan from the evicted one it replaced, so
  // workers drop stale per-device replayers.
  struct PlanEntry {
    std::shared_ptr<const Recording> recording;
    std::shared_ptr<const ReplayPlan> plan;
    uint64_t generation = 0;
    std::list<Sha256Digest>::iterator lru_pos;
  };

  // Workload-name -> admitted recording, valid while the store's mutation
  // counter still reads `store_version`. Lets a resolve skip the store
  // (no re-hash of the stored blob) and, on a plan-cache miss, the
  // verifier too (see Resolve()). `recording` is the object that passed
  // admission; the store's parse cache holds the same one.
  struct WorkloadBinding {
    uint64_t store_version = 0;
    Sha256Digest digest{};
    std::shared_ptr<const Recording> recording;
  };

  struct ResolvedPlan {
    Sha256Digest digest{};
    std::shared_ptr<const Recording> recording;
    std::shared_ptr<const ReplayPlan> plan;
    // Aliases the recording's verified header footprint (admission ran
    // the footprint-soundness pass over it); the pool's interference
    // evidence. An uncomputed footprint proves nothing and conflicts with
    // everything.
    std::shared_ptr<const ResourceFootprint> footprint;
    uint64_t generation = 0;
    bool cache_hit = false;
  };

  // A device's resident engine for one plan: the Replayer holds the
  // loaded recording/plan and the device-side dirty-page state that makes
  // the next replay warm.
  struct DeviceEngine {
    uint64_t generation = 0;
    uint64_t last_used = 0;
    std::unique_ptr<Replayer> replayer;
  };

  // One simulated GPU of the pool. `mu` serializes everything that
  // touches the device — engine builds, staging, replays — so workers
  // sharing a device interleave whole replays, never partial ones (the
  // granularity at which the reset fence and footprint proofs apply).
  struct PooledDevice {
    std::unique_ptr<ClientDevice> device;
    std::mutex mu;
    std::map<Sha256Digest, DeviceEngine> engines;  // guarded by mu
    uint64_t use_counter = 0;                      // guarded by mu
  };

  // Shadow of a device's admitted plans, guarded by pool_mu_ (placement
  // decisions must not wait behind a long replay holding the device
  // mutex). Invariant: no two plans in one device's shadow are
  // kConflicting. Engines are synced to the shadow under the device
  // mutex before use, and a worker replays a plan only after
  // re-confirming it is still shadow-resident while holding both the
  // device mutex and pool_mu_ (a placement can be evicted by a concurrent
  // conflicting placement until then).
  struct ResidentInfo {
    std::shared_ptr<const ResourceFootprint> footprint;
    uint64_t generation = 0;
  };

  struct Placement {
    int device = 0;
    bool coresident = false;
  };

  // One request in a worker pop. Batch members replay back-to-back on the
  // same resident engine; `finished` marks members failed early (expired
  // at dequeue, pinned-digest mismatch, per-member stage/replay error)
  // whose callbacks already ran.
  struct BatchMember {
    QueueItem item;
    ReplayResponse response;
    bool finished = false;
  };

  void WorkerLoop(int index);
  // Pops the EDF-minimum item (earliest edf_deadline, seq tie-break) and
  // pulls up to max_batch-1 same-workload followers out of the queue, in
  // queue order. Caller holds queue_mu_ and guarantees !queue_.empty().
  std::vector<QueueItem> PopBatchLocked();
  Result<ResolvedPlan> Resolve(const std::string& workload);
  // Picks (under pool_mu_) the device this request runs on, evicting
  // conflicting shadow entries when unavoidable, and records the plan in
  // the chosen device's shadow. The returned placement is provisional:
  // until the worker holds the device mutex and re-checks residency, a
  // concurrent conflicting placement may evict it again (see RunRequest).
  // With `pinned >= 0` the caller already holds pool_[pinned]->mu; the
  // placement is forced onto that device and the device's engine cache is
  // synced to the shadow inside the same pool_mu_ hold, so it cannot be
  // invalidated before the replay runs.
  Placement PlaceRequest(int worker_index, const Sha256Digest& digest,
                         const std::shared_ptr<const ResourceFootprint>& fp,
                         uint64_t generation, int pinned = -1);
  void ServeBatch(int index, std::vector<QueueItem> batch);
  // Resolves, places, and replays every unfinished member of `batch` on
  // one device hold. A returned error is batch-wide (resolve/placement
  // infrastructure failed before any member replayed) and the caller
  // charges it to every unfinished member; per-member errors (pinned
  // digest, stage/replay/readback) finish just that member inside.
  Status RunBatch(int index, std::vector<BatchMember*>& batch,
                  SteadyPoint dequeued);
  void RecordOutcome(const ReplayResponse& response,
                     const std::string& tenant);
  // Finishes one batch member: service time, outcome counters, callback.
  void FinishMember(BatchMember* member, SteadyPoint dequeued);
  // The tenant's admission bucket, created from config on first use.
  // Caller holds queue_mu_.
  TokenBucket& TenantBucketLocked(const std::string& tenant, SteadyPoint now);
  // Per-tenant queue-wait histogram (internally thread-safe once
  // created; the map itself is guarded by tenant_hist_mu_).
  obs::Histogram& TenantWaitHist(const std::string& tenant);
  // Removes every queued item whose deadline has passed; the caller
  // fulfills the returned items via FailExpired() outside queue_mu_.
  std::vector<QueueItem> SweepExpiredLocked(SteadyPoint now);
  void FailExpired(std::vector<QueueItem> expired, SteadyPoint now);

  const RecordingStore* store_;
  ServeConfig config_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<QueueItem> queue_;
  // Per-tenant admission buckets, lazily created from config (guarded by
  // queue_mu_ — admission already holds it, and bucket state must be
  // judged against the same queue the verdict admits into).
  std::map<std::string, TokenBucket> buckets_;
  uint64_t next_seq_ = 0;  // EDF FIFO tie-break (guarded by queue_mu_)
  bool started_ = false;
  bool stop_ = false;

  mutable std::mutex cache_mu_;
  std::map<std::string, WorkloadBinding> bindings_;
  std::map<Sha256Digest, PlanEntry> plans_;
  std::list<Sha256Digest> lru_;  // front = most recent
  uint64_t next_generation_ = 1;

  mutable std::mutex stats_mu_;
  ServeStats stats_;
  // Always-on latency accounting (the instruments are internally
  // thread-safe; stats_mu_ is not needed to record into them). Bounded:
  // O(1) memory under sustained traffic.
  obs::Histogram queue_wait_hist_;    // wall-clock ns, submission -> dequeue
  obs::Histogram service_hist_;       // wall-clock ns, stage+replay+readback
  obs::Histogram replay_delay_hist_;  // virtual-timeline ns (Table-2 metric)

  // Per-tenant queue-wait histograms (the fairness evidence: one tenant's
  // flood shows up in *its* wait distribution, not the victim's). The
  // unique_ptr keeps Histogram addresses stable across map growth so
  // recording threads can hold references outside the map mutex.
  mutable std::mutex tenant_hist_mu_;
  std::map<std::string, std::unique_ptr<obs::Histogram>> tenant_wait_hists_;

  mutable std::mutex pool_mu_;
  std::vector<std::map<Sha256Digest, ResidentInfo>> residents_;

  std::vector<std::unique_ptr<PooledDevice>> pool_;
  std::vector<std::thread> threads_;
};

}  // namespace grt

#endif  // GRT_SRC_SERVE_SERVICE_H_
