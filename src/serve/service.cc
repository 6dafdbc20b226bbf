#include "src/serve/service.h"

#include <algorithm>
#include <utility>

#include "src/analysis/footprint/footprint.h"
#include "src/analysis/planopt/planopt.h"
#include "src/analysis/verifier.h"
#include "src/obs/trace.h"
#include "src/sku/sku.h"

namespace grt {

namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

bool DigestIsZero(const Sha256Digest& d) {
  for (uint8_t b : d) {
    if (b != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

ReplayService::ReplayService(const RecordingStore* store, ServeConfig config)
    : store_(store), config_(config) {
  if (config_.workers < 1) {
    config_.workers = 1;
  }
  if (config_.max_plans < 1) {
    config_.max_plans = 1;
  }
  if (config_.max_batch < 1) {
    config_.max_batch = 1;
  }
  if (config_.default_deadline_ms < 1) {
    config_.default_deadline_ms = 1;
  }
  // A serving worker never collects observed logs (that is the §3.4
  // debugging path, and it forces the interpreter).
  config_.replay.collect_observed = false;
  // devices == 0: the classic one-device-per-worker layout. Fewer devices
  // than workers oversubscribes the pool behind the footprint verdicts.
  if (config_.devices < 1) {
    config_.devices = config_.workers;
  }
  for (int i = 0; i < config_.devices; ++i) {
    auto device = std::make_unique<PooledDevice>();
    device->device = std::make_unique<ClientDevice>(
        config_.sku, config_.nondet_seed + static_cast<uint64_t>(i));
    pool_.push_back(std::move(device));
  }
  residents_.resize(pool_.size());
}

ReplayService::~ReplayService() { Stop(); }

Status ReplayService::Start() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (started_) {
    return FailedPrecondition("ReplayService already started");
  }
  if (stop_) {
    return FailedPrecondition("ReplayService was stopped");
  }
  started_ = true;
  for (int i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return OkStatus();
}

void ReplayService::Stop() {
  std::deque<QueueItem> orphaned;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    orphaned.swap(queue_);
  }
  for (QueueItem& item : orphaned) {
    ReplayResponse response;
    response.workload = item.request.workload;
    response.status = FailedPrecondition("ReplayService stopped");
    item.done(std::move(response));
  }
}

std::future<ReplayResponse> ReplayService::SubmitAsync(ReplayRequest request) {
  // The promise lives in a shared_ptr because std::function requires a
  // copyable callable; the callback still runs exactly once.
  auto promise = std::make_shared<std::promise<ReplayResponse>>();
  std::future<ReplayResponse> future = promise->get_future();
  SubmitCallback(std::move(request),
                 [promise](ReplayResponse response) {
                   promise->set_value(std::move(response));
                 });
  return future;
}

void ReplayService::SubmitCallback(ReplayRequest request,
                                   std::function<void(ReplayResponse)> done) {
  SteadyPoint now = std::chrono::steady_clock::now();
  // The request body is moved into the queue on admission; keep the
  // tenant for the post-admission accounting.
  const std::string tenant = request.tenant;
  std::vector<QueueItem> expired;
  Status reject = OkStatus();
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      reject = FailedPrecondition("ReplayService stopped");
    } else {
      // Sweep already-dead items before judging capacity: a request whose
      // deadline passed while queued must not hold a slot against this
      // admission (the pre-sweep behavior rejected live work while dead
      // work sat in the queue until a worker reached it).
      expired = SweepExpiredLocked(now);
      // Tenant bucket before queue capacity: an over-rate tenant is
      // refused even when the queue has room — throttling is a rate
      // verdict, not a load verdict, so a flooding tenant drains its
      // bucket and then cannot touch the queue at all.
      if (!TenantBucketLocked(request.tenant, now).TryAcquire(now)) {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.submitted;
        ++stats_.throttled;
        TenantServeStats& t = stats_.tenants[request.tenant];
        ++t.submitted;
        ++t.throttled;
        reject = TenantThrottled("tenant '" + request.tenant +
                                 "' over its admission rate");
      } else if (queue_.size() >= config_.max_queue) {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.submitted;
        ++stats_.rejected;
        TenantServeStats& t = stats_.tenants[request.tenant];
        ++t.submitted;
        ++t.rejected;
        reject = ResourceExhausted(
            "admission queue full (" + std::to_string(config_.max_queue) +
            " pending)");
      } else {
        QueueItem item;
        item.has_deadline = request.deadline_ms >= 0;
        if (item.has_deadline) {
          item.deadline = now + std::chrono::milliseconds(
                                    std::min(request.deadline_ms,
                                             kMaxDeadlineMs));
        }
        // EDF key: the real deadline, or the virtual one for deadline-free
        // requests (ordering only — the expiry sweeps never read it).
        item.edf_deadline =
            item.has_deadline
                ? item.deadline
                : now + std::chrono::milliseconds(
                            std::max<int64_t>(config_.default_deadline_ms, 1));
        item.seq = next_seq_++;
        item.request = std::move(request);
        item.done = std::move(done);
        item.enqueued = now;
        queue_.push_back(std::move(item));
        admitted = true;
      }
    }
  }
  // Rejection callbacks run inline, but never under queue_mu_ — a caller's
  // completion path may take its own locks or query Stats().
  if (!admitted) {
    ReplayResponse response;
    response.workload = request.workload;
    response.status = std::move(reject);
    done(std::move(response));
    FailExpired(std::move(expired), now);
    return;
  }
  FailExpired(std::move(expired), now);
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.submitted;
    ++stats_.tenants[tenant].submitted;
  }
  queue_cv_.notify_one();
}

std::vector<ReplayService::QueueItem> ReplayService::SweepExpiredLocked(
    SteadyPoint now) {
  std::vector<QueueItem> expired;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->has_deadline && now > it->deadline) {
      expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

void ReplayService::FailExpired(std::vector<QueueItem> expired,
                                SteadyPoint now) {
  if (expired.empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.expired += expired.size();
    stats_.expired_in_queue += expired.size();
    for (const QueueItem& item : expired) {
      ++stats_.tenants[item.request.tenant].expired;
    }
  }
  for (QueueItem& item : expired) {
    ReplayResponse response;
    response.workload = item.request.workload;
    response.queue_wait_ns = ElapsedNs(item.enqueued, now);
    response.status = Timeout(
        "deadline expired after " +
        std::to_string(item.request.deadline_ms) + " ms in the queue");
    item.done(std::move(response));
  }
}

TokenBucket& ReplayService::TenantBucketLocked(const std::string& tenant,
                                               SteadyPoint now) {
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    auto limit = config_.tenant_limits.find(tenant);
    TenantLimit chosen = limit != config_.tenant_limits.end()
                             ? limit->second
                             : config_.default_tenant_limit;
    it = buckets_.emplace(tenant, TokenBucket(chosen, now)).first;
  }
  return it->second;
}

obs::Histogram& ReplayService::TenantWaitHist(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenant_hist_mu_);
  auto it = tenant_wait_hists_.find(tenant);
  if (it == tenant_wait_hists_.end()) {
    it = tenant_wait_hists_
             .emplace(tenant, std::make_unique<obs::Histogram>())
             .first;
  }
  return *it->second;
}

ReplayResponse ReplayService::Submit(ReplayRequest request) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!started_ || stop_) {
      ReplayResponse response;
      response.workload = request.workload;
      response.status = FailedPrecondition(
          "synchronous Submit on a service with no running workers");
      return response;
    }
  }
  return SubmitAsync(std::move(request)).get();
}

Result<Sha256Digest> ReplayService::Preload(const std::string& workload) {
  GRT_ASSIGN_OR_RETURN(ResolvedPlan resolved, Resolve(workload));
  return resolved.digest;
}

Result<ReplayService::ResolvedPlan> ReplayService::Resolve(
    const std::string& workload) {
  GRT_TRACE_SPAN("resolve", "serve");
  // A binding is current while the store has not mutated since it was
  // written: Install and Remove are the only mutators and each bumps
  // version(), so the stored bytes are provably the ones hashed,
  // HMAC-checked and verified then. A current binding resolves without
  // touching recording bytes at all — no SHA-256 over the blob, no
  // parse-cache probe, and on a plan-cache miss no verifier run either.
  // Read before any store load, so a binding written across a concurrent
  // Install carries the older stamp and never passes for current.
  std::unique_lock<std::mutex> lock(cache_mu_);
  const uint64_t store_version = store_->version();
  auto bound = bindings_.find(workload);
  if (bound == bindings_.end() ||
      bound->second.store_version != store_version) {
    // The store moved (or this workload was never bound): stale bindings
    // prove nothing, and the recordings they hold would keep removed or
    // replaced bytes alive.
    std::erase_if(bindings_, [store_version](const auto& b) {
      return b.second.store_version != store_version;
    });
    lock.unlock();
    // Admission: one SHA-256 over the stored blob re-proves byte
    // integrity (the store's digest-checked parse cache skips the
    // re-parse), then the verifier runs, once per binding. Workers later
    // load with static_verify off — re-running eight analysis passes per
    // worker (or worse, per request) is exactly the per-replay waste this
    // engine exists to remove.
    Sha256Digest digest{};
    std::shared_ptr<const Recording> recording;
    {
      GRT_TRACE_SPAN("resolve.store_load", "serve");
      GRT_ASSIGN_OR_RETURN(
          recording, store_->LoadShared(workload, config_.sku, &digest));
    }
    lock.lock();
    auto cached = plans_.find(digest);
    if (cached != plans_.end()) {
      // Same bytes as a cached plan: verified when that plan compiled.
      recording = cached->second.recording;
    } else {
      if (config_.replay.static_verify) {
        GRT_TRACE_SPAN("resolve.verify", "serve");
        GRT_RETURN_IF_ERROR(VerifyRecording(*recording));
      }
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.admissions;
    }
    bound = bindings_
                .insert_or_assign(workload,
                                  WorkloadBinding{store_version, digest,
                                                  std::move(recording)})
                .first;
  }
  const WorkloadBinding& binding = bound->second;

  auto it = plans_.find(binding.digest);
  const bool cache_hit = it != plans_.end();
  if (cache_hit) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.plan_hits;
  } else {
    auto compiled =
        std::make_unique<ReplayPlan>(CompileReplayPlan(*binding.recording));
    // Superoptimize once per cached plan: every worker replayer then
    // picks up the fused warm schedule through the shared plan. A failed
    // provenance check refuses the plan outright; a declined build (the
    // recording has no fusable shape) serves the plain v1 plan.
    if (config_.fuse_plans) {
      auto sku = FindSku(config_.sku);
      if (sku.ok()) {
        std::string decline_reason;
        GRT_RETURN_IF_ERROR(
            AttachWarmProgram(compiled.get(), sku.value(), &decline_reason));
        std::lock_guard<std::mutex> slock(stats_mu_);
        if (compiled->warm != nullptr) {
          ++stats_.plans_fused;
        } else {
          ++stats_.fuse_declined;
        }
      }
    }

    while (plans_.size() >= config_.max_plans) {
      Sha256Digest victim = lru_.back();
      lru_.pop_back();
      plans_.erase(victim);
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.plan_evictions;
    }
    PlanEntry entry;
    entry.recording = binding.recording;
    entry.plan = std::move(compiled);
    entry.generation = next_generation_++;
    lru_.push_front(binding.digest);
    entry.lru_pos = lru_.begin();
    it = plans_.emplace(binding.digest, std::move(entry)).first;
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.plan_misses;
  }

  ResolvedPlan resolved;
  resolved.digest = binding.digest;
  resolved.recording = it->second.recording;
  resolved.plan = it->second.plan;
  resolved.footprint = std::shared_ptr<const ResourceFootprint>(
      resolved.recording, &resolved.recording->header.footprint);
  resolved.generation = it->second.generation;
  resolved.cache_hit = cache_hit;
  return resolved;
}

void ReplayService::WorkerLoop(int index) {
  for (;;) {
    std::vector<QueueItem> batch;
    std::vector<QueueItem> expired;
    SteadyPoint now;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        // Remaining queued items are failed by Stop() after the join —
        // a stopping service does not run stale work.
        return;
      }
      batch = PopBatchLocked();
      // Pop-side sweep: everything left in the queue that is already dead
      // rejects now, not one pop at a time.
      now = std::chrono::steady_clock::now();
      expired = SweepExpiredLocked(now);
      if (batch.size() > 1) {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.batches;
        stats_.batched_requests += batch.size() - 1;
      }
    }
    FailExpired(std::move(expired), now);
    ServeBatch(index, std::move(batch));
  }
}

std::vector<ReplayService::QueueItem> ReplayService::PopBatchLocked() {
  // EDF: pop the earliest effective deadline; among equals, the oldest
  // admission (seq). O(depth) scan per pop — depth is bounded by
  // max_queue and a scan over a few hundred items is noise next to a
  // replay.
  auto best = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    if (it->edf_deadline < best->edf_deadline ||
        (it->edf_deadline == best->edf_deadline && it->seq < best->seq)) {
      best = it;
    }
  }
  std::vector<QueueItem> batch;
  batch.reserve(1);
  batch.push_back(std::move(*best));
  queue_.erase(best);
  // Same-digest batching: pull queued requests for the same workload (in
  // admission order) behind the EDF winner, so they share its placement,
  // engine residency, and device hold. Followers jump ahead of
  // earlier-deadline requests for other workloads — the classic batching
  // latency/throughput trade, bounded by max_batch; each follower's own
  // deadline is still checked at dequeue.
  if (config_.max_batch > 1 && !queue_.empty()) {
    // By value: the push_backs below can reallocate `batch` and would
    // invalidate a reference into its front element.
    const std::string workload = batch.front().request.workload;
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < config_.max_batch;) {
      if (it->request.workload == workload) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return batch;
}

void ReplayService::ServeBatch(int index, std::vector<QueueItem> batch) {
  SteadyPoint dequeued = std::chrono::steady_clock::now();
  std::vector<BatchMember> members(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    BatchMember& m = members[i];
    m.item = std::move(batch[i]);
    m.response.workload = m.item.request.workload;
    m.response.worker = index;
    m.response.queue_wait_ns = ElapsedNs(m.item.enqueued, dequeued);
    uint64_t wait =
        static_cast<uint64_t>(std::max<int64_t>(m.response.queue_wait_ns, 0));
    queue_wait_hist_.Record(wait);
    TenantWaitHist(m.item.request.tenant).Record(wait);
  }

  // At-dequeue expiry, per member: an expired member dissolves out of the
  // batch here (its tenant eats the expiry), the rest still serve.
  for (BatchMember& m : members) {
    if (m.item.has_deadline && dequeued > m.item.deadline) {
      m.response.status = Timeout(
          "deadline expired after " +
          std::to_string(m.item.request.deadline_ms) + " ms in the queue");
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.expired;
        ++stats_.expired_at_dequeue;
        ++stats_.tenants[m.item.request.tenant].expired;
      }
      m.finished = true;
      m.item.done(std::move(m.response));
    }
  }

  std::vector<BatchMember*> live;
  live.reserve(members.size());
  for (BatchMember& m : members) {
    if (!m.finished) {
      live.push_back(&m);
    }
  }
  if (live.empty()) {
    return;
  }
  for (BatchMember* m : live) {
    m->response.batch_size = live.size();
  }

#if !defined(GRT_OBS_COMPILED_OUT)
  // Backfill each member's queue wait as its own trace span (ends where
  // the request span starts), so a trace shows admission latency per
  // request. Queue waits of different requests overlap arbitrarily
  // (request B queues while A is served), so each gets its own lane — a
  // dedicated tid well above any real thread id — keeping every per-tid
  // timeline properly nested.
  {
    obs::TraceCollector& collector = obs::TraceCollector::Global();
    if (collector.active()) {
      constexpr uint32_t kQueueLaneBase = 1u << 20;
      static std::atomic<uint32_t> queue_lane{0};
      int64_t now_ns = collector.NowNs();
      for (BatchMember* m : live) {
        obs::TraceEvent queue_event;
        queue_event.name = "queue";
        queue_event.cat = "serve";
        queue_event.dur_ns = std::max<int64_t>(m->response.queue_wait_ns, 0);
        queue_event.ts_ns = std::max<int64_t>(now_ns - queue_event.dur_ns, 0);
        queue_event.tid = kQueueLaneBase +
                          queue_lane.fetch_add(1, std::memory_order_relaxed);
        collector.Record(std::move(queue_event));
      }
    }
  }
#endif

  Status shared;
  {
    GRT_TRACE_SPAN("request", "serve");
    shared = RunBatch(index, live, dequeued);
  }
  // A batch-wide error (resolve/placement infrastructure, before any
  // member replayed) lands on every member still unfinished.
  for (BatchMember* m : live) {
    if (!m->finished) {
      if (!shared.ok()) {
        m->response.status = shared;
      }
      FinishMember(m, dequeued);
    }
  }
}

void ReplayService::FinishMember(BatchMember* member, SteadyPoint dequeued) {
  member->response.service_ns =
      ElapsedNs(dequeued, std::chrono::steady_clock::now());
  service_hist_.Record(static_cast<uint64_t>(
      std::max<int64_t>(member->response.service_ns, 0)));
  RecordOutcome(member->response, member->item.request.tenant);
  member->finished = true;
  member->item.done(std::move(member->response));
}

ReplayService::Placement ReplayService::PlaceRequest(
    int worker_index, const Sha256Digest& digest,
    const std::shared_ptr<const ResourceFootprint>& fp, uint64_t generation,
    int pinned) {
  size_t conflict_evictions = 0;
  size_t spillovers = 0;
  Placement placement;
  Interference worst_verdict = Interference::kDisjoint;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    const int devices = static_cast<int>(pool_.size());
    const int affinity = worker_index % devices;

    auto verdict = [&](const ResidentInfo& info) {
      if (fp == nullptr || info.footprint == nullptr) {
        return Interference::kConflicting;
      }
      // Serializable co-residency is sound only behind the per-replay
      // reset fence; with scrub_before off it degrades to conflicting.
      return AdmissionInterference(*fp, *info.footprint,
                                   config_.replay.scrub_before);
    };
    // Worst interference verdict of this plan against a device's admitted
    // residents (itself excluded). kDisjoint on an empty device.
    auto worst = [&](int d) {
      Interference w = Interference::kDisjoint;
      for (const auto& [resident, info] : residents_[d]) {
        if (resident == digest) {
          continue;
        }
        w = std::max(w, verdict(info));
      }
      return w;
    };
    // Evicts every conflicting resident from device d's shadow (the
    // reset-fence path: their next replay runs cold).
    auto evict_conflicts = [&](int d) {
      for (auto it = residents_[d].begin(); it != residents_[d].end();) {
        if (it->first != digest &&
            verdict(it->second) == Interference::kConflicting) {
          ++conflict_evictions;
          it = residents_[d].erase(it);
        } else {
          ++it;
        }
      }
    };

    int chosen = -1;
    if (pinned >= 0) {
      // The caller holds this device's mutex and lost the optimistic
      // placement race too often: force the placement here.
      chosen = pinned;
      evict_conflicts(chosen);
    } else {
      // Affinity first: a worker's requests stay on "its" device whenever
      // the verdicts allow, which keeps devices == workers byte-identical
      // to the pre-pool one-device-per-worker layout. Then a device
      // already hosting this plan (warm engine), then any device the plan
      // can join without a conflict, and only as a last resort evict
      // conflicting residents from the affinity device (the reset-fence
      // path: their next replay runs cold).
      if (residents_[affinity].count(digest) != 0 ||
          worst(affinity) != Interference::kConflicting) {
        chosen = affinity;
      }
      for (int d = 0; d < devices && chosen < 0; ++d) {
        if (residents_[d].count(digest) != 0) {
          chosen = d;
          ++spillovers;
        }
      }
      for (int d = 0; d < devices && chosen < 0; ++d) {
        if (worst(d) != Interference::kConflicting) {
          chosen = d;
          ++spillovers;
        }
      }
      if (chosen < 0) {
        chosen = affinity;
        evict_conflicts(chosen);
      }
    }

    worst_verdict = worst(chosen);
    placement.device = chosen;
    for (const auto& [resident, info] : residents_[chosen]) {
      if (resident != digest) {
        placement.coresident = true;
        break;
      }
    }
    residents_[chosen][digest] = ResidentInfo{fp, generation};
    if (pinned >= 0) {
      // The engine sync RunRequest otherwise performs after re-acquiring
      // pool_mu_ happens here, in the same critical section as the
      // placement — with the device mutex already held, no concurrent
      // eviction can invalidate this placement before the replay runs.
      PooledDevice& dev = *pool_[chosen];
      for (auto it = dev.engines.begin(); it != dev.engines.end();) {
        if (residents_[chosen].count(it->first) == 0) {
          it = dev.engines.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.conflict_evictions += conflict_evictions;
    stats_.pool_spillovers += spillovers;
    if (placement.coresident) {
      ++stats_.coresident_placements;
      if (worst_verdict == Interference::kSerializable) {
        ++stats_.serializable_placements;
      }
    }
  }
  return placement;
}

Status ReplayService::RunBatch(int index, std::vector<BatchMember*>& batch,
                               SteadyPoint dequeued) {
  // One Resolve serves the whole batch: members share a workload by
  // construction (PopBatchLocked), so they share the digest, plan, and
  // footprint — that sharing is what batching amortizes.
  GRT_ASSIGN_OR_RETURN(ResolvedPlan resolved,
                       Resolve(batch.front()->item.request.workload));
  for (BatchMember* m : batch) {
    // Only the leader looked the plan up; a follower reuses the leader's
    // resolve, so for it the plan was already compiled (a hit).
    m->response.plan_cache_hit = resolved.cache_hit || m != batch.front();
    m->response.digest = resolved.digest;
    const ReplayRequest& request = m->item.request;
    if (!DigestIsZero(request.pinned_digest) &&
        request.pinned_digest != resolved.digest) {
      // The client pinned exact recording bytes; serving anything else —
      // even a byte-identical model under a different signature — would
      // let it discover the substitution only after acting on the output.
      // The check runs here, not at frontend admission, so the expensive
      // cold Resolve (hash + parse + verify + compile) never stalls the
      // epoll loop thread. Per member: one mispinned request must not
      // take down the batchmates it rode in with.
      m->response.status = DigestMismatch(
          "pinned digest does not match the recording bound to '" +
          request.workload + "'");
    }
  }

  // Placement and device acquisition cannot share one critical section (a
  // placement must not wait behind a long replay holding the device
  // mutex), so between PlaceRequest dropping pool_mu_ and this worker
  // taking dev.mu, a concurrent conflicting placement may evict this
  // digest from the device's shadow again. Running anyway would put this
  // replay's writes behind a co-resident engine's dirty-page tracker —
  // exactly the interference the verdicts rule out. So: re-validate
  // residency under both locks, redo placement if evicted, and after a
  // few lost races pin the placement (PlaceRequest then runs with the
  // device mutex already held, making placement + engine sync atomic).
  constexpr int kPlacementRetries = 3;
  Placement placement;
  std::unique_lock<std::mutex> dlock;
  size_t retries = 0;
  for (int attempt = 0;; ++attempt) {
    if (attempt >= kPlacementRetries) {
      const int pin = index % static_cast<int>(pool_.size());
      dlock = std::unique_lock<std::mutex>(pool_[pin]->mu);
      placement = PlaceRequest(index, resolved.digest, resolved.footprint,
                               resolved.generation, pin);
      break;
    }
    placement = PlaceRequest(index, resolved.digest, resolved.footprint,
                             resolved.generation);
    PooledDevice& candidate = *pool_[placement.device];
    // Whole replays on one device are serialized; workers sharing a
    // device queue here.
    dlock = std::unique_lock<std::mutex>(candidate.mu);
    std::lock_guard<std::mutex> plock(pool_mu_);
    const auto& shadow = residents_[placement.device];
    if (shadow.count(resolved.digest) == 0) {
      // Lost the race: placed, then evicted by a conflicting placement
      // before the device was ours. Never run a plan the shadow no
      // longer admits.
      ++retries;
      dlock.unlock();
      continue;
    }
    // Sync resident engines to the pool's shadow: an engine whose plan
    // was evicted from the shadow (conflict) must not survive with stale
    // dirty-page state — dropping it forces the reset-fenced cold reload.
    for (auto it = candidate.engines.begin();
         it != candidate.engines.end();) {
      if (shadow.count(it->first) == 0) {
        it = candidate.engines.erase(it);
      } else {
        ++it;
      }
    }
    break;
  }
  if (retries > 0) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.placement_retries += retries;
  }
  for (BatchMember* m : batch) {
    m->response.device = placement.device;
    m->response.coresident = placement.coresident;
  }
  // dlock keeps this device ours for the rest of the batch: members
  // replay back-to-back with no interleaved foreign replay, so every
  // follower after the first hits the dirty-page warm path exactly as if
  // it were the only traffic on the device.
  PooledDevice& dev = *pool_[placement.device];

  DeviceEngine& engine = dev.engines[resolved.digest];
  if (engine.replayer == nullptr || engine.generation != resolved.generation) {
    // First touch of this plan on this device (or the cached plan was
    // evicted and recompiled since): build a resident replayer. Admission
    // already verified the recording; workers must not pay it again.
    ReplayConfig rconfig = config_.replay;
    rconfig.static_verify = false;
    auto replayer = std::make_unique<Replayer>(
        &dev.device->gpu(), &dev.device->tzasc(), &dev.device->mem(),
        &dev.device->timeline(), rconfig);
    GRT_RETURN_IF_ERROR(replayer->LoadShared(
        resolved.recording,
        config_.replay.use_plan ? resolved.plan : nullptr));
    engine.replayer = std::move(replayer);
    engine.generation = resolved.generation;
  }
  engine.last_used = ++dev.use_counter;

  // Bound resident engines per device at the cache capacity: an engine
  // whose plan left the global cache is dead weight on the device.
  std::vector<Sha256Digest> trimmed;
  while (dev.engines.size() > config_.max_plans) {
    auto oldest = dev.engines.end();
    for (auto it = dev.engines.begin(); it != dev.engines.end(); ++it) {
      if (oldest == dev.engines.end() ||
          it->second.last_used < oldest->second.last_used) {
        oldest = it;
      }
    }
    if (oldest->second.last_used == dev.use_counter) {
      break;  // never evict the engine serving this request
    }
    trimmed.push_back(oldest->first);
    dev.engines.erase(oldest);
  }
  if (!trimmed.empty()) {
    // Trimmed engines leave the shadow too, or their slots would block
    // future placements forever.
    std::lock_guard<std::mutex> plock(pool_mu_);
    for (const Sha256Digest& digest : trimmed) {
      residents_[placement.device].erase(digest);
    }
  }

  // Per-member serve: stage this member's tensors (overwriting the
  // previous member's staging in place — same plan, same bindings, the
  // exact sequence consecutive unbatched same-plan requests would run on
  // this device, which is why batched outputs are bitwise identical to
  // unbatched ones), replay, read back. A member's failure finishes only
  // that member; its batchmates still serve.
  auto serve_member = [&](BatchMember* m) -> Status {
    const ReplayRequest& request = m->item.request;
    ReplayResponse* response = &m->response;
    {
      GRT_TRACE_SPAN("stage_input", "serve");
      for (const auto& [name, data] : request.tensors) {
        GRT_RETURN_IF_ERROR(engine.replayer->StageTensor(name, data));
      }
    }
    {
      GRT_TRACE_SPAN("replay", "serve");
      GRT_ASSIGN_OR_RETURN(response->report, engine.replayer->Replay());
    }
    if (!request.output_tensor.empty()) {
      GRT_TRACE_SPAN("readback", "serve");
      // Size the response buffer once and let the replayer copy the
      // tensor into it through the plan's patch-table chunks — no
      // intermediate vector per request.
      auto bit = resolved.recording->bindings.find(request.output_tensor);
      if (bit == resolved.recording->bindings.end()) {
        return NotFound("no tensor binding '" + request.output_tensor + "'");
      }
      response->output.resize(bit->second.n_floats);
      GRT_RETURN_IF_ERROR(engine.replayer->ReadTensorInto(
          request.output_tensor, response->output.data(),
          response->output.size()));
    }
    return OkStatus();
  };
  for (BatchMember* m : batch) {
    if (m->response.status.ok()) {
      m->response.status = serve_member(m);
    }
    // Finish each member as its replay lands (batchmates later in the
    // pop order are still pending; their callbacks must not wait on a
    // member that already has its answer).
    FinishMember(m, dequeued);
  }
  return OkStatus();
}

void ReplayService::RecordOutcome(const ReplayResponse& response,
                                  const std::string& tenant) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!response.status.ok()) {
    ++stats_.failed;
    ++stats_.tenants[tenant].failed;
    return;
  }
  ++stats_.completed;
  ++stats_.tenants[tenant].completed;
  const ReplayReport& report = response.report;
  stats_.pages_applied += report.pages_applied;
  stats_.pages_skipped_clean += report.pages_skipped_clean;
  stats_.mem_bytes_applied += report.mem_bytes_applied;
  if (report.warm) {
    ++stats_.warm_replays;
    stats_.warm_pages_applied += report.pages_applied;
    stats_.warm_pages_skipped += report.pages_skipped_clean;
  }
  if (report.warm_program_used) {
    ++stats_.fused_replays;
  }
  replay_delay_hist_.Record(
      static_cast<uint64_t>(std::max<Duration>(report.delay, 0)));
}

ServeStats ReplayService::Stats() const {
  ServeStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  // Nearest-rank percentiles from the bounded histogram: exact for tiny
  // samples (the old sorted-vector index math returned the wrong rank for
  // p50 on even sizes and overran intent on p95), bounded memory always.
  obs::HistogramSnapshot delays = replay_delay_hist_.Snapshot();
  if (delays.count > 0) {
    out.replay_delay_p50 = static_cast<Duration>(delays.Percentile(50));
    out.replay_delay_p95 = static_cast<Duration>(delays.Percentile(95));
    out.replay_delay_p99 = static_cast<Duration>(delays.Percentile(99));
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    out.queue_depth = queue_.size();
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    out.plans_cached = plans_.size();
  }
  out.pool_devices = pool_.size();
  return out;
}

obs::MetricsSnapshot ReplayService::SnapshotMetrics() const {
  // Start from whatever the global registry collected (shim.*, net.*,
  // replay.* when obs is enabled), then overlay the service's own
  // always-on accounting so serve.* is accurate even with obs disabled.
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  ServeStats s = Stats();
  snap.counters["serve.submitted"] = s.submitted;
  snap.counters["serve.completed"] = s.completed;
  snap.counters["serve.failed"] = s.failed;
  snap.counters["serve.rejected"] = s.rejected;
  snap.counters["serve.expired"] = s.expired;
  snap.counters["serve.expired_in_queue"] = s.expired_in_queue;
  snap.counters["serve.expired_at_dequeue"] = s.expired_at_dequeue;
  snap.counters["serve.throttled"] = s.throttled;
  snap.counters["serve.batches"] = s.batches;
  snap.counters["serve.batched_requests"] = s.batched_requests;
  snap.counters["serve.plan_hits"] = s.plan_hits;
  snap.counters["serve.plan_misses"] = s.plan_misses;
  snap.counters["serve.plan_evictions"] = s.plan_evictions;
  snap.counters["serve.admissions"] = s.admissions;
  snap.counters["serve.warm_replays"] = s.warm_replays;
  snap.counters["serve.coresident_placements"] = s.coresident_placements;
  snap.counters["serve.serializable_placements"] = s.serializable_placements;
  snap.counters["serve.conflict_evictions"] = s.conflict_evictions;
  snap.counters["serve.pool_spillovers"] = s.pool_spillovers;
  snap.counters["serve.placement_retries"] = s.placement_retries;
  snap.counters["serve.pages_applied"] = s.pages_applied;
  snap.counters["serve.pages_skipped_clean"] = s.pages_skipped_clean;
  snap.counters["serve.mem_bytes_applied"] = s.mem_bytes_applied;
  snap.gauges["serve.queue_depth"] = static_cast<int64_t>(s.queue_depth);
  snap.gauges["serve.plans_cached"] = static_cast<int64_t>(s.plans_cached);
  snap.gauges["serve.pool_devices"] = static_cast<int64_t>(s.pool_devices);
  snap.histograms["serve.queue_wait_ns"] = queue_wait_hist_.Snapshot();
  snap.histograms["serve.service_ns"] = service_hist_.Snapshot();
  snap.histograms["serve.replay_delay_ns"] = replay_delay_hist_.Snapshot();
  // Per-tenant overlays, keyed "serve.tenant.<id>.*" (the default tenant
  // "" publishes as "default" so the key stays parseable).
  for (const auto& [tenant, t] : s.tenants) {
    std::string prefix =
        "serve.tenant." + (tenant.empty() ? std::string("default") : tenant);
    snap.counters[prefix + ".submitted"] = t.submitted;
    snap.counters[prefix + ".completed"] = t.completed;
    snap.counters[prefix + ".failed"] = t.failed;
    snap.counters[prefix + ".rejected"] = t.rejected;
    snap.counters[prefix + ".expired"] = t.expired;
    snap.counters[prefix + ".throttled"] = t.throttled;
  }
  {
    std::lock_guard<std::mutex> lock(tenant_hist_mu_);
    for (const auto& [tenant, hist] : tenant_wait_hists_) {
      std::string prefix =
          "serve.tenant." + (tenant.empty() ? std::string("default") : tenant);
      snap.histograms[prefix + ".queue_wait_ns"] = hist->Snapshot();
    }
  }
  return snap;
}

}  // namespace grt
