// ReplayService tests: correctness of served outputs, concurrency
// (multiple workers, concurrent submitters, eviction racing in-flight
// replays), admission control (queue bound, deadlines), and lifecycle.
// This suite is the TSan target in CI (scripts/ci.sh) — the service is
// the first genuinely multi-threaded subsystem in the repo.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "src/harness/experiment.h"
#include "src/ml/reference.h"
#include "src/serve/service.h"

namespace grt {
namespace {

constexpr SkuId kSku = SkuId::kMaliG71Mp8;
constexpr uint64_t kNondetSeed = 11;

// Recording once per suite: every test serves the same signed MNIST
// artifact (and a renamed twin for multi-plan scenarios).
class ReplayServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new NetworkDef(BuildMnist());
    ClientDevice device(kSku, kNondetSeed);
    SpeculationHistory history;
    auto m = RunRecordVariant(&device, *net_, "OursMDS", WifiConditions(),
                              &history, 0);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    key_ = new Bytes(m->session_key);
    signed_ = new Bytes(m->signed_recording);
    // A second distinct workload identity with identical content. Digest
    // differs, so it occupies its own plan slot.
    signed_b_ = new Bytes(Resigned("mnist-b", 0));
  }

  // The suite's recording parsed, renamed to `workload`, its record nonce
  // raised by `nonce_bump`, and re-signed: same content, new stored bytes.
  static Bytes Resigned(const std::string& workload, uint64_t nonce_bump) {
    auto rec = Recording::ParseSigned(*signed_, *key_);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    rec->header.workload = workload;
    rec->header.record_nonce += nonce_bump;
    return rec->SerializeSigned(*key_);
  }

  static void TearDownTestSuite() {
    delete net_;
    delete key_;
    delete signed_;
    delete signed_b_;
    net_ = nullptr;
    key_ = nullptr;
    signed_ = nullptr;
    signed_b_ = nullptr;
  }

  void SetUp() override {
    store_ = std::make_unique<RecordingStore>(*key_);
    ASSERT_TRUE(store_->Install(*signed_).ok());
    ASSERT_TRUE(store_->Install(*signed_b_).ok());
  }

  ReplayRequest MakeRequest(const std::string& workload,
                            uint64_t input_seed) {
    ReplayRequest request;
    request.workload = workload;
    request.tensors[net_->input_tensor] = GenerateInput(*net_, input_seed);
    for (const TensorDef& t : net_->tensors) {
      if (t.kind == TensorKind::kParam) {
        request.tensors[t.name] = GenerateParams(net_->name, t, 7);
      }
    }
    request.output_tensor = net_->output_tensor;
    return request;
  }

  std::vector<float> Reference(uint64_t input_seed) {
    auto ref = RunReference(*net_, GenerateInput(*net_, input_seed), 7);
    EXPECT_TRUE(ref.ok());
    return *ref;
  }

  static NetworkDef* net_;
  static Bytes* key_;
  static Bytes* signed_;
  static Bytes* signed_b_;
  std::unique_ptr<RecordingStore> store_;
};

NetworkDef* ReplayServiceTest::net_ = nullptr;
Bytes* ReplayServiceTest::key_ = nullptr;
Bytes* ReplayServiceTest::signed_ = nullptr;
Bytes* ReplayServiceTest::signed_b_ = nullptr;

TEST_F(ReplayServiceTest, ServesCorrectOutputAndWarmsUp) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  ReplayResponse first = service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_TRUE(first.report.plan_used);
  EXPECT_FALSE(first.report.warm);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_LE(MaxAbsDiff(first.output, Reference(42)), 1e-4f);

  // Same input again: warm path, bitwise-identical answer, most image
  // pages skipped clean.
  ReplayResponse second = service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.report.warm);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_GT(second.report.pages_skipped_clean, 0u);
  EXPECT_LT(second.report.mem_bytes_applied, first.report.mem_bytes_applied);
  ASSERT_EQ(second.output.size(), first.output.size());
  EXPECT_EQ(std::memcmp(second.output.data(), first.output.data(),
                        first.output.size() * sizeof(float)),
            0);

  // New input on the warm plan still answers correctly.
  ReplayResponse third = service.Submit(MakeRequest("mnist", 43));
  ASSERT_TRUE(third.status.ok()) << third.status.ToString();
  EXPECT_TRUE(third.report.warm);
  EXPECT_LE(MaxAbsDiff(third.output, Reference(43)), 1e-4f);

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 2u);
  EXPECT_EQ(stats.warm_replays, 2u);
  EXPECT_GT(stats.replay_delay_p50, 0);
  EXPECT_GE(stats.replay_delay_p95, stats.replay_delay_p50);
  EXPECT_GE(stats.dirty_page_ratio(), 0.0);
  EXPECT_LE(stats.dirty_page_ratio(), 1.0);
}

TEST_F(ReplayServiceTest, ConcurrentSubmittersOnMultipleWorkers) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 2;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::vector<float> want42 = Reference(42);
  std::vector<float> want43 = Reference(43);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        uint64_t seed = (c + i) % 2 == 0 ? 42 : 43;
        ReplayResponse response = service.Submit(MakeRequest("mnist", seed));
        const std::vector<float>& want = seed == 42 ? want42 : want43;
        if (!response.status.ok() ||
            MaxAbsDiff(response.output, want) > 1e-4f) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, static_cast<size_t>(kClients * kPerClient));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(ReplayServiceTest, EvictionDuringConcurrentRepliesIsSafe) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 2;
  config.max_plans = 1;  // every alternation evicts the other plan
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  std::vector<std::future<ReplayResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(service.SubmitAsync(
        MakeRequest(i % 2 == 0 ? "mnist" : "mnist-b", 42)));
  }
  std::vector<float> want = Reference(42);
  for (auto& f : futures) {
    ReplayResponse response = f.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_LE(MaxAbsDiff(response.output, want), 1e-4f);
  }
  ServeStats stats = service.Stats();
  EXPECT_GT(stats.plan_evictions, 0u);
  EXPECT_LE(stats.plans_cached, 1u);
  EXPECT_EQ(stats.completed, 10u);
}

TEST_F(ReplayServiceTest, PlansCachedStaysConsistentAcrossEvictions) {
  // Regression: stats_.plans_cached was refreshed only on the insert
  // (miss) path, so a reader between an eviction and the next insert saw
  // a stale residency count. Every cache mutation now refreshes it, and
  // the published gauge agrees with Stats() exactly.
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_plans = 1;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  ReplayResponse first = service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(service.Stats().plans_cached, 1u);

  // mnist-b evicts mnist (max_plans = 1): residency is exactly 1, both
  // through Stats() and through the metrics gauge.
  ReplayResponse second = service.Submit(MakeRequest("mnist-b", 42));
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.plan_evictions, 1u);
  EXPECT_EQ(stats.plans_cached, 1u);
  obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.gauge("serve.plans_cached"), 1);
}

TEST_F(ReplayServiceTest, ChurnAdmitsEachDigestOnce) {
  // Three digests cycled through a one-plan cache: every request misses,
  // recompiles and replays cold, but each recording is hashed and
  // verified only on its first resolve. Later misses compile from the
  // recording their binding admitted, and serve the same bytes.
  ASSERT_TRUE(store_->Install(Resigned("mnist-c", 0)).ok());
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_plans = 1;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  const std::vector<std::string> workloads = {"mnist", "mnist-b", "mnist-c"};
  std::vector<std::vector<float>> first_round;
  for (int round = 0; round < 4; ++round) {
    for (size_t k = 0; k < workloads.size(); ++k) {
      ReplayResponse response =
          service.Submit(MakeRequest(workloads[k], 42 + k));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_FALSE(response.plan_cache_hit);
      if (round == 0) {
        EXPECT_LE(MaxAbsDiff(response.output, Reference(42 + k)), 1e-4f);
        first_round.push_back(std::move(response.output));
        continue;
      }
      ASSERT_EQ(response.output.size(), first_round[k].size());
      EXPECT_EQ(std::memcmp(response.output.data(), first_round[k].data(),
                            first_round[k].size() * sizeof(float)),
                0)
          << workloads[k] << " round " << round;
    }
  }
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.plan_misses, 12u);
  EXPECT_EQ(stats.plan_hits, 0u);
  EXPECT_EQ(stats.admissions, 3u);
}

TEST_F(ReplayServiceTest, NewerInstallIsReadmitted) {
  // A store mutation makes the next resolve re-admit: the binding of an
  // evicted plan must not compile the recording it held before a newer
  // one was installed under the same name.
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_plans = 1;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Submit(MakeRequest("mnist", 42)).status.ok());
  // mnist-b evicts mnist's plan; mnist stays bound.
  ASSERT_TRUE(service.Submit(MakeRequest("mnist-b", 42)).status.ok());
  ASSERT_EQ(service.Stats().admissions, 2u);

  Bytes newer = Resigned("mnist", 1);
  ASSERT_TRUE(store_->Install(newer).ok());
  ReplayResponse response = service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.plan_cache_hit);
  EXPECT_EQ(response.digest, Sha256::Hash(newer));
  EXPECT_NE(response.digest, Sha256::Hash(*signed_));
  EXPECT_LE(MaxAbsDiff(response.output, Reference(42)), 1e-4f);
  EXPECT_EQ(service.Stats().admissions, 3u);
}

TEST_F(ReplayServiceTest, RemovedWorkloadIsNotServedFromItsBinding) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_plans = 1;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Submit(MakeRequest("mnist", 42)).status.ok());
  // mnist-b evicts mnist's plan; mnist stays bound.
  ASSERT_TRUE(service.Submit(MakeRequest("mnist-b", 42)).status.ok());

  ASSERT_TRUE(store_->Remove("mnist", kSku).ok());
  ReplayResponse removed = service.Submit(MakeRequest("mnist", 42));
  EXPECT_EQ(removed.status.code(), StatusCode::kNotFound)
      << removed.status.ToString();
  EXPECT_TRUE(removed.output.empty());

  // mnist-b's bytes are unchanged and its plan is still cached: it
  // re-binds through the store (one hash) without a second verification.
  ReplayResponse kept = service.Submit(MakeRequest("mnist-b", 42));
  ASSERT_TRUE(kept.status.ok()) << kept.status.ToString();
  EXPECT_TRUE(kept.plan_cache_hit);
  EXPECT_EQ(service.Stats().admissions, 2u);
}

TEST_F(ReplayServiceTest, InstallsRacingChurnServeOnlyCurrentBytes) {
  // Two workers churn two digests through a one-plan cache while newer
  // mnist-b recordings are installed: resolves race store mutations.
  // Every request must serve, and once the installs stop the next
  // mnist-b request must serve the last installed bytes.
  ServeConfig config;
  config.sku = kSku;
  config.workers = 2;
  config.max_plans = 1;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kInstalls = 3;
  std::vector<std::future<ReplayResponse>> futures;
  Bytes last;
  for (int i = 0; i < 8 * kInstalls; ++i) {
    futures.push_back(service.SubmitAsync(
        MakeRequest(i % 2 == 0 ? "mnist" : "mnist-b", 42)));
    if (i % 8 == 7) {
      last = Resigned("mnist-b", static_cast<uint64_t>(i / 8 + 1));
      ASSERT_TRUE(store_->Install(last).ok());
    }
  }
  std::vector<float> want = Reference(42);
  for (auto& f : futures) {
    ReplayResponse response = f.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_LE(MaxAbsDiff(response.output, want), 1e-4f);
  }
  ReplayResponse after = service.Submit(MakeRequest("mnist-b", 42));
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.digest, Sha256::Hash(last));
}

TEST_F(ReplayServiceTest, DeadlineExpiresWhileQueued) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  ReplayService service(store_.get(), config);

  // Enqueue before Start: the deadline clock runs while nothing serves.
  ReplayRequest doomed = MakeRequest("mnist", 42);
  doomed.deadline_ms = 0;
  std::future<ReplayResponse> doomed_future =
      service.SubmitAsync(std::move(doomed));
  ReplayRequest patient = MakeRequest("mnist", 42);
  patient.deadline_ms = 60'000;
  std::future<ReplayResponse> patient_future =
      service.SubmitAsync(std::move(patient));

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(service.Start().ok());

  ReplayResponse expired = doomed_future.get();
  EXPECT_EQ(expired.status.code(), StatusCode::kTimeout)
      << expired.status.ToString();
  EXPECT_TRUE(expired.output.empty());

  ReplayResponse served = patient_future.get();
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(ReplayServiceTest, ExpiredAtDequeueIsCountedSeparately) {
  // A lone doomed request sits at the queue head with nothing to trigger
  // an admission sweep, so the worker that pops it is the first to notice
  // the miss: expired_at_dequeue, not expired_in_queue.
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  ReplayService service(store_.get(), config);

  ReplayRequest doomed = MakeRequest("mnist", 42);
  doomed.deadline_ms = 0;
  std::future<ReplayResponse> future = service.SubmitAsync(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(future.get().status.code(), StatusCode::kTimeout);

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.expired_at_dequeue, 1u);
  EXPECT_EQ(stats.expired_in_queue, 0u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST_F(ReplayServiceTest, ExpiredRequestIsSweptAtAdmission) {
  // Before the sweep existed, a deadline was only checked when a worker
  // finally dequeued the request — an expired entry occupied queue
  // capacity the whole time and its client waited for a worker to notice.
  // Now the next submission sweeps it out, before the service even starts.
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  ReplayService service(store_.get(), config);

  ReplayRequest doomed = MakeRequest("mnist", 42);
  doomed.deadline_ms = 0;
  std::future<ReplayResponse> doomed_future =
      service.SubmitAsync(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  ReplayRequest patient = MakeRequest("mnist", 42);
  patient.deadline_ms = 60'000;
  std::future<ReplayResponse> patient_future =
      service.SubmitAsync(std::move(patient));

  // The admission sweep already failed the doomed request — its future is
  // ready with no worker ever having run.
  EXPECT_EQ(doomed_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(doomed_future.get().status.code(), StatusCode::kTimeout);
  {
    ServeStats stats = service.Stats();
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.expired_in_queue, 1u);
    EXPECT_EQ(stats.expired_at_dequeue, 0u);
    EXPECT_EQ(stats.queue_depth, 1u);  // only the patient request remains
  }

  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(patient_future.get().status.ok());
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.expired, 1u);
}

TEST_F(ReplayServiceTest, StatsPercentilesComeFromBoundedHistogram) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    ReplayResponse response = service.Submit(MakeRequest("mnist", 42 + i));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, static_cast<size_t>(kRequests));
  // Ordered, positive, and within the observed delay range (nearest-rank
  // on a log-linear histogram clamps to [min, max]).
  EXPECT_GT(stats.replay_delay_p50, 0);
  EXPECT_GE(stats.replay_delay_p95, stats.replay_delay_p50);
  EXPECT_GE(stats.replay_delay_p99, stats.replay_delay_p95);

  // The histogram view in SnapshotMetrics agrees with Stats().
  obs::MetricsSnapshot snap = service.SnapshotMetrics();
  const obs::HistogramSnapshot* delays = snap.histogram("serve.replay_delay_ns");
  ASSERT_NE(delays, nullptr);
  EXPECT_EQ(delays->count, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(static_cast<Duration>(delays->Percentile(50)),
            stats.replay_delay_p50);
  EXPECT_EQ(static_cast<Duration>(delays->Percentile(99)),
            stats.replay_delay_p99);
}

TEST_F(ReplayServiceTest, SnapshotMetricsMatchesGroundTruth) {
  // SnapshotMetrics works with the obs gate off: the serve.* overlay comes
  // from the service's own always-on accounting.
  obs::SetEnabled(false);
  ServeConfig config;
  config.sku = kSku;
  config.workers = 2;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  for (int i = 0; i < 6; ++i) {
    ReplayResponse response = service.Submit(
        MakeRequest(i % 2 == 0 ? "mnist" : "mnist-b", 42));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }
  ReplayRequest bad;
  bad.workload = "no-such-workload";
  EXPECT_FALSE(service.Submit(std::move(bad)).status.ok());

  ServeStats stats = service.Stats();
  obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.counter("serve.submitted"), stats.submitted);
  EXPECT_EQ(snap.counter("serve.completed"), stats.completed);
  EXPECT_EQ(snap.counter("serve.failed"), stats.failed);
  EXPECT_EQ(snap.counter("serve.rejected"), stats.rejected);
  EXPECT_EQ(snap.counter("serve.expired"), stats.expired);
  EXPECT_EQ(snap.counter("serve.plan_hits"), stats.plan_hits);
  EXPECT_EQ(snap.counter("serve.plan_misses"), stats.plan_misses);
  EXPECT_EQ(snap.counter("serve.admissions"), stats.admissions);
  EXPECT_EQ(snap.counter("serve.warm_replays"), stats.warm_replays);
  EXPECT_EQ(snap.counter("serve.pages_applied"), stats.pages_applied);
  EXPECT_EQ(snap.counter("serve.mem_bytes_applied"), stats.mem_bytes_applied);
  EXPECT_EQ(snap.gauge("serve.queue_depth"), 0);
  EXPECT_EQ(snap.gauge("serve.plans_cached"),
            static_cast<int64_t>(stats.plans_cached));
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.admissions, 2u);  // the unknown workload admits nothing

  // Both histograms see every dequeued request — the 6 completions and
  // the failed lookup (it still waited in the queue and consumed service
  // time).
  const obs::HistogramSnapshot* waits = snap.histogram("serve.queue_wait_ns");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->count, 7u);
  const obs::HistogramSnapshot* svc = snap.histogram("serve.service_ns");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->count, 7u);
  EXPECT_GT(svc->max, 0u);
}

TEST_F(ReplayServiceTest, QueueBoundRejectsExcess) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_queue = 1;
  ReplayService service(store_.get(), config);

  // Not started: the first submit occupies the whole queue.
  auto queued = service.SubmitAsync(MakeRequest("mnist", 42));
  auto rejected1 = service.SubmitAsync(MakeRequest("mnist", 42));
  auto rejected2 = service.SubmitAsync(MakeRequest("mnist", 43));
  EXPECT_EQ(rejected1.get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected2.get().status.code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(queued.get().status.ok());
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.submitted, 3u);
}

TEST_F(ReplayServiceTest, StopFailsPendingAndRefusesNewWork) {
  ServeConfig config;
  config.sku = kSku;
  ReplayService service(store_.get(), config);

  auto pending = service.SubmitAsync(MakeRequest("mnist", 42));
  service.Stop();  // never started: queued work must still resolve
  EXPECT_EQ(pending.get().status.code(), StatusCode::kFailedPrecondition);

  auto after = service.SubmitAsync(MakeRequest("mnist", 42));
  EXPECT_EQ(after.get().status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(service.Start().ok());
}

TEST_F(ReplayServiceTest, SyncSubmitRequiresRunningWorkers) {
  ServeConfig config;
  config.sku = kSku;
  ReplayService service(store_.get(), config);
  ReplayResponse response = service.Submit(MakeRequest("mnist", 42));
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ReplayServiceTest, PreloadCompilesAheadOfTraffic) {
  ServeConfig config;
  config.sku = kSku;
  ReplayService service(store_.get(), config);

  auto digest = service.Preload("mnist");
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();
  EXPECT_TRUE(service.Preload("no-such-workload").status().code() ==
              StatusCode::kNotFound);
  // Preloading again is a cache hit, same digest.
  auto again = service.Preload("mnist");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*digest, *again);

  ASSERT_TRUE(service.Start().ok());
  ReplayResponse response = service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.plan_cache_hit);
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 2u);  // second Preload + the served request
}

TEST_F(ReplayServiceTest, PinnedDigestVerifiedOnTheWorkerPath) {
  ServeConfig config;
  config.sku = kSku;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  auto digest = service.Preload("mnist");
  ASSERT_TRUE(digest.ok());

  ReplayRequest pinned = MakeRequest("mnist", 42);
  pinned.pinned_digest = *digest;
  ReplayResponse ok = service.Submit(std::move(pinned));
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.digest, *digest);

  ReplayRequest mispinned = MakeRequest("mnist", 42);
  mispinned.pinned_digest = *digest;
  mispinned.pinned_digest[0] ^= 0xff;
  ReplayResponse refused = service.Submit(std::move(mispinned));
  EXPECT_EQ(refused.status.code(), StatusCode::kDigestMismatch);
  // The request resolved before the mismatch, so the true digest is
  // echoed — the client learns the correct pin from the refusal.
  EXPECT_EQ(refused.digest, *digest);
  EXPECT_TRUE(refused.output.empty());
}

TEST_F(ReplayServiceTest, UnknownWorkloadFailsTheRequestOnly) {
  ServeConfig config;
  config.sku = kSku;
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  ReplayRequest bad;
  bad.workload = "no-such-workload";
  ReplayResponse response = service.Submit(std::move(bad));
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);

  // The service is still healthy.
  ReplayResponse good = service.Submit(MakeRequest("mnist", 42));
  EXPECT_TRUE(good.status.ok());
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(ReplayServiceTest, FusedPlansServeBitwiseIdenticallyFromSharedPool) {
  // Superoptimized warm replays under concurrency: two workers share the
  // device pool and the fused plan; every warm answer must be bitwise
  // the answer of the cold (full-schedule) replay, and the fused path
  // must actually run (not silently fall back to the interpreted plan).
  ServeConfig config;
  config.sku = kSku;
  config.workers = 2;
  ASSERT_TRUE(config.fuse_plans);  // fusion is the default serving mode
  ReplayService service(store_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  ReplayResponse cold = service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_FALSE(cold.report.warm_program_used);
  ASSERT_FALSE(cold.output.empty());

  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        ReplayResponse r = service.Submit(MakeRequest("mnist", 42));
        if (!r.status.ok()) {
          ++failures;
          continue;
        }
        if (r.output.size() != cold.output.size() ||
            std::memcmp(r.output.data(), cold.output.data(),
                        cold.output.size() * sizeof(float)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, static_cast<size_t>(kClients * kPerClient) + 1);
  EXPECT_EQ(stats.plans_fused, 1u);
  EXPECT_EQ(stats.fuse_declined, 0u);
  EXPECT_GT(stats.fused_replays, 0u);

  // Cross-engine: the un-fused plan service answers the same bits.
  ServeConfig plain;
  plain.sku = kSku;
  plain.fuse_plans = false;
  ReplayService plain_service(store_.get(), plain);
  ASSERT_TRUE(plain_service.Start().ok());
  ReplayResponse via_plain = plain_service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(via_plain.status.ok());
  ASSERT_EQ(via_plain.output.size(), cold.output.size());
  EXPECT_EQ(std::memcmp(via_plain.output.data(), cold.output.data(),
                        cold.output.size() * sizeof(float)),
            0);
  EXPECT_EQ(plain_service.Stats().plans_fused, 0u);
}

TEST_F(ReplayServiceTest, InterpreterModeServesIdenticalAnswers) {
  // Baseline mode for benches: use_plan off serves through the
  // interpreter; answers agree with the plan engine bit for bit.
  ServeConfig plan_config;
  plan_config.sku = kSku;
  ReplayService plan_service(store_.get(), plan_config);
  ASSERT_TRUE(plan_service.Start().ok());
  ReplayResponse via_plan = plan_service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(via_plan.status.ok());

  ServeConfig interp_config;
  interp_config.sku = kSku;
  interp_config.replay.use_plan = false;
  ReplayService interp_service(store_.get(), interp_config);
  ASSERT_TRUE(interp_service.Start().ok());
  ReplayResponse via_interp = interp_service.Submit(MakeRequest("mnist", 42));
  ASSERT_TRUE(via_interp.status.ok());
  EXPECT_FALSE(via_interp.report.plan_used);

  ASSERT_EQ(via_plan.output.size(), via_interp.output.size());
  EXPECT_EQ(std::memcmp(via_plan.output.data(), via_interp.output.data(),
                        via_plan.output.size() * sizeof(float)),
            0);
  EXPECT_GE(via_interp.report.mem_bytes_applied,
            via_plan.report.mem_bytes_applied);
}

}  // namespace
}  // namespace grt
