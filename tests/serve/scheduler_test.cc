// Multi-tenant scheduler tests: token-bucket refill at rate boundaries
// (driven through explicit time points — no sleeps in the bucket math),
// EDF dispatch order including the no-deadline starvation regression and
// the interaction with the pop-side expiry sweep, same-digest batching
// (bitwise fidelity, dissolution when a member expires in-queue), and
// per-tenant admission/accounting through the full service.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/harness/experiment.h"
#include "src/ml/reference.h"
#include "src/serve/scheduler.h"
#include "src/serve/service.h"

namespace grt {
namespace {

constexpr SkuId kSku = SkuId::kMaliG71Mp8;
constexpr uint64_t kNondetSeed = 11;

using SteadyPoint = std::chrono::steady_clock::time_point;

SteadyPoint T0() { return SteadyPoint{}; }

SteadyPoint AfterMs(int64_t ms) {
  return T0() + std::chrono::milliseconds(ms);
}

// --- TokenBucket unit tests: pure time-point arithmetic. ---

TEST(TokenBucket, StartsFullAndDrainsToEmpty) {
  TokenBucket bucket(TenantLimit{10.0, 5.0}, T0());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(T0())) << "token " << i;
  }
  EXPECT_FALSE(bucket.TryAcquire(T0()));
}

TEST(TokenBucket, RefillsExactlyAtRateBoundary) {
  // rate 10/s: one token every 100 ms. Drain the bucket, then probe just
  // below and exactly at the refill boundary.
  TokenBucket bucket(TenantLimit{10.0, 5.0}, T0());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(bucket.TryAcquire(T0()));
  }
  // 50 ms: half a token — not admittable.
  EXPECT_FALSE(bucket.TryAcquire(AfterMs(50)));
  // 100 ms total: exactly one token.
  EXPECT_GE(bucket.TokensAt(AfterMs(100)), 1.0);
  EXPECT_TRUE(bucket.TryAcquire(AfterMs(100)));
  // The token was spent; the next one needs another full period.
  EXPECT_FALSE(bucket.TryAcquire(AfterMs(150)));
  EXPECT_TRUE(bucket.TryAcquire(AfterMs(200)));
}

TEST(TokenBucket, FailedProbesDoNotStealRefillTime) {
  // A rejected TryAcquire still advances the refill clock; the partial
  // token accumulated so far must not be lost to the failed probe.
  TokenBucket bucket(TenantLimit{10.0, 1.0}, T0());
  ASSERT_TRUE(bucket.TryAcquire(T0()));
  EXPECT_FALSE(bucket.TryAcquire(AfterMs(30)));
  EXPECT_FALSE(bucket.TryAcquire(AfterMs(60)));
  EXPECT_FALSE(bucket.TryAcquire(AfterMs(90)));
  // 110 ms, not the exact 100 ms boundary: the refill accumulated over
  // four partial windows, and double rounding may leave 0.999…9 tokens
  // at the precise boundary. (RefillsExactlyAtRateBoundary covers the
  // single-window exact case.)
  EXPECT_TRUE(bucket.TryAcquire(AfterMs(110)));
}

TEST(TokenBucket, IdleNeverExceedsBurstCapacity) {
  TokenBucket bucket(TenantLimit{100.0, 3.0}, T0());
  // An hour idle refills to the cap, not to rate * elapsed.
  EXPECT_DOUBLE_EQ(bucket.TokensAt(AfterMs(3'600'000)), 3.0);
  SteadyPoint late = AfterMs(3'600'000);
  EXPECT_TRUE(bucket.TryAcquire(late));
  EXPECT_TRUE(bucket.TryAcquire(late));
  EXPECT_TRUE(bucket.TryAcquire(late));
  EXPECT_FALSE(bucket.TryAcquire(late));
}

TEST(TokenBucket, DefaultBurstIsOneSecondNeverBelowOne) {
  // burst unset: capacity = max(rate, 1). A 0.5/s tenant still gets a
  // bucket that can hold (and therefore ever admit) one request.
  TokenBucket slow(TenantLimit{0.5, 0.0}, T0());
  EXPECT_DOUBLE_EQ(slow.capacity(), 1.0);
  EXPECT_TRUE(slow.TryAcquire(T0()));
  EXPECT_FALSE(slow.TryAcquire(AfterMs(1000)));
  EXPECT_TRUE(slow.TryAcquire(AfterMs(2000)));

  TokenBucket fast(TenantLimit{40.0, 0.0}, T0());
  EXPECT_DOUBLE_EQ(fast.capacity(), 40.0);
}

TEST(TokenBucket, UnlimitedAlwaysAdmits) {
  TokenBucket bucket(TenantLimit{}, T0());
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(T0()));
  }
}

TEST(TokenBucket, BackwardsClockIsNoElapsedTime) {
  TokenBucket bucket(TenantLimit{10.0, 1.0}, AfterMs(1000));
  ASSERT_TRUE(bucket.TryAcquire(AfterMs(1000)));
  // A now before the last refill point must not mint tokens (or crash on
  // a negative duration).
  EXPECT_FALSE(bucket.TryAcquire(AfterMs(500)));
  EXPECT_TRUE(bucket.TryAcquire(AfterMs(1100)));
}

// --- Service-level scheduler tests (same recording fixture as
// service_test). ---

class SchedulerServiceTest : public ::testing::Test {
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
    auto rec = Recording::ParseSigned(*signed_, *key_);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    rec->header.workload = "mnist-b";
    signed_b_ = new Bytes(rec->SerializeSigned(*key_));
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

  ReplayRequest MakeRequest(const std::string& workload, uint64_t input_seed,
                            const std::string& tenant = "") {
    ReplayRequest request;
    request.workload = workload;
    request.tenant = tenant;
    request.tensors[net_->input_tensor] = GenerateInput(*net_, input_seed);
    for (const TensorDef& t : net_->tensors) {
      if (t.kind == TensorKind::kParam) {
        request.tensors[t.name] = GenerateParams(net_->name, t, 7);
      }
    }
    request.output_tensor = net_->output_tensor;
    return request;
  }

  static NetworkDef* net_;
  static Bytes* key_;
  static Bytes* signed_;
  static Bytes* signed_b_;
  std::unique_ptr<RecordingStore> store_;
};

NetworkDef* SchedulerServiceTest::net_ = nullptr;
Bytes* SchedulerServiceTest::key_ = nullptr;
Bytes* SchedulerServiceTest::signed_ = nullptr;
Bytes* SchedulerServiceTest::signed_b_ = nullptr;

// Tracks the order in which requests complete; keyed by caller tags.
struct CompletionOrder {
  std::mutex mu;
  std::vector<int> order;
  void Push(int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  }
};

TEST_F(SchedulerServiceTest, EdfPopsEarliestDeadlineFirst) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_batch = 1;  // isolate EDF order from batching
  ReplayService service(store_.get(), config);

  // Queue before Start so the worker sees all three at its first pop.
  // Admission order deliberately disagrees with deadline order.
  auto order = std::make_shared<CompletionOrder>();
  std::vector<std::future<ReplayResponse>> futures;
  struct Spec {
    int tag;
    int64_t deadline_ms;
  };
  for (const Spec& spec :
       {Spec{0, 5000}, Spec{1, 2000}, Spec{2, 8000}}) {
    ReplayRequest request = MakeRequest("mnist", 42);
    request.deadline_ms = spec.deadline_ms;
    auto promise = std::make_shared<std::promise<ReplayResponse>>();
    futures.push_back(promise->get_future());
    int tag = spec.tag;
    service.SubmitCallback(std::move(request),
                           [order, promise, tag](ReplayResponse response) {
                             order->Push(tag);
                             promise->set_value(std::move(response));
                           });
  }
  ASSERT_TRUE(service.Start().ok());
  for (auto& f : futures) {
    ReplayResponse response = f.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  service.Stop();
  EXPECT_EQ(order->order, (std::vector<int>{1, 0, 2}));
}

TEST_F(SchedulerServiceTest, NoDeadlineRequestsAreNotStarved) {
  // The satellite regression: a deadline-free request queued behind a
  // stream of deadlined ones must get a virtual deadline (enqueued +
  // default_deadline_ms) and pop ahead of later real deadlines — and the
  // virtual deadline passing must NOT expire it.
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_batch = 1;
  config.default_deadline_ms = 50;
  ReplayService service(store_.get(), config);

  auto order = std::make_shared<CompletionOrder>();
  std::vector<std::future<ReplayResponse>> futures;
  auto submit = [&](int tag, int64_t deadline_ms) {
    ReplayRequest request = MakeRequest("mnist", 42);
    request.deadline_ms = deadline_ms;
    auto promise = std::make_shared<std::promise<ReplayResponse>>();
    futures.push_back(promise->get_future());
    service.SubmitCallback(std::move(request),
                           [order, promise, tag](ReplayResponse response) {
                             order->Push(tag);
                             promise->set_value(std::move(response));
                           });
  };
  submit(0, 5000);  // deadlined, far future
  submit(1, -1);    // deadline-free: virtual deadline ~now+50ms
  submit(2, 5000);
  submit(3, 5000);
  // Let the virtual deadline pass while everything still queues: if the
  // virtual deadline leaked into the expiry sweeps, request 1 would die
  // here instead of serving.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE(service.Start().ok());
  for (auto& f : futures) {
    ReplayResponse response = f.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  service.Stop();
  ASSERT_EQ(order->order.size(), 4u);
  // The deadline-free request outranks every 5-second deadline.
  EXPECT_EQ(order->order[0], 1);
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST_F(SchedulerServiceTest, EdfVirtualWinnerStillTriggersPopSweep) {
  // Adversarial EDF-vs-sweep interaction: the EDF winner is a virtual
  // deadline (never expires) while a *real*-deadlined item is already
  // dead in the queue. The pop must take the virtual winner and the
  // pop-side sweep must still clear the dead item immediately.
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_batch = 1;
  config.default_deadline_ms = 50;
  ReplayService service(store_.get(), config);

  ReplayRequest free_request = MakeRequest("mnist", 1);
  free_request.deadline_ms = -1;
  auto free_future = service.SubmitAsync(std::move(free_request));

  ReplayRequest doomed = MakeRequest("mnist", 2);
  doomed.deadline_ms = 100;
  auto doomed_future = service.SubmitAsync(std::move(doomed));

  // Both queued; the doomed deadline (100 ms) passes, the virtual one
  // (50 ms) also passes — only the real one may expire.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(service.Start().ok());

  ReplayResponse free_response = free_future.get();
  EXPECT_TRUE(free_response.status.ok()) << free_response.status.ToString();
  ReplayResponse doomed_response = doomed_future.get();
  EXPECT_EQ(doomed_response.status.code(), StatusCode::kTimeout);
  service.Stop();

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.expired, 1u);
  // The dead item was swept out of the queue by the pop-side sweep (the
  // EDF winner was the virtual-deadline item, so the doomed one was
  // never popped).
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.expired_at_dequeue, 0u);
}

TEST_F(SchedulerServiceTest, BatchServesBitwiseIdenticalOutputs) {
  // Same-digest batching must be invisible in the outputs: members stage
  // their own tensors before their own replay, so a batched run and an
  // unbatched run produce byte-identical floats.
  std::vector<std::vector<float>> solo(3);
  {
    ServeConfig config;
    config.sku = kSku;
    config.workers = 1;
    config.max_batch = 1;
    ReplayService service(store_.get(), config);
    ASSERT_TRUE(service.Start().ok());
    for (uint64_t seed = 0; seed < 3; ++seed) {
      ReplayResponse response =
          service.Submit(MakeRequest("mnist", 100 + seed));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      solo[seed] = std::move(response.output);
    }
    service.Stop();
  }

  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_batch = 8;
  ReplayService service(store_.get(), config);
  std::vector<std::future<ReplayResponse>> futures;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    futures.push_back(service.SubmitAsync(MakeRequest("mnist", 100 + seed)));
  }
  ASSERT_TRUE(service.Start().ok());
  size_t miss_responses = 0, warm_responses = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    ReplayResponse response = futures[seed].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.batch_size, 3u);
    ASSERT_EQ(response.output.size(), solo[seed].size());
    EXPECT_EQ(std::memcmp(response.output.data(), solo[seed].data(),
                          solo[seed].size() * sizeof(float)),
              0)
        << "seed " << seed;
    miss_responses += response.plan_cache_hit ? 0 : 1;
    warm_responses += response.report.warm ? 1 : 0;
  }
  service.Stop();
  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, 2u);
  // Response fields describe each member: the cold leader compiled the
  // plan, the two followers reused it and replayed warm.
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(miss_responses, stats.plan_misses);
  EXPECT_EQ(stats.warm_replays, 2u);
  EXPECT_EQ(warm_responses, stats.warm_replays);
}

TEST_F(SchedulerServiceTest, BatchDissolvesExpiredMemberAndServesRest) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  config.max_batch = 8;
  ReplayService service(store_.get(), config);

  // Three same-workload requests; the middle one's deadline passes while
  // everything is still queued. The batch pops all three (the expired
  // one's 20 ms deadline is the EDF minimum), dissolves the dead member
  // with a per-member timeout, and serves the other two.
  auto live_a = service.SubmitAsync(MakeRequest("mnist", 5));
  ReplayRequest doomed = MakeRequest("mnist", 6);
  doomed.deadline_ms = 20;
  auto doomed_future = service.SubmitAsync(std::move(doomed));
  auto live_b = service.SubmitAsync(MakeRequest("mnist", 7));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(service.Start().ok());

  ReplayResponse doomed_response = doomed_future.get();
  EXPECT_EQ(doomed_response.status.code(), StatusCode::kTimeout);
  ReplayResponse a = live_a.get();
  ReplayResponse b = live_b.get();
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  // The survivors replayed as a 2-member batch.
  EXPECT_EQ(a.batch_size, 2u);
  EXPECT_EQ(b.batch_size, 2u);
  service.Stop();

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.expired_at_dequeue, 1u);
}

TEST_F(SchedulerServiceTest, TenantBucketThrottlesAtTheDoor) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  // Default tenant: 2-token burst, slow refill — the third back-to-back
  // submit must throttle deterministically.
  config.default_tenant_limit = TenantLimit{0.1, 2.0};
  ReplayService service(store_.get(), config);

  auto first = service.SubmitAsync(MakeRequest("mnist", 1));
  auto second = service.SubmitAsync(MakeRequest("mnist", 2));
  auto third = service.SubmitAsync(MakeRequest("mnist", 3));
  ReplayResponse throttled = third.get();  // rejected inline, pre-Start
  EXPECT_EQ(throttled.status.code(), StatusCode::kTenantThrottled);

  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(first.get().status.ok());
  EXPECT_TRUE(second.get().status.ok());
  service.Stop();

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.throttled, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  const TenantServeStats& t = stats.tenants.at("");
  EXPECT_EQ(t.submitted, 3u);
  EXPECT_EQ(t.completed, 2u);
  EXPECT_EQ(t.throttled, 1u);
}

TEST_F(SchedulerServiceTest, TenantLimitsAreIsolated) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = 1;
  // "capped" gets one token and a glacial refill; everyone else is
  // unlimited. capped's overflow must not cost "open" anything.
  config.tenant_limits["capped"] = TenantLimit{0.1, 1.0};
  ReplayService service(store_.get(), config);

  auto capped_ok = service.SubmitAsync(MakeRequest("mnist", 1, "capped"));
  auto capped_over = service.SubmitAsync(MakeRequest("mnist", 2, "capped"));
  EXPECT_EQ(capped_over.get().status.code(), StatusCode::kTenantThrottled);

  std::vector<std::future<ReplayResponse>> open;
  for (uint64_t i = 0; i < 8; ++i) {
    open.push_back(service.SubmitAsync(MakeRequest("mnist", 10 + i, "open")));
  }
  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(capped_ok.get().status.ok());
  for (auto& f : open) {
    EXPECT_TRUE(f.get().status.ok());
  }
  service.Stop();

  ServeStats stats = service.Stats();
  const TenantServeStats& capped = stats.tenants.at("capped");
  EXPECT_EQ(capped.submitted, 2u);
  EXPECT_EQ(capped.completed, 1u);
  EXPECT_EQ(capped.throttled, 1u);
  const TenantServeStats& open_t = stats.tenants.at("open");
  EXPECT_EQ(open_t.submitted, 8u);
  EXPECT_EQ(open_t.completed, 8u);
  EXPECT_EQ(open_t.throttled, 0u);
  // Per-tenant metrics publish under stable keys.
  obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("serve.tenant.capped.throttled"), 1u);
  EXPECT_EQ(snap.counters.at("serve.tenant.open.completed"), 8u);
}

}  // namespace
}  // namespace grt
