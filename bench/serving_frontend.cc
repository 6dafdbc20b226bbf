// Serving front-end benchmark: the TCP wire path under open-loop load.
//
// Four sections, written to BENCH_serving_frontend.json:
//
//   1. Wire fidelity — the same requests served through the in-process
//      ReplayService::Submit path and through a ReplayClient over TCP
//      must produce bitwise-identical outputs, and the response must echo
//      the plan-cache digest Preload reported (the pin clients use). This
//      is the correctness gate: the frame codec, the event loop, and the
//      completion path may not perturb a single byte.
//   2. Load — an open-loop generator offers traffic at fixed target RPS
//      (arrivals scheduled from a clock, never gated on completions, so
//      server slowdown cannot silently throttle the offered load) across
//      several target rates. Latency is measured from the *scheduled*
//      arrival to response receipt — queueing delay a closed-loop client
//      would hide is charged to the server. Per-status counts (OK / BUSY /
//      EXPIRED / error) show how admission control converts overload into
//      protocol-level verdicts instead of collapse. The full run keeps
//      doubling the offered rate until the server sheds (BUSY/EXPIRED)
//      or falls behind the schedule, then reports the saturation knee
//      (last clean rate) and the BUSY onset rate.
//   3. Fairness — two tenants on one shared pool: a "flood" tenant
//      offering vgg16 well above its token-bucket admission rate, and an
//      unthrottled "trickle" tenant offering mnist at a low steady rate.
//      The trickle tenant's latency is measured solo first, then under
//      the flood, each over the same 120-request schedule in every mode.
//      Gates: trickle p95 under flood <= 3x trickle p95 solo, zero
//      trickle requests shed while the flood tenant is over its bucket
//      (its overflow must be throttled at the door, charged to the flood
//      tenant), and flood throttles actually observed. Jain's fairness
//      index over per-tenant useful service is reported.
//   4. Batching — mnist and a conflicting re-signed twin alternate on a
//      ONE-device pool, offered twice the unbatched goodput that short
//      calibration passes measure, so every unbatched
//      workload switch is a conflict eviction (cold rebuild). Same-digest
//      batching amortizes the eviction across up to max_batch requests.
//      Gates: batched goodput >= 1.2x unbatched at the same offered rate,
//      and every OK output bitwise-identical to the in-process reference
//      (batching may not perturb a byte).
//
// `--smoke` runs sections 1-2 with a short schedule and exits nonzero if
// a gate fails — scripts/ci.sh uses it as the serving-path regression
// gate. `--fairness-gate` runs sections 3-4, section 4 with a short
// schedule (the CI multi-tenant smoke). Gates: bitwise fidelity, every
// offered request answered, a nonzero OK count at every rate, and the
// fairness/batching gates above. The full mode writes
// BENCH_serving_frontend.json into the current directory unless given
// `--out`; the gate modes write JSON only to an `--out` path, so they never
// replace the committed full-mode file.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/rig.h"
#include "src/ml/reference.h"
#include "src/record/recording.h"
#include "src/serve/client.h"
#include "src/serve/frontend.h"
#include "src/serve/service.h"

namespace grt {
namespace {

constexpr SkuId kSku = SkuId::kMaliG71Mp8;
constexpr uint64_t kInputSeed = 42;
constexpr uint64_t kParamSeed = 7;

struct RecordedNet {
  NetworkDef net;
  Bytes signed_recording;
  Bytes session_key;
};

Result<RecordedNet> RecordOnce(const NetworkDef& net) {
  ClientDevice device(kSku, 11);
  SpeculationHistory history;
  GRT_ASSIGN_OR_RETURN(RecordMeasurement m,
                       RunRecordVariant(&device, net, "OursMDS",
                                        WifiConditions(), &history, 0));
  return RecordedNet{net, std::move(m.signed_recording),
                     std::move(m.session_key)};
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Full request: input + parameters (parameters stay resident on whichever
// worker device serves it — the fidelity section stages them everywhere).
WireRequest FullRequest(const NetworkDef& net, uint64_t seed) {
  WireRequest request;
  request.workload = net.name;
  request.output_tensor = net.output_tensor;
  request.deadline_ms = 30000;
  request.tensors[net.input_tensor] = GenerateInput(net, seed);
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      request.tensors[t.name] = GenerateParams(net.name, t, kParamSeed);
    }
  }
  return request;
}

// ------------------------------------------------------- wire fidelity

struct FidelityRow {
  size_t requests = 0;
  bool bitwise_identical = false;
  bool digest_echoed = false;
  bool pinned_ok = false;
};

Result<FidelityRow> RunFidelity(ReplayService* service, uint16_t port,
                                const NetworkDef& net,
                                const Sha256Digest& digest) {
  FidelityRow row;
  row.bitwise_identical = true;
  row.digest_echoed = true;
  ReplayClient client;
  GRT_RETURN_IF_ERROR(client.Connect("127.0.0.1", port, 60000));
  for (uint64_t seed = kInputSeed; seed < kInputSeed + 5; ++seed) {
    WireRequest wire = FullRequest(net, seed);
    ReplayRequest local;
    local.workload = wire.workload;
    local.tensors = wire.tensors;
    local.output_tensor = wire.output_tensor;
    ReplayResponse in_process = service->Submit(std::move(local));
    GRT_RETURN_IF_ERROR(in_process.status);
    GRT_ASSIGN_OR_RETURN(WireResponse remote, client.Call(seed, wire));
    if (!remote.ok()) {
      return Internal("wire request failed: " + remote.message);
    }
    if (!BitIdentical(in_process.output, remote.output)) {
      row.bitwise_identical = false;
    }
    if (remote.digest != digest) {
      row.digest_echoed = false;
    }
    ++row.requests;
  }
  // Pinned request: the digest Preload reported must be servable, and a
  // wrong pin must be refused with the typed verdict.
  WireRequest pinned = FullRequest(net, kInputSeed);
  pinned.digest = digest;
  GRT_ASSIGN_OR_RETURN(WireResponse pinned_reply, client.Call(1000, pinned));
  WireRequest mispinned = FullRequest(net, kInputSeed);
  mispinned.digest = digest;
  mispinned.digest[0] ^= 0xff;
  GRT_ASSIGN_OR_RETURN(WireResponse mispin_reply, client.Call(1001, mispinned));
  row.pinned_ok = pinned_reply.ok() &&
                  mispin_reply.status == WireStatus::kUnknownDigest;
  return row;
}

// ------------------------------------------------------ open-loop load

struct LoadRow {
  double target_rps = 0;
  size_t offered = 0;   // arrivals on the schedule
  size_t answered = 0;  // responses received (any status)
  size_t ok = 0;
  size_t busy = 0;
  size_t expired = 0;
  size_t throttled = 0;  // tenant over its admission bucket
  size_t error = 0;      // every other wire status
  size_t transport_errors = 0;
  double achieved_rps = 0;  // answered / wall time
  // Latency from scheduled arrival to response receipt, OK replies only.
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double duration_s = 0;
};

struct Received {
  uint64_t corr = 0;
  WireStatus status = WireStatus::kOk;
  std::chrono::steady_clock::time_point when;
};

Result<LoadRow> RunLoad(uint16_t port, const NetworkDef& net,
                        double target_rps, double duration_s,
                        size_t n_conns, const std::string& tenant = "",
                        int64_t deadline_ms = 2000) {
  const size_t total = static_cast<size_t>(target_rps * duration_s + 0.5);
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / target_rps));

  std::vector<ReplayClient> clients(n_conns);
  for (ReplayClient& c : clients) {
    GRT_RETURN_IF_ERROR(c.Connect("127.0.0.1", port, 30000));
  }

  // Load requests carry only the input tensor (parameters are already
  // resident from the fidelity section), so the sender's per-request cost
  // is a small encode + send and the schedule stays honest.
  std::vector<WireRequest> variants;
  for (uint64_t v = 0; v < 8; ++v) {
    WireRequest request;
    request.workload = net.name;
    request.output_tensor = net.output_tensor;
    request.deadline_ms = deadline_ms;
    request.tenant = tenant;
    request.tensors[net.input_tensor] = GenerateInput(net, kInputSeed + v);
    variants.push_back(std::move(request));
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<size_t> assigned(n_conns, 0);
  for (size_t i = 0; i < total; ++i) {
    ++assigned[i % n_conns];
  }

  // Receivers first: responses start flowing before the schedule ends.
  std::vector<std::vector<Received>> received(n_conns);
  std::vector<std::thread> receivers;
  receivers.reserve(n_conns);
  for (size_t c = 0; c < n_conns; ++c) {
    receivers.emplace_back([&, c] {
      received[c].reserve(assigned[c]);
      while (received[c].size() < assigned[c]) {
        auto got = clients[c].RecvAny();
        if (!got.ok()) {
          break;  // timeout / close: missing responses show in `answered`
        }
        Received r;
        r.corr = got->first;
        r.status = got->second.status;
        r.when = std::chrono::steady_clock::now();
        received[c].push_back(r);
      }
    });
  }

  size_t transport_errors = 0;
  for (size_t i = 0; i < total; ++i) {
    std::this_thread::sleep_until(start + interval * i);
    Status sent = clients[i % n_conns].Send(
        i, variants[i % variants.size()]);
    if (!sent.ok()) {
      ++transport_errors;
    }
  }
  for (std::thread& t : receivers) {
    t.join();
  }
  const auto end = std::chrono::steady_clock::now();

  LoadRow row;
  row.target_rps = target_rps;
  row.offered = total;
  row.transport_errors = transport_errors;
  row.duration_s = std::chrono::duration<double>(end - start).count();
  std::vector<double> ok_latency_ms;
  for (size_t c = 0; c < n_conns; ++c) {
    for (const Received& r : received[c]) {
      ++row.answered;
      switch (r.status) {
        case WireStatus::kOk: {
          ++row.ok;
          auto scheduled = start + interval * r.corr;
          ok_latency_ms.push_back(
              std::chrono::duration<double, std::milli>(r.when - scheduled)
                  .count());
          break;
        }
        case WireStatus::kBusy:
          ++row.busy;
          break;
        case WireStatus::kExpired:
          ++row.expired;
          break;
        case WireStatus::kTenantThrottled:
          ++row.throttled;
          break;
        default:
          ++row.error;
          break;
      }
    }
  }
  row.achieved_rps =
      row.duration_s > 0 ? static_cast<double>(row.answered) / row.duration_s
                         : 0;
  if (!ok_latency_ms.empty()) {
    std::sort(ok_latency_ms.begin(), ok_latency_ms.end());
    auto pct = [&](double p) {
      size_t idx = static_cast<size_t>(p * (ok_latency_ms.size() - 1) + 0.5);
      return ok_latency_ms[idx];
    };
    row.p50_ms = pct(0.50);
    row.p95_ms = pct(0.95);
    row.p99_ms = pct(0.99);
  }
  return row;
}

// ---------------------------------------------------- tenant fairness

struct FairnessSection {
  bool ran = false;
  double trickle_rps = 0, flood_offered_rps = 0, flood_bucket_rps = 0;
  LoadRow solo;        // trickle tenant alone
  LoadRow trickle;     // trickle tenant under the flood
  LoadRow flood;       // the flood tenant itself
  double p95_ratio = 0;  // trickle-under-flood p95 / solo p95
  double jain = 0;       // fairness over per-tenant useful service
  bool p95_ok = false;
  bool no_shed_ok = false;
  bool flood_throttled_ok = false;
  bool gates_ok = false;
};

constexpr double kTricklePressureRatio = 3.0;  // p95 budget vs solo
// Each trickle phase (solo, then under the flood) runs this long: 120
// requests at 20 rps. The gate divides two p95s; over 30 requests the
// two slowest set the solo baseline, over 120 it takes seven.
constexpr double kFairnessPhaseS = 6.0;

Result<FairnessSection> RunFairness() {
  FairnessSection section;
  section.ran = true;
  section.trickle_rps = 20;
  section.flood_offered_rps = 40;
  section.flood_bucket_rps = 10;

  NetworkDef mnist_net = BuildMnist();
  NetworkDef vgg_net = BuildVgg16();
  GRT_ASSIGN_OR_RETURN(RecordedNet mnist, RecordOnce(mnist_net));
  GRT_ASSIGN_OR_RETURN(RecordedNet vgg, RecordOnce(vgg_net));
  RecordingStore store(mnist.session_key);
  GRT_RETURN_IF_ERROR(store.Install(mnist.signed_recording));
  // Re-sign vgg16 under mnist's session key so one store verifies both.
  GRT_ASSIGN_OR_RETURN(
      Recording vgg_rec,
      Recording::ParseSigned(vgg.signed_recording, vgg.session_key));
  GRT_RETURN_IF_ERROR(store.Install(vgg_rec.SerializeSigned(mnist.session_key)));

  // 3 workers over 2 devices: the conflicting pair spills to separate
  // devices (vgg16 serializes on its own device), and a worker is still
  // free for trickle while up to two are tied up in a vgg replay. The
  // flood tenant's bucket admits 10/s against 40/s offered — the
  // overflow must be refused at the door, not queued in front of the
  // trickle tenant.
  ServeConfig config;
  config.sku = kSku;
  config.workers = 3;
  config.devices = 2;
  config.tenant_limits["flood"] =
      TenantLimit{section.flood_bucket_rps, 5.0};
  ReplayService service(&store, config);
  GRT_RETURN_IF_ERROR(service.Preload("mnist").status());
  GRT_RETURN_IF_ERROR(service.Preload("vgg16").status());
  GRT_RETURN_IF_ERROR(service.Start());
  ServingFrontend frontend(&service, FrontendConfig{});
  GRT_RETURN_IF_ERROR(frontend.Start());

  // Warm-up: stage parameters and pay the cold engine builds in-process
  // (a vgg16 request carrying its parameters would blow past the frame
  // payload bound on the wire; the open-loop phases send input-only
  // frames against the residency established here). The default tenant
  // is unlimited, so warm-up never drains the flood tenant's bucket.
  for (int i = 0; i < 4; ++i) {
    for (const NetworkDef* n : {&mnist_net, &vgg_net}) {
      ReplayRequest r;
      r.workload = n->name;
      r.output_tensor = n->output_tensor;
      r.tensors[n->input_tensor] = GenerateInput(*n, kInputSeed + i);
      for (const TensorDef& t : n->tensors) {
        if (t.kind == TensorKind::kParam) {
          r.tensors[t.name] = GenerateParams(n->name, t, kParamSeed);
        }
      }
      ReplayResponse resp = service.Submit(std::move(r));
      GRT_RETURN_IF_ERROR(resp.status);
    }
  }

  const double dur = kFairnessPhaseS;
  // Phase 1: trickle tenant alone — the latency baseline.
  GRT_ASSIGN_OR_RETURN(section.solo,
                       RunLoad(frontend.port(), mnist_net,
                               section.trickle_rps, dur, 2, "trickle", 2000));
  // Phase 2: same trickle schedule with the vgg16 flood alongside.
  Result<LoadRow> flood_row = LoadRow{};
  std::thread flood_thread([&] {
    flood_row = RunLoad(frontend.port(), vgg_net, section.flood_offered_rps,
                        dur, 2, "flood", 30000);
  });
  auto trickle_row = RunLoad(frontend.port(), mnist_net, section.trickle_rps,
                             dur, 2, "trickle", 2000);
  flood_thread.join();
  GRT_RETURN_IF_ERROR(trickle_row.status());
  GRT_RETURN_IF_ERROR(flood_row.status());
  section.trickle = *trickle_row;
  section.flood = *flood_row;
  frontend.Shutdown();
  service.Stop();

  section.p95_ratio = section.solo.p95_ms > 0
                          ? section.trickle.p95_ms / section.solo.p95_ms
                          : 0;
  // Jain's index over useful service: each tenant's OK completions per
  // admitted request (throttles are the admission verdict, not service).
  double trickle_admitted = static_cast<double>(
      section.trickle.offered - section.trickle.throttled);
  double flood_admitted =
      static_cast<double>(section.flood.offered - section.flood.throttled);
  double x1 = trickle_admitted > 0 ? section.trickle.ok / trickle_admitted : 0;
  double x2 = flood_admitted > 0 ? section.flood.ok / flood_admitted : 0;
  double denom = 2 * (x1 * x1 + x2 * x2);
  section.jain = denom > 0 ? (x1 + x2) * (x1 + x2) / denom : 0;

  section.p95_ok = section.trickle.ok > 0 && section.solo.p95_ms > 0 &&
                   section.p95_ratio <= kTricklePressureRatio;
  section.no_shed_ok = section.trickle.busy == 0 &&
                       section.trickle.expired == 0 &&
                       section.trickle.throttled == 0;
  section.flood_throttled_ok = section.flood.throttled > 0;
  section.gates_ok =
      section.p95_ok && section.no_shed_ok && section.flood_throttled_ok;
  return section;
}

// -------------------------------------------------- same-digest batching

struct BatchingSection {
  bool ran = false;
  double calibration_ok_rps = 0;  // unbatched goodput, overloaded
  double target_rps = 0;
  double duration_s = 0;
  size_t unbatched_ok = 0, batched_ok = 0;
  double unbatched_ok_rps = 0, batched_ok_rps = 0;
  double speedup = 0;
  size_t batches = 0, batched_requests = 0;
  size_t output_mismatches = 0;
  bool gates_ok = false;
};

constexpr double kBatchingSpeedupGate = 1.2;

struct CheckedLoadRow {
  LoadRow row;
  size_t mismatches = 0;  // OK outputs not bitwise-equal to the reference
};

// RunLoad with caller-supplied request variants and per-variant expected
// outputs: every OK reply is bitwise-checked against the in-process
// reference while the load runs.
Result<CheckedLoadRow> RunCheckedLoad(
    uint16_t port, const std::vector<WireRequest>& variants,
    const std::vector<std::vector<float>>& expected, double target_rps,
    double duration_s, size_t n_conns) {
  const size_t total = static_cast<size_t>(target_rps * duration_s + 0.5);
  const auto interval =
      std::chrono::nanoseconds(static_cast<int64_t>(1e9 / target_rps));

  std::vector<ReplayClient> clients(n_conns);
  for (ReplayClient& c : clients) {
    GRT_RETURN_IF_ERROR(c.Connect("127.0.0.1", port, 30000));
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<size_t> assigned(n_conns, 0);
  for (size_t i = 0; i < total; ++i) {
    ++assigned[i % n_conns];
  }

  std::vector<std::vector<Received>> received(n_conns);
  std::vector<size_t> conn_mismatches(n_conns, 0);
  std::vector<std::thread> receivers;
  receivers.reserve(n_conns);
  for (size_t c = 0; c < n_conns; ++c) {
    receivers.emplace_back([&, c] {
      received[c].reserve(assigned[c]);
      while (received[c].size() < assigned[c]) {
        auto got = clients[c].RecvAny();
        if (!got.ok()) {
          break;
        }
        Received r;
        r.corr = got->first;
        r.status = got->second.status;
        r.when = std::chrono::steady_clock::now();
        if (r.status == WireStatus::kOk &&
            !BitIdentical(got->second.output,
                          expected[r.corr % variants.size()])) {
          ++conn_mismatches[c];
        }
        received[c].push_back(r);
      }
    });
  }

  size_t transport_errors = 0;
  for (size_t i = 0; i < total; ++i) {
    std::this_thread::sleep_until(start + interval * i);
    Status sent = clients[i % n_conns].Send(i, variants[i % variants.size()]);
    if (!sent.ok()) {
      ++transport_errors;
    }
  }
  for (std::thread& t : receivers) {
    t.join();
  }
  const auto end = std::chrono::steady_clock::now();

  CheckedLoadRow out;
  out.row.target_rps = target_rps;
  out.row.offered = total;
  out.row.transport_errors = transport_errors;
  out.row.duration_s = std::chrono::duration<double>(end - start).count();
  for (size_t c = 0; c < n_conns; ++c) {
    out.mismatches += conn_mismatches[c];
    for (const Received& r : received[c]) {
      ++out.row.answered;
      switch (r.status) {
        case WireStatus::kOk:
          ++out.row.ok;
          break;
        case WireStatus::kBusy:
          ++out.row.busy;
          break;
        case WireStatus::kExpired:
          ++out.row.expired;
          break;
        case WireStatus::kTenantThrottled:
          ++out.row.throttled;
          break;
        default:
          ++out.row.error;
          break;
      }
    }
  }
  return out;
}

Result<BatchingSection> RunBatching(bool quick) {
  BatchingSection section;
  section.ran = true;
  section.duration_s = quick ? 1.25 : 2.5;

  NetworkDef net = BuildMnist();
  GRT_ASSIGN_OR_RETURN(RecordedNet mnist, RecordOnce(net));
  RecordingStore store(mnist.session_key);
  GRT_RETURN_IF_ERROR(store.Install(mnist.signed_recording));
  // A conflicting twin: the same recording under another workload name.
  // On a one-device pool every mnist <-> mnist-b switch is a conflict
  // eviction, and with max_plans=1 below it is also a plan-cache miss —
  // a plan rebuild and a cold engine rebuild.
  GRT_ASSIGN_OR_RETURN(
      Recording twin,
      Recording::ParseSigned(mnist.signed_recording, mnist.session_key));
  twin.header.workload = "mnist-b";
  GRT_RETURN_IF_ERROR(store.Install(twin.SerializeSigned(mnist.session_key)));

  // Alternating variants; full requests (params ride along) so a freshly
  // rebuilt engine always has everything staged.
  std::vector<WireRequest> variants;
  for (uint64_t v = 0; v < 8; ++v) {
    WireRequest r = FullRequest(net, kInputSeed + v / 2);
    if (v % 2 == 1) {
      r.workload = "mnist-b";
    }
    r.deadline_ms = 2000;
    variants.push_back(std::move(r));
  }
  // Expected outputs from the in-process, unbatched, single-worker path —
  // the fidelity reference both load passes are checked against.
  std::vector<std::vector<float>> expected;
  {
    ServeConfig rc;
    rc.sku = kSku;
    rc.workers = 1;
    rc.devices = 1;
    rc.max_batch = 1;
    ReplayService reference(&store, rc);
    GRT_RETURN_IF_ERROR(reference.Start());
    for (const WireRequest& w : variants) {
      ReplayRequest r;
      r.workload = w.workload;
      r.output_tensor = w.output_tensor;
      r.tensors = w.tensors;
      ReplayResponse resp = reference.Submit(std::move(r));
      GRT_RETURN_IF_ERROR(resp.status);
      expected.push_back(std::move(resp.output));
    }
    reference.Stop();
  }

  struct Pass {
    CheckedLoadRow checked;
    ServeStats stats;
    double ok_rps = 0;
  };
  auto run_pass = [&](bool batched, double rps,
                      double seconds) -> Result<Pass> {
    ServeConfig config;
    config.sku = kSku;
    config.workers = 2;
    config.devices = 1;
    // One plan-cache slot: the digest working set (two conflicting
    // workloads) exceeds the cache, so every unbatched alternation pays
    // a plan compile + fuse and a cold replay. A batch resolves once for
    // all its members — the residency amortization under test.
    config.max_plans = 1;
    config.max_batch = batched ? 8 : 1;
    ReplayService service(&store, config);
    GRT_RETURN_IF_ERROR(service.Preload("mnist").status());
    GRT_RETURN_IF_ERROR(service.Preload("mnist-b").status());
    GRT_RETURN_IF_ERROR(service.Start());
    ServingFrontend frontend(&service, FrontendConfig{});
    GRT_RETURN_IF_ERROR(frontend.Start());
    Pass p;
    GRT_ASSIGN_OR_RETURN(p.checked,
                         RunCheckedLoad(frontend.port(), variants, expected,
                                        rps, seconds, 4));
    p.stats = service.Stats();
    frontend.Shutdown();
    service.Stop();
    const LoadRow& row = p.checked.row;
    p.ok_rps = row.duration_s > 0 ? row.ok / row.duration_s : 0;
    return p;
  };

  // The offered rate is twice the unbatched goodput under overload, so
  // the unbatched pass runs overloaded and batching has residency to
  // amortize however fast a replay is on this host; a fixed rate erodes
  // with every replay speedup. Calibration: short unbatched passes at
  // doubling rates until the goodput stops growing (under 10% above the
  // previous rung's). Short passes read low below capacity, because the
  // reply tail stretches their duration, so the plateau is the estimate,
  // not the first rung that falls behind.
  double previous_ok_rps = 0;
  for (double rps = 500; rps <= 32000; rps *= 2) {
    GRT_ASSIGN_OR_RETURN(Pass p, run_pass(/*batched=*/false, rps, 0.5));
    section.output_mismatches += p.checked.mismatches;
    section.calibration_ok_rps = std::max(section.calibration_ok_rps,
                                          p.ok_rps);
    if (p.ok_rps < 1.1 * previous_ok_rps) {
      break;
    }
    previous_ok_rps = p.ok_rps;
  }
  if (section.calibration_ok_rps <= 0) {
    return Internal("batching calibration: the unbatched server served none");
  }
  section.target_rps = 2 * section.calibration_ok_rps;

  for (int pass = 0; pass < 2; ++pass) {
    const bool batched = pass == 1;
    GRT_ASSIGN_OR_RETURN(
        Pass p, run_pass(batched, section.target_rps, section.duration_s));
    section.output_mismatches += p.checked.mismatches;
    if (batched) {
      section.batched_ok = p.checked.row.ok;
      section.batched_ok_rps = p.ok_rps;
      section.batches = p.stats.batches;
      section.batched_requests = p.stats.batched_requests;
    } else {
      section.unbatched_ok = p.checked.row.ok;
      section.unbatched_ok_rps = p.ok_rps;
    }
  }
  section.speedup = section.unbatched_ok_rps > 0
                        ? section.batched_ok_rps / section.unbatched_ok_rps
                        : 0;
  section.gates_ok = section.output_mismatches == 0 &&
                     section.unbatched_ok > 0 && section.batched_ok > 0 &&
                     section.speedup >= kBatchingSpeedupGate &&
                     section.batches > 0;
  return section;
}

void WriteJson(const std::string& path, bool smoke, const FidelityRow& fid,
               const std::vector<LoadRow>& load, const FrontendStats& stats,
               double knee_rps, double busy_onset_rps,
               const FairnessSection& fairness, const BatchingSection& batching,
               bool gates_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"serving_frontend\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"gates_ok\": %s,\n", gates_ok ? "true" : "false");
  std::fprintf(f,
               "  \"wire_fidelity\": {\"requests\": %zu, "
               "\"bitwise_identical\": %s, \"digest_echoed\": %s, "
               "\"pinned_ok\": %s},\n",
               fid.requests, fid.bitwise_identical ? "true" : "false",
               fid.digest_echoed ? "true" : "false",
               fid.pinned_ok ? "true" : "false");
  std::fprintf(f, "  \"open_loop\": [\n");
  for (size_t i = 0; i < load.size(); ++i) {
    const LoadRow& r = load[i];
    std::fprintf(
        f,
        "    {\"target_rps\": %.0f, \"offered\": %zu, \"answered\": %zu, "
        "\"ok\": %zu, \"busy\": %zu, \"expired\": %zu, \"error\": %zu, "
        "\"transport_errors\": %zu, \"achieved_rps\": %.1f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"duration_s\": %.2f}%s\n",
        r.target_rps, r.offered, r.answered, r.ok, r.busy, r.expired,
        r.error, r.transport_errors, r.achieved_rps, r.p50_ms, r.p95_ms,
        r.p99_ms, r.duration_s, i + 1 < load.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"knee_rps\": %.0f,\n", knee_rps);
  std::fprintf(f, "  \"busy_onset_rps\": %.0f,\n", busy_onset_rps);
  if (fairness.ran) {
    std::fprintf(
        f,
        "  \"fairness\": {\"trickle_rps\": %.0f, \"flood_offered_rps\": "
        "%.0f, \"flood_bucket_rps\": %.0f, \"trickle_solo_p95_ms\": %.3f, "
        "\"trickle_flood_p95_ms\": %.3f, \"p95_ratio\": %.2f, "
        "\"p95_limit\": %.1f, \"trickle_ok\": %zu, \"trickle_shed\": %zu, "
        "\"flood_offered\": %zu, \"flood_ok\": %zu, \"flood_throttled\": "
        "%zu, \"jain_index\": %.4f, \"gates_ok\": %s},\n",
        fairness.trickle_rps, fairness.flood_offered_rps,
        fairness.flood_bucket_rps, fairness.solo.p95_ms,
        fairness.trickle.p95_ms, fairness.p95_ratio, kTricklePressureRatio,
        fairness.trickle.ok,
        fairness.trickle.busy + fairness.trickle.expired +
            fairness.trickle.throttled,
        fairness.flood.offered, fairness.flood.ok, fairness.flood.throttled,
        fairness.jain, fairness.gates_ok ? "true" : "false");
  } else {
    std::fprintf(f, "  \"fairness\": {\"ran\": false},\n");
  }
  if (batching.ran) {
    std::fprintf(
        f,
        "  \"batching\": {\"calibration_ok_rps\": %.1f, \"target_rps\": "
        "%.0f, \"duration_s\": %.2f, "
        "\"unbatched_ok\": %zu, \"batched_ok\": %zu, \"unbatched_ok_rps\": "
        "%.1f, \"batched_ok_rps\": %.1f, \"speedup\": %.2f, "
        "\"speedup_gate\": %.1f, \"batches\": %zu, \"batched_requests\": "
        "%zu, \"output_mismatches\": %zu, \"gates_ok\": %s},\n",
        batching.calibration_ok_rps, batching.target_rps,
        batching.duration_s, batching.unbatched_ok, batching.batched_ok,
        batching.unbatched_ok_rps,
        batching.batched_ok_rps, batching.speedup, kBatchingSpeedupGate,
        batching.batches, batching.batched_requests,
        batching.output_mismatches, batching.gates_ok ? "true" : "false");
  } else {
    std::fprintf(f, "  \"batching\": {\"ran\": false},\n");
  }
  std::fprintf(f,
               "  \"frontend\": {\"accepted\": %llu, \"frames_in\": %llu, "
               "\"frames_out\": %llu, \"bytes_in\": %llu, "
               "\"bytes_out\": %llu, \"requests_admitted\": %llu, "
               "\"paused_reads\": %llu, \"decode_errors\": %llu, "
               "\"responses_dropped\": %llu}\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.frames_in),
               static_cast<unsigned long long>(stats.frames_out),
               static_cast<unsigned long long>(stats.bytes_in),
               static_cast<unsigned long long>(stats.bytes_out),
               static_cast<unsigned long long>(stats.requests_admitted),
               static_cast<unsigned long long>(stats.paused_reads),
               static_cast<unsigned long long>(stats.decode_errors),
               static_cast<unsigned long long>(stats.responses_dropped));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

enum class Mode {
  kFull,          // all four sections, full schedules
  kSmoke,         // fidelity + short ladder (CI serving-path gate)
  kFairnessGate,  // fairness + batching, short schedules (CI tenant gate)
};

int Run(Mode mode, const std::string& out_path) {
  const bool smoke = mode == Mode::kSmoke;
  bool gates_ok = true;
  FidelityRow fidelity_row;
  std::vector<LoadRow> load;
  FrontendStats stats{};
  double knee_rps = 0;
  double busy_onset_rps = 0;

  if (mode != Mode::kFairnessGate) {
    NetworkDef net = BuildMnist();
    auto recorded = RecordOnce(net);
    if (!recorded.ok()) {
      std::fprintf(stderr, "record failed: %s\n",
                   recorded.status().ToString().c_str());
      return 1;
    }
    RecordingStore store(recorded->session_key);
    if (!store.Install(recorded->signed_recording).ok()) {
      std::fprintf(stderr, "store install failed\n");
      return 1;
    }

    ServeConfig config;
    config.sku = kSku;
    config.workers = 2;
    ReplayService service(&store, config);
    auto digest = service.Preload(net.name);
    if (!digest.ok() || !service.Start().ok()) {
      std::fprintf(stderr, "service start failed\n");
      return 1;
    }
    ServingFrontend frontend(&service, FrontendConfig{});
    if (!frontend.Start().ok()) {
      std::fprintf(stderr, "frontend start failed\n");
      return 1;
    }
    std::printf("serving %s on 127.0.0.1:%u\n", net.name.c_str(),
                frontend.port());

    auto fidelity = RunFidelity(&service, frontend.port(), net, *digest);
    if (!fidelity.ok()) {
      std::fprintf(stderr, "fidelity section failed: %s\n",
                   fidelity.status().ToString().c_str());
      return 1;
    }
    if (!fidelity->bitwise_identical || !fidelity->digest_echoed ||
        !fidelity->pinned_ok) {
      std::fprintf(stderr,
                   "GATE FAILURE: wire fidelity (bitwise=%d digest=%d "
                   "pinned=%d)\n",
                   fidelity->bitwise_identical, fidelity->digest_echoed,
                   fidelity->pinned_ok);
      gates_ok = false;
    }
    std::printf("wire fidelity: %zu requests, bitwise %s, digest echo %s, "
                "pin %s\n",
                fidelity->requests,
                fidelity->bitwise_identical ? "ok" : "FAIL",
                fidelity->digest_echoed ? "ok" : "FAIL",
                fidelity->pinned_ok ? "ok" : "FAIL");
    fidelity_row = *fidelity;

    // Smoke: two fixed sub-saturation rates. Full: the fixed ladder, then
    // keep doubling (shorter windows — saturation shows up fast) until the
    // server starts shedding (BUSY/EXPIRED) or falls behind the offered
    // rate, so the sweep always walks past the knee instead of stopping at
    // an arbitrary last point. kRateCap bounds the bench on a host where
    // the server never saturates.
    constexpr double kRateCap = 25600;
    std::vector<double> rates = smoke ? std::vector<double>{25, 100}
                                      : std::vector<double>{25, 100, 400};
    size_t fixed_rates = rates.size();
    for (size_t i = 0; i < rates.size(); ++i) {
      double rps = rates[i];
      double duration_s = smoke ? 1.0 : (i < fixed_rates ? 2.5 : 1.5);
      auto row = RunLoad(frontend.port(), net, rps, duration_s, 4);
      if (!row.ok()) {
        std::fprintf(stderr, "load at %.0f rps failed: %s\n", rps,
                     row.status().ToString().c_str());
        return 1;
      }
      std::printf("%6.0f rps offered -> %zu/%zu answered (ok %zu, busy %zu, "
                  "expired %zu, error %zu)  p50 %.2f ms  p95 %.2f ms  "
                  "p99 %.2f ms\n",
                  row->target_rps, row->answered, row->offered, row->ok,
                  row->busy, row->expired, row->error, row->p50_ms,
                  row->p95_ms, row->p99_ms);
      // Every offered request must get an answer (possibly BUSY/EXPIRED —
      // but never silence). Pre-saturation the server must also do real
      // work; past the knee BUSY may legitimately dominate.
      bool saturated = row->busy > 0 || row->expired > 0;
      if (row->answered != row->offered || row->transport_errors != 0 ||
          (!saturated && row->ok == 0)) {
        std::fprintf(stderr,
                     "GATE FAILURE at %.0f rps: answered %zu/%zu, ok %zu, "
                     "transport errors %zu\n",
                     row->target_rps, row->answered, row->offered, row->ok,
                     row->transport_errors);
        gates_ok = false;
      }
      load.push_back(*row);
      bool keeping_up = row->achieved_rps >= 0.9 * row->target_rps;
      if (!smoke && i + 1 == rates.size() && !saturated && keeping_up &&
          rps * 2 <= kRateCap) {
        rates.push_back(rps * 2);
      }
    }

    // Knee: the last rate the server absorbed cleanly (no shedding, and it
    // kept up with the offered schedule). BUSY onset: where admission
    // control first kicked in (0 = never, i.e. the cap was reached first).
    for (const LoadRow& r : load) {
      bool clean = r.busy == 0 && r.expired == 0 &&
                   r.achieved_rps >= 0.9 * r.target_rps;
      if (clean && r.target_rps > knee_rps) {
        knee_rps = r.target_rps;
      }
      if (r.busy > 0 &&
          (busy_onset_rps == 0 || r.target_rps < busy_onset_rps)) {
        busy_onset_rps = r.target_rps;
      }
    }
    if (!smoke) {
      std::printf("saturation: knee %.0f rps, busy onset %s\n", knee_rps,
                  busy_onset_rps > 0
                      ? (std::to_string(static_cast<int>(busy_onset_rps)) +
                         " rps").c_str()
                      : "not reached");
    }

    stats = frontend.Stats();
    frontend.Shutdown();
    service.Stop();
  }

  FairnessSection fairness;
  BatchingSection batching;
  if (mode != Mode::kSmoke) {
    const bool quick = mode == Mode::kFairnessGate;
    auto f = RunFairness();
    if (!f.ok()) {
      std::fprintf(stderr, "fairness section failed: %s\n",
                   f.status().ToString().c_str());
      return 1;
    }
    fairness = *f;
    std::printf(
        "fairness: trickle p95 %.2f ms solo -> %.2f ms under flood "
        "(ratio %.2f, limit %.1f) | trickle ok %zu shed %zu | flood "
        "ok %zu throttled %zu | jain %.4f  [%s]\n",
        fairness.solo.p95_ms, fairness.trickle.p95_ms, fairness.p95_ratio,
        kTricklePressureRatio, fairness.trickle.ok,
        fairness.trickle.busy + fairness.trickle.expired +
            fairness.trickle.throttled,
        fairness.flood.ok, fairness.flood.throttled, fairness.jain,
        fairness.gates_ok ? "ok" : "GATE FAILURE");
    if (!fairness.gates_ok) {
      std::fprintf(stderr,
                   "GATE FAILURE: fairness (p95 %d, no-shed %d, "
                   "flood-throttled %d)\n",
                   fairness.p95_ok, fairness.no_shed_ok,
                   fairness.flood_throttled_ok);
      gates_ok = false;
    }

    auto b = RunBatching(quick);
    if (!b.ok()) {
      std::fprintf(stderr, "batching section failed: %s\n",
                   b.status().ToString().c_str());
      return 1;
    }
    batching = *b;
    std::printf(
        "batching @ %.0f rps (2x calibrated %.1f/s): unbatched %zu ok "
        "(%.1f/s) -> batched %zu ok (%.1f/s), speedup %.2fx (gate %.1fx), "
        "%zu batches (%zu riders), %zu output mismatches  [%s]\n",
        batching.target_rps, batching.calibration_ok_rps,
        batching.unbatched_ok, batching.unbatched_ok_rps,
        batching.batched_ok, batching.batched_ok_rps, batching.speedup,
        kBatchingSpeedupGate, batching.batches, batching.batched_requests,
        batching.output_mismatches,
        batching.gates_ok ? "ok" : "GATE FAILURE");
    if (!batching.gates_ok) {
      gates_ok = false;
    }
  }

  if (!out_path.empty()) {
    WriteJson(out_path, smoke, fidelity_row, load, stats, knee_rps,
              busy_onset_rps, fairness, batching, gates_ok);
  }
  return gates_ok ? 0 : 1;
}

}  // namespace
}  // namespace grt

int main(int argc, char** argv) {
  grt::Mode mode = grt::Mode::kFull;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      mode = grt::Mode::kSmoke;
    } else if (std::strcmp(argv[i], "--fairness-gate") == 0) {
      mode = grt::Mode::kFairnessGate;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke | --fairness-gate] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (out.empty() && mode == grt::Mode::kFull) {
    out = "BENCH_serving_frontend.json";
  }
  return grt::Run(mode, out);
}
