// Replay serving benchmark: the perf trajectory for the compiled replay
// fast path (src/record/plan) and the multi-session serving engine
// (src/serve).
//
// Five sections, all written to the JSON file so later changes can diff
// against this baseline:
//
//   1. Engine comparison — per example network, interpreter vs compiled
//      plan vs superoptimized (fused) plan, cold and warm, on the modeled
//      timeline (the Table-2 replay delay metric). Two gates live here:
//      a warm plan replay must apply strictly fewer memory bytes than the
//      interpreter, and the fused warm replay must beat the interpreter
//      warm replay by >= 1.5x on vgg16 (>= 1.3x on every network) with
//      bitwise-identical outputs. A per-stage breakdown table
//      (dispatch / reg-io / shader-exec / page-apply) shows where the
//      fused program wins. A kernel-engine table rides along: the
//      optimized shader-core kernel library (zero-copy DMA views, arena
//      scratch, blocked kernels) vs the pinned reference engine in host
//      wall-clock on the fused warm path — gated >= 2x on vgg16 and
//      >= 1.5x everywhere, with bitwise-identical outputs and an
//      engine-invariant modeled delay. After the gated runs, one more
//      optimized pass per network with metrics on splits the fused warm
//      replay's wall clock by op kind (gemm, conv2d, im2col, fill,
//      bias_relu, pool, other) from the hw.op_ns histograms; that table
//      is printed and written as kernel_op_breakdown, never gated.
//   2. Serving — a ReplayService with 1/2/4 workers, each a full
//      simulated device with its own virtual timeline. Two results: the
//      cold-vs-warm service-time speedup (a cold request pays recording
//      parse + static verification + plan compilation + the full memory
//      image; a warm one pays only dirty pages — the >= 1.5x gate), and
//      fleet throughput in modeled time (W devices genuinely run in
//      parallel in the modeled world; the simulator host serializes
//      them), so the scaling numbers are deterministic.
//   3. Dirty-page-ratio sweep — externally dirty a growing fraction of
//      the plan's *clean* image pages between warm replays (pages the
//      replay itself rewrites every run are re-applied regardless, and
//      injected tensor pages are never re-applied, so neither counts)
//      and chart how the warm-path cost degrades toward the cold cost.
//      Gated: applied bytes must be monotone in the dirtied-page count
//      and the 100% row must apply strictly more than the 50% row.
//   4. Shared device pool — MNIST plus a resource-partitioned twin
//      (disjoint carveout half, job slot, address space) whose static
//      footprints earn a `disjoint` verdict, served first on private
//      devices (devices == workers) and then co-resident on a single
//      pooled device. The bitwise gate lives here: every pooled answer
//      must equal the private-device answer byte for byte, and the pool
//      must actually report co-resident placements.
//   5. Cold-miss ledger — host wall time of each step a plan-cache miss
//      can take (store load, verify, compile, fuse, engine load, staging,
//      cold replay, readback; median of N), beside the median service
//      time of the misses a ReplayService serves while three digests of
//      the recording cycle through a one-plan cache. The difference shows
//      which steps a served miss still pays. Printed, never gated on time.
//      Runs on mnist, squeezenet and resnet12.
//
// `--smoke` runs sections 1 and 5 on MNIST only and exits nonzero if a
// gate fails — scripts/ci.sh uses it as the perf regression gate. The
// full mode writes BENCH_replay_serving.json into the current directory
// unless given `--out`; --smoke writes JSON only to an `--out` path, so a
// smoke run never replaces the committed full-mode file.
//
// `--perf-gate` runs section 1 on vgg16 only and enforces the headline
// fused-warm >= 1.5x gate — scripts/ci.sh runs it as the planopt perf
// smoke.
//
// `--obs-gate` times the smoke workload with observability off and fully
// on (metrics + tracing); the instrumented run must stay within 5% (plus
// a small absolute slack for timer noise) — scripts/ci.sh runs it so the
// tracing layer can never quietly tax the serving path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/analysis/footprint/footprint.h"
#include "src/analysis/planopt/planopt.h"
#include "src/analysis/verifier.h"
#include "src/cloud/session.h"
#include "src/harness/experiment.h"
#include "src/harness/rig.h"
#include "src/harness/table.h"
#include "src/ml/reference.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/record/plan.h"
#include "src/serve/service.h"
#include "src/sku/sku.h"

namespace grt {
namespace {

constexpr SkuId kSku = SkuId::kMaliG71Mp8;
constexpr uint64_t kNondetSeed = 11;
constexpr uint64_t kInputSeed = 42;
constexpr uint64_t kParamSeed = 7;
constexpr double kWarmSpeedupGate = 1.5;
// Fused (superoptimized) warm replay vs interpreter warm replay, modeled
// time. The headline network carries the paper-style >= 1.5x claim; every
// network must clear >= 1.3x.
constexpr double kFusedSpeedupGateAll = 1.3;
constexpr double kFusedSpeedupGateHeadline = 1.5;
constexpr const char* kFusedHeadlineNet = "vgg16";

double FusedGateFor(const std::string& workload) {
  return workload == kFusedHeadlineNet ? kFusedSpeedupGateHeadline
                                       : kFusedSpeedupGateAll;
}

// Kernel-engine wall gate: the optimized shader-core kernel library
// (zero-copy DMA views + arena scratch + blocked kernels) vs the pinned
// reference engine, measured in host wall-clock on the fused warm path.
// The modeled timeline can't see this win — both engines charge the same
// MAC/byte costs by construction — so the gate lives on steady_clock.
// Headline network >= 2x, every network >= 1.5x, min-of-N warm replays.
constexpr double kKernelWallGateHeadline = 2.0;
constexpr double kKernelWallGateAll = 1.5;
constexpr int kKernelWallReps = 5;

double KernelGateFor(const std::string& workload) {
  return workload == kFusedHeadlineNet ? kKernelWallGateHeadline
                                       : kKernelWallGateAll;
}

struct RecordedNet {
  NetworkDef net;
  Recording recording;
  Bytes signed_recording;
  Bytes session_key;
};

// What a serving request stages for `net`: its input and every parameter
// tensor.
std::map<std::string, std::vector<float>> RequestTensors(
    const NetworkDef& net, uint64_t input_seed) {
  std::map<std::string, std::vector<float>> tensors;
  tensors[net.input_tensor] = GenerateInput(net, input_seed);
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      tensors[t.name] = GenerateParams(net.name, t, kParamSeed);
    }
  }
  return tensors;
}

// Upper median of wall-clock nanosecond samples, in milliseconds (0 for
// none).
double MedianMs(std::vector<int64_t> ns) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) / 1e6;
}

Result<RecordedNet> RecordOnce(const NetworkDef& net) {
  ClientDevice device(kSku, kNondetSeed);
  SpeculationHistory history;
  GRT_ASSIGN_OR_RETURN(RecordMeasurement m,
                       RunRecordVariant(&device, net, "OursMDS",
                                        WifiConditions(), &history, 0));
  GRT_ASSIGN_OR_RETURN(Recording rec,
                       Recording::ParseSigned(m.signed_recording,
                                              m.session_key));
  return RecordedNet{net, std::move(rec), std::move(m.signed_recording),
                     std::move(m.session_key)};
}

// Per-stage decomposition of one replay's modeled time: register
// dispatch (job-slot submission MMIO, incl. fused spans), other register
// I/O, shader-execution waits (irq waits + recorded delays + poll
// progress), and memory page application. Readback is reported
// separately by the serving bench; here the residue (delay minus the
// four stages) is plan bookkeeping.
struct Stages {
  Duration dispatch = 0, reg_io = 0, shader_exec = 0, page_apply = 0;
};

Stages StagesOf(const ReplayReport& report) {
  return Stages{report.stage_dispatch, report.stage_reg_io,
                report.stage_shader_exec, report.stage_page_apply};
}

struct EngineRow {
  std::string workload;
  Duration interp_cold = 0, interp_warm = 0;
  Duration plan_cold = 0, plan_warm = 0;
  Duration fused_warm = 0;
  // Host wall-clock of the warm replays (informational here; the
  // ref-vs-opt kernel gate lives in KernelRow where it is min-of-N).
  uint64_t interp_warm_wall_ns = 0, plan_warm_wall_ns = 0;
  uint64_t fused_warm_wall_ns = 0;
  uint64_t interp_warm_bytes = 0, plan_warm_bytes = 0;
  uint64_t fused_warm_bytes = 0;       // bytes applied in coalesced runs
  uint64_t plan_pages_skipped = 0;
  size_t fused_spans = 0;              // kRegSpan ops executed warm
  size_t fused_span_writes = 0;        // register writes inside them
  bool fused_used = false;             // warm program actually executed
  Stages interp_stages, plan_stages, fused_stages;
  bool outputs_identical = false;
  bool matches_reference = false;

  double warm_speedup() const {
    return plan_warm == 0 ? 0.0 : static_cast<double>(interp_warm) /
                                      static_cast<double>(plan_warm);
  }
  double fused_speedup() const {
    return fused_warm == 0 ? 0.0 : static_cast<double>(interp_warm) /
                                       static_cast<double>(fused_warm);
  }
  bool gates_ok() const {
    return outputs_identical && matches_reference &&
           plan_warm_bytes < interp_warm_bytes && fused_used &&
           fused_speedup() >= FusedGateFor(workload);
  }
};

enum class EngineMode { kInterp, kPlan, kFusedPlan };

struct EngineRun {
  std::vector<float> cold_output, warm_output;
  ReplayReport cold, warm;
};

Result<EngineRun> ReplayColdWarm(const RecordedNet& r, EngineMode mode) {
  ClientDevice device(kSku, kNondetSeed);
  ReplayConfig config;
  config.use_plan = mode != EngineMode::kInterp;
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), config);
  if (mode == EngineMode::kFusedPlan) {
    // Compile + superoptimize explicitly so a declined build is a bench
    // failure, not a silent fallback to the interpreted plan.
    auto rec = std::make_shared<const Recording>(r.recording);
    auto plan = std::make_unique<ReplayPlan>(CompileReplayPlan(*rec));
    GRT_ASSIGN_OR_RETURN(GpuSku sku, FindSku(kSku));
    std::string decline;
    GRT_RETURN_IF_ERROR(AttachWarmProgram(plan.get(), sku, &decline));
    if (plan->warm == nullptr) {
      return Internal("superoptimizer declined " + r.net.name + ": " +
                      decline);
    }
    GRT_RETURN_IF_ERROR(replayer.LoadShared(
        rec, std::shared_ptr<const ReplayPlan>(std::move(plan))));
  } else {
    GRT_RETURN_IF_ERROR(replayer.Load(r.recording));
  }
  std::vector<float> input = GenerateInput(r.net, kInputSeed);
  GRT_RETURN_IF_ERROR(replayer.StageTensor(r.net.input_tensor, input));
  for (const TensorDef& t : r.net.tensors) {
    if (t.kind == TensorKind::kParam) {
      GRT_RETURN_IF_ERROR(replayer.StageTensor(
          t.name, GenerateParams(r.net.name, t, kParamSeed)));
    }
  }
  EngineRun run;
  GRT_ASSIGN_OR_RETURN(run.cold, replayer.Replay());
  GRT_ASSIGN_OR_RETURN(run.cold_output,
                       replayer.ReadTensor(r.net.output_tensor));
  GRT_RETURN_IF_ERROR(replayer.StageTensor(r.net.input_tensor, input));
  GRT_ASSIGN_OR_RETURN(run.warm, replayer.Replay());
  GRT_ASSIGN_OR_RETURN(run.warm_output,
                       replayer.ReadTensor(r.net.output_tensor));
  // The cold replay arms the warm program; the warm one must have run it.
  if (mode == EngineMode::kFusedPlan && !run.warm.warm_program_used) {
    return Internal("fused warm replay of " + r.net.name +
                    " fell back to the interpreted plan path");
  }
  return run;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

Result<EngineRow> CompareEngines(const RecordedNet& r) {
  GRT_ASSIGN_OR_RETURN(EngineRun interp,
                       ReplayColdWarm(r, EngineMode::kInterp));
  GRT_ASSIGN_OR_RETURN(EngineRun plan, ReplayColdWarm(r, EngineMode::kPlan));
  GRT_ASSIGN_OR_RETURN(EngineRun fused,
                       ReplayColdWarm(r, EngineMode::kFusedPlan));
  EngineRow row;
  row.workload = r.net.name;
  row.interp_cold = interp.cold.delay;
  row.interp_warm = interp.warm.delay;
  row.plan_cold = plan.cold.delay;
  row.plan_warm = plan.warm.delay;
  row.fused_warm = fused.warm.delay;
  row.interp_warm_wall_ns = interp.warm.wall_ns;
  row.plan_warm_wall_ns = plan.warm.wall_ns;
  row.fused_warm_wall_ns = fused.warm.wall_ns;
  row.interp_warm_bytes = interp.warm.mem_bytes_applied;
  row.plan_warm_bytes = plan.warm.mem_bytes_applied;
  row.fused_warm_bytes = fused.warm.mem_bytes_applied_fused;
  row.plan_pages_skipped = plan.warm.pages_skipped_clean;
  row.fused_spans = fused.warm.fused_spans_executed;
  row.fused_span_writes = fused.warm.fused_writes_executed;
  row.fused_used = fused.warm.warm_program_used;
  row.interp_stages = StagesOf(interp.warm);
  row.plan_stages = StagesOf(plan.warm);
  row.fused_stages = StagesOf(fused.warm);
  row.outputs_identical =
      BitIdentical(interp.cold_output, interp.warm_output) &&
      BitIdentical(interp.cold_output, plan.cold_output) &&
      BitIdentical(interp.cold_output, plan.warm_output) &&
      BitIdentical(interp.cold_output, fused.cold_output) &&
      BitIdentical(interp.cold_output, fused.warm_output);
  GRT_ASSIGN_OR_RETURN(std::vector<float> ref,
                       RunReference(r.net, GenerateInput(r.net, kInputSeed),
                                    kParamSeed));
  row.matches_reference = MaxAbsDiff(fused.warm_output, ref) <= 1e-4f &&
                          MaxAbsDiff(plan.warm_output, ref) <= 1e-4f;
  return row;
}

// ------------------------------------------ kernel engine (wall clock)

struct KernelRow {
  std::string workload;
  uint64_t ref_wall_ns = 0, opt_wall_ns = 0;  // min-of-N full warm replay
  uint64_t ref_shader_wall_ns = 0, opt_shader_wall_ns = 0;
  bool bitwise_identical = false;   // opt output == ref output, byte-wise
  bool matches_reference = false;   // vs the float reference model
  bool modeled_time_invariant = false;  // warm delay identical both ways

  double wall_speedup() const {
    return opt_wall_ns == 0 ? 0.0 : static_cast<double>(ref_wall_ns) /
                                        static_cast<double>(opt_wall_ns);
  }
  double shader_speedup() const {
    return opt_shader_wall_ns == 0
               ? 0.0
               : static_cast<double>(ref_shader_wall_ns) /
                     static_cast<double>(opt_shader_wall_ns);
  }
  bool gates_ok() const {
    return bitwise_identical && matches_reference && modeled_time_invariant &&
           wall_speedup() >= KernelGateFor(workload);
  }
};

struct KernelEngineRun {
  uint64_t min_wall_ns = 0;
  uint64_t min_shader_wall_ns = 0;
  Duration warm_delay = 0;  // modeled; must not depend on the engine
  std::vector<float> output;
};

// The op kinds of the per-op breakdown, and the hw.op_ns histogram each
// GpuOp's job time is recorded in (ExecuteJob, with metrics on).
constexpr const char* kBreakdownOps[] = {
    "gemm", "conv2d", "im2col", "fill", "bias_relu", "pool", "other"};
constexpr size_t kBreakdownOpCount = std::size(kBreakdownOps);
constexpr struct {
  const char* histogram;
  size_t op;  // index into kBreakdownOps
} kOpHistograms[] = {
    {"hw.op_ns.gemm", 0},      {"hw.op_ns.conv2d", 1},
    {"hw.op_ns.im2col", 2},    {"hw.op_ns.fill", 3},
    {"hw.op_ns.bias_relu", 4}, {"hw.op_ns.pool_max", 5},
    {"hw.op_ns.pool_avg", 5},  {"hw.op_ns.eltwise_add", 6},
    {"hw.op_ns.softmax", 6},   {"hw.op_ns.copy", 6},
    {"hw.op_ns.nop", 6}};

// Host wall time per op kind of the optimized fused warm replay, taken
// with metrics on after the gated runs from the fastest of
// kKernelWallReps replays, as the gate takes its minimum. Printed and
// written to JSON, never gated.
struct KernelOpRow {
  std::string workload;
  double replay_ms = 0;
  double op_ms[kBreakdownOpCount] = {};

  double share(size_t op) const {
    return replay_ms == 0 ? 0.0 : op_ms[op] / replay_ms;
  }
};

// Metrics on for the guard's lifetime.
struct MetricsOn {
  MetricsOn() { obs::SetEnabled(true); }
  ~MetricsOn() { obs::SetEnabled(false); }
  MetricsOn(const MetricsOn&) = delete;
  MetricsOn& operator=(const MetricsOn&) = delete;
};

// Fused warm replay under the given kernel engine: one cold replay to arm
// the warm program, then kKernelWallReps warm replays keeping the
// minimum host wall time (full replay and shader-exec alone). With
// `ops`, the warm replays run with metrics on, and the hw.op_ns
// histograms of the fastest one fill in the per-op breakdown.
Result<KernelEngineRun> RunFusedWarmWall(const RecordedNet& r,
                                         KernelEngine engine,
                                         KernelOpRow* ops = nullptr) {
  ClientDevice device(kSku, kNondetSeed);
  device.gpu().SetKernelEngine(engine);
  ReplayConfig config;
  config.use_plan = true;
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), config);
  auto rec = std::make_shared<const Recording>(r.recording);
  auto plan = std::make_unique<ReplayPlan>(CompileReplayPlan(*rec));
  GRT_ASSIGN_OR_RETURN(GpuSku sku, FindSku(kSku));
  std::string decline;
  GRT_RETURN_IF_ERROR(AttachWarmProgram(plan.get(), sku, &decline));
  if (plan->warm == nullptr) {
    return Internal("superoptimizer declined " + r.net.name + ": " + decline);
  }
  GRT_RETURN_IF_ERROR(replayer.LoadShared(
      rec, std::shared_ptr<const ReplayPlan>(std::move(plan))));
  std::vector<float> input = GenerateInput(r.net, kInputSeed);
  GRT_RETURN_IF_ERROR(replayer.StageTensor(r.net.input_tensor, input));
  for (const TensorDef& t : r.net.tensors) {
    if (t.kind == TensorKind::kParam) {
      GRT_RETURN_IF_ERROR(replayer.StageTensor(
          t.name, GenerateParams(r.net.name, t, kParamSeed)));
    }
  }
  GRT_RETURN_IF_ERROR(replayer.Replay().status());  // cold; arms warm path
  std::optional<MetricsOn> metrics;
  if (ops != nullptr) {
    metrics.emplace();
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  KernelEngineRun run;
  for (int i = 0; i < kKernelWallReps; ++i) {
    GRT_RETURN_IF_ERROR(replayer.StageTensor(r.net.input_tensor, input));
    if (ops != nullptr) {
      for (const auto& h : kOpHistograms) {
        registry.GetHistogram(h.histogram)->Reset();
      }
    }
    GRT_ASSIGN_OR_RETURN(ReplayReport warm, replayer.Replay());
    if (!warm.warm_program_used) {
      return Internal("kernel wall bench: " + r.net.name +
                      " fell back to the interpreted plan path");
    }
    if (i == 0 || warm.wall_ns < run.min_wall_ns) {
      run.min_wall_ns = warm.wall_ns;
      if (ops != nullptr) {
        *ops = KernelOpRow{r.net.name,
                           static_cast<double>(warm.wall_ns) / 1e6};
        for (const auto& h : kOpHistograms) {
          ops->op_ms[h.op] += static_cast<double>(
                                  registry.GetHistogram(h.histogram)
                                      ->Snapshot()
                                      .sum) /
                              1e6;
        }
      }
    }
    if (i == 0 || warm.wall_shader_exec_ns < run.min_shader_wall_ns) {
      run.min_shader_wall_ns = warm.wall_shader_exec_ns;
    }
    run.warm_delay = warm.delay;
  }
  GRT_ASSIGN_OR_RETURN(run.output, replayer.ReadTensor(r.net.output_tensor));
  return run;
}

Result<KernelRow> CompareKernelEngines(const RecordedNet& r) {
  GRT_ASSIGN_OR_RETURN(KernelEngineRun ref,
                       RunFusedWarmWall(r, KernelEngine::kReference));
  GRT_ASSIGN_OR_RETURN(KernelEngineRun opt,
                       RunFusedWarmWall(r, KernelEngine::kOptimized));
  KernelRow row;
  row.workload = r.net.name;
  row.ref_wall_ns = ref.min_wall_ns;
  row.opt_wall_ns = opt.min_wall_ns;
  row.ref_shader_wall_ns = ref.min_shader_wall_ns;
  row.opt_shader_wall_ns = opt.min_shader_wall_ns;
  row.bitwise_identical = BitIdentical(ref.output, opt.output);
  row.modeled_time_invariant = ref.warm_delay == opt.warm_delay;
  GRT_ASSIGN_OR_RETURN(std::vector<float> reference,
                       RunReference(r.net, GenerateInput(r.net, kInputSeed),
                                    kParamSeed));
  row.matches_reference = MaxAbsDiff(opt.output, reference) <= 1e-4f;
  return row;
}

// The per-op breakdown pass: one more optimized run, after the gated
// ones, so metrics never touch the gate's timing.
Result<KernelOpRow> MeasureKernelOps(const RecordedNet& r) {
  KernelOpRow row;
  GRT_RETURN_IF_ERROR(
      RunFusedWarmWall(r, KernelEngine::kOptimized, &row).status());
  return row;
}

struct ScalingRow {
  int workers = 0;
  size_t requests = 0;
  double avg_replay_ms = 0;
  double p95_replay_ms = 0;
  double throughput_rps = 0;  // modeled: workers / avg replay delay
  double efficiency = 1.0;    // vs. linear scaling of the 1-worker rate
  double warm_fraction = 0;
  double wall_seconds = 0;  // host-side, informational only
  // Host CPU cost of a request by temperature. compile: plan-cache miss
  // (blob hash + parse + static verify + plan compile + everything
  // below). cold: plan cached but first landing on this worker (engine
  // load + full image application). warm: steady state (dirty pages
  // only). The compile/warm ratio is the serving engine's reason to
  // exist — and the bench's >= 1.5x gate.
  double compile_service_ms = 0;
  double cold_service_ms = 0;
  double warm_service_ms = 0;
  // Pulled from ReplayService::SnapshotMetrics() — the service's own
  // accounting, cross-checkable against the response-derived numbers
  // above.
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t warm_replays = 0;
  // Planopt integration: plans that got a warm program attached at
  // resolve time, and replays that actually executed the fused schedule.
  uint64_t plans_fused = 0;
  uint64_t fused_replays = 0;
  double queue_wait_p95_ms = 0;
  double service_p95_ms = 0;

  double warm_speedup() const {
    return warm_service_ms == 0 ? 0.0 : compile_service_ms / warm_service_ms;
  }
};

Result<ScalingRow> RunScaling(const RecordingStore& store,
                              const RecordedNet& r, int workers,
                              size_t requests_per_worker) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = workers;
  ReplayService service(&store, config);
  // No Preload: the first request pays the full compile-cold path, which
  // is exactly the cost the warm-speedup gate compares against.
  GRT_RETURN_IF_ERROR(service.Start());

  size_t total = requests_per_worker * static_cast<size_t>(workers);
  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::future<ReplayResponse>> futures;
  futures.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    ReplayRequest request;
    request.workload = r.net.name;
    request.tensors = RequestTensors(r.net, kInputSeed + i);
    request.output_tensor = r.net.output_tensor;
    futures.push_back(service.SubmitAsync(std::move(request)));
  }

  std::vector<Duration> delays;
  std::vector<int64_t> compile_ns, cold_ns, warm_ns;
  for (auto& f : futures) {
    ReplayResponse response = f.get();
    GRT_RETURN_IF_ERROR(response.status);
    delays.push_back(response.report.delay);
    if (!response.plan_cache_hit) {
      compile_ns.push_back(response.service_ns);
    } else if (!response.report.warm) {
      cold_ns.push_back(response.service_ns);
    } else {
      warm_ns.push_back(response.service_ns);
    }
  }
  obs::MetricsSnapshot metrics = service.SnapshotMetrics();
  ServeStats sstats = service.Stats();
  service.Stop();
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();

  std::sort(delays.begin(), delays.end());
  Duration sum = 0;
  for (Duration d : delays) sum += d;
  double avg_s = ToSeconds(sum) / static_cast<double>(delays.size());

  ScalingRow row;
  row.workers = workers;
  row.requests = total;
  row.avg_replay_ms = avg_s * 1e3;
  row.p95_replay_ms = ToMilliseconds(delays[delays.size() * 95 / 100]);
  // Each worker is one simulated device; a fleet of W devices sustains
  // W / avg_delay requests per modeled second. avg includes each worker's
  // one cold replay, so the per-request cost (and hence efficiency) is
  // honestly diluted as the fleet grows.
  row.throughput_rps = static_cast<double>(workers) / avg_s;
  row.warm_fraction =
      static_cast<double>(warm_ns.size()) / static_cast<double>(delays.size());
  row.wall_seconds = wall;
  auto mean_ms = [](const std::vector<int64_t>& v) {
    if (v.empty()) return 0.0;
    int64_t acc = 0;
    for (int64_t ns : v) acc += ns;
    return static_cast<double>(acc) / static_cast<double>(v.size()) / 1e6;
  };
  row.compile_service_ms = mean_ms(compile_ns);
  row.cold_service_ms = mean_ms(cold_ns);
  row.warm_service_ms = MedianMs(warm_ns);
  row.plan_hits = metrics.counter("serve.plan_hits");
  row.plan_misses = metrics.counter("serve.plan_misses");
  row.warm_replays = metrics.counter("serve.warm_replays");
  row.plans_fused = sstats.plans_fused;
  row.fused_replays = sstats.fused_replays;
  if (const obs::HistogramSnapshot* h =
          metrics.histogram("serve.queue_wait_ns")) {
    row.queue_wait_p95_ms = static_cast<double>(h->Percentile(95)) / 1e6;
  }
  if (const obs::HistogramSnapshot* h =
          metrics.histogram("serve.service_ns")) {
    row.service_p95_ms = static_cast<double>(h->Percentile(95)) / 1e6;
  }
  // The service's accounting and the response stream must agree.
  if (row.warm_replays != warm_ns.size()) {
    return Internal("SnapshotMetrics warm_replays " +
                    std::to_string(row.warm_replays) +
                    " != observed warm responses " +
                    std::to_string(warm_ns.size()));
  }
  if (row.plan_misses != compile_ns.size()) {
    return Internal("SnapshotMetrics plan_misses " +
                    std::to_string(row.plan_misses) +
                    " != observed cache-miss responses " +
                    std::to_string(compile_ns.size()));
  }
  return row;
}

// ------------------------------------------------- shared device pool

// Records `net` under an explicit resource partition (carveout offset +
// job slot + address space) so its footprint is disjoint from a
// default-partition recording's.
Result<RecordedNet> RecordPartitioned(NetworkDef net, uint64_t alloc_offset,
                                      int job_slot, int as_index,
                                      uint64_t nonce) {
  ClientDevice device(kSku, kNondetSeed);
  CloudService service;
  SpeculationHistory history;
  RecordSessionConfig config;
  config.alloc_offset = alloc_offset;
  config.driver.job_slot = job_slot;
  config.driver.as_index = as_index;
  RecordSession session(&service, &device, config, &history);
  GRT_RETURN_IF_ERROR(session.Connect());
  GRT_ASSIGN_OR_RETURN(RecordOutcome outcome,
                       session.RecordWorkload(net, nonce));
  GRT_ASSIGN_OR_RETURN(Recording rec,
                       Recording::ParseSigned(outcome.signed_recording,
                                              session.key()->key()));
  return RecordedNet{std::move(net), std::move(rec),
                     std::move(outcome.signed_recording),
                     session.key()->key()};
}

struct PoolRow {
  int devices = 0;
  int workers = 0;
  size_t requests = 0;
  uint64_t coresident_placements = 0;
  uint64_t conflict_evictions = 0;
  double warm_fraction = 0;
  double avg_replay_ms = 0;
  bool bitwise_identical = false;  // vs the private-device outputs
};

// Serves `requests_per_plan` requests of each plan on a service with the
// given worker/device split and returns per-(workload, seed) outputs.
Result<PoolRow> RunPool(const RecordingStore& store,
                        const std::vector<const RecordedNet*>& plans,
                        int workers, int devices, size_t requests_per_plan,
                        std::map<std::string, std::vector<float>>* outputs) {
  ServeConfig config;
  config.sku = kSku;
  config.workers = workers;
  config.devices = devices;
  ReplayService service(&store, config);
  GRT_RETURN_IF_ERROR(service.Start());

  PoolRow row;
  row.devices = devices;
  row.workers = workers;
  row.bitwise_identical = true;
  std::vector<Duration> delays;
  size_t warm = 0;
  for (size_t i = 0; i < requests_per_plan; ++i) {
    for (const RecordedNet* plan : plans) {
      ReplayRequest request;
      request.workload = plan->net.name;
      request.tensors = RequestTensors(plan->net, kInputSeed + i);
      request.output_tensor = plan->net.output_tensor;
      ReplayResponse response = service.Submit(std::move(request));
      GRT_RETURN_IF_ERROR(response.status);
      ++row.requests;
      delays.push_back(response.report.delay);
      if (response.report.warm) ++warm;
      std::string key = plan->net.name + "#" + std::to_string(i);
      auto [it, inserted] = outputs->emplace(key, response.output);
      if (!inserted && !BitIdentical(it->second, response.output)) {
        row.bitwise_identical = false;
      }
    }
  }
  ServeStats stats = service.Stats();
  row.coresident_placements = stats.coresident_placements;
  row.conflict_evictions = stats.conflict_evictions;
  row.warm_fraction =
      static_cast<double>(warm) / static_cast<double>(delays.size());
  Duration sum = 0;
  for (Duration d : delays) sum += d;
  row.avg_replay_ms =
      ToMilliseconds(sum) / static_cast<double>(delays.size());
  return row;
}

struct SweepRow {
  double target_ratio = 0;
  uint32_t pages_dirtied = 0;
  uint64_t pages_applied = 0;
  uint64_t pages_skipped = 0;
  uint64_t mem_bytes_applied = 0;
  uint64_t mem_bytes_applied_fused = 0;  // of those, via coalesced runs
  double replay_ms = 0;
};

// Physical pages the replayer will never re-apply because an injected
// (staged) tensor supersedes them. Dirtying these is a no-op for the warm
// path, so the sweep must walk around them — the seed bench dirtied the
// first n image pages blindly and the 50% and 100% rows came out
// identical (every page past ~50% was tensor-backed).
std::unordered_set<uint64_t> InjectedPageSet(const RecordedNet& r) {
  std::unordered_set<uint64_t> injected;
  auto add = [&](const std::string& name) {
    auto it = r.recording.bindings.find(name);
    if (it == r.recording.bindings.end()) return;
    injected.insert(it->second.pages.begin(), it->second.pages.end());
  };
  add(r.net.input_tensor);
  for (const TensorDef& t : r.net.tensors) {
    if (t.kind == TensorKind::kParam) add(t.name);
  }
  return injected;
}

// Initial-image pages eligible for marginal dirtying: not superseded by
// an injected tensor and not already dirty (the replay itself rewrites
// GPU-output/activation pages every run, so those get re-applied no
// matter what — dirtying them adds zero marginal work and was why the
// seed sweep's 50% and 100% rows came out identical).
std::vector<uint64_t> CleanCandidatePages(
    const ReplayPlan& plan, const std::unordered_set<uint64_t>& injected,
    const DirtyPageSet& dirty) {
  std::vector<uint64_t> candidates;
  for (const PlanRegion& region : plan.regions) {
    for (uint32_t i = 0; i < region.n_pages; ++i) {
      uint64_t pa = region.page_pa(i);
      if (injected.count(pa) == 0 && !dirty.Contains(pa)) {
        candidates.push_back(pa);
      }
    }
  }
  return candidates;
}

// Touches the first `n` candidate pages (rewriting each page's first
// byte with its current value: contents unchanged, dirty-tracking
// fires).
Status DirtyPages(ClientDevice* device, const std::vector<uint64_t>& pages,
                  uint32_t n) {
  for (uint32_t i = 0; i < n && i < pages.size(); ++i) {
    uint8_t b = 0;
    GRT_RETURN_IF_ERROR(device->mem().Read(pages[i], &b, 1));
    GRT_RETURN_IF_ERROR(device->mem().Write(pages[i], &b, 1));
  }
  return OkStatus();
}

Result<std::vector<SweepRow>> RunDirtySweep(const RecordedNet& r) {
  ClientDevice device(kSku, kNondetSeed);
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), ReplayConfig{});
  GRT_RETURN_IF_ERROR(replayer.Load(r.recording));
  std::vector<float> input = GenerateInput(r.net, kInputSeed);
  GRT_RETURN_IF_ERROR(replayer.StageTensor(r.net.input_tensor, input));
  for (const TensorDef& t : r.net.tensors) {
    if (t.kind == TensorKind::kParam) {
      GRT_RETURN_IF_ERROR(replayer.StageTensor(
          t.name, GenerateParams(r.net.name, t, kParamSeed)));
    }
  }
  GRT_RETURN_IF_ERROR(replayer.Replay().status());  // cold; arms tracking
  const ReplayPlan& plan = *replayer.plan();

  std::unordered_set<uint64_t> injected = InjectedPageSet(r);

  std::vector<SweepRow> rows;
  for (double ratio : {0.0, 0.05, 0.25, 0.5, 1.0}) {
    // Re-derive the clean candidate set each row: after the previous
    // warm replay re-applied its dirtied pages they are clean again,
    // while the steady-state dirty set (GPU-rewritten pages) never
    // leaves it.
    std::vector<uint64_t> candidates =
        CleanCandidatePages(plan, injected, replayer.dirty_pages());
    if (candidates.empty()) {
      return Internal("dirty sweep: no clean candidate pages to dirty");
    }
    uint32_t n = static_cast<uint32_t>(ratio * candidates.size() + 0.5);
    GRT_RETURN_IF_ERROR(DirtyPages(&device, candidates, n));
    GRT_RETURN_IF_ERROR(replayer.StageTensor(r.net.input_tensor, input));
    GRT_ASSIGN_OR_RETURN(ReplayReport report, replayer.Replay());
    SweepRow row;
    row.target_ratio = ratio;
    row.pages_dirtied = n;
    row.pages_applied = report.pages_applied;
    row.pages_skipped = report.pages_skipped_clean;
    row.mem_bytes_applied = report.mem_bytes_applied;
    row.mem_bytes_applied_fused = report.mem_bytes_applied_fused;
    row.replay_ms = ToMilliseconds(report.delay);
    rows.push_back(row);
  }
  // Applied bytes must be monotone in the dirtied-page count — the seed
  // bug this sweep now guards against was the 50% and 100% rows
  // collapsing to the same applied footprint.
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].mem_bytes_applied < rows[i - 1].mem_bytes_applied) {
      return Internal("applied bytes not monotone: row " + std::to_string(i) +
                      " applied " + std::to_string(rows[i].mem_bytes_applied) +
                      " < " + std::to_string(rows[i - 1].mem_bytes_applied));
    }
  }
  if (rows.back().pages_dirtied > rows[rows.size() - 2].pages_dirtied &&
      rows.back().mem_bytes_applied <=
          rows[rows.size() - 2].mem_bytes_applied) {
    return Internal("dirty sweep: 100% row applied no more bytes than the "
                    "50% row (" +
                    std::to_string(rows.back().mem_bytes_applied) + ")");
  }
  // The sweep must not have moved the answer.
  GRT_ASSIGN_OR_RETURN(std::vector<float> out,
                       replayer.ReadTensor(r.net.output_tensor));
  GRT_ASSIGN_OR_RETURN(std::vector<float> ref,
                       RunReference(r.net, input, kParamSeed));
  if (MaxAbsDiff(out, ref) > 1e-4f) {
    return Internal("dirty sweep perturbed the replay output");
  }
  return rows;
}

// ------------------------------------------------- cold-miss ledger

// Networks the ledger runs on in full mode (--smoke: mnist alone).
const char* const kMissLedgerNets[] = {"mnist", "squeezenet", "resnet12"};
constexpr int kMissLedgerReps = 15;
// The recording plus two re-signed twins: three digests for one plan slot.
constexpr size_t kMissLedgerDigests = 3;

bool RunsMissLedger(const std::string& workload) {
  return std::find_if(std::begin(kMissLedgerNets), std::end(kMissLedgerNets),
                      [&](const char* n) { return workload == n; }) !=
         std::end(kMissLedgerNets);
}

// Host wall milliseconds per step of one plan-cache miss, median of
// kMissLedgerReps, and the served misses beside them.
struct MissLedgerRow {
  std::string workload;
  size_t blob_bytes = 0;  // the stored signed recording
  double store_load_ms = 0;
  double verify_ms = 0;
  double compile_ms = 0;
  double fuse_ms = 0;
  double engine_load_ms = 0;
  double stage_ms = 0;
  double cold_replay_ms = 0;
  double readback_ms = 0;
  // Median service time of the misses a ReplayService served after each
  // digest's first resolve, and the admissions it counted (one per
  // digest when a miss on a current binding skips the store and the
  // verifier).
  double served_miss_ms = 0;
  uint64_t admissions = 0;
};

Result<MissLedgerRow> RunMissLedger(const RecordedNet& r) {
  MissLedgerRow row;
  row.workload = r.net.name;
  row.blob_bytes = r.signed_recording.size();
  RecordingStore store(r.session_key);
  GRT_RETURN_IF_ERROR(store.Install(r.signed_recording));
  // Fill the store's parse cache: a resolve's store load is then the
  // SHA-256 of the stored blob alone.
  GRT_RETURN_IF_ERROR(store.LoadShared(r.net.name, kSku).status());
  GRT_ASSIGN_OR_RETURN(GpuSku sku, FindSku(kSku));
  const auto tensors = RequestTensors(r.net, kInputSeed);
  auto out = r.recording.bindings.find(r.net.output_tensor);
  if (out == r.recording.bindings.end()) {
    return NotFound("no output binding for " + r.net.name);
  }
  std::vector<float> output(out->second.n_floats);

  // The steps, timed one by one in the order a miss runs them. Each rep
  // builds a fresh engine on one device, as a serving worker does when a
  // recompiled plan lands on its device.
  ClientDevice device(kSku, kNondetSeed);
  ReplayConfig config;
  config.static_verify = false;  // verification is its own step here
  std::vector<int64_t> store_ns, verify_ns, compile_ns, fuse_ns, load_ns,
      stage_ns, replay_ns, readback_ns;
  auto since = [](std::chrono::steady_clock::time_point& t) {
    auto now = std::chrono::steady_clock::now();
    int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - t).count();
    t = now;
    return ns;
  };
  for (int i = 0; i < kMissLedgerReps; ++i) {
    auto t = std::chrono::steady_clock::now();
    GRT_ASSIGN_OR_RETURN(std::shared_ptr<const Recording> rec,
                         store.LoadShared(r.net.name, kSku));
    store_ns.push_back(since(t));
    GRT_RETURN_IF_ERROR(VerifyRecording(*rec));
    verify_ns.push_back(since(t));
    auto plan = std::make_unique<ReplayPlan>(CompileReplayPlan(*rec));
    compile_ns.push_back(since(t));
    std::string decline;
    GRT_RETURN_IF_ERROR(AttachWarmProgram(plan.get(), sku, &decline));
    fuse_ns.push_back(since(t));
    Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                      &device.timeline(), config);
    GRT_RETURN_IF_ERROR(replayer.LoadShared(
        rec, std::shared_ptr<const ReplayPlan>(std::move(plan))));
    load_ns.push_back(since(t));
    for (const auto& [name, data] : tensors) {
      GRT_RETURN_IF_ERROR(replayer.StageTensor(name, data));
    }
    stage_ns.push_back(since(t));
    GRT_ASSIGN_OR_RETURN(ReplayReport report, replayer.Replay());
    replay_ns.push_back(since(t));
    GRT_RETURN_IF_ERROR(replayer.ReadTensorInto(
        r.net.output_tensor, output.data(), output.size()));
    readback_ns.push_back(since(t));
    if (report.warm) {
      return Internal("cold-miss ledger: " + r.net.name +
                      " replay on a fresh engine ran warm");
    }
  }
  row.store_load_ms = MedianMs(store_ns);
  row.verify_ms = MedianMs(verify_ns);
  row.compile_ms = MedianMs(compile_ns);
  row.fuse_ms = MedianMs(fuse_ns);
  row.engine_load_ms = MedianMs(load_ns);
  row.stage_ms = MedianMs(stage_ns);
  row.cold_replay_ms = MedianMs(replay_ns);
  row.readback_ms = MedianMs(readback_ns);

  // Served misses: three digests cycled through a one-plan cache on one
  // worker, so every request misses, recompiles and replays cold. The
  // first cycle admits each digest; the misses after it are timed.
  std::vector<std::string> names = {r.net.name};
  Recording twin = r.recording;
  for (const char* suffix : {"-b", "-c"}) {
    twin.header.workload = r.net.name + suffix;
    GRT_RETURN_IF_ERROR(store.Install(twin.SerializeSigned(r.session_key)));
    names.push_back(twin.header.workload);
  }
  ServeConfig sconfig;
  sconfig.sku = kSku;
  sconfig.workers = 1;
  sconfig.max_plans = 1;
  ReplayService service(&store, sconfig);
  GRT_RETURN_IF_ERROR(service.Start());
  std::vector<int64_t> served_ns;
  for (size_t i = 0; i < kMissLedgerDigests + kMissLedgerReps; ++i) {
    ReplayRequest request;
    request.workload = names[i % kMissLedgerDigests];
    request.tensors = tensors;
    request.output_tensor = r.net.output_tensor;
    ReplayResponse response = service.Submit(std::move(request));
    GRT_RETURN_IF_ERROR(response.status);
    if (response.plan_cache_hit) {
      return Internal("cold-miss ledger: " + r.net.name +
                      " hit a one-plan cache cycling three digests");
    }
    if (i >= kMissLedgerDigests) {
      served_ns.push_back(response.service_ns);
    }
  }
  row.served_miss_ms = MedianMs(served_ns);
  row.admissions = service.Stats().admissions;
  return row;
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<EngineRow>& engines,
               const std::vector<KernelRow>& kernels,
               const std::vector<KernelOpRow>& kernel_ops,
               const std::vector<ScalingRow>& scaling,
               const std::vector<SweepRow>& sweep,
               const std::vector<PoolRow>& pool,
               const std::vector<MissLedgerRow>& ledger, bool gates_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"replay_serving\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"warm_speedup_gate\": %.2f,\n", kWarmSpeedupGate);
  std::fprintf(f, "  \"fused_speedup_gate\": %.2f,\n", kFusedSpeedupGateAll);
  std::fprintf(f, "  \"fused_speedup_gate_headline\": %.2f,\n",
               kFusedSpeedupGateHeadline);
  std::fprintf(f, "  \"kernel_wall_gate\": %.2f,\n", kKernelWallGateAll);
  std::fprintf(f, "  \"kernel_wall_gate_headline\": %.2f,\n",
               kKernelWallGateHeadline);
  std::fprintf(f, "  \"gates_ok\": %s,\n", gates_ok ? "true" : "false");
  std::fprintf(f, "  \"engine_comparison\": [\n");
  for (size_t i = 0; i < engines.size(); ++i) {
    const EngineRow& e = engines[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"interp_cold_ms\": %.4f, "
        "\"interp_warm_ms\": %.4f, \"plan_cold_ms\": %.4f, "
        "\"plan_warm_ms\": %.4f, \"fused_warm_ms\": %.4f, "
        "\"warm_speedup\": %.3f, \"fused_speedup\": %.3f, "
        "\"fused_used\": %s, \"fused_spans\": %zu, "
        "\"fused_span_writes\": %zu, "
        "\"interp_warm_bytes\": %llu, \"plan_warm_bytes\": %llu, "
        "\"fused_warm_bytes\": %llu, "
        "\"plan_pages_skipped\": %llu, "
        "\"interp_warm_wall_ms\": %.4f, \"plan_warm_wall_ms\": %.4f, "
        "\"fused_warm_wall_ms\": %.4f, \"outputs_identical\": %s, "
        "\"matches_reference\": %s}%s\n",
        e.workload.c_str(), ToMilliseconds(e.interp_cold),
        ToMilliseconds(e.interp_warm), ToMilliseconds(e.plan_cold),
        ToMilliseconds(e.plan_warm), ToMilliseconds(e.fused_warm),
        e.warm_speedup(), e.fused_speedup(),
        e.fused_used ? "true" : "false", e.fused_spans, e.fused_span_writes,
        static_cast<unsigned long long>(e.interp_warm_bytes),
        static_cast<unsigned long long>(e.plan_warm_bytes),
        static_cast<unsigned long long>(e.fused_warm_bytes),
        static_cast<unsigned long long>(e.plan_pages_skipped),
        static_cast<double>(e.interp_warm_wall_ns) / 1e6,
        static_cast<double>(e.plan_warm_wall_ns) / 1e6,
        static_cast<double>(e.fused_warm_wall_ns) / 1e6,
        e.outputs_identical ? "true" : "false",
        e.matches_reference ? "true" : "false",
        i + 1 < engines.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"kernel_engine\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& k = kernels[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"ref_wall_ms\": %.4f, "
        "\"opt_wall_ms\": %.4f, \"wall_speedup\": %.3f, "
        "\"ref_shader_wall_ms\": %.4f, \"opt_shader_wall_ms\": %.4f, "
        "\"shader_wall_speedup\": %.3f, \"gate\": %.2f, "
        "\"bitwise_identical\": %s, \"matches_reference\": %s, "
        "\"modeled_time_invariant\": %s}%s\n",
        k.workload.c_str(), static_cast<double>(k.ref_wall_ns) / 1e6,
        static_cast<double>(k.opt_wall_ns) / 1e6, k.wall_speedup(),
        static_cast<double>(k.ref_shader_wall_ns) / 1e6,
        static_cast<double>(k.opt_shader_wall_ns) / 1e6, k.shader_speedup(),
        KernelGateFor(k.workload),
        k.bitwise_identical ? "true" : "false",
        k.matches_reference ? "true" : "false",
        k.modeled_time_invariant ? "true" : "false",
        i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"kernel_op_breakdown\": [\n");
  for (size_t i = 0; i < kernel_ops.size(); ++i) {
    const KernelOpRow& k = kernel_ops[i];
    for (size_t op = 0; op < kBreakdownOpCount; ++op) {
      std::fprintf(
          f,
          "    {\"workload\": \"%s\", \"op\": \"%s\", "
          "\"ms_per_replay\": %.4f, \"replay_ms\": %.4f, "
          "\"share\": %.4f}%s\n",
          k.workload.c_str(), kBreakdownOps[op], k.op_ms[op], k.replay_ms,
          k.share(op),
          i + 1 < kernel_ops.size() || op + 1 < kBreakdownOpCount ? "," : "");
    }
  }
  std::fprintf(f, "  ],\n  \"stage_breakdown\": [\n");
  for (size_t i = 0; i < engines.size(); ++i) {
    const EngineRow& e = engines[i];
    struct Named {
      const char* engine;
      const Stages* s;
      Duration total;
    } named[3] = {{"interp_warm", &e.interp_stages, e.interp_warm},
                  {"plan_warm", &e.plan_stages, e.plan_warm},
                  {"fused_warm", &e.fused_stages, e.fused_warm}};
    for (size_t j = 0; j < 3; ++j) {
      std::fprintf(
          f,
          "    {\"workload\": \"%s\", \"engine\": \"%s\", "
          "\"dispatch_ms\": %.4f, \"reg_io_ms\": %.4f, "
          "\"shader_exec_ms\": %.4f, \"page_apply_ms\": %.4f, "
          "\"total_ms\": %.4f}%s\n",
          e.workload.c_str(), named[j].engine,
          ToMilliseconds(named[j].s->dispatch),
          ToMilliseconds(named[j].s->reg_io),
          ToMilliseconds(named[j].s->shader_exec),
          ToMilliseconds(named[j].s->page_apply),
          ToMilliseconds(named[j].total),
          i + 1 < engines.size() || j + 1 < 3 ? "," : "");
    }
  }
  std::fprintf(f, "  ],\n  \"serving_scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& s = scaling[i];
    std::fprintf(
        f,
        "    {\"workers\": %d, \"requests\": %zu, \"avg_replay_ms\": %.4f, "
        "\"p95_replay_ms\": %.4f, \"throughput_rps\": %.2f, "
        "\"scaling_efficiency\": %.3f, \"warm_fraction\": %.3f, "
        "\"compile_service_ms\": %.4f, \"cold_service_ms\": %.4f, "
        "\"warm_service_ms\": %.4f, \"warm_speedup\": %.2f, "
        "\"plan_hits\": %llu, \"plan_misses\": %llu, "
        "\"warm_replays\": %llu, \"plans_fused\": %llu, "
        "\"fused_replays\": %llu, \"queue_wait_p95_ms\": %.4f, "
        "\"service_p95_ms\": %.4f, \"wall_seconds\": %.3f}%s\n",
        s.workers, s.requests, s.avg_replay_ms, s.p95_replay_ms,
        s.throughput_rps, s.efficiency, s.warm_fraction,
        s.compile_service_ms, s.cold_service_ms, s.warm_service_ms,
        s.warm_speedup(), static_cast<unsigned long long>(s.plan_hits),
        static_cast<unsigned long long>(s.plan_misses),
        static_cast<unsigned long long>(s.warm_replays),
        static_cast<unsigned long long>(s.plans_fused),
        static_cast<unsigned long long>(s.fused_replays),
        s.queue_wait_p95_ms, s.service_p95_ms, s.wall_seconds,
        i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"dirty_page_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& s = sweep[i];
    std::fprintf(
        f,
        "    {\"target_ratio\": %.2f, \"pages_dirtied\": %u, "
        "\"pages_applied\": %llu, \"pages_skipped\": %llu, "
        "\"mem_bytes_applied\": %llu, \"mem_bytes_applied_fused\": %llu, "
        "\"replay_ms\": %.4f}%s\n",
        s.target_ratio, s.pages_dirtied,
        static_cast<unsigned long long>(s.pages_applied),
        static_cast<unsigned long long>(s.pages_skipped),
        static_cast<unsigned long long>(s.mem_bytes_applied),
        static_cast<unsigned long long>(s.mem_bytes_applied_fused),
        s.replay_ms, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"shared_pool\": [\n");
  for (size_t i = 0; i < pool.size(); ++i) {
    const PoolRow& p = pool[i];
    std::fprintf(
        f,
        "    {\"devices\": %d, \"workers\": %d, \"requests\": %zu, "
        "\"coresident_placements\": %llu, \"conflict_evictions\": %llu, "
        "\"warm_fraction\": %.3f, \"avg_replay_ms\": %.4f, "
        "\"bitwise_identical\": %s}%s\n",
        p.devices, p.workers, p.requests,
        static_cast<unsigned long long>(p.coresident_placements),
        static_cast<unsigned long long>(p.conflict_evictions),
        p.warm_fraction, p.avg_replay_ms,
        p.bitwise_identical ? "true" : "false",
        i + 1 < pool.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"cold_miss_ledger\": [\n");
  for (size_t i = 0; i < ledger.size(); ++i) {
    const MissLedgerRow& l = ledger[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"reps\": %d, \"blob_bytes\": %zu, "
        "\"store_load_ms\": %.4f, \"verify_ms\": %.4f, "
        "\"compile_ms\": %.4f, \"fuse_ms\": %.4f, "
        "\"engine_load_ms\": %.4f, \"stage_ms\": %.4f, "
        "\"cold_replay_ms\": %.4f, \"readback_ms\": %.4f, "
        "\"served_miss_ms\": %.4f, \"served_admissions\": %llu}%s\n",
        l.workload.c_str(), kMissLedgerReps, l.blob_bytes, l.store_load_ms,
        l.verify_ms, l.compile_ms, l.fuse_ms, l.engine_load_ms, l.stage_ms,
        l.cold_replay_ms, l.readback_ms, l.served_miss_ms,
        static_cast<unsigned long long>(l.admissions),
        i + 1 < ledger.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

// Overhead gate: the smoke workload (engine comparison on MNIST) timed
// with observability fully off, then fully on (metrics enabled + trace
// collection armed). Min-of-N wall times; the instrumented run must stay
// within `kObsOverheadGate` of the baseline plus a small absolute slack so
// microsecond-scale noise can't fail the gate on a fast machine.
constexpr double kObsOverheadGate = 1.05;  // <= 5% slower
constexpr double kObsAbsoluteSlackSeconds = 0.050;
constexpr int kObsGateReps = 5;

int RunObsGate() {
#if defined(GRT_OBS_COMPILED_OUT)
  std::printf("observability compiled out (GRT_OBS=OFF); obs gate skipped\n");
  return 0;
#else
  auto recorded = RecordOnce(BuildMnist());
  if (!recorded.ok()) {
    std::fprintf(stderr, "obs-gate: record failed: %s\n",
                 recorded.status().ToString().c_str());
    return 1;
  }

  auto best_of = [&](const char* label) -> double {
    double best = -1.0;
    for (int i = 0; i < kObsGateReps; ++i) {
      auto start = std::chrono::steady_clock::now();
      auto row = CompareEngines(*recorded);
      double elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (!row.ok()) {
        std::fprintf(stderr, "obs-gate (%s): comparison failed: %s\n", label,
                     row.status().ToString().c_str());
        return -1.0;
      }
      if (best < 0.0 || elapsed < best) best = elapsed;
    }
    return best;
  };

  obs::SetEnabled(false);
  (void)best_of("warmup");  // touch every code path once before timing
  double baseline = best_of("disabled");
  if (baseline < 0.0) return 1;

  obs::SetEnabled(true);
  obs::TraceCollector::Global().Start();
  double instrumented = best_of("enabled");
  obs::TraceCollector::Global().Stop();
  size_t spans = obs::TraceCollector::Global().Snapshot().size();
  obs::SetEnabled(false);
  if (instrumented < 0.0) return 1;

  double limit = baseline * kObsOverheadGate + kObsAbsoluteSlackSeconds;
  std::printf("Observability overhead gate (min of %d runs, mnist engine "
              "comparison)\n\n", kObsGateReps);
  std::printf("  disabled:     %8.2f ms\n", baseline * 1e3);
  std::printf("  instrumented: %8.2f ms  (%zu spans collected)\n",
              instrumented * 1e3, spans);
  std::printf("  limit:        %8.2f ms  (%.0f%% + %.0f ms slack)\n",
              limit * 1e3, (kObsOverheadGate - 1.0) * 100,
              kObsAbsoluteSlackSeconds * 1e3);
  if (spans == 0) {
    std::fprintf(stderr,
                 "GATE FAILURE: instrumented run collected no spans — the "
                 "gate is not measuring the instrumentation\n");
    return 1;
  }
  if (instrumented > limit) {
    std::fprintf(stderr,
                 "GATE FAILURE: instrumentation overhead %.2f ms > limit "
                 "%.2f ms\n",
                 (instrumented - baseline) * 1e3,
                 (limit - baseline) * 1e3);
    return 1;
  }
  std::printf("\nobs gate ok\n");
  return 0;
#endif  // GRT_OBS_COMPILED_OUT
}

// Perf smoke for scripts/ci.sh: the headline network only, interp-warm
// vs fused-warm, enforcing the >= 1.5x gate with bitwise-identical
// outputs. Kept separate from --smoke so the cheap MNIST gate stays
// cheap.
int RunPerfGate() {
  auto recorded = RecordOnce(BuildVgg16());
  if (!recorded.ok()) {
    std::fprintf(stderr, "perf-gate: record failed: %s\n",
                 recorded.status().ToString().c_str());
    return 1;
  }
  auto row = CompareEngines(*recorded);
  if (!row.ok()) {
    std::fprintf(stderr, "perf-gate: engine comparison failed: %s\n",
                 row.status().ToString().c_str());
    return 1;
  }
  std::printf("planopt perf gate (%s)\n", kFusedHeadlineNet);
  std::printf("  interp warm: %s\n",
              FormatMs(ToMilliseconds(row->interp_warm)).c_str());
  std::printf("  fused warm:  %s  (%zu spans, %zu fused writes)\n",
              FormatMs(ToMilliseconds(row->fused_warm)).c_str(),
              row->fused_spans, row->fused_span_writes);
  std::printf("  speedup:     %.2fx  (gate >= %.1fx)\n", row->fused_speedup(),
              kFusedSpeedupGateHeadline);
  std::printf("  outputs identical: %s, matches reference: %s\n",
              row->outputs_identical ? "yes" : "NO",
              row->matches_reference ? "yes" : "NO");
  if (!row->fused_used || !row->outputs_identical ||
      !row->matches_reference ||
      row->fused_speedup() < kFusedSpeedupGateHeadline) {
    std::fprintf(stderr,
                 "GATE FAILURE: fused warm replay %.2fx vs interpreter "
                 "(need >= %.1fx, fused_used=%d, identical=%d, "
                 "reference=%d)\n",
                 row->fused_speedup(), kFusedSpeedupGateHeadline,
                 row->fused_used, row->outputs_identical,
                 row->matches_reference);
    return 1;
  }
  auto kernel = CompareKernelEngines(*recorded);
  if (!kernel.ok()) {
    std::fprintf(stderr, "perf-gate: kernel engine comparison failed: %s\n",
                 kernel.status().ToString().c_str());
    return 1;
  }
  std::printf("  kernel wall: ref %s -> opt %s  (%.2fx, gate >= %.1fx)\n",
              FormatMs(static_cast<double>(kernel->ref_wall_ns) / 1e6).c_str(),
              FormatMs(static_cast<double>(kernel->opt_wall_ns) / 1e6).c_str(),
              kernel->wall_speedup(), kKernelWallGateHeadline);
  if (!kernel->gates_ok()) {
    std::fprintf(stderr,
                 "GATE FAILURE: kernel wall speedup %.2fx (need >= %.1fx, "
                 "bitwise=%d, reference=%d, modeled_invariant=%d)\n",
                 kernel->wall_speedup(), kKernelWallGateHeadline,
                 kernel->bitwise_identical, kernel->matches_reference,
                 kernel->modeled_time_invariant);
    return 1;
  }
  std::printf("\nperf gate ok\n");
  return 0;
}

int Run(bool smoke, const std::string& out_path) {
  std::vector<NetworkDef> nets =
      smoke ? std::vector<NetworkDef>{BuildMnist()} : BuildAllNetworks();

  // Section 1: interpreter vs plan vs fused plan, per network.
  TextTable engine_table({"workload", "interp warm", "plan warm",
                          "fused warm", "fused speedup", "spans",
                          "plan bytes", "gates"});
  std::vector<EngineRow> engines;
  std::vector<KernelRow> kernels;
  std::vector<KernelOpRow> kernel_ops;
  std::vector<MissLedgerRow> ledger;
  bool gates_ok = true;
  RecordedNet mnist{};  // kept for sections 2 and 3
  for (const NetworkDef& net : nets) {
    auto recorded = RecordOnce(net);
    if (!recorded.ok()) {
      std::fprintf(stderr, "%s: record failed: %s\n", net.name.c_str(),
                   recorded.status().ToString().c_str());
      return 1;
    }
    auto kernel_row = CompareKernelEngines(*recorded);
    if (!kernel_row.ok()) {
      std::fprintf(stderr, "%s: kernel engine comparison failed: %s\n",
                   net.name.c_str(), kernel_row.status().ToString().c_str());
      return 1;
    }
    if (!kernel_row->gates_ok()) {
      std::fprintf(
          stderr,
          "GATE FAILURE on %s: kernel wall speedup %.2fx (need >= %.1fx), "
          "bitwise=%d, reference=%d, modeled_invariant=%d\n",
          kernel_row->workload.c_str(), kernel_row->wall_speedup(),
          KernelGateFor(kernel_row->workload), kernel_row->bitwise_identical,
          kernel_row->matches_reference, kernel_row->modeled_time_invariant);
      gates_ok = false;
    }
    kernels.push_back(*kernel_row);
    auto op_row = MeasureKernelOps(*recorded);
    if (!op_row.ok()) {
      std::fprintf(stderr, "%s: kernel op breakdown failed: %s\n",
                   net.name.c_str(), op_row.status().ToString().c_str());
      return 1;
    }
    kernel_ops.push_back(*op_row);
    auto row = CompareEngines(*recorded);
    if (!row.ok()) {
      std::fprintf(stderr, "%s: engine comparison failed: %s\n",
                   net.name.c_str(), row.status().ToString().c_str());
      return 1;
    }
    engine_table.AddRow(
        {row->workload, FormatMs(ToMilliseconds(row->interp_warm)),
         FormatMs(ToMilliseconds(row->plan_warm)),
         FormatMs(ToMilliseconds(row->fused_warm)),
         std::to_string(row->fused_speedup()).substr(0, 5) + "x",
         FormatCount(row->fused_spans),
         FormatMb(static_cast<double>(row->plan_warm_bytes)),
         row->gates_ok() ? "ok" : "FAIL"});
    if (!row->gates_ok()) {
      std::fprintf(
          stderr,
          "GATE FAILURE on %s: warm plan bytes %llu must be < "
          "interpreter bytes %llu, fused speedup %.2fx (need >= %.1fx, "
          "fused_used=%d), identical=%d, reference=%d\n",
          row->workload.c_str(),
          static_cast<unsigned long long>(row->plan_warm_bytes),
          static_cast<unsigned long long>(row->interp_warm_bytes),
          row->fused_speedup(), FusedGateFor(row->workload), row->fused_used,
          row->outputs_identical, row->matches_reference);
      gates_ok = false;
    }
    engines.push_back(*row);
    if (RunsMissLedger(net.name)) {
      auto ledger_row = RunMissLedger(*recorded);
      if (!ledger_row.ok()) {
        std::fprintf(stderr, "%s: cold-miss ledger failed: %s\n",
                     net.name.c_str(), ledger_row.status().ToString().c_str());
        return 1;
      }
      ledger.push_back(*ledger_row);
    }
    if (net.name == "mnist") mnist = std::move(*recorded);
  }
  std::printf("Warm replay: interpreter vs compiled plan vs fused plan "
              "(modeled timeline, Table 2 metric)\n\n");
  engine_table.Print();

  // Per-stage breakdown: where the modeled warm time goes, per engine.
  TextTable stage_table({"workload", "engine", "dispatch", "reg io",
                         "shader exec", "page apply", "total"});
  for (const EngineRow& e : engines) {
    struct Named {
      const char* engine;
      const Stages* s;
      Duration total;
    } named[3] = {{"interp", &e.interp_stages, e.interp_warm},
                  {"plan", &e.plan_stages, e.plan_warm},
                  {"fused", &e.fused_stages, e.fused_warm}};
    for (const Named& n : named) {
      stage_table.AddRow({e.workload, n.engine,
                          FormatMs(ToMilliseconds(n.s->dispatch)),
                          FormatMs(ToMilliseconds(n.s->reg_io)),
                          FormatMs(ToMilliseconds(n.s->shader_exec)),
                          FormatMs(ToMilliseconds(n.s->page_apply)),
                          FormatMs(ToMilliseconds(n.total))});
    }
  }
  std::printf("\nWarm replay stage breakdown (modeled time per stage)\n\n");
  stage_table.Print();

  // Kernel engine: reference vs optimized shader-core kernels, host wall
  // clock on the fused warm path (min of N replays). This is the
  // PR's headline perf table — the modeled timeline is engine-invariant
  // by construction, so the win is only visible here.
  TextTable kernel_table({"workload", "ref wall", "opt wall", "speedup",
                          "shader speedup", "gate", "bitwise", "gates"});
  for (const KernelRow& k : kernels) {
    kernel_table.AddRow(
        {k.workload,
         FormatMs(static_cast<double>(k.ref_wall_ns) / 1e6),
         FormatMs(static_cast<double>(k.opt_wall_ns) / 1e6),
         std::to_string(k.wall_speedup()).substr(0, 5) + "x",
         std::to_string(k.shader_speedup()).substr(0, 5) + "x",
         std::to_string(KernelGateFor(k.workload)).substr(0, 4) + "x",
         k.bitwise_identical ? "ok" : "FAIL",
         k.gates_ok() ? "ok" : "FAIL"});
  }
  std::printf("\nKernel engine: fused warm replay wall clock, reference vs "
              "optimized kernels (min of %d)\n\n", kKernelWallReps);
  kernel_table.Print();

  // Where the optimized kernels' time goes: each op kind's share of the
  // fused warm replay wall clock, from the hw.op_ns histograms of a pass
  // run after the gated ones. Never gated.
  std::vector<std::string> op_header = {"workload", "replay"};
  for (const char* op : kBreakdownOps) {
    op_header.push_back(op);
  }
  TextTable op_table(op_header);
  for (const KernelOpRow& k : kernel_ops) {
    std::vector<std::string> cells = {k.workload, FormatMs(k.replay_ms)};
    for (size_t op = 0; op < kBreakdownOpCount; ++op) {
      cells.push_back(FormatMs(k.op_ms[op]) + " (" +
                      FormatPercent(k.share(op)) + ")");
    }
    op_table.AddRow(cells);
  }
  std::printf("\nKernel ops: host wall per op kind and its share of the "
              "optimized fused warm replay (fastest of %d, metrics on)\n\n",
              kKernelWallReps);
  op_table.Print();

  // Section 5: where a plan-cache miss's host time goes, step by step,
  // and what a served miss on a current workload binding still pays.
  TextTable ledger_table({"workload", "blob", "store load", "verify",
                          "compile", "fuse", "engine load", "staging",
                          "cold replay", "readback", "served miss",
                          "admissions"});
  for (const MissLedgerRow& l : ledger) {
    ledger_table.AddRow(
        {l.workload, FormatMb(static_cast<double>(l.blob_bytes)),
         FormatMs(l.store_load_ms), FormatMs(l.verify_ms),
         FormatMs(l.compile_ms), FormatMs(l.fuse_ms),
         FormatMs(l.engine_load_ms), FormatMs(l.stage_ms),
         FormatMs(l.cold_replay_ms), FormatMs(l.readback_ms),
         FormatMs(l.served_miss_ms), std::to_string(l.admissions)});
  }
  std::printf("\nPlan-cache miss ledger: host wall per step (median of %d), "
              "and the median served miss\nwhile %zu digests cycle through "
              "a one-plan cache (first cycle excluded)\n\n",
              kMissLedgerReps, kMissLedgerDigests);
  ledger_table.Print();

  // Sections 2-4 ride on the MNIST recording.
  std::vector<ScalingRow> scaling;
  std::vector<SweepRow> sweep;
  std::vector<PoolRow> pool;
  if (!smoke && !mnist.net.name.empty()) {
    RecordingStore store(mnist.session_key);
    Status installed = store.Install(mnist.signed_recording);
    if (!installed.ok()) {
      std::fprintf(stderr, "store install failed: %s\n",
                   installed.ToString().c_str());
      return 1;
    }
    TextTable scale_table({"workers", "requests", "avg replay", "p95",
                           "throughput", "efficiency", "compile serve",
                           "cold serve", "warm serve", "speedup",
                           "queue p95"});
    for (int workers : {1, 2, 4}) {
      auto row = RunScaling(store, mnist, workers, 16);
      if (!row.ok()) {
        std::fprintf(stderr, "scaling (%d workers) failed: %s\n", workers,
                     row.status().ToString().c_str());
        return 1;
      }
      if (!scaling.empty()) {
        row->efficiency = row->throughput_rps /
                          (scaling.front().throughput_rps * row->workers);
      }
      scale_table.AddRow(
          {std::to_string(row->workers), std::to_string(row->requests),
           FormatMs(row->avg_replay_ms), FormatMs(row->p95_replay_ms),
           std::to_string(row->throughput_rps).substr(0, 6) + " rps",
           FormatPercent(row->efficiency),
           FormatMs(row->compile_service_ms), FormatMs(row->cold_service_ms),
           FormatMs(row->warm_service_ms),
           std::to_string(row->warm_speedup()).substr(0, 5) + "x",
           FormatMs(row->queue_wait_p95_ms)});
      if (row->warm_speedup() < kWarmSpeedupGate) {
        std::fprintf(stderr,
                     "GATE FAILURE at %d workers: compile-cold/warm "
                     "service speedup %.2fx (need >= %.1fx)\n",
                     workers, row->warm_speedup(), kWarmSpeedupGate);
        gates_ok = false;
      }
      scaling.push_back(*row);
    }
    std::printf("\nServing vs fleet size (throughput in modeled time — each\n"
                "worker is one simulated device on its own timeline; service\n"
                "times are host wall-clock, cold = plan compile + full "
                "image)\n\n");
    scale_table.Print();

    auto sweep_rows = RunDirtySweep(mnist);
    if (!sweep_rows.ok()) {
      std::fprintf(stderr, "dirty sweep failed: %s\n",
                   sweep_rows.status().ToString().c_str());
      return 1;
    }
    sweep = *sweep_rows;
    TextTable sweep_table({"dirtied", "pages applied", "pages skipped",
                           "bytes", "fused bytes", "replay"});
    for (const SweepRow& s : sweep) {
      sweep_table.AddRow(
          {FormatPercent(s.target_ratio), FormatCount(s.pages_applied),
           FormatCount(s.pages_skipped),
           FormatMb(static_cast<double>(s.mem_bytes_applied)),
           FormatMb(static_cast<double>(s.mem_bytes_applied_fused)),
           FormatMs(s.replay_ms)});
    }
    std::printf("\nWarm replay cost vs externally-dirtied page fraction "
                "(mnist)\n\n");
    sweep_table.Print();

    // Section 4: shared device pool. A partitioned MNIST twin whose
    // static footprint is provably disjoint from the default recording's,
    // served privately and then co-resident.
    NetworkDef twin_net = BuildMnist();
    twin_net.name = "mnist-pool";
    auto twin = RecordPartitioned(twin_net, kCarveoutSize / 2,
                                  /*job_slot=*/1, /*as_index=*/1, 9);
    if (!twin.ok()) {
      std::fprintf(stderr, "partitioned record failed: %s\n",
                   twin.status().ToString().c_str());
      return 1;
    }
    Interference verdict = CheckInterference(
        mnist.recording.header.footprint, twin->recording.header.footprint);
    if (verdict != Interference::kDisjoint) {
      std::fprintf(stderr,
                   "GATE FAILURE: partitioned twin verdict is %s, expected "
                   "disjoint\n",
                   InterferenceName(verdict));
      gates_ok = false;
    }
    // One store holds both: re-sign the twin's body under mnist's key.
    Status twin_installed =
        store.Install(twin->recording.SerializeSigned(mnist.session_key));
    if (!twin_installed.ok()) {
      std::fprintf(stderr, "twin install failed: %s\n",
                   twin_installed.ToString().c_str());
      return 1;
    }
    std::vector<const RecordedNet*> plans = {&mnist, &*twin};
    std::map<std::string, std::vector<float>> outputs;
    TextTable pool_table({"devices", "workers", "requests", "coresident",
                          "warm", "avg replay", "bitwise"});
    for (auto [workers, devices] : {std::pair<int, int>{2, 2}, {2, 1}}) {
      auto row = RunPool(store, plans, workers, devices, 8, &outputs);
      if (!row.ok()) {
        std::fprintf(stderr, "pool (%d devices) failed: %s\n", devices,
                     row.status().ToString().c_str());
        return 1;
      }
      pool_table.AddRow(
          {std::to_string(row->devices), std::to_string(row->workers),
           std::to_string(row->requests),
           std::to_string(row->coresident_placements),
           FormatPercent(row->warm_fraction), FormatMs(row->avg_replay_ms),
           row->bitwise_identical ? "ok" : "FAIL"});
      if (!row->bitwise_identical) {
        std::fprintf(stderr,
                     "GATE FAILURE: pooled outputs (%d devices) diverged "
                     "from private-device outputs\n",
                     devices);
        gates_ok = false;
      }
      if (devices < workers && row->coresident_placements == 0) {
        std::fprintf(stderr,
                     "GATE FAILURE: pooled run reported no co-resident "
                     "placements\n");
        gates_ok = false;
      }
      pool.push_back(*row);
    }
    std::printf("\nShared device pool: disjoint-footprint plans, private "
                "devices vs one pooled device (bitwise gate)\n\n");
    pool_table.Print();
  }

  if (!out_path.empty()) {
    WriteJson(out_path, smoke, engines, kernels, kernel_ops, scaling, sweep,
              pool, ledger, gates_ok);
  }
  return gates_ok ? 0 : 1;
}

}  // namespace
}  // namespace grt

int main(int argc, char** argv) {
  bool smoke = false;
  bool obs_gate = false;
  bool perf_gate = false;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--obs-gate") == 0) {
      obs_gate = true;
    } else if (std::strcmp(argv[i], "--perf-gate") == 0) {
      perf_gate = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--obs-gate] [--perf-gate] "
                   "[--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (obs_gate) return grt::RunObsGate();
  if (perf_gate) return grt::RunPerfGate();
  if (out.empty() && !smoke) {
    out = "BENCH_replay_serving.json";
  }
  return grt::Run(smoke, out);
}
