// Every engine reports a replay fault at the same place. With JS0_STATUS
// corrupted on the device (as in examples/remote_debug), the interpreter,
// the compiled plan and the fused warm program must each fail naming the
// 0-based index of a recorded JS0_STATUS access — a location a client can
// report against the cloud's copy of the log without holding the plan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "src/analysis/planopt/planopt.h"
#include "src/harness/experiment.h"
#include "src/hw/regs.h"
#include "src/ml/network.h"
#include "src/record/plan.h"
#include "src/record/replayer.h"
#include "src/sku/sku.h"

namespace grt {
namespace {

constexpr SkuId kSku = SkuId::kMaliG71Mp8;
constexpr uint64_t kNondetSeed = 11;
constexpr uint64_t kInputSeed = 42;
constexpr uint64_t kParamSeed = 7;
constexpr uint32_t kJs0Status = JobSlotRegister(0, kJsStatus);

enum class Engine { kInterp, kPlan, kFused };

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kInterp:
      return "interp";
    case Engine::kPlan:
      return "plan";
    case Engine::kFused:
      return "fused";
  }
  return "?";
}

// Cold and warm replay on a fresh device, then one more replay with
// JS0_STATUS corrupted; `*fault` receives that replay's status. Returns
// non-OK if anything before the fault fails.
Status ReplayWithFault(const NetworkDef& net, const Recording& rec,
                       Engine engine, Status* fault) {
  ClientDevice device(kSku, kNondetSeed);
  ReplayConfig config;
  config.use_plan = engine != Engine::kInterp;
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), config);
  if (engine == Engine::kFused) {
    auto shared = std::make_shared<const Recording>(rec);
    auto plan = std::make_unique<ReplayPlan>(CompileReplayPlan(*shared));
    GRT_ASSIGN_OR_RETURN(GpuSku sku, FindSku(kSku));
    std::string decline;
    GRT_RETURN_IF_ERROR(AttachWarmProgram(plan.get(), sku, &decline));
    if (plan->warm == nullptr) {
      return Internal("superoptimizer declined: " + decline);
    }
    GRT_RETURN_IF_ERROR(replayer.LoadShared(
        shared, std::shared_ptr<const ReplayPlan>(std::move(plan))));
  } else {
    GRT_RETURN_IF_ERROR(replayer.Load(rec));
  }
  GRT_RETURN_IF_ERROR(
      replayer.StageTensor(net.input_tensor, GenerateInput(net, kInputSeed)));
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      GRT_RETURN_IF_ERROR(
          replayer.StageTensor(t.name, GenerateParams(net.name, t, kParamSeed)));
    }
  }
  GRT_RETURN_IF_ERROR(replayer.Replay().status());
  GRT_ASSIGN_OR_RETURN(ReplayReport warm, replayer.Replay());
  if (engine == Engine::kFused && !warm.warm_program_used) {
    return Internal("warm replay did not run the fused program");
  }
  device.gpu().InjectRegisterFault(kJs0Status, 0x2);
  Result<ReplayReport> faulted = replayer.Replay();
  device.gpu().ClearRegisterFault();
  if (faulted.ok()) {
    return Internal("replay succeeded with JS0_STATUS corrupted");
  }
  *fault = faulted.status();
  return OkStatus();
}

// The N of the "log entry N" a replay error names, or -1.
long NamedLogEntry(const Status& status) {
  const std::string key = "log entry ";
  size_t at = status.message().find(key);
  if (at == std::string::npos) {
    return -1;
  }
  return std::strtol(status.message().c_str() + at + key.size(), nullptr, 10);
}

TEST(ReplayErrorLocation, EveryEngineNamesTheFaultedLogEntry) {
  const NetworkDef net = BuildMnist();
  ClientDevice recorder(kSku, kNondetSeed);
  SpeculationHistory history;
  auto m = RunRecordVariant(&recorder, net, "OursMDS", WifiConditions(),
                            &history, 0);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  auto rec = Recording::ParseSigned(m->signed_recording, m->session_key);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();

  Status faults[3];
  long entries[3] = {-1, -1, -1};
  for (Engine engine : {Engine::kInterp, Engine::kPlan, Engine::kFused}) {
    const int e = static_cast<int>(engine);
    Status setup = ReplayWithFault(net, *rec, engine, &faults[e]);
    ASSERT_TRUE(setup.ok()) << EngineName(engine) << ": " << setup.ToString();
    entries[e] = NamedLogEntry(faults[e]);
    ASSERT_GE(entries[e], 0) << EngineName(engine) << ": "
                             << faults[e].ToString();
    ASSERT_LT(static_cast<size_t>(entries[e]), rec->log.size());
    const LogEntry& named = rec->log.entries()[entries[e]];
    EXPECT_EQ(named.reg, kJs0Status)
        << EngineName(engine) << ": " << faults[e].ToString();
    EXPECT_TRUE(named.op == LogOp::kRegRead || named.op == LogOp::kPollWait)
        << EngineName(engine) << ": " << faults[e].ToString();
  }
  // The interpreter and the full plan run the same schedule, so the same
  // access fails first.
  EXPECT_EQ(entries[0], entries[1]);
  EXPECT_EQ(faults[0].code(), faults[1].code())
      << faults[0].ToString() << " vs " << faults[1].ToString();
}

}  // namespace
}  // namespace grt
