// Plan-vs-interpreter equivalence — the acceptance gate for the compiled
// replay fast path. For every example network (and the chaos-recorded
// corpus), the same recording replays on three identically-seeded fresh
// devices: once under the interpreter (reference engine), once under the
// compiled plan, and once under the planopt-superoptimized (fused) plan,
// cold then warm. All engines must produce bitwise-identical outputs,
// all must match the CPU reference, the warm plan replay must apply
// strictly fewer memory bytes than the interpreter, and the fused warm
// replay must be faster on the modeled timeline than both — the entire
// point of compiling and then superoptimizing the plan.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/analysis/planopt/planopt.h"
#include "src/harness/chaos.h"
#include "src/harness/experiment.h"
#include "src/ml/reference.h"
#include "src/record/plan.h"
#include "src/record/replayer.h"
#include "src/sku/sku.h"

namespace grt {
namespace {

constexpr SkuId kSku = SkuId::kMaliG71Mp8;
constexpr uint64_t kNondetSeed = 11;
constexpr uint64_t kInputSeed = 42;

Result<Recording> RecordOnce(const NetworkDef& net) {
  ClientDevice device(kSku, kNondetSeed);
  SpeculationHistory history;
  GRT_ASSIGN_OR_RETURN(RecordMeasurement m,
                       RunRecordVariant(&device, net, "OursMDS",
                                        WifiConditions(), &history, 0));
  return Recording::ParseSigned(m.signed_recording, m.session_key);
}

struct EngineRun {
  std::vector<float> cold_output;
  std::vector<float> warm_output;
  ReplayReport cold;
  ReplayReport warm;
};

enum class Engine { kInterp, kPlan, kFused };

// Two back-to-back replays (the deployed steady state: new input, same
// plan) on one fresh device.
Result<EngineRun> ReplayColdWarm(const NetworkDef& net, const Recording& rec,
                                 Engine engine) {
  ClientDevice device(kSku, kNondetSeed);
  ReplayConfig config;
  config.use_plan = engine != Engine::kInterp;
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), config);
  if (engine == Engine::kFused) {
    // Explicit compile + superoptimize: a declined build is a test
    // failure here, not a silent fallback.
    auto shared = std::make_shared<const Recording>(rec);
    auto plan = std::make_unique<ReplayPlan>(CompileReplayPlan(*shared));
    GRT_ASSIGN_OR_RETURN(GpuSku sku, FindSku(kSku));
    std::string decline;
    GRT_RETURN_IF_ERROR(AttachWarmProgram(plan.get(), sku, &decline));
    if (plan->warm == nullptr) {
      return Internal("superoptimizer declined " + net.name + ": " + decline);
    }
    GRT_RETURN_IF_ERROR(replayer.LoadShared(
        shared, std::shared_ptr<const ReplayPlan>(std::move(plan))));
  } else {
    GRT_RETURN_IF_ERROR(replayer.Load(rec));
  }
  std::vector<float> input = GenerateInput(net, kInputSeed);
  GRT_RETURN_IF_ERROR(replayer.StageTensor(net.input_tensor, input));
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      GRT_RETURN_IF_ERROR(
          replayer.StageTensor(t.name, GenerateParams(net.name, t, 7)));
    }
  }
  EngineRun run;
  GRT_ASSIGN_OR_RETURN(run.cold, replayer.Replay());
  GRT_ASSIGN_OR_RETURN(run.cold_output,
                       replayer.ReadTensor(net.output_tensor));
  // Per-inference input refresh, then the warm replay.
  GRT_RETURN_IF_ERROR(replayer.StageTensor(net.input_tensor, input));
  GRT_ASSIGN_OR_RETURN(run.warm, replayer.Replay());
  GRT_ASSIGN_OR_RETURN(run.warm_output,
                       replayer.ReadTensor(net.output_tensor));
  return run;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void ExpectPlanEquivalent(const NetworkDef& net, const Recording& rec) {
  auto interp = ReplayColdWarm(net, rec, Engine::kInterp);
  ASSERT_TRUE(interp.ok()) << net.name << ": " << interp.status().ToString();
  auto plan = ReplayColdWarm(net, rec, Engine::kPlan);
  ASSERT_TRUE(plan.ok()) << net.name << ": " << plan.status().ToString();
  auto fused = ReplayColdWarm(net, rec, Engine::kFused);
  ASSERT_TRUE(fused.ok()) << net.name << ": " << fused.status().ToString();

  EXPECT_FALSE(interp->cold.plan_used) << net.name;
  EXPECT_TRUE(plan->cold.plan_used) << net.name;
  EXPECT_FALSE(plan->cold.warm) << net.name;
  EXPECT_TRUE(plan->warm.warm) << net.name;
  // The fused engine's cold replay runs the full plan (and arms the warm
  // program); its warm replay must actually execute the fused schedule.
  EXPECT_FALSE(fused->cold.warm_program_used) << net.name;
  EXPECT_TRUE(fused->warm.warm_program_used) << net.name;
  EXPECT_GT(fused->warm.fused_spans_executed, 0u) << net.name;
  EXPECT_GT(fused->warm.fused_writes_executed,
            fused->warm.fused_spans_executed)
      << net.name;

  // Bitwise agreement: interpreter, plan, and fused plan — cold and
  // warm — all equal.
  EXPECT_TRUE(BitIdentical(interp->cold_output, interp->warm_output))
      << net.name;
  EXPECT_TRUE(BitIdentical(interp->cold_output, plan->cold_output))
      << net.name;
  EXPECT_TRUE(BitIdentical(interp->cold_output, plan->warm_output))
      << net.name;
  EXPECT_TRUE(BitIdentical(interp->cold_output, fused->cold_output))
      << net.name;
  EXPECT_TRUE(BitIdentical(interp->cold_output, fused->warm_output))
      << net.name;

  // The perf contract (acceptance criterion): a warm plan replay applies
  // strictly fewer memory bytes than the interpreter — and even the cold
  // plan replay never applies more (duplicate pre-job-start snapshots are
  // folded at compile time).
  EXPECT_LT(plan->warm.mem_bytes_applied, interp->warm.mem_bytes_applied)
      << net.name;
  EXPECT_LE(plan->cold.mem_bytes_applied, interp->cold.mem_bytes_applied)
      << net.name;
  EXPECT_GT(plan->warm.pages_skipped_clean, 0u) << net.name;
  // Fewer bytes means a faster replay on the modeled timeline too.
  EXPECT_LT(plan->warm.delay, interp->warm.delay) << net.name;
  // The fused schedule hoists warm-invariant closures and batches the
  // submit MMIO: strictly faster than both interpreter and plain plan.
  EXPECT_LT(fused->warm.delay, interp->warm.delay) << net.name;
  EXPECT_LT(fused->warm.delay, plan->warm.delay) << net.name;

  // And none of this moved the answer: all engines match the reference.
  auto ref = RunReference(net, GenerateInput(net, kInputSeed), 7);
  ASSERT_TRUE(ref.ok()) << net.name;
  EXPECT_LE(MaxAbsDiff(interp->cold_output, *ref), 1e-4f) << net.name;
  EXPECT_LE(MaxAbsDiff(plan->warm_output, *ref), 1e-4f) << net.name;
  EXPECT_LE(MaxAbsDiff(fused->warm_output, *ref), 1e-4f) << net.name;
}

TEST(PlanEquivalence, Mnist) {
  auto rec = RecordOnce(BuildMnist());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectPlanEquivalent(BuildMnist(), *rec);
}

TEST(PlanEquivalence, AlexNet) {
  auto rec = RecordOnce(BuildAlexNet());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectPlanEquivalent(BuildAlexNet(), *rec);
}

TEST(PlanEquivalence, MobileNet) {
  auto rec = RecordOnce(BuildMobileNet());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectPlanEquivalent(BuildMobileNet(), *rec);
}

TEST(PlanEquivalence, SqueezeNet) {
  auto rec = RecordOnce(BuildSqueezeNet());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectPlanEquivalent(BuildSqueezeNet(), *rec);
}

TEST(PlanEquivalence, ResNet12) {
  auto rec = RecordOnce(BuildResNet12());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectPlanEquivalent(BuildResNet12(), *rec);
}

TEST(PlanEquivalence, Vgg16) {
  auto rec = RecordOnce(BuildVgg16());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectPlanEquivalent(BuildVgg16(), *rec);
}

// The chaos corpus (recordings produced under seeded channel faults) is
// the adversarial input class for the record path; the plan compiler must
// lower them with the same fidelity as clean recordings.
TEST(PlanEquivalence, ChaosCorpus) {
  const NetworkDef net = BuildMnist();
  int corpus = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto run = RunChaosSession(net, kSku, WifiConditions(),
                               FaultPlan::FromSeed(seed), kNondetSeed,
                               /*nonce=*/100 + seed);
    ASSERT_TRUE(run.ok()) << "wifi seed " << seed << ": "
                          << run.status().ToString();
    auto rec = Recording::ParseUnsigned(run->recording_body);
    ASSERT_TRUE(rec.ok());
    ExpectPlanEquivalent(net, *rec);
    ++corpus;
  }
  for (uint64_t seed : {6u, 7u, 8u, 9u}) {
    auto run = RunChaosSession(net, kSku, CellularConditions(),
                               FaultPlan::FromSeed(seed), kNondetSeed,
                               /*nonce=*/200 + seed);
    ASSERT_TRUE(run.ok()) << "cellular seed " << seed << ": "
                          << run.status().ToString();
    auto rec = Recording::ParseUnsigned(run->recording_body);
    ASSERT_TRUE(rec.ok());
    ExpectPlanEquivalent(net, *rec);
    ++corpus;
  }
  EXPECT_EQ(corpus, 9);
}

}  // namespace
}  // namespace grt
