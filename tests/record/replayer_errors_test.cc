// Satellite: replay resource-exhaustion conditions are typed, testable
// errors. ReplayConfig::poll_max_iters running out surfaces as
// kPollExhausted and ReplayConfig::irq_timeout elapsing as kIrqExpired —
// distinguishable from each other, from generic kTimeout, and from replay
// divergence, so callers can branch (retry with a larger budget vs reject
// the recording) without string matching.
//
// A load that fails leaves the replayer unloaded: Replay() and
// ReadTensor() then refuse with kFailedPrecondition.
#include <gtest/gtest.h>

#include <memory>

#include "src/analysis/planopt/planopt.h"
#include "src/harness/experiment.h"
#include "src/harness/rig.h"
#include "src/hw/regs.h"
#include "src/record/plan.h"
#include "src/record/replayer.h"
#include "src/sku/sku.h"

namespace grt {
namespace {

Recording MinimalRecording(const std::string& workload) {
  Recording rec;
  rec.header.workload = workload;
  rec.header.sku = SkuId::kMaliG71Mp8;
  rec.header.record_nonce = 1;
  LogEntry reset;
  reset.op = LogOp::kRegWrite;
  reset.reg = kRegGpuCommand;
  reset.value = kGpuCommandSoftReset;
  rec.log.Add(std::move(reset));
  return rec;
}

class ReplayerErrorsTest : public ::testing::Test {
 protected:
  ClientDevice device_{SkuId::kMaliG71Mp8};
};

TEST_F(ReplayerErrorsTest, PollBudgetExhaustionIsTyped) {
  // The recorded poll saw CLEAN_CACHES_COMPLETED; at replay nobody issued
  // a flush, so the predicate can never be satisfied and the iteration
  // budget must run out.
  Recording rec = MinimalRecording("poll-exhaust");
  LogEntry poll;
  poll.op = LogOp::kPollWait;
  poll.reg = kRegGpuIrqRawstat;
  poll.mask = kGpuIrqCleanCachesCompleted;
  poll.expected = kGpuIrqCleanCachesCompleted;
  poll.value = kGpuIrqCleanCachesCompleted;  // satisfies predicate on paper
  rec.log.Add(std::move(poll));

  ReplayConfig config;
  config.poll_max_iters = 25;
  Replayer replayer(&device_.gpu(), &device_.tzasc(), &device_.mem(),
                    &device_.timeline(), config);
  ASSERT_TRUE(replayer.Load(std::move(rec)).ok());
  auto report = replayer.Replay();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kPollExhausted)
      << report.status().ToString();
  EXPECT_NE(report.status().code(), StatusCode::kTimeout);
}

TEST_F(ReplayerErrorsTest, IrqTimeoutExpiryIsTyped) {
  // The recording waits on the job interrupt, but no job was ever
  // submitted: the (virtual) irq_timeout elapses with no device event.
  Recording rec = MinimalRecording("irq-expire");
  LogEntry irq;
  irq.op = LogOp::kIrqWait;
  irq.irq_lines = kIrqLineJob;
  rec.log.Add(std::move(irq));

  ReplayConfig config;
  config.irq_timeout = 5 * kMillisecond;
  Replayer replayer(&device_.gpu(), &device_.tzasc(), &device_.mem(),
                    &device_.timeline(), config);
  ASSERT_TRUE(replayer.Load(std::move(rec)).ok());
  auto report = replayer.Replay();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIrqExpired)
      << report.status().ToString();
  EXPECT_NE(report.status().code(), StatusCode::kTimeout);
}

TEST_F(ReplayerErrorsTest, TheTwoExhaustionCodesAreDistinct) {
  EXPECT_NE(StatusCode::kPollExhausted, StatusCode::kIrqExpired);
  EXPECT_EQ(StatusCodeName(StatusCode::kPollExhausted), "POLL_EXHAUSTED");
  EXPECT_EQ(StatusCodeName(StatusCode::kIrqExpired), "IRQ_EXPIRED");
  EXPECT_EQ(PollExhausted("x").code(), StatusCode::kPollExhausted);
  EXPECT_EQ(IrqExpired("x").code(), StatusCode::kIrqExpired);
  EXPECT_FALSE(PollExhausted("x").ok());
  EXPECT_FALSE(IrqExpired("x").ok());
}

TEST_F(ReplayerErrorsTest, RejectedReloadLeavesReplayerUnloaded) {
  // A reload that fails its warm-program check must not leave the
  // previous load, or the refused plan, runnable: the refused plan's
  // full schedule would run on the next Replay() and its unchecked warm
  // program on the one after.
  NetworkDef net = BuildMnist();
  ClientDevice recorder(SkuId::kMaliG71Mp8, 11);
  SpeculationHistory history;
  auto m = RunRecordVariant(&recorder, net, "OursMDS", WifiConditions(),
                            &history, 0);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  auto rec = Recording::ParseSigned(m->signed_recording, m->session_key);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  auto recording = std::make_shared<const Recording>(std::move(*rec));
  auto sku = FindSku(SkuId::kMaliG71Mp8);
  ASSERT_TRUE(sku.ok());
  ReplayPlan checked = CompileReplayPlan(*recording);
  std::string decline;
  ASSERT_TRUE(AttachWarmProgram(&checked, *sku, &decline).ok());
  ASSERT_NE(checked.warm, nullptr) << "declined: " << decline;

  ReplayConfig config;
  config.static_verify = false;  // the warm-program check still runs
  Replayer replayer(&device_.gpu(), &device_.tzasc(), &device_.mem(),
                    &device_.timeline(), config);
  ASSERT_TRUE(replayer
                  .LoadShared(recording,
                              std::make_shared<const ReplayPlan>(checked))
                  .ok());
  auto first = replayer.Replay();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto cooked = std::make_shared<WarmProgram>(*checked.warm);
  cooked->stats.fused_spans += 1;
  auto tampered = std::make_shared<ReplayPlan>(checked);
  tampered->warm = std::move(cooked);
  Status reload = replayer.LoadShared(recording, std::move(tampered));
  EXPECT_EQ(reload.code(), StatusCode::kIntegrityViolation)
      << reload.ToString();

  EXPECT_EQ(replayer.Replay().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(replayer.ReadTensor(net.output_tensor).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace grt
