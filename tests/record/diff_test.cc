// Interaction-log diff tests (§3.4 remote debugging), including the
// end-to-end malfunction-localization scenario.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/record/diff.h"
#include "src/record/replayer.h"

namespace grt {
namespace {

LogEntry Read(uint32_t reg, uint32_t value) {
  LogEntry e;
  e.op = LogOp::kRegRead;
  e.reg = reg;
  e.value = value;
  return e;
}

LogEntry Write(uint32_t reg, uint32_t value) {
  LogEntry e;
  e.op = LogOp::kRegWrite;
  e.reg = reg;
  e.value = value;
  return e;
}

TEST(LogDiff, IdenticalLogsMatch) {
  InteractionLog a;
  a.Add(Write(kRegGpuIrqMask, 1));
  a.Add(Read(kRegGpuId, 42));
  LogDiff diff = CompareInteractionLogs(a, a);
  EXPECT_TRUE(diff.identical);
  EXPECT_EQ(diff.entries_compared, 2u);
  EXPECT_EQ(diff.value_mismatches, 0u);
}

TEST(LogDiff, ValueDeviationLocalized) {
  InteractionLog expected, observed;
  expected.Add(Write(kRegGpuIrqMask, 1));
  observed.Add(Write(kRegGpuIrqMask, 1));
  expected.Add(Read(kRegShaderReadyLo, 0xFF));
  observed.Add(Read(kRegShaderReadyLo, 0x0F));  // half the cores missing
  LogDiff diff = CompareInteractionLogs(expected, observed);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergence, 1u);
  EXPECT_EQ(diff.value_mismatches, 1u);
  EXPECT_EQ(diff.structure_mismatches, 0u);
  EXPECT_NE(diff.description.find("SHADER_READY_LO"), std::string::npos);
}

TEST(LogDiff, NondeterministicValuesIgnoredByDefault) {
  InteractionLog expected, observed;
  expected.Add(Read(kRegLatestFlush, 100));
  observed.Add(Read(kRegLatestFlush, 999));
  EXPECT_TRUE(CompareInteractionLogs(expected, observed).identical);
  LogDiffOptions strict;
  strict.ignore_nondeterministic_values = false;
  EXPECT_FALSE(CompareInteractionLogs(expected, observed, strict).identical);
}

TEST(LogDiff, StructuralDeviationDetected) {
  InteractionLog expected, observed;
  expected.Add(Read(kRegGpuId, 1));
  observed.Add(Write(kRegGpuId, 1));  // kind differs
  LogDiff diff = CompareInteractionLogs(expected, observed);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.structure_mismatches, 1u);
}

TEST(LogDiff, LengthMismatchDetected) {
  InteractionLog expected, observed;
  expected.Add(Read(kRegGpuId, 1));
  expected.Add(Read(kRegGpuId, 1));
  observed.Add(Read(kRegGpuId, 1));
  LogDiff diff = CompareInteractionLogs(expected, observed);
  EXPECT_FALSE(diff.identical);
  EXPECT_NE(diff.description.find("lengths"), std::string::npos);
}

TEST(LogDiff, PageIdentityIsStructuralContentIsValue) {
  LogEntry page;
  page.op = LogOp::kMemPage;
  page.pa = 0x1000;
  page.metastate = false;
  page.data.assign(64, 0xAB);

  // Same identity, different bytes: a value mismatch, suppressible.
  InteractionLog expected, observed;
  expected.Add(page);
  LogEntry altered = page;
  altered.data[3] ^= 0xFF;
  observed.Add(altered);
  LogDiff diff = CompareInteractionLogs(expected, observed);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.value_mismatches, 1u);
  EXPECT_EQ(diff.structure_mismatches, 0u);
  EXPECT_NE(diff.description.find("content"), std::string::npos);

  LogDiffOptions loose;
  loose.ignore_page_contents = true;
  EXPECT_TRUE(CompareInteractionLogs(expected, observed, loose).identical);

  // Different physical address: structural, and never suppressible.
  LogEntry moved = page;
  moved.pa = 0x2000;
  InteractionLog relocated;
  relocated.Add(moved);
  diff = CompareInteractionLogs(expected, relocated, loose);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.structure_mismatches, 1u);
  EXPECT_NE(diff.description.find("identity"), std::string::npos);
}

TEST(LogDiff, PollShapeIsStructural) {
  LogEntry poll;
  poll.op = LogOp::kPollWait;
  poll.reg = kRegGpuIrqRawstat;
  poll.mask = 0x100;
  poll.expected = 0x100;
  InteractionLog expected, observed;
  expected.Add(poll);
  poll.mask = 0x300;  // widened mask — a different wait condition entirely
  observed.Add(poll);
  LogDiff diff = CompareInteractionLogs(expected, observed);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.structure_mismatches, 1u);
  EXPECT_NE(diff.description.find("IRQ_RAWSTAT"), std::string::npos);
}

TEST(LogDiff, DelayAndIrqDeviationsAreValueMismatches) {
  LogEntry delay;
  delay.op = LogOp::kDelay;
  delay.delay = 100;
  LogEntry irq;
  irq.op = LogOp::kIrqWait;
  irq.irq_lines = kIrqLineJob;
  InteractionLog expected, observed;
  expected.Add(delay);
  expected.Add(irq);
  delay.delay = 400;  // e.g. a coalesced-delay run folded into one entry
  irq.irq_lines = kIrqLineGpu;
  observed.Add(delay);
  observed.Add(irq);
  LogDiff diff = CompareInteractionLogs(expected, observed);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergence, 0u);
  EXPECT_EQ(diff.value_mismatches, 2u);
  EXPECT_EQ(diff.structure_mismatches, 0u);
}

TEST(LogDiff, CountsEveryMismatchNotJustTheFirst) {
  InteractionLog expected, observed;
  for (uint32_t v = 0; v < 4; ++v) {
    expected.Add(Write(kRegGpuIrqMask, v));
    observed.Add(Write(kRegGpuIrqMask, v + 10));
  }
  LogDiff diff = CompareInteractionLogs(expected, observed);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergence, 0u);
  EXPECT_EQ(diff.value_mismatches, 4u);
  EXPECT_EQ(diff.entries_compared, 4u);
}

TEST(LogDiff, OptimizedLogDivergesStructurallyFromOriginal) {
  // An optimized recording is a different interaction sequence: the diff
  // tool reports it as structural drift rather than silently matching —
  // remote debugging must compare like with like.
  InteractionLog original, optimized;
  original.Add(Write(kRegShaderConfig, 7));
  original.Add(Write(kRegShaderConfig, 7));  // a duplicate an optimizer drops
  original.Add(Read(kRegGpuId, 42));
  optimized.Add(Write(kRegShaderConfig, 7));
  optimized.Add(Read(kRegGpuId, 42));
  LogDiff diff = CompareInteractionLogs(original, optimized);
  EXPECT_FALSE(diff.identical);
  EXPECT_GE(diff.structure_mismatches + diff.value_mismatches, 1u);
  EXPECT_EQ(diff.first_divergence, 1u);
}

TEST(LogDiff, RemoteDebuggingLocalizesInjectedFault) {
  // End to end: record, then replay on a device whose JS0_STATUS register
  // is corrupted — the diff pinpoints the register (§3.4).
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 113);
  SpeculationHistory history;
  auto m = RunRecordVariant(&device, net, "OursMDS", WifiConditions(),
                            &history, 1);
  ASSERT_TRUE(m.ok());
  auto recording =
      Recording::ParseSigned(m->signed_recording, m->session_key);
  ASSERT_TRUE(recording.ok());

  auto observe = [&]() -> Result<InteractionLog> {
    ReplayConfig config;
    config.verify_reads = false;
    config.collect_observed = true;
    Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                      &device.timeline(), config);
    GRT_RETURN_IF_ERROR(replayer.Load(*recording));
    GRT_ASSIGN_OR_RETURN(ReplayReport r, replayer.Replay());
    (void)r;
    return replayer.observed_log();
  };

  auto healthy = observe();
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_TRUE(CompareInteractionLogs(recording->log, *healthy).identical);

  device.gpu().InjectRegisterFault(JobSlotRegister(0, kJsStatus), 0x2);
  auto faulty = observe();
  device.gpu().ClearRegisterFault();
  ASSERT_TRUE(faulty.ok());
  LogDiff diff = CompareInteractionLogs(recording->log, *faulty);
  EXPECT_FALSE(diff.identical);
  EXPECT_NE(diff.description.find("JS0_STATUS"), std::string::npos);
  EXPECT_GT(diff.value_mismatches, 0u);
  EXPECT_EQ(diff.structure_mismatches, 0u);
}

}  // namespace
}  // namespace grt
