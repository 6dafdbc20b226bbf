// Unit tests for replay-plan compilation (src/record/plan.h) and the
// plan path's dirty-page tracking. Compilation tests exercise the lowering
// rules on hand-built logs; the dirty-page tests replay a synthetic
// memory-only recording on a real rig and check the three invariants the
// design argues for (DESIGN.md §6d): a clobbered page is re-applied, a
// clean page is skipped, and a restaged tensor is always re-injected.
#include <gtest/gtest.h>

#include <cstring>

#include "src/harness/rig.h"
#include "src/hw/regs.h"
#include "src/record/plan.h"
#include "src/record/replayer.h"

namespace grt {
namespace {

Bytes PageOf(uint8_t fill) { return Bytes(kPageSize, fill); }

LogEntry PageEntry(uint64_t pa, uint8_t fill, bool metastate = false) {
  LogEntry e;
  e.op = LogOp::kMemPage;
  e.pa = pa;
  e.metastate = metastate;
  e.data = PageOf(fill);
  return e;
}

LogEntry JobStartEntry() {
  LogEntry e;
  e.op = LogOp::kRegWrite;
  e.reg = JobSlotRegister(0, kJsCommandNext);
  e.value = kJsCommandStart;
  return e;
}

Recording MakeRecording(std::vector<LogEntry> entries) {
  Recording rec;
  rec.header.workload = "plan-unit";
  rec.header.sku = SkuId::kMaliG71Mp8;
  rec.header.record_nonce = 1;
  rec.log = InteractionLog::FromEntries(std::move(entries));
  return rec;
}

constexpr uint64_t kBase = kCarveoutBase;

TEST(PlanCompile, CoalescesContiguousPagesIntoRuns) {
  Recording rec = MakeRecording({
      PageEntry(kBase + 2 * kPageSize, 3),
      PageEntry(kBase, 1),
      PageEntry(kBase + kPageSize, 2),
      PageEntry(kBase + 10 * kPageSize, 9),  // gap: second run
  });
  ReplayPlan plan = CompileReplayPlan(rec);
  ASSERT_EQ(plan.regions.size(), 2u);
  EXPECT_EQ(plan.regions[0].base_pa, kBase);
  EXPECT_EQ(plan.regions[0].n_pages, 3u);
  EXPECT_EQ(plan.regions[1].base_pa, kBase + 10 * kPageSize);
  EXPECT_EQ(plan.regions[1].n_pages, 1u);
  EXPECT_EQ(plan.image_pages, 4u);
  EXPECT_EQ(plan.image_bytes, 4 * kPageSize);
  // Entry order does not matter: runs are ascending and content lands at
  // the right page offset within the run.
  EXPECT_EQ(plan.regions[0].image[0], 1);
  EXPECT_EQ(plan.regions[0].image[kPageSize], 2);
  EXPECT_EQ(plan.regions[0].image[2 * kPageSize], 3);
  // All ops were absorbed into the initial image.
  EXPECT_TRUE(plan.ops.empty());
}

TEST(PlanCompile, RepeatSnapshotLastWriteWins) {
  Recording rec = MakeRecording({
      PageEntry(kBase, 1),
      PageEntry(kBase, 7),  // re-snapshot of the same page
  });
  ReplayPlan plan = CompileReplayPlan(rec);
  ASSERT_EQ(plan.regions.size(), 1u);
  EXPECT_EQ(plan.image_pages, 1u);
  EXPECT_EQ(plan.duplicate_pages, 1u);
  EXPECT_EQ(plan.regions[0].image[0], 7);
}

TEST(PlanCompile, PostJobStartDataPagesDroppedMetastateKept) {
  Recording rec = MakeRecording({
      PageEntry(kBase, 1),
      JobStartEntry(),
      PageEntry(kBase + kPageSize, 2, /*metastate=*/false),  // dropped
      PageEntry(kBase + 2 * kPageSize, 3, /*metastate=*/true),  // kept
  });
  ReplayPlan plan = CompileReplayPlan(rec);
  EXPECT_EQ(plan.image_pages, 1u);
  EXPECT_EQ(plan.dropped_pages, 1u);
  ASSERT_EQ(plan.mid_images.size(), 1u);
  EXPECT_EQ(plan.mid_images[0].pa, kBase + 2 * kPageSize);
  // Ops: the job-start write, then the metastate reapplication, in order.
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_EQ(plan.ops[0].kind, PlanOpKind::kRegWrite);
  EXPECT_EQ(plan.ops[1].kind, PlanOpKind::kMemPage);
  EXPECT_EQ(plan.ops[1].image, 0u);
}

TEST(PlanCompile, UncoalescedLoweringKeepsEverySnapshotInLogOrder) {
  Recording rec = MakeRecording({
      PageEntry(kBase, 1),
      PageEntry(kBase, 7),  // a re-snapshot stays its own op
      JobStartEntry(),
      PageEntry(kBase + kPageSize, 2),  // post-job-start data page: dropped
  });
  ReplayPlan plan = LowerRecording(rec);
  EXPECT_TRUE(plan.regions.empty());
  EXPECT_EQ(plan.dropped_pages, 1u);
  ASSERT_EQ(plan.ops.size(), 3u);
  EXPECT_EQ(plan.ops[0].kind, PlanOpKind::kMemPage);
  EXPECT_EQ(plan.ops[1].kind, PlanOpKind::kMemPage);
  EXPECT_EQ(plan.mid_images[plan.ops[1].image].data[0], 7);
  EXPECT_EQ(plan.ops[2].kind, PlanOpKind::kRegWrite);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.ops[i].log_index, i);
  }
}

TEST(PlanCompile, RegReadVerifyDecisionResolvedAtCompileTime) {
  LogEntry det;
  det.op = LogOp::kRegRead;
  det.reg = JobSlotRegister(0, kJsStatus);
  det.value = 0;
  LogEntry nondet;
  nondet.op = LogOp::kRegRead;
  nondet.reg = kRegCycleCountLo;
  nondet.value = 1234;
  ASSERT_FALSE(IsNondeterministicRegister(det.reg));
  ASSERT_TRUE(IsNondeterministicRegister(nondet.reg));

  ReplayPlan plan = CompileReplayPlan(MakeRecording({det, nondet}));
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_TRUE(plan.ops[0].verify);
  EXPECT_FALSE(plan.ops[1].verify);
}

TEST(PlanCompile, PatchTableMirrorsBindingPageWalk) {
  Recording rec = MakeRecording({PageEntry(kBase, 0)});
  TensorBinding in;
  in.n_floats = (2 * kPageSize + 512) / sizeof(float);  // 2.5 pages
  in.pages = {kBase, kBase + 4 * kPageSize, kBase + kPageSize};
  in.writable_at_replay = true;
  rec.bindings["in"] = in;
  TensorBinding truncated;
  truncated.n_floats = kPageSize;  // needs 4 pages, only 1 listed
  truncated.pages = {kBase};
  truncated.writable_at_replay = true;
  rec.bindings["short"] = truncated;

  ReplayPlan plan = CompileReplayPlan(rec);
  ASSERT_EQ(plan.patches.size(), 2u);
  const TensorPatch& patch = plan.patches.at("in");
  EXPECT_TRUE(patch.complete);
  EXPECT_TRUE(patch.writable);
  ASSERT_EQ(patch.chunks.size(), 3u);
  // Chunks follow the binding's page list order, not ascending pa.
  EXPECT_EQ(patch.chunks[0].pa, kBase);
  EXPECT_EQ(patch.chunks[0].src_offset, 0u);
  EXPECT_EQ(patch.chunks[0].len, kPageSize);
  EXPECT_EQ(patch.chunks[1].pa, kBase + 4 * kPageSize);
  EXPECT_EQ(patch.chunks[1].src_offset, kPageSize);
  EXPECT_EQ(patch.chunks[2].len, 512u);
  EXPECT_FALSE(plan.patches.at("short").complete);
}

// A binding whose page list is too short for its size can be neither
// injected nor read back: both engines fail with Internal rather than
// writing or reading only part of the tensor.
TEST(IncompleteBinding, ReplayAndReadbackFailOnEveryEngine) {
  constexpr uint64_t kNFloats = 2 * kPageSize / sizeof(float);  // 2 pages
  for (bool use_plan : {false, true}) {
    Recording rec = MakeRecording(
        {PageEntry(kBase, 0x11), PageEntry(kBase + kPageSize, 0x22)});
    TensorBinding in;
    in.n_floats = kNFloats;
    in.pages = {kBase};  // one page listed
    in.writable_at_replay = true;
    rec.bindings["in"] = in;
    TensorBinding out;
    out.n_floats = kNFloats;
    out.pages = {kBase + kPageSize};  // one page listed
    out.writable_at_replay = false;
    rec.bindings["out"] = out;

    ClientDevice device(SkuId::kMaliG71Mp8);
    ReplayConfig config;
    config.static_verify = false;  // hand-built, trusted
    config.use_plan = use_plan;
    Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                      &device.timeline(), config);
    ASSERT_TRUE(replayer.Load(std::move(rec)).ok());
    ASSERT_TRUE(
        replayer.StageTensor("in", std::vector<float>(kNFloats, 1.0f)).ok());
    auto report = replayer.Replay();
    ASSERT_FALSE(report.ok()) << "use_plan " << use_plan;
    EXPECT_EQ(report.status().code(), StatusCode::kInternal)
        << report.status().ToString();
    auto read = replayer.ReadTensor("out");
    ASSERT_FALSE(read.ok()) << "use_plan " << use_plan;
    EXPECT_EQ(read.status().code(), StatusCode::kInternal)
        << read.status().ToString();
  }
}

TEST(PlanCompile, JobStartPredicateShape) {
  EXPECT_TRUE(IsReplayJobStart(JobStartEntry()));
  LogEntry second_slot = JobStartEntry();
  second_slot.reg = JobSlotRegister(1, kJsCommandNext);
  EXPECT_TRUE(IsReplayJobStart(second_slot));
  LogEntry wrong_value = JobStartEntry();
  wrong_value.value = kJsCommandNop;
  EXPECT_FALSE(IsReplayJobStart(wrong_value));
  LogEntry wrong_reg = JobStartEntry();
  wrong_reg.reg = JobSlotRegister(0, kJsStatus);
  EXPECT_FALSE(IsReplayJobStart(wrong_reg));
  LogEntry read = JobStartEntry();
  read.op = LogOp::kRegRead;
  EXPECT_FALSE(IsReplayJobStart(read));
}

// ---------------------------------------------------------------- dirty
// Dirty-page tracking, on a synthetic recording of pure memory images (no
// register stimuli, so replay is exactly "establish the image"). The
// recording skips the static verifier: it is a trusted hand-built log.

class DirtyTrackingTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPageA = kBase;
  static constexpr uint64_t kPageB = kBase + kPageSize;
  static constexpr uint64_t kPageIn = kBase + 2 * kPageSize;
  static constexpr uint64_t kPageOut = kBase + 3 * kPageSize;
  static constexpr uint64_t kNFloats = kPageSize / sizeof(float);

  Recording MakeMemoryRecording() {
    Recording rec = MakeRecording({
        PageEntry(kPageA, 0xAA),
        PageEntry(kPageB, 0xBB),
        PageEntry(kPageIn, 0x11),
        PageEntry(kPageOut, 0x22),
    });
    TensorBinding in;
    in.n_floats = kNFloats;
    in.pages = {kPageIn};
    in.writable_at_replay = true;
    rec.bindings["in"] = in;
    TensorBinding out;
    out.n_floats = kNFloats;
    out.pages = {kPageOut};
    out.writable_at_replay = false;
    rec.bindings["out"] = out;
    return rec;
  }

  ReplayConfig PlanConfig() {
    ReplayConfig config;
    config.static_verify = false;  // hand-built, trusted
    config.use_plan = true;
    return config;
  }

  uint8_t ByteAt(ClientDevice& device, uint64_t pa) {
    uint8_t b = 0;
    EXPECT_TRUE(device.mem().Read(pa, &b, 1).ok());
    return b;
  }
};

TEST_F(DirtyTrackingTest, SecondReplaySkipsCleanPages) {
  ClientDevice device(SkuId::kMaliG71Mp8);
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), PlanConfig());
  ASSERT_TRUE(replayer.Load(MakeMemoryRecording()).ok());

  auto cold = replayer.Replay();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->plan_used);
  EXPECT_FALSE(cold->warm);
  EXPECT_EQ(cold->pages_applied, 4u);
  EXPECT_EQ(cold->mem_bytes_applied, 4 * kPageSize);

  auto warm = replayer.Replay();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm);
  EXPECT_EQ(warm->pages_applied, 0u);
  EXPECT_EQ(warm->pages_skipped_clean, 4u);
  EXPECT_EQ(warm->mem_bytes_applied, 0u);
  // Skipping changed nothing: the pages still hold the image content.
  EXPECT_EQ(ByteAt(device, kPageA), 0xAA);
  EXPECT_EQ(ByteAt(device, kPageB), 0xBB);
}

TEST_F(DirtyTrackingTest, ClobberedPageIsReappliedCleanOnesSkipped) {
  ClientDevice device(SkuId::kMaliG71Mp8);
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), PlanConfig());
  ASSERT_TRUE(replayer.Load(MakeMemoryRecording()).ok());
  ASSERT_TRUE(replayer.Replay().ok());

  // An external write lands on page B between replays (debugger poke,
  // another tenant — any write the observer can see).
  uint8_t junk[16];
  std::memset(junk, 0x5C, sizeof(junk));
  ASSERT_TRUE(device.mem().Write(kPageB + 100, junk, sizeof(junk)).ok());
  ASSERT_EQ(ByteAt(device, kPageB + 100), 0x5C);

  auto warm = replayer.Replay();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm);
  EXPECT_EQ(warm->pages_applied, 1u);  // exactly the clobbered page
  EXPECT_EQ(warm->pages_skipped_clean, 3u);
  EXPECT_EQ(warm->mem_bytes_applied, kPageSize);
  // The clobbered page was restored to image content.
  EXPECT_EQ(ByteAt(device, kPageB + 100), 0xBB);
}

TEST_F(DirtyTrackingTest, StagedTensorAlwaysReinjected) {
  ClientDevice device(SkuId::kMaliG71Mp8);
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), PlanConfig());
  ASSERT_TRUE(replayer.Load(MakeMemoryRecording()).ok());

  std::vector<float> v1(kNFloats, 1.0f);
  ASSERT_TRUE(replayer.StageTensor("in", v1).ok());
  ASSERT_TRUE(replayer.Replay().ok());
  auto read1 = replayer.ReadTensor("in");
  ASSERT_TRUE(read1.ok());
  EXPECT_EQ((*read1)[0], 1.0f);

  // Re-staging overwrites in place and the warm replay re-injects: a
  // restaged tensor never rides the clean-page skip.
  std::vector<float> v2(kNFloats, 2.0f);
  ASSERT_TRUE(replayer.StageTensor("in", v2).ok());
  auto warm = replayer.Replay();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm);
  auto read2 = replayer.ReadTensor("in");
  ASSERT_TRUE(read2.ok());
  EXPECT_EQ((*read2)[0], 2.0f);
  EXPECT_EQ((*read2)[kNFloats - 1], 2.0f);

  // Without re-staging, the resident tensor persists across a replay.
  ASSERT_TRUE(replayer.Replay().ok());
  auto read3 = replayer.ReadTensor("in");
  ASSERT_TRUE(read3.ok());
  EXPECT_EQ((*read3)[0], 2.0f);
}

TEST_F(DirtyTrackingTest, ReloadResetsDirtyState) {
  ClientDevice device(SkuId::kMaliG71Mp8);
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline(), PlanConfig());
  ASSERT_TRUE(replayer.Load(MakeMemoryRecording()).ok());
  ASSERT_TRUE(replayer.Replay().ok());

  // A fresh Load must not inherit image state: the first replay after it
  // is cold again (full application).
  ASSERT_TRUE(replayer.Load(MakeMemoryRecording()).ok());
  auto cold = replayer.Replay();
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->warm);
  EXPECT_EQ(cold->pages_applied, 4u);
}

}  // namespace
}  // namespace grt
