// Unit tests for the static footprint analysis (src/analysis/footprint):
// the interference lattice on synthetic footprints (partially overlapping
// register ranges, shared read-only pages, write/write latch groups,
// symmetry and reflexivity), coverage/validation helpers, the v4
// container roundtrip of a stamped footprint, and the footprint-soundness
// verifier pass on clean / tampered / unstamped recordings.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/footprint/footprint.h"
#include "src/analysis/verifier.h"
#include "src/cloud/session.h"
#include "src/harness/rig.h"
#include "src/hw/regs.h"
#include "src/ml/network.h"
#include "src/record/recording.h"

namespace grt {
namespace {

ResourceFootprint Empty() {
  ResourceFootprint fp;
  fp.computed = true;
  return fp;
}

ResourceFootprint WithRegs(std::vector<FootprintRange> regs) {
  ResourceFootprint fp = Empty();
  fp.regs = std::move(regs);
  return fp;
}

ResourceFootprint WithPages(std::vector<FootprintRange> pages) {
  ResourceFootprint fp = Empty();
  fp.pages = std::move(pages);
  return fp;
}

// Symmetry is part of the lattice contract; check it on every query.
Interference Verdict(const ResourceFootprint& a, const ResourceFootprint& b) {
  Interference ab = CheckInterference(a, b);
  EXPECT_EQ(ab, CheckInterference(b, a)) << "verdict is not symmetric";
  return ab;
}

TEST(InterferenceLattice, EmptyFootprintsAreDisjoint) {
  EXPECT_EQ(Verdict(Empty(), Empty()), Interference::kDisjoint);
}

TEST(InterferenceLattice, UncomputedFootprintConflictsWithEverything) {
  ResourceFootprint unstamped;  // computed == false
  EXPECT_EQ(Verdict(unstamped, Empty()), Interference::kConflicting);
  EXPECT_EQ(Verdict(unstamped, unstamped), Interference::kConflicting);
}

TEST(InterferenceLattice, SharedReadOnlyPagesAreDisjoint) {
  // Two plans reading the same page never perturb each other.
  ResourceFootprint a = WithPages({{0x80000000, 0x80002000, kFpRead}});
  ResourceFootprint b = WithPages({{0x80001000, 0x80003000, kFpRead}});
  EXPECT_EQ(Verdict(a, b), Interference::kDisjoint);
}

TEST(InterferenceLattice, PageWriteVsReadConflicts) {
  // DRAM survives the reset fence, so a written page readable by the
  // other plan is a conflict, not merely serializable.
  ResourceFootprint writer =
      WithPages({{0x80000000, 0x80001000, kFpWrite}});
  ResourceFootprint reader = WithPages({{0x80000000, 0x80001000, kFpRead}});
  EXPECT_EQ(Verdict(writer, reader), Interference::kConflicting);
}

TEST(InterferenceLattice, PageWriteVsWriteConflicts) {
  ResourceFootprint a = WithPages({{0x80000000, 0x80001000, kFpWrite}});
  ResourceFootprint b = WithPages({{0x80000000, 0x80001000, kFpWrite}});
  EXPECT_EQ(Verdict(a, b), Interference::kConflicting);
}

TEST(InterferenceLattice, DisjointWritePagesAreDisjoint) {
  ResourceFootprint a = WithPages({{0x80000000, 0x80001000, kFpWrite}});
  ResourceFootprint b = WithPages({{0x80001000, 0x80002000, kFpWrite}});
  EXPECT_EQ(Verdict(a, b), Interference::kDisjoint);
}

TEST(InterferenceLattice, PartialRegisterOverlapWriteVsExternal) {
  // a writes [0x100, 0x200); b observed [0x1c0, 0x240) before any write of
  // its own established it (kFpExternal). The overlap [0x1c0, 0x200) means
  // a's writes could change what b reads across its plan boundary — safe
  // only serialized behind a reset fence.
  ResourceFootprint a = WithRegs({{0x100, 0x200, kFpWrite}});
  ResourceFootprint b =
      WithRegs({{0x1c0, 0x240, kFpRead | kFpExternal}});
  EXPECT_EQ(Verdict(a, b), Interference::kSerializable);

  // Shift b's range past a's: no overlap, disjoint again.
  ResourceFootprint b2 =
      WithRegs({{0x200, 0x240, kFpRead | kFpExternal}});
  EXPECT_EQ(Verdict(a, b2), Interference::kDisjoint);
}

TEST(InterferenceLattice, RegisterOverlapWithoutExternalReadIsDisjoint) {
  // Both write the same register but each re-establishes it in-log before
  // reading (no kFpExternal): the reset fence plus in-plan writes make the
  // overlap invisible.
  ResourceFootprint a = WithRegs({{0x100, 0x104, kFpRead | kFpWrite}});
  ResourceFootprint b = WithRegs({{0x100, 0x104, kFpRead | kFpWrite}});
  EXPECT_EQ(Verdict(a, b), Interference::kDisjoint);
}

TEST(InterferenceLattice, ClobberVsExternalIsSerializable) {
  ResourceFootprint a = WithRegs({{0x100, 0x104, kFpClobber}});
  ResourceFootprint b = WithRegs({{0x100, 0x104, kFpRead | kFpExternal}});
  EXPECT_EQ(Verdict(a, b), Interference::kSerializable);
}

TEST(InterferenceLattice, AdmissionDemotesSerializableWithoutResetFence) {
  // kSerializable is sound only behind the per-replay reset fence
  // (scrub_before); a pool serving without the fence must treat the pair
  // as conflicting at admission.
  ResourceFootprint a = WithRegs({{0x100, 0x104, kFpWrite}});
  ResourceFootprint b = WithRegs({{0x100, 0x104, kFpRead | kFpExternal}});
  ASSERT_EQ(Verdict(a, b), Interference::kSerializable);
  EXPECT_EQ(AdmissionInterference(a, b, /*reset_fenced=*/true),
            Interference::kSerializable);
  EXPECT_EQ(AdmissionInterference(a, b, /*reset_fenced=*/false),
            Interference::kConflicting);
  // The fence only matters for serializable pairs: disjoint stays
  // disjoint and conflicting stays conflicting either way.
  EXPECT_EQ(AdmissionInterference(Empty(), Empty(), /*reset_fenced=*/false),
            Interference::kDisjoint);
  ResourceFootprint w = WithPages({{0x80000000, 0x80001000, kFpWrite}});
  EXPECT_EQ(AdmissionInterference(w, w, /*reset_fenced=*/true),
            Interference::kConflicting);
  EXPECT_EQ(AdmissionInterference(w, w, /*reset_fenced=*/false),
            Interference::kConflicting);
}

TEST(InterferenceLattice, SharedSlotWriteMaskConflicts) {
  ResourceFootprint a = Empty();
  a.slot_write_mask = 0b01;
  ResourceFootprint b = Empty();
  b.slot_write_mask = 0b11;
  EXPECT_EQ(Verdict(a, b), Interference::kConflicting);

  b.slot_write_mask = 0b10;  // disjoint slots
  EXPECT_EQ(Verdict(a, b), Interference::kDisjoint);
}

TEST(InterferenceLattice, SharedAddressSpaceWriteMaskConflicts) {
  ResourceFootprint a = Empty();
  a.as_write_mask = 0b001;
  ResourceFootprint b = Empty();
  b.as_write_mask = 0b001;
  EXPECT_EQ(Verdict(a, b), Interference::kConflicting);
}

TEST(InterferenceLattice, IrqLineVsExternalWaitIsSerializable) {
  ResourceFootprint a = Empty();
  a.irq_lines = kIrqLineJob;  // waits on (and thus consumes) the job line
  ResourceFootprint b = Empty();
  b.irq_lines = kIrqLineJob;
  b.irq_external = kIrqLineJob;  // waited before establishing the source itself
  EXPECT_EQ(Verdict(a, b), Interference::kSerializable);

  b.irq_external = 0;
  EXPECT_EQ(Verdict(a, b), Interference::kDisjoint);
}

TEST(InterferenceLattice, ConflictDominatesSerializable) {
  // A pair that is both register-serializable and page-conflicting must
  // report the worse verdict.
  ResourceFootprint a = WithRegs({{0x100, 0x104, kFpWrite}});
  a.pages = {{0x80000000, 0x80001000, kFpWrite}};
  ResourceFootprint b = WithRegs({{0x100, 0x104, kFpRead | kFpExternal}});
  b.pages = {{0x80000000, 0x80001000, kFpRead}};
  EXPECT_EQ(Verdict(a, b), Interference::kConflicting);
}

TEST(FootprintCoversTest, SupersetCoversSubset) {
  ResourceFootprint declared =
      WithRegs({{0x100, 0x200, kFpRead | kFpWrite}});
  declared.pages = {{0x80000000, 0x80004000, kFpWrite | kFpRead}};
  declared.irq_lines = kIrqLinesAll;
  declared.slot_write_mask = 0b11;
  declared.as_write_mask = 0b11;

  ResourceFootprint required = WithRegs({{0x140, 0x180, kFpWrite}});
  required.pages = {{0x80001000, 0x80002000, kFpWrite}};
  required.irq_lines = kIrqLineJob;
  required.slot_write_mask = 0b01;
  required.as_write_mask = 0b10;

  std::string why;
  EXPECT_TRUE(FootprintCovers(declared, required, &why)) << why;
}

TEST(FootprintCoversTest, MissingAccessBitFailsWithReason) {
  ResourceFootprint declared = WithRegs({{0x100, 0x200, kFpRead}});
  ResourceFootprint required = WithRegs({{0x140, 0x144, kFpWrite}});
  std::string why;
  EXPECT_FALSE(FootprintCovers(declared, required, &why));
  EXPECT_FALSE(why.empty());
}

TEST(FootprintCoversTest, MissingPageFails) {
  ResourceFootprint declared =
      WithPages({{0x80000000, 0x80001000, kFpWrite}});
  ResourceFootprint required =
      WithPages({{0x80000000, 0x80002000, kFpWrite}});
  std::string why;
  EXPECT_FALSE(FootprintCovers(declared, required, &why));
}

TEST(ValidateFootprintTest, AcceptsWellFormed) {
  ResourceFootprint fp = WithRegs({{0x0, 0x4, kFpRead},
                                   {0x100, 0x200, kFpWrite}});
  fp.pages = {{0x80000000, 0x80001000, kFpWrite}};
  EXPECT_TRUE(ValidateFootprint(fp).ok());
}

TEST(ValidateFootprintTest, RejectsUnsortedAndOverlapping) {
  ResourceFootprint unsorted = WithRegs({{0x100, 0x200, kFpWrite},
                                         {0x0, 0x4, kFpRead}});
  EXPECT_FALSE(ValidateFootprint(unsorted).ok());

  ResourceFootprint overlapping = WithRegs({{0x0, 0x104, kFpRead},
                                            {0x100, 0x200, kFpWrite}});
  EXPECT_FALSE(ValidateFootprint(overlapping).ok());

  ResourceFootprint misaligned_page =
      WithPages({{0x80000100, 0x80001000, kFpWrite}});
  EXPECT_FALSE(ValidateFootprint(misaligned_page).ok());
}

// ------------------------------------------------- recorded footprints

class RecordedFootprintTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ClientDevice device(SkuId::kMaliG71Mp8);
    NetworkDef net = BuildMnist();
    CloudService service;
    SpeculationHistory history;
    RecordSessionConfig config;
    RecordSession session(&service, &device, config, &history);
    ASSERT_TRUE(session.Connect().ok());
    auto outcome = session.RecordWorkload(net, 7);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto rec = Recording::ParseSigned(outcome->signed_recording,
                                      session.key()->key());
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    rec_ = new Recording(std::move(*rec));
  }

  static void TearDownTestSuite() {
    delete rec_;
    rec_ = nullptr;
  }

  static Recording* rec_;
};

Recording* RecordedFootprintTest::rec_ = nullptr;

TEST_F(RecordedFootprintTest, RecordingArrivesStamped) {
  const ResourceFootprint& fp = rec_->header.footprint;
  ASSERT_TRUE(fp.computed);
  EXPECT_TRUE(ValidateFootprint(fp).ok());
  EXPECT_FALSE(fp.regs.empty());
  EXPECT_FALSE(fp.pages.empty());
  // A recorded MNIST run submits on slot 0 / AS 0 and waits for job IRQs.
  EXPECT_NE(fp.slot_write_mask & 1u, 0u);
  EXPECT_NE(fp.as_write_mask & 1u, 0u);
  EXPECT_NE(fp.irq_lines, 0u);
  // Real recordings establish everything they read in-log: no external
  // register observations, no external IRQ waits.
  for (const FootprintRange& r : fp.regs) {
    EXPECT_EQ(r.access & kFpExternal, 0u)
        << "external register range at 0x" << std::hex << r.lo;
  }
  EXPECT_EQ(fp.irq_external, 0u);
}

TEST_F(RecordedFootprintTest, FootprintSurvivesV4Roundtrip) {
  Bytes body = rec_->SerializeBody();
  auto back = Recording::ParseUnsigned(body);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const ResourceFootprint& a = rec_->header.footprint;
  const ResourceFootprint& b = back->header.footprint;
  EXPECT_EQ(a.computed, b.computed);
  ASSERT_EQ(a.regs.size(), b.regs.size());
  for (size_t i = 0; i < a.regs.size(); ++i) {
    EXPECT_EQ(a.regs[i].lo, b.regs[i].lo);
    EXPECT_EQ(a.regs[i].hi, b.regs[i].hi);
    EXPECT_EQ(a.regs[i].access, b.regs[i].access);
  }
  ASSERT_EQ(a.pages.size(), b.pages.size());
  for (size_t i = 0; i < a.pages.size(); ++i) {
    EXPECT_EQ(a.pages[i].lo, b.pages[i].lo);
    EXPECT_EQ(a.pages[i].hi, b.pages[i].hi);
    EXPECT_EQ(a.pages[i].access, b.pages[i].access);
  }
  EXPECT_EQ(a.irq_lines, b.irq_lines);
  EXPECT_EQ(a.irq_external, b.irq_external);
  EXPECT_EQ(a.slot_write_mask, b.slot_write_mask);
  EXPECT_EQ(a.as_write_mask, b.as_write_mask);
}

TEST_F(RecordedFootprintTest, RealRecordingConflictsWithItself) {
  // Self-interference: a plan writes its own pages, so two copies of it
  // can never co-reside. (Contrast with the empty footprint above.)
  EXPECT_EQ(CheckInterference(rec_->header.footprint,
                              rec_->header.footprint),
            Interference::kConflicting);
}

TEST_F(RecordedFootprintTest, VerifierAcceptsStampedRecording) {
  RecordingVerifier verifier;
  AnalysisReport report = verifier.Analyze(*rec_);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(RecordedFootprintTest, VerifierRejectsTamperedFootprint) {
  // Drop a written page range from the declared footprint: the pass must
  // notice the declaration no longer over-approximates the log.
  Recording bad = *rec_;
  auto written = std::find_if(
      bad.header.footprint.pages.begin(), bad.header.footprint.pages.end(),
      [](const FootprintRange& r) { return (r.access & kFpWrite) != 0; });
  ASSERT_NE(written, bad.header.footprint.pages.end());
  bad.header.footprint.pages.erase(written);

  RecordingVerifier verifier;
  AnalysisReport report = verifier.Analyze(bad);
  EXPECT_FALSE(report.ok());
  bool from_footprint_pass = false;
  for (const Finding& f : report.findings()) {
    if (f.severity == FindingSeverity::kError) {
      EXPECT_EQ(f.pass, "footprint-soundness") << report.ToString();
      from_footprint_pass = true;
    }
  }
  EXPECT_TRUE(from_footprint_pass);
}

TEST_F(RecordedFootprintTest, VerifierWarnsOnlyOnUnstampedRecording) {
  // Pre-v4 recordings carry no footprint; they stay admissible (warning)
  // but the pool will treat them as conflicting with everything.
  Recording legacy = *rec_;
  legacy.header.footprint = ResourceFootprint{};
  RecordingVerifier verifier;
  AnalysisReport report = verifier.Analyze(legacy);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.warning_count(), 0u);
}

TEST_F(RecordedFootprintTest, DumpsMentionEveryResourceClass) {
  std::string text = FootprintToString(rec_->header.footprint);
  EXPECT_NE(text.find("registers"), std::string::npos);
  EXPECT_NE(text.find("pages"), std::string::npos);
  std::string json = FootprintToJson(rec_->header.footprint);
  EXPECT_NE(json.find("\"computed\""), std::string::npos);
  EXPECT_NE(json.find("\"regs\""), std::string::npos);
  EXPECT_NE(json.find("\"pages\""), std::string::npos);
  EXPECT_NE(json.find("\"irq_lines\""), std::string::npos);
}

}  // namespace
}  // namespace grt
