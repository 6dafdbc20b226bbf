// Static verifier tests: per-pass unit tests over hand-built logs, the
// corrupted-recording corpus (each corruption caught by exactly the
// intended pass, at the right log index), and a clean sweep proving the
// recorder's own output passes every gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "src/analysis/footprint/footprint.h"
#include "src/analysis/passes.h"
#include "src/analysis/verifier.h"
#include "src/harness/experiment.h"
#include "src/hw/mmu.h"
#include "src/hw/regs.h"
#include "src/record/recording.h"
#include "src/sku/sku.h"

namespace grt {
namespace {

// ------------------------------------------------------------ log builders

LogEntry Write(uint32_t reg, uint32_t value) {
  LogEntry e;
  e.op = LogOp::kRegWrite;
  e.reg = reg;
  e.value = value;
  return e;
}

LogEntry Read(uint32_t reg, uint32_t value, bool speculative = false) {
  LogEntry e;
  e.op = LogOp::kRegRead;
  e.reg = reg;
  e.value = value;
  e.speculative = speculative;
  return e;
}

LogEntry Poll(uint32_t reg, uint32_t mask, uint32_t expected,
              uint32_t final_value) {
  LogEntry e;
  e.op = LogOp::kPollWait;
  e.reg = reg;
  e.mask = mask;
  e.expected = expected;
  e.value = final_value;
  return e;
}

LogEntry Page(uint64_t pa, bool metastate, Bytes data = Bytes(kPageSize, 0)) {
  LogEntry e;
  e.op = LogOp::kMemPage;
  e.pa = pa;
  e.metastate = metastate;
  e.data = std::move(data);
  return e;
}

Recording MakeRecording(std::vector<LogEntry> entries,
                        SkuId sku = SkuId::kMaliG71Mp8) {
  Recording rec;
  rec.header.workload = "test";
  rec.header.sku = sku;
  for (auto& e : entries) {
    rec.log.Add(std::move(e));
  }
  return rec;
}

const GpuSku& Mp8() {
  static const GpuSku sku = FindSku(SkuId::kMaliG71Mp8).value();
  return sku;
}

// Runs one pass over a recording (default: Mp8, not a continuation).
AnalysisReport RunPass(const AnalysisPass& pass, const Recording& rec,
                       const GpuSku* sku = &Mp8(), bool continuation = false) {
  AnalysisInput in;
  in.recording = &rec;
  in.sku = sku;
  in.continuation = continuation;
  AnalysisReport report;
  pass.Run(in, &report);
  return report;
}

bool HasErrorAt(const AnalysisReport& report, const std::string& pass,
                ptrdiff_t index) {
  return std::any_of(report.findings().begin(), report.findings().end(),
                     [&](const Finding& f) {
                       return f.severity == FindingSeverity::kError &&
                              f.pass == pass && f.log_index == index;
                     });
}

// All error findings come from one pass (warnings from others are fine).
bool ErrorsOnlyFrom(const AnalysisReport& report, const std::string& pass) {
  return report.error_count() > 0 &&
         std::all_of(report.findings().begin(), report.findings().end(),
                     [&](const Finding& f) {
                       return f.severity != FindingSeverity::kError ||
                              f.pass == pass;
                     });
}

// ----------------------------------------------------------------- grammar

TEST(GrammarPass, EmptyLogIsClean) {
  GrammarPass pass;
  EXPECT_TRUE(RunPass(pass, MakeRecording({})).ok());
}

TEST(GrammarPass, UnalignedAndOutOfWindowRegisters) {
  GrammarPass pass;
  auto report = RunPass(pass, MakeRecording({
                                  Write(0x1002, 0),       // unaligned
                                  Write(kGpuMmioSize, 0), // out of window
                                  Read(kRegGpuId, 1),     // fine
                              }));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 0));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 1));
  EXPECT_EQ(report.error_count(), 2u);
}

TEST(GrammarPass, NonPositiveDelay) {
  LogEntry d;
  d.op = LogOp::kDelay;
  d.delay = 0;
  GrammarPass pass;
  EXPECT_TRUE(HasErrorAt(RunPass(pass, MakeRecording({d})), "grammar", 0));
}

TEST(GrammarPass, BadIrqLines) {
  LogEntry none;
  none.op = LogOp::kIrqWait;
  none.irq_lines = 0;
  LogEntry unknown;
  unknown.op = LogOp::kIrqWait;
  unknown.irq_lines = 0x18;  // bits 3-4 do not exist
  GrammarPass pass;
  auto report = RunPass(pass, MakeRecording({none, unknown}));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 0));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 1));
}

TEST(GrammarPass, BadMemPages) {
  GrammarPass pass;
  auto report =
      RunPass(pass, MakeRecording({
                        Page(0x80000000, true, Bytes{}),          // empty
                        Page(0x80001000, true, Bytes(100, 1)),    // short
                        Page(0x80002123, false),                  // unaligned
                        Page(0x80003000, false),                  // fine
                    }));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 0));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 1));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 2));
  EXPECT_EQ(report.error_count(), 3u);
}

TEST(GrammarPass, StrayFieldsOnWrongOps) {
  LogEntry w = Write(kRegGpuCommand, 1);
  w.delay = 55;  // delay field on a write
  LogEntry r = Read(kRegGpuId, 1);
  r.pa = 0x80000000;  // page field on a read
  GrammarPass pass;
  auto report = RunPass(pass, MakeRecording({w, r}));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 0));
  EXPECT_TRUE(HasErrorAt(report, "grammar", 1));
}

// -------------------------------------------------------- register-protocol

// Minimal well-ordered bring-up + one job.
std::vector<LogEntry> CleanProtocolLog() {
  return {
      Write(kRegGpuCommand, kGpuCommandSoftReset),
      Write(kRegL2PwrOnLo, 0x1),
      Write(kRegShaderPwrOnLo, 0xFF),
      Write(AsRegister(0, kAsTranstabLo), 0x80000000),
      Write(AsRegister(0, kAsMemattrLo), 0x88888888),
      Write(AsRegister(0, kAsCommand), kAsCommandUpdate),
      Write(JobSlotRegister(0, kJsAffinityNextLo), 0xFF),
      Write(JobSlotRegister(0, kJsConfigNext), 0),
      Write(JobSlotRegister(0, kJsCommandNext), kJsCommandStart),
      Write(kRegJobIrqClear, JobIrqDoneBit(0)),
  };
}

TEST(RegisterProtocolPass, CleanSequencePasses) {
  RegisterProtocolPass pass;
  auto report = RunPass(pass, MakeRecording(CleanProtocolLog()));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RegisterProtocolPass, JobBeforeReset) {
  RegisterProtocolPass pass;
  auto report = RunPass(
      pass, MakeRecording({Write(JobSlotRegister(0, kJsCommandNext),
                                 kJsCommandStart)}));
  EXPECT_TRUE(HasErrorAt(report, "register-protocol", 0));
}

TEST(RegisterProtocolPass, ResubmitOnBusySlot) {
  auto log = CleanProtocolLog();
  // Second START before the first job's IRQ is acknowledged.
  log.insert(log.begin() + 9,
             Write(JobSlotRegister(0, kJsCommandNext), kJsCommandStart));
  RegisterProtocolPass pass;
  auto report = RunPass(pass, MakeRecording(log));
  EXPECT_TRUE(HasErrorAt(report, "register-protocol", 9));
}

TEST(RegisterProtocolPass, AffinityBeforeShaderPower) {
  auto log = CleanProtocolLog();
  log[2] = Write(kRegShaderPwrOnLo, 0x0F);  // powers only half the cores
  RegisterProtocolPass pass;
  auto report = RunPass(pass, MakeRecording(log));
  EXPECT_TRUE(HasErrorAt(report, "register-protocol", 8));
}

TEST(RegisterProtocolPass, AsUpdateWithoutTranstab) {
  RegisterProtocolPass pass;
  auto report = RunPass(
      pass, MakeRecording({
                Write(kRegGpuCommand, kGpuCommandSoftReset),
                Write(AsRegister(0, kAsCommand), kAsCommandUpdate),
            }));
  EXPECT_TRUE(HasErrorAt(report, "register-protocol", 1));
}

TEST(RegisterProtocolPass, JobOnUnconfiguredAddressSpace) {
  auto log = CleanProtocolLog();
  log[7] = Write(JobSlotRegister(0, kJsConfigNext), 3);  // AS3 never configured
  RegisterProtocolPass pass;
  auto report = RunPass(pass, MakeRecording(log));
  EXPECT_TRUE(HasErrorAt(report, "register-protocol", 8));
}

TEST(RegisterProtocolPass, FlushReissuedBeforeCompletion) {
  RegisterProtocolPass pass;
  auto report = RunPass(
      pass,
      MakeRecording({
          Write(kRegGpuCommand, kGpuCommandSoftReset),
          Write(kRegGpuCommand, kGpuCommandCleanInvCaches),
          Write(kRegGpuCommand, kGpuCommandCleanInvCaches),  // no poll between
      }));
  EXPECT_TRUE(HasErrorAt(report, "register-protocol", 2));
}

TEST(RegisterProtocolPass, FlushCompletionPollAllowsReissue) {
  RegisterProtocolPass pass;
  auto report = RunPass(
      pass, MakeRecording({
                Write(kRegGpuCommand, kGpuCommandSoftReset),
                Write(kRegGpuCommand, kGpuCommandCleanInvCaches),
                Poll(kRegGpuIrqRawstat, kGpuIrqCleanCachesCompleted,
                     kGpuIrqCleanCachesCompleted, kGpuIrqCleanCachesCompleted),
                Write(kRegGpuCommand, kGpuCommandCleanInvCaches),
            }));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RegisterProtocolPass, ContinuationSegmentInheritsState) {
  // A lone job start is fine when the log continues from an initialized
  // device (layered recording, segment > 0).
  Recording rec = MakeRecording({
      Write(JobSlotRegister(0, kJsAffinityNextLo), 0xFF),
      Write(JobSlotRegister(0, kJsCommandNext), kJsCommandStart),
  });
  rec.header.segment_index = 1;
  rec.header.segment_count = 2;
  RegisterProtocolPass pass;
  EXPECT_TRUE(RunPass(pass, rec, &Mp8(), /*continuation=*/true).ok());
  EXPECT_FALSE(RunPass(pass, rec, &Mp8(), /*continuation=*/false).ok());
}

// ------------------------------------------------------ speculation-residue

TEST(SpeculationResiduePass, FlagsUnvalidatedReads) {
  SpeculationResiduePass pass;
  auto report = RunPass(pass, MakeRecording({
                                  Read(kRegGpuId, 1, false),
                                  Read(kRegJobIrqRawstat, 1, true),
                              }));
  EXPECT_FALSE(HasErrorAt(report, "speculation-residue", 0));
  EXPECT_TRUE(HasErrorAt(report, "speculation-residue", 1));
  EXPECT_EQ(report.error_count(), 1u);
}

// -------------------------------------------------------- poll-idempotence

TEST(PollIdempotencePass, NonIdempotentTarget) {
  PollIdempotencePass pass;
  auto report = RunPass(
      pass, MakeRecording({Poll(kRegGpuCommand, 1, 1, 1),
                           Poll(JobSlotRegister(0, kJsCommandNext), 1, 1, 1),
                           Poll(AsRegister(0, kAsCommand), 1, 1, 1),
                           Poll(kRegShaderPwrOnLo, 1, 1, 1)}));
  EXPECT_TRUE(HasErrorAt(report, "poll-idempotence", 0));
  EXPECT_TRUE(HasErrorAt(report, "poll-idempotence", 1));
  EXPECT_TRUE(HasErrorAt(report, "poll-idempotence", 2));
  EXPECT_TRUE(HasErrorAt(report, "poll-idempotence", 3));
}

TEST(PollIdempotencePass, UnsatisfiablePredicate) {
  PollIdempotencePass pass;
  // expected has bits outside mask: (value & mask) can never equal it.
  auto report = RunPass(
      pass, MakeRecording({Poll(kRegGpuIrqRawstat, 0x100, 0x300, 0x300)}));
  EXPECT_TRUE(HasErrorAt(report, "poll-idempotence", 0));
}

TEST(PollIdempotencePass, FinalValueMustSatisfyPredicate) {
  PollIdempotencePass pass;
  auto report = RunPass(
      pass, MakeRecording({Poll(kRegGpuIrqRawstat, 0x100, 0x100, 0x000)}));
  EXPECT_TRUE(HasErrorAt(report, "poll-idempotence", 0));
}

TEST(PollIdempotencePass, VacuousMaskWarnsButDoesNotReject) {
  PollIdempotencePass pass;
  auto report =
      RunPass(pass, MakeRecording({Poll(kRegGpuIrqRawstat, 0, 0, 0x123)}));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warning_count(), 1u);
}

TEST(PollIdempotencePass, WellFormedPollsPass) {
  PollIdempotencePass pass;
  auto report = RunPass(
      pass, MakeRecording({
                Poll(kRegGpuIrqRawstat, kGpuIrqResetCompleted,
                     kGpuIrqResetCompleted, kGpuIrqResetCompleted),
                Poll(kRegShaderPwrTransLo, 0xFF, 0, 0),
                Poll(AsRegister(0, kAsStatus), kAsStatusActive, 0, 0),
            }));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ------------------------------------------------------ metastate-coverage

// Builds a 3-level page table mapping `va` -> `cmd_pa` across four pages
// and returns the log prefix that syncs them as metastate.
struct TableFixture {
  uint64_t root = 0x80000000, l1 = 0x80001000, l2 = 0x80002000,
           cmd = 0x80003000;
  uint64_t va = 0x10000;

  static void PutPte(Bytes* page, uint64_t index, uint64_t pte) {
    for (int b = 0; b < 8; ++b) {
      (*page)[index * 8 + static_cast<uint64_t>(b)] =
          static_cast<uint8_t>(pte >> (8 * b));
    }
  }

  std::vector<LogEntry> SyncEntries(bool root_meta = true,
                                    bool cmd_meta = true) const {
    PageTableFormat f = Mp8().pt_format;
    Bytes root_img(kPageSize, 0), l1_img(kPageSize, 0), l2_img(kPageSize, 0);
    PutPte(&root_img, PtIndex(va, 0), EncodeTablePte(f, l1));
    PutPte(&l1_img, PtIndex(va, 1), EncodeTablePte(f, l2));
    PteFlags rx;
    rx.read = true;
    rx.execute = true;
    PutPte(&l2_img, PtIndex(va, 2), EncodePte(f, cmd, rx));
    return {
        Page(root, root_meta, root_img),
        Page(l1, true, l1_img),
        Page(l2, true, l2_img),
        Page(cmd, cmd_meta),
    };
  }

  std::vector<LogEntry> JobEntries() const {
    return {
        Write(AsRegister(0, kAsTranstabLo), static_cast<uint32_t>(root)),
        Write(AsRegister(0, kAsTranstabHi), static_cast<uint32_t>(root >> 32)),
        Write(JobSlotRegister(0, kJsHeadNextLo), static_cast<uint32_t>(va)),
        Write(JobSlotRegister(0, kJsHeadNextHi),
              static_cast<uint32_t>(va >> 32)),
        Write(JobSlotRegister(0, kJsConfigNext), 0),
        Write(JobSlotRegister(0, kJsCommandNext), kJsCommandStart),
    };
  }
};

TEST(MetastateCoveragePass, JobWithoutAnyMetastate) {
  TableFixture fx;
  MetastateCoveragePass pass;
  auto report = RunPass(pass, MakeRecording(fx.JobEntries()));
  EXPECT_TRUE(HasErrorAt(report, "metastate-coverage", 5));
}

TEST(MetastateCoveragePass, FullyCoveredJobPasses) {
  TableFixture fx;
  auto log = fx.SyncEntries();
  auto job = fx.JobEntries();
  log.insert(log.end(), job.begin(), job.end());
  MetastateCoveragePass pass;
  auto report = RunPass(pass, MakeRecording(log));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(MetastateCoveragePass, UncoveredPageTableRoot) {
  TableFixture fx;
  auto log = fx.SyncEntries(/*root_meta=*/false);
  auto job = fx.JobEntries();
  log.insert(log.end(), job.begin(), job.end());
  MetastateCoveragePass pass;
  auto report = RunPass(pass, MakeRecording(log));
  EXPECT_TRUE(HasErrorAt(report, "metastate-coverage", 9));
}

TEST(MetastateCoveragePass, UncoveredCommandBufferPage) {
  TableFixture fx;
  auto log = fx.SyncEntries(/*root_meta=*/true, /*cmd_meta=*/false);
  auto job = fx.JobEntries();
  log.insert(log.end(), job.begin(), job.end());
  MetastateCoveragePass pass;
  auto report = RunPass(pass, MakeRecording(log));
  EXPECT_TRUE(HasErrorAt(report, "metastate-coverage", 9));
}

TEST(MetastateCoveragePass, UnmappedChainHead) {
  TableFixture fx;
  auto log = fx.SyncEntries();
  auto job = fx.JobEntries();
  job[2] = Write(JobSlotRegister(0, kJsHeadNextLo), 0x900000);  // unmapped va
  log.insert(log.end(), job.begin(), job.end());
  MetastateCoveragePass pass;
  auto report = RunPass(pass, MakeRecording(log));
  EXPECT_TRUE(HasErrorAt(report, "metastate-coverage", 9));
}

// -------------------------------------------------------------- sku-compat

TEST(SkuCompatPass, UnknownSkuRejectedAtRecordingLevel) {
  Recording rec = MakeRecording({}, static_cast<SkuId>(0x9999));
  SkuCompatPass pass;
  auto report = RunPass(pass, rec, /*sku=*/nullptr);
  EXPECT_TRUE(HasErrorAt(report, "sku-compat", kWholeRecording));
}

TEST(SkuCompatPass, DiscoveryReadMismatch) {
  SkuCompatPass pass;
  auto report = RunPass(pass, MakeRecording({
                                  Read(kRegGpuId, Mp8().gpu_id_reg),  // fine
                                  Read(kRegGpuId, 0xDEAD0010),
                                  Read(kRegShaderPresentLo, 0x3),  // MP2 tiling
                              }));
  EXPECT_FALSE(HasErrorAt(report, "sku-compat", 0));
  EXPECT_TRUE(HasErrorAt(report, "sku-compat", 1));
  EXPECT_TRUE(HasErrorAt(report, "sku-compat", 2));
}

TEST(SkuCompatPass, AffinityBeyondPresentCores) {
  SkuCompatPass pass;
  auto report = RunPass(
      pass, MakeRecording({
                // MP8 = 0xFF
                Write(JobSlotRegister(0, kJsAffinityNextLo), 0xFFFF),
                Write(kRegShaderPwrOnLo, 0x100),
            }));
  EXPECT_TRUE(HasErrorAt(report, "sku-compat", 0));
  EXPECT_TRUE(HasErrorAt(report, "sku-compat", 1));
}

TEST(SkuCompatPass, JobConfigBeyondAddressSpaces) {
  SkuCompatPass pass;
  auto report = RunPass(
      pass, MakeRecording({Write(JobSlotRegister(0, kJsConfigNext), 9)}));
  EXPECT_TRUE(HasErrorAt(report, "sku-compat", 0));
}

// ---------------------------------------------------------------- verifier

TEST(Verifier, VerdictNamesPassAndEntry) {
  Recording rec = MakeRecording({Read(kRegGpuId, Mp8().gpu_id_reg, true)});
  RecordingVerifier verifier;
  Status s = verifier.Verify(rec);
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
  EXPECT_NE(s.message().find("speculation-residue"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("entry 0"), std::string::npos) << s.message();
}

TEST(Verifier, ReportBookkeeping) {
  Recording rec = MakeRecording({Read(kRegGpuId, Mp8().gpu_id_reg)});
  RecordingVerifier verifier;
  auto report = verifier.Analyze(rec);
  EXPECT_EQ(report.entries_analyzed, 1u);
  EXPECT_EQ(report.passes_run, 8u);  // 7 standard + planopt-soundness
  EXPECT_TRUE(report.ok()) << report.ToString();
}

class RejectEverythingPass : public AnalysisPass {
 public:
  const char* name() const override { return "reject-everything"; }
  void Run(const AnalysisInput&, AnalysisReport* report) const override {
    Error(report, kWholeRecording, "no recording shall pass");
  }
};

TEST(Verifier, CustomPassesCompose) {
  RecordingVerifier verifier;
  verifier.AddPass(std::make_unique<RejectEverythingPass>());
  Status s = verifier.Verify(MakeRecording({}));
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
  EXPECT_NE(s.message().find("reject-everything"), std::string::npos);
}

// ------------------------------------------------- corrupted-recording corpus

// Real recordings produced by the seed recorder, corrupted one aspect at a
// time; each corruption must be caught by exactly the intended pass.

Recording RecordMnist() {
  ClientDevice device(SkuId::kMaliG71Mp8, 61);
  SpeculationHistory history;
  NetworkDef net = BuildMnist();
  auto m = RunRecordVariant(&device, net, "OursMDS", WifiConditions(),
                            &history, 1);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  auto rec = Recording::ParseSigned(m->signed_recording, m->session_key);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  return *rec;
}

InteractionLog RebuildLog(const InteractionLog& log,
                          const std::function<void(size_t, LogEntry*)>& edit,
                          ptrdiff_t insert_dup_at = -1) {
  InteractionLog out;
  const auto& entries = log.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    LogEntry e = entries[i];
    edit(i, &e);
    out.Add(e);
    if (static_cast<ptrdiff_t>(i) == insert_dup_at) {
      out.Add(entries[i]);
    }
  }
  return out;
}

size_t FirstIndexOf(const InteractionLog& log,
                    const std::function<bool(const LogEntry&)>& want) {
  const auto& entries = log.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    if (want(entries[i])) {
      return i;
    }
  }
  ADD_FAILURE() << "no matching log entry";
  return 0;
}

bool IsJobStart(const LogEntry& e) {
  return e.op == LogOp::kRegWrite && IsJobStartWrite(e.reg, e.value);
}

class CorpusTest : public ::testing::Test {
 protected:
  static const Recording& Clean() {
    static const Recording rec = RecordMnist();
    return rec;
  }
  RecordingVerifier verifier_;
};

TEST_F(CorpusTest, CleanRecordingPassesAllGates) {
  auto report = verifier_.Analyze(Clean());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CorpusTest, TruncatedBodyRejectedAtParse) {
  Bytes body = Clean().SerializeBody();
  body.resize(body.size() / 2);  // cut mid-log
  EXPECT_FALSE(Recording::ParseUnsigned(body).ok());
}

TEST_F(CorpusTest, DuplicatedJobStartCaughtByRegisterProtocol) {
  Recording bad = Clean();
  size_t start = FirstIndexOf(bad.log, IsJobStart);
  bad.log = RebuildLog(
      bad.log, [](size_t, LogEntry*) {}, static_cast<ptrdiff_t>(start));
  auto report = verifier_.Analyze(bad);
  EXPECT_TRUE(ErrorsOnlyFrom(report, "register-protocol"))
      << report.ToString();
  EXPECT_TRUE(HasErrorAt(report, "register-protocol",
                         static_cast<ptrdiff_t>(start) + 1));
}

TEST_F(CorpusTest, TaintedReadValueCaughtBySpeculationResidue) {
  Recording bad = Clean();
  size_t read = FirstIndexOf(
      bad.log, [](const LogEntry& e) { return e.op == LogOp::kRegRead; });
  bad.log = RebuildLog(bad.log, [read](size_t i, LogEntry* e) {
    if (i == read) {
      e->speculative = true;
    }
  });
  auto report = verifier_.Analyze(bad);
  EXPECT_TRUE(ErrorsOnlyFrom(report, "speculation-residue"))
      << report.ToString();
  EXPECT_TRUE(HasErrorAt(report, "speculation-residue",
                         static_cast<ptrdiff_t>(read)));
}

TEST_F(CorpusTest, NonIdempotentPollTargetCaughtByPollPass) {
  Recording bad = Clean();
  // Retarget a power-transition poll (expected == 0) at a write-sensitive
  // register; flush-completion polls are left alone so no other state
  // machine is disturbed.
  size_t poll = FirstIndexOf(bad.log, [](const LogEntry& e) {
    return e.op == LogOp::kPollWait && e.expected == 0;
  });
  bad.log = RebuildLog(bad.log, [poll](size_t i, LogEntry* e) {
    if (i == poll) {
      e->reg = kRegShaderPwrOnLo;
    }
  });
  // Re-stamp the footprint over the mutated log: this test isolates the
  // poll pass, and a stale footprint would (correctly) also trip
  // footprint-soundness.
  StampFootprint(&bad);
  auto report = verifier_.Analyze(bad);
  EXPECT_TRUE(ErrorsOnlyFrom(report, "poll-idempotence")) << report.ToString();
  EXPECT_TRUE(
      HasErrorAt(report, "poll-idempotence", static_cast<ptrdiff_t>(poll)));
}

TEST_F(CorpusTest, StrippedMetastateCaughtByCoveragePass) {
  Recording bad = Clean();
  size_t first_start = FirstIndexOf(bad.log, IsJobStart);
  bad.log = RebuildLog(bad.log, [](size_t, LogEntry* e) {
    if (e->op == LogOp::kMemPage) {
      e->metastate = false;
    }
  });
  auto report = verifier_.Analyze(bad);
  EXPECT_TRUE(ErrorsOnlyFrom(report, "metastate-coverage"))
      << report.ToString();
  EXPECT_TRUE(HasErrorAt(report, "metastate-coverage",
                         static_cast<ptrdiff_t>(first_start)));
}

TEST_F(CorpusTest, RelabeledSkuCaughtByCompatPass) {
  Recording bad = Clean();
  // Claim the MP8 recording came from an MP2: same page-table format, but
  // the discovery image and core tiling give it away (§2.4).
  bad.header.sku = SkuId::kMaliG71Mp2;
  auto report = verifier_.Analyze(bad);
  EXPECT_TRUE(ErrorsOnlyFrom(report, "sku-compat")) << report.ToString();
}

TEST_F(CorpusTest, UnregisteredSkuCaughtByCompatPass) {
  Recording bad = Clean();
  bad.header.sku = static_cast<SkuId>(0x9999);
  auto report = verifier_.Analyze(bad);
  EXPECT_TRUE(HasErrorAt(report, "sku-compat", kWholeRecording))
      << report.ToString();
}

// --------------------------------------------------------------- clean sweep

// Every recorder variant and every workload the seed ships must produce
// recordings the verifier admits without findings.

TEST(CleanSweep, AllVariantsProduceVerifiableRecordings) {
  NetworkDef net = BuildMnist();
  RecordingVerifier verifier;
  for (const std::string& variant : AllVariantNames()) {
    ClientDevice device(SkuId::kMaliG71Mp8, 67);
    SpeculationHistory history;
    auto m = RunRecordVariant(&device, net, variant, WifiConditions(),
                              &history, variant == "OursMDS" ? 1 : 0);
    ASSERT_TRUE(m.ok()) << variant << ": " << m.status().ToString();
    auto rec = Recording::ParseSigned(m->signed_recording, m->session_key);
    ASSERT_TRUE(rec.ok()) << variant;
    auto report = verifier.Analyze(*rec);
    EXPECT_TRUE(report.ok()) << variant << ":\n" << report.ToString();
  }
}

TEST(CleanSweep, AllNetworksProduceVerifiableRecordings) {
  RecordingVerifier verifier;
  for (const NetworkDef& net : BuildAllNetworks()) {
    ClientDevice device(SkuId::kMaliG71Mp8, 61);
    SpeculationHistory history;
    auto m = RunRecordVariant(&device, net, "OursMDS", WifiConditions(),
                              &history, 1);
    ASSERT_TRUE(m.ok()) << net.name << ": " << m.status().ToString();
    auto rec = Recording::ParseSigned(m->signed_recording, m->session_key);
    ASSERT_TRUE(rec.ok()) << net.name;
    auto report = verifier.Analyze(*rec);
    EXPECT_TRUE(report.ok()) << net.name << ":\n" << report.ToString();
  }
}

}  // namespace
}  // namespace grt
