// Planopt soundness-checker negatives: a warm program whose provenance
// has been tampered with — reordered span members, a widened fusion
// window, flipped rewrite kinds, dropped records, a widened weaken
// mask, forged owned-interrupt bits, cooked stats — must be rejected by
// CheckWarmProgram no matter how plausible the mutated program looks.
// The checker re-derives every justification from the source plan; none
// of these mutations can survive re-derivation. Positive control: the
// builder's own untampered output passes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "src/analysis/planopt/planopt.h"
#include "src/analysis/planopt/planopt_internal.h"
#include "src/harness/experiment.h"
#include "src/record/plan.h"
#include "src/record/replayer.h"
#include "src/sku/sku.h"

namespace grt {
namespace {

constexpr SkuId kSkuId = SkuId::kMaliG71Mp8;
constexpr uint64_t kNondetSeed = 11;

struct Fixture {
  ReplayPlan plan;
  WarmProgram warm;  // mutable copy of the attached program
  GpuSku sku;
};

// Records mnist once per test binary and compiles + superoptimizes the
// plan; each test mutates a fresh copy of the warm program.
const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    ClientDevice device(kSkuId, kNondetSeed);
    SpeculationHistory history;
    auto m = RunRecordVariant(&device, BuildMnist(), "OursMDS",
                              WifiConditions(), &history, 0);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    auto rec = Recording::ParseSigned(m->signed_recording, m->session_key);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    f->plan = CompileReplayPlan(*rec);
    auto sku = FindSku(kSkuId);
    EXPECT_TRUE(sku.ok());
    f->sku = *sku;
    std::string decline;
    Status attach = AttachWarmProgram(&f->plan, f->sku, &decline);
    EXPECT_TRUE(attach.ok()) << attach.ToString();
    EXPECT_NE(f->plan.warm, nullptr) << "declined: " << decline;
    f->warm = *f->plan.warm;
    return f;
  }();
  return *fixture;
}

// Applies `tamper` to a fresh copy of the builder's warm program and
// expects CheckWarmProgram to reject it with `want` in the message.
void ExpectRejected(const std::function<void(WarmProgram*)>& tamper,
                    const std::string& want) {
  const Fixture& f = SharedFixture();
  WarmProgram tampered = f.warm;
  tamper(&tampered);
  Status s = CheckWarmProgram(f.plan, tampered, f.sku);
  EXPECT_FALSE(s.ok()) << "tampered program accepted";
  if (!s.ok() && !want.empty()) {
    EXPECT_NE(s.ToString().find(want), std::string::npos) << s.ToString();
  }
}

size_t FirstSpanOp(const WarmProgram& warm) {
  for (size_t w = 0; w < warm.ops.size(); ++w) {
    if (warm.ops[w].kind == PlanOpKind::kRegSpan) {
      return w;
    }
  }
  ADD_FAILURE() << "no fused span in the mnist warm program";
  return 0;
}

TEST(PlanoptSoundness, UntamperedProgramPasses) {
  const Fixture& f = SharedFixture();
  ASSERT_GE(f.plan.version, 2u);
  Status s = CheckWarmProgram(f.plan, f.warm, f.sku);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(f.warm.stats.fused_spans, 0u);
  EXPECT_GT(f.warm.stats.elided_ops, 0u);
}

TEST(PlanoptSoundness, RejectsReorderedSpanMembers) {
  ExpectRejected(
      [](WarmProgram* w) {
        const PlanOp& span = w->ops[FirstSpanOp(*w)];
        ASSERT_GE(span.span_len, 2u);
        std::swap(w->span_writes[span.span_begin],
                  w->span_writes[span.span_begin + 1]);
      },
      "");
}

TEST(PlanoptSoundness, RejectsWidenedFusionWindow) {
  // Stretch the first span by one member, absorbing whatever op follows
  // it — a fusion the builder never proved legal.
  ExpectRejected(
      [](WarmProgram* w) {
        size_t s = FirstSpanOp(*w);
        const PlanOp& span = w->ops[s];
        const RegSpanWrite& last =
            w->span_writes[span.span_begin + span.span_len - 1];
        RegSpanWrite extra = last;
        extra.src_index += 1;
        w->span_writes.insert(
            w->span_writes.begin() + span.span_begin + span.span_len, extra);
        w->ops[s].span_len += 1;
        for (size_t j = s + 1; j < w->ops.size(); ++j) {
          if (w->ops[j].kind == PlanOpKind::kRegSpan) {
            w->ops[j].span_begin += 1;
          }
        }
      },
      "");
}

TEST(PlanoptSoundness, RejectsTamperedSpanWriteValue) {
  ExpectRejected(
      [](WarmProgram* w) {
        const PlanOp& span = w->ops[FirstSpanOp(*w)];
        w->span_writes[span.span_begin].value ^= 0x1;
      },
      "");
}

TEST(PlanoptSoundness, RejectsFlippedRewriteKind) {
  // Claim a retained op was elided as a constant read: the warm op it
  // used to justify becomes unaccounted for and the elision is illegal.
  ExpectRejected(
      [](WarmProgram* w) {
        for (PlanRewrite& r : w->provenance.rewrites) {
          if (r.kind == PlanRewriteKind::kKeep) {
            r.kind = PlanRewriteKind::kElideConstRead;
            return;
          }
        }
        FAIL() << "no kKeep rewrite";
      },
      "");
}

TEST(PlanoptSoundness, RejectsDroppedProvenanceRecord) {
  ExpectRejected(
      [](WarmProgram* w) {
        ASSERT_FALSE(w->provenance.rewrites.empty());
        w->provenance.rewrites.pop_back();
      },
      "");
}

TEST(PlanoptSoundness, RejectsWidenedWeakenMask) {
  // Weakening a verified read beyond the owned interrupt bits would let
  // real faults slip past verification.
  ExpectRejected(
      [](WarmProgram* w) {
        for (PlanRewrite& r : w->provenance.rewrites) {
          if (r.kind != PlanRewriteKind::kMaskWeaken) {
            continue;
          }
          r.aux |= 0x80000000u;
          w->ops[r.warm_index].verify_mask = ~r.aux;
          return;
        }
        FAIL() << "no kMaskWeaken rewrite";
      },
      "");
}

TEST(PlanoptSoundness, RejectsForgedOwnedIrqBits) {
  ExpectRejected(
      [](WarmProgram* w) { w->owned_gpu_irq_bits ^= 0x80000000u; },
      "owned");
}

TEST(PlanoptSoundness, RejectsCookedStats) {
  ExpectRejected(
      [](WarmProgram* w) { w->stats.fused_spans += 1; },
      "stats");
}

TEST(PlanoptSoundness, RejectsDowngradedPlanFormat) {
  ExpectRejected(
      [](WarmProgram* w) { w->provenance.plan_format = 1; },
      "format");
}

TEST(PlanoptSoundness, RejectsHiddenJobSlotWrite) {
  // Claim a job-slot write is a no-op latch elision. Even when the
  // latched value happens to match, hiding the write would blind the
  // power walk's per-slot affinity derivation.
  ExpectRejected(
      [](WarmProgram* w) {
        const Fixture& f = SharedFixture();
        for (PlanRewrite& r : w->provenance.rewrites) {
          if (r.kind != PlanRewriteKind::kKeep &&
              r.kind != PlanRewriteKind::kFuseSpan) {
            continue;
          }
          const PlanOp& op = f.plan.ops[r.src_index];
          if (op.kind != PlanOpKind::kRegWrite || !IsJobSlotRegister(op.reg)) {
            continue;
          }
          r.kind = PlanRewriteKind::kElideNoopLatch;
          return;
        }
        FAIL() << "no job-slot write rewrite";
      },
      "");
}

// The ninth verifier pass runs builder + checker on admission; a
// recording whose plan superoptimizes cleanly must still verify.
TEST(PlanoptSoundness, VerifierPassAcceptsCleanRecording) {
  const Fixture& f = SharedFixture();
  // Recompile from scratch through the public surface: attach must
  // agree with the already-checked fixture.
  ReplayPlan fresh = f.plan;
  fresh.version = 1;
  fresh.warm = nullptr;
  std::string decline;
  Status s = AttachWarmProgram(&fresh, f.sku, &decline);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_NE(fresh.warm, nullptr) << decline;
  EXPECT_EQ(fresh.warm->ops.size(), f.warm.ops.size());
}

}  // namespace
}  // namespace grt
