// Replay plans: the one op vocabulary the replayer executes.
//
// Every replay runs a plan. A plan lowers a loaded (signature- and
// verifier-checked) recording once into a flat, cache-friendly form:
//
//   * a dense op array with register ops pre-decoded (the per-read
//     verify decision — deterministic register under verify_reads — is
//     resolved at compile time, not per replay), each op naming the log
//     entry it was lowered from;
//   * mid-replay metastate reapplications kept as ops (they are
//     semantically ordered against the register stimuli); non-metastate
//     pages after the first job start reflect the dry run's compute and
//     are dropped at compile time;
//   * a patch table of pre-resolved (physical address, tensor offset)
//     chunks for every tensor binding, so injection and readout are
//     straight copy loops with no page arithmetic.
//
// The compiler has two steps. LowerRecording keeps every pre-job-start
// page snapshot as its own op, in log order: the uncoalesced lowering,
// which the replayer's interpreter engine runs (and the only one that can
// produce a faithful observed log for §3.4 diffing). CompileReplayPlan
// then coalesces those snapshots into per-region contiguous page runs,
// deduplicated last-write-wins (one memcpy per run instead of one write
// per log entry). The equivalence suite
// (tests/integration/plan_equivalence_test.cc) holds the two lowerings
// and the fused warm program to bitwise-identical outputs on every
// example network and the chaos corpus.
#ifndef GRT_SRC_RECORD_PLAN_H_
#define GRT_SRC_RECORD_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/mem/phys_mem.h"
#include "src/record/recording.h"

namespace grt {

// IsJobStartWrite (src/hw/regs.h) over a log entry: the replayer's
// job-start boundary, after which non-metastate page snapshots reflect
// dry-run compute and are never applied, and before which page snapshots
// form the initial image.
bool IsReplayJobStart(const LogEntry& e);

// The six log kinds (same values as LogOp) plus the fused register span
// that only a warm program carries.
enum class PlanOpKind : uint8_t {
  kRegWrite = 1,
  kRegRead = 2,
  kPollWait = 3,
  kDelay = 4,
  kIrqWait = 5,
  kMemPage = 6,
  kRegSpan = 7,  // fused run of adjacent writes (WarmProgram::span_writes)
};

// One pre-decoded replay step.
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kRegWrite;
  // kRegRead: compile-time resolution of "is this read verified"
  // (deterministic register; nondet registers are never checked). The
  // replayer additionally honours ReplayConfig::verify_reads.
  bool verify = false;
  uint8_t irq_lines = 0;   // kIrqWait
  uint32_t reg = 0;
  uint32_t value = 0;
  uint32_t mask = 0;       // kPollWait
  uint32_t expected = 0;   // kPollWait
  // kRegRead: bits compared when verifying. All ones, except on warm
  // GPU_IRQ_RAWSTAT reads planopt weakened to exclude bits owned by
  // elided device-op closures (flush/power/reset completion bits that no
  // longer get raised).
  uint32_t verify_mask = 0xFFFFFFFFu;
  Duration delay = 0;      // kDelay
  uint32_t image = 0;      // kMemPage: index into ReplayPlan::mid_images
  uint32_t span_begin = 0;  // kRegSpan: first index into span_writes
  uint32_t span_len = 0;    // kRegSpan: member count (>= 2)
  // The 0-based log entry this op was lowered from (a span: its first
  // member's). Replay errors name it.
  uint32_t log_index = 0;
};

// A run of physically-contiguous initial-image pages, coalesced from the
// recording's pre-job-start kMemPage entries (last write wins per page).
struct PlanRegion {
  uint64_t base_pa = 0;
  uint32_t n_pages = 0;
  Bytes image;  // n_pages * kPageSize bytes
  std::vector<bool> metastate;  // per page

  uint64_t page_pa(uint32_t i) const { return base_pa + i * kPageSize; }
};

// A page snapshot applied as an op, ordered against the register stimuli:
// a metastate page the recording reapplies after the first job start
// (or, in the uncoalesced lowering, any initial-image snapshot).
struct PlanImage {
  uint64_t pa = 0;
  Bytes data;
};

// Pre-resolved copy chunk: staged-tensor bytes [src_offset, src_offset+len)
// land at physical address pa. Chunks never straddle a page boundary.
struct PatchChunk {
  uint64_t pa = 0;
  uint64_t src_offset = 0;
  uint32_t len = 0;
};

// Per-tensor injection/readout patch table entry.
struct TensorPatch {
  uint64_t n_floats = 0;
  bool writable = false;  // injectable at replay
  // False when the binding's page list is too short to back all n_floats;
  // injection and readback then fail with Internal.
  bool complete = true;
  std::vector<PatchChunk> chunks;
};

// ------------------------------------------------------- plan format v2
// A "warm program": the fused schedule a warm replay executes instead of
// the full op array, produced and proven by src/analysis/planopt. Every
// source plan op is accounted for exactly once in PlanProvenance; the
// soundness checker (and verifier pass) re-derives each record's
// justification from the plan + register semantics, so a tampered or
// stale program is rejected before it can touch the device.

// One member write of a fused kRegSpan, in execution order.
struct RegSpanWrite {
  uint32_t reg = 0;
  uint32_t value = 0;
  uint32_t src_index = 0;  // plan op this write was fused from
};

// Why a source plan op is absent from / present in the warm schedule.
enum class PlanRewriteKind : uint8_t {
  kKeep,       // retained verbatim as warm op `warm_index`
  kFuseSpan,   // fused into kRegSpan warm op `warm_index`, member `aux`
  kMaskWeaken,  // retained read with verify_mask weakened to ~aux
  // Elisions (machine-checked justifications; DESIGN.md §6h):
  kElideConstRead,     // R3: verified read of a constant-class register
  kElideNondetRead,    // R2: unverified read of a read-idempotent register
  kElideNoopLatch,     // R1: latch write of the value already latched
  kElideFlushClosure,  // R4: cache-flush command/poll/ack closure, id aux
  kElideResetClosure,  // R5: reset command closure, id aux
  kElidePowerClosure,  // R6: power off/on/ready closure, id aux
  kElideAsClosure,     // R7: AS latch+UPDATE+status closure, id aux
};

struct PlanRewrite {
  PlanRewriteKind kind = PlanRewriteKind::kKeep;
  uint32_t src_index = 0;   // the source plan op this record justifies
  uint32_t warm_index = 0;  // kKeep/kFuseSpan/kMaskWeaken: the warm op
  // kFuseSpan: member ordinal within the span. kMaskWeaken: the weakened
  // bit set (verify_mask == ~aux). kElide*Closure: closure id grouping
  // the members of one closure instance.
  uint32_t aux = 0;
};

struct PlanProvenance {
  uint32_t plan_format = 2;
  // Exactly one record per source plan op, ascending src_index.
  std::vector<PlanRewrite> rewrites;
};

struct WarmStats {
  uint32_t fused_spans = 0;
  uint32_t fused_writes = 0;  // writes living inside spans
  uint32_t elided_flush_closures = 0;
  uint32_t elided_power_closures = 0;
  uint32_t elided_reset_closures = 0;
  uint32_t elided_as_closures = 0;
  uint32_t elided_const_reads = 0;
  uint32_t elided_nondet_reads = 0;
  uint32_t elided_noop_latches = 0;
  uint32_t weakened_reads = 0;
  uint32_t retained_ops = 0;     // warm ops (spans count once)
  uint32_t elided_ops = 0;       // source ops with no warm counterpart
  uint32_t invariant_ops = 0;    // partition: warm-invariant source ops
  uint32_t input_dep_ops = 0;    // partition: input-dependent source ops
};

struct WarmProgram {
  std::vector<PlanOp> ops;
  std::vector<RegSpanWrite> span_writes;
  PlanProvenance provenance;
  WarmStats stats;
  // GPU_IRQ_RAWSTAT bits the warm program owns: every bit an elided op
  // could have raised (flush-done, reset-done, power-changed). These stay
  // latched across warm replays — retained reads of the rawstat are
  // verified under ~owned, retained polls/waits must not depend on them,
  // and the executor tolerates a GPU irq line asserted only by owned
  // bits. Re-derived from provenance by CheckWarmProgram.
  uint32_t owned_gpu_irq_bits = 0;
};

struct ReplayPlan {
  // 1 = flat op array only; 2 = a checked warm program is attached.
  uint32_t version = 1;
  std::vector<PlanOp> ops;
  std::vector<PlanRegion> regions;
  std::vector<PlanImage> mid_images;
  std::map<std::string, TensorPatch> patches;
  // Plan format v2 (null on v1 plans): the fused warm schedule plus its
  // provenance. Built and self-checked by AttachWarmProgram.
  std::shared_ptr<const WarmProgram> warm;

  // Compile-time accounting (inspector / perf gates).
  uint64_t image_bytes = 0;      // total initial-image bytes
  uint32_t image_pages = 0;      // total initial-image pages
  uint32_t duplicate_pages = 0;  // pre-job-start re-snapshots folded away
  uint32_t dropped_pages = 0;    // post-job-start non-metastate entries
  size_t source_entries = 0;     // log length the plan was compiled from

  size_t CountOps(LogOp kind) const;
};

struct PlanCompileOptions {
  // False: skip copying page images into regions (region layout and
  // accounting still computed). The planopt soundness pass analyzes only
  // the op schedule; a skeleton plan avoids re-copying the multi-MB image
  // on every verification.
  bool include_images = true;
};

// Lowers a recording into a plan, one op per log entry the replay
// applies: the uncoalesced lowering (no regions). Purely mechanical (no
// verification — run the static verifier before trusting the recording;
// Replayer::Load does). Never fails: any well-formed log lowers.
ReplayPlan LowerRecording(const Recording& recording);

// LowerRecording, then the pre-job-start full-page snapshots folded into
// per-region page runs (the serving fast path).
ReplayPlan CompileReplayPlan(const Recording& recording);
ReplayPlan CompileReplayPlan(const Recording& recording,
                             const PlanCompileOptions& options);

}  // namespace grt

#endif  // GRT_SRC_RECORD_PLAN_H_
