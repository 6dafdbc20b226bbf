#include "src/record/plan.h"

#include <cstring>
#include <utility>

#include "src/hw/regs.h"
#include "src/mem/phys_mem.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace grt {

bool IsReplayJobStart(const LogEntry& e) {
  return e.op == LogOp::kRegWrite && IsJobStartWrite(e.reg, e.value);
}

size_t ReplayPlan::CountOps(LogOp kind) const {
  size_t n = 0;
  for (const PlanOp& op : ops) {
    n += op.kind == static_cast<PlanOpKind>(kind) ? 1 : 0;
  }
  return n;
}

ReplayPlan LowerRecording(const Recording& recording) {
  ReplayPlan plan;
  const auto& entries = recording.log.entries();
  plan.source_entries = entries.size();

  // Every entry becomes an op in source order, except the non-metastate
  // page snapshots after the first job start: those hold the dry run's
  // (zero-input) compute and must never overwrite real results.
  bool job_started = false;
  for (size_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    if (e.op == LogOp::kMemPage && job_started && !e.metastate) {
      ++plan.dropped_pages;
      continue;
    }
    PlanOp op;
    op.kind = static_cast<PlanOpKind>(e.op);
    op.reg = e.reg;
    op.value = e.value;
    op.mask = e.mask;
    op.expected = e.expected;
    op.irq_lines = e.irq_lines;
    op.delay = e.delay;
    op.log_index = static_cast<uint32_t>(i);
    if (e.op == LogOp::kMemPage) {
      op.image = static_cast<uint32_t>(plan.mid_images.size());
      plan.mid_images.push_back(PlanImage{e.pa, e.data});
    } else if (e.op == LogOp::kRegRead) {
      op.verify = !IsNondeterministicRegister(e.reg);
    }
    job_started = job_started || IsReplayJobStart(e);
    plan.ops.push_back(op);
  }

  // Patch table: tensor bytes map onto the binding's page list in order,
  // one chunk per page.
  for (const auto& [name, binding] : recording.bindings) {
    TensorPatch patch;
    patch.n_floats = binding.n_floats;
    patch.writable = binding.writable_at_replay;
    uint64_t bytes = binding.n_floats * sizeof(float);
    uint64_t done = 0;
    size_t page_idx = 0;
    while (done < bytes && page_idx < binding.pages.size()) {
      uint32_t chunk = static_cast<uint32_t>(
          std::min<uint64_t>(bytes - done, kPageSize));
      patch.chunks.push_back(PatchChunk{binding.pages[page_idx], done, chunk});
      done += chunk;
      ++page_idx;
    }
    patch.complete = done == bytes;
    plan.patches.emplace(name, std::move(patch));
  }
  return plan;
}

namespace {

// Folds the lowering's pre-job-start full-page snapshots into the initial
// image, last write wins (they apply in log order, so only the final
// content of each page matters), laid out as contiguous page runs.
// Odd-shaped snapshots stay ops.
void CoalesceInitialImage(const Recording& recording,
                          const PlanCompileOptions& options,
                          ReplayPlan* plan) {
  const auto& entries = recording.log.entries();
  std::map<uint64_t, uint32_t> image;  // pa -> log index of last snapshot
  std::vector<PlanOp> ops;
  std::vector<PlanImage> mid_images;
  bool job_started = false;
  for (PlanOp op : plan->ops) {
    const LogEntry& e = entries[op.log_index];
    if (op.kind == PlanOpKind::kMemPage) {
      if (!job_started && e.data.size() == kPageSize &&
          (e.pa & kPageMask) == 0) {
        bool inserted = image.insert_or_assign(e.pa, op.log_index).second;
        plan->duplicate_pages += inserted ? 0 : 1;
        continue;
      }
      mid_images.push_back(std::move(plan->mid_images[op.image]));
      op.image = static_cast<uint32_t>(mid_images.size() - 1);
    }
    job_started = job_started || IsReplayJobStart(e);
    ops.push_back(op);
  }
  plan->ops = std::move(ops);
  plan->mid_images = std::move(mid_images);

  // The map iterates in ascending pa, so a run breaks exactly where a page
  // gap opens.
  for (const auto& [pa, index] : image) {
    const LogEntry& e = entries[index];
    if (plan->regions.empty() ||
        plan->regions.back().page_pa(plan->regions.back().n_pages) != pa) {
      plan->regions.push_back(PlanRegion{pa, 0, Bytes(), {}});
    }
    PlanRegion& region = plan->regions.back();
    if (options.include_images) {
      region.image.insert(region.image.end(), e.data.begin(), e.data.end());
    }
    region.metastate.push_back(e.metastate);
    ++region.n_pages;
    ++plan->image_pages;
    plan->image_bytes += kPageSize;
  }
}

}  // namespace

ReplayPlan CompileReplayPlan(const Recording& recording) {
  return CompileReplayPlan(recording, PlanCompileOptions{});
}

ReplayPlan CompileReplayPlan(const Recording& recording,
                             const PlanCompileOptions& options) {
  GRT_OBS_COUNT("plan.compiles", 1);
  GRT_TRACE_SPAN("plan.compile", "plan");
  ReplayPlan plan = LowerRecording(recording);
  CoalesceInitialImage(recording, options, &plan);
  return plan;
}

}  // namespace grt
