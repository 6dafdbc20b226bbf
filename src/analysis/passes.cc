#include "src/analysis/passes.h"

#include <array>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/footprint/footprint.h"
#include "src/hw/mmu.h"
#include "src/hw/regs.h"
#include "src/mem/phys_mem.h"

namespace grt {
namespace {

std::string Fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

// --------------------------------------------------------------- grammar

void GrammarPass::Run(const AnalysisInput& in, AnalysisReport* report) const {
  const auto& entries = in.recording->log.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    ptrdiff_t at = static_cast<ptrdiff_t>(i);
    bool is_reg_op = e.op == LogOp::kRegWrite || e.op == LogOp::kRegRead ||
                     e.op == LogOp::kPollWait;
    if (is_reg_op) {
      if (e.reg % 4 != 0) {
        Error(report, at,
              Fmt("unaligned register offset 0x%X", e.reg));
      }
      if (e.reg >= kGpuMmioSize) {
        Error(report, at,
              Fmt("register offset 0x%X outside the GPU MMIO window (0x%X)",
                  e.reg, kGpuMmioSize));
      }
    }
    // Fields that do not belong to the op must be at their defaults: a
    // nonzero stray field means the entry was forged or corrupted in a way
    // deserialization cannot see.
    if (e.op != LogOp::kPollWait && (e.mask != 0 || e.expected != 0)) {
      Error(report, at, "poll mask/expected set on a non-poll entry");
    }
    if (e.op != LogOp::kDelay && e.delay != 0) {
      Error(report, at, "delay set on a non-delay entry");
    }
    if (e.op != LogOp::kIrqWait && e.irq_lines != 0) {
      Error(report, at, "interrupt lines set on a non-irq-wait entry");
    }
    if (e.op != LogOp::kMemPage && (e.pa != 0 || !e.data.empty())) {
      Error(report, at, "page address/payload set on a non-mem-page entry");
    }
    switch (e.op) {
      case LogOp::kRegWrite:
      case LogOp::kRegRead:
      case LogOp::kPollWait:
        break;
      case LogOp::kDelay:
        if (e.delay <= 0) {
          Error(report, at,
                Fmt("non-positive delay %" PRId64
                    " ns (replay time must advance monotonically)",
                    static_cast<int64_t>(e.delay)));
        }
        break;
      case LogOp::kIrqWait:
        if (e.irq_lines == 0) {
          Error(report, at, "irq wait on no interrupt lines (never returns)");
        } else if ((e.irq_lines & ~kIrqLinesAll) != 0) {
          Error(report, at,
                Fmt("unknown interrupt line bits 0x%02X (only job/gpu/mmu "
                    "exist)",
                    e.irq_lines));
        }
        break;
      case LogOp::kMemPage:
        if (e.data.empty()) {
          Error(report, at, "empty page image");
        } else if (e.data.size() != kPageSize) {
          Error(report, at,
                Fmt("page image is %zu bytes; pages are %" PRIu64 " bytes",
                    e.data.size(), kPageSize));
        }
        if ((e.pa & kPageMask) != 0) {
          Error(report, at,
                Fmt("page image at unaligned physical address 0x%" PRIx64,
                    e.pa));
        }
        break;
    }
  }
}

// ----------------------------------------------------- register-protocol

void RegisterProtocolPass::Run(const AnalysisInput& in,
                               AnalysisReport* report) const {
  const bool cont = in.continuation;
  const auto& entries = in.recording->log.entries();

  // Power-domain state machines (a continuation segment inherits a powered
  // device from its predecessor, so start fully on).
  uint32_t shader_on = cont ? ~0u : 0;
  uint32_t tiler_on = cont ? ~0u : 0;
  uint32_t l2_on = cont ? ~0u : 0;
  bool reset_seen = cont;

  std::array<bool, kMaxAddressSpaces> transtab_written{};
  std::array<bool, kMaxAddressSpaces> memattr_written{};
  std::array<bool, kMaxAddressSpaces> as_configured{};
  if (cont) {
    as_configured.fill(true);
  }

  std::array<bool, kMaxJobSlots> slot_busy{};
  std::array<uint32_t, kMaxJobSlots> last_affinity{};
  std::array<uint32_t, kMaxJobSlots> last_config{};

  bool flush_inflight = false;
  size_t flush_at = 0;

  for (size_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    ptrdiff_t at = static_cast<ptrdiff_t>(i);

    if (e.op == LogOp::kPollWait) {
      if (e.reg == kRegGpuIrqRawstat && flush_inflight &&
          (e.mask & kGpuIrqCleanCachesCompleted) != 0 &&
          (e.expected & kGpuIrqCleanCachesCompleted) != 0) {
        flush_inflight = false;  // completion observed
      }
      continue;
    }
    if (e.op != LogOp::kRegWrite) {
      continue;
    }

    switch (e.reg) {
      case kRegGpuCommand:
        if (IsResetCommand(e.value)) {
          reset_seen = true;
          flush_inflight = false;
          slot_busy.fill(false);
        } else if (IsFlushCommand(e.value)) {
          if (flush_inflight) {
            Error(report, at,
                  Fmt("cache flush reissued before the flush started at "
                      "entry %zu was observed complete (flush-before-reuse)",
                      flush_at));
          }
          flush_inflight = true;
          flush_at = i;
        }
        continue;
      case kRegShaderPwrOnLo: shader_on |= e.value; continue;
      case kRegShaderPwrOffLo: shader_on &= ~e.value; continue;
      case kRegTilerPwrOnLo: tiler_on |= e.value; continue;
      case kRegTilerPwrOffLo: tiler_on &= ~e.value; continue;
      case kRegL2PwrOnLo: l2_on |= e.value; continue;
      case kRegL2PwrOffLo: l2_on &= ~e.value; continue;
      case kRegJobIrqClear:
        for (int s = 0; s < kMaxJobSlots; ++s) {
          if ((e.value & (JobIrqDoneBit(s) | JobIrqFailBit(s))) != 0) {
            slot_busy[static_cast<size_t>(s)] = false;
          }
        }
        continue;
      default:
        break;
    }

    int as;
    uint32_t rel;
    if (DecodeAsRegister(e.reg, &as, &rel)) {
      auto a = static_cast<size_t>(as);
      if (rel == kAsTranstabLo) {
        transtab_written[a] = true;
      } else if (rel == kAsMemattrLo) {
        memattr_written[a] = true;
      } else if (rel == kAsCommand && e.value == kAsCommandUpdate) {
        if (!reset_seen) {
          Error(report, at,
                Fmt("AS%d configured before the GPU was reset/enabled", as));
        }
        if (!transtab_written[a]) {
          Error(report, at,
                Fmt("AS%d UPDATE issued before TRANSTAB was programmed", as));
        }
        if (!memattr_written[a]) {
          Error(report, at,
                Fmt("AS%d UPDATE issued before MEMATTR was programmed", as));
        }
        as_configured[a] = true;
      }
      continue;
    }

    int slot;
    if (!DecodeJobSlotRegister(e.reg, &slot, &rel)) {
      continue;
    }
    auto s = static_cast<size_t>(slot);
    if (rel == kJsAffinityNextLo || rel == kJsAffinityLo) {
      last_affinity[s] = e.value;
    } else if (rel == kJsConfigNext || rel == kJsConfig) {
      last_config[s] = e.value;
    } else if (IsJobStartWrite(e.reg, e.value)) {
      if (!reset_seen) {
        Error(report, at,
              Fmt("job submitted on slot %d before the GPU was reset", slot));
      }
      if (slot_busy[s]) {
        Error(report, at,
              Fmt("job resubmitted on slot %d before the previous job's "
                  "completion was acknowledged",
                  slot));
      }
      if ((last_affinity[s] & ~shader_on) != 0) {
        Error(report, at,
              Fmt("job submitted on slot %d before its shader cores were "
                  "powered up (affinity 0x%X, powered 0x%X)",
                  slot, last_affinity[s], shader_on));
      }
      if (l2_on == 0) {
        Error(report, at,
              Fmt("job submitted on slot %d with the L2 powered down", slot));
      }
      uint32_t job_as = last_config[s];
      if (job_as < kMaxAddressSpaces &&
          !as_configured[static_cast<size_t>(job_as)]) {
        Error(report, at,
              Fmt("job on slot %d references MMU address space %u before an "
                  "AS UPDATE configured it",
                  slot, job_as));
      }
      slot_busy[s] = true;
    }
  }
}

// --------------------------------------------------- speculation-residue

void SpeculationResiduePass::Run(const AnalysisInput& in,
                                 AnalysisReport* report) const {
  const auto& entries = in.recording->log.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    if (e.op == LogOp::kRegRead && e.speculative) {
      Error(report, static_cast<ptrdiff_t>(i),
            Fmt("read of %s carries a speculative (predicted, never "
                "device-validated) value 0x%X",
                RegisterName(e.reg), e.value));
    }
  }
}

// ------------------------------------------------------- poll-idempotence

void PollIdempotencePass::Run(const AnalysisInput& in,
                              AnalysisReport* report) const {
  const auto& entries = in.recording->log.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    if (e.op != LogOp::kPollWait) {
      continue;
    }
    ptrdiff_t at = static_cast<ptrdiff_t>(i);
    if (!IsReadIdempotentRegister(e.reg)) {
      Error(report, at,
            Fmt("poll target %s is not read-idempotent; re-polling it at "
                "replay would perturb device state",
                RegisterName(e.reg)));
      continue;
    }
    if (IsNondeterministicRegister(e.reg)) {
      Warn(report, at,
           Fmt("poll target %s is nondeterministic across runs; the "
               "predicate may never settle",
               RegisterName(e.reg)));
    }
    if ((e.expected & ~e.mask) != 0) {
      Error(report, at,
            Fmt("poll predicate on %s is unsatisfiable: expected 0x%X has "
                "bits outside mask 0x%X",
                RegisterName(e.reg), e.expected, e.mask));
    } else if (e.mask == 0) {
      Warn(report, at,
           Fmt("vacuous poll on %s (empty mask always matches)",
               RegisterName(e.reg)));
    } else if ((e.value & e.mask) != e.expected) {
      Error(report, at,
            Fmt("recorded final value 0x%X of %s does not satisfy the poll "
                "predicate (value & 0x%X) == 0x%X",
                e.value, RegisterName(e.reg), e.mask, e.expected));
    }
  }
}

// ---------------------------------------------------- metastate-coverage

namespace {

// Reads a 64-bit little-endian word from a page image.
uint64_t ImageU64(const Bytes& image, uint64_t offset) {
  uint64_t v = 0;
  for (int b = 7; b >= 0; --b) {
    v = (v << 8) | image[offset + static_cast<uint64_t>(b)];
  }
  return v;
}

}  // namespace

void MetastateCoveragePass::Run(const AnalysisInput& in,
                                AnalysisReport* report) const {
  const auto& entries = in.recording->log.entries();

  std::unordered_set<uint64_t> meta_pages;
  // Latest image of every synced page (metastate or not); the walk reads
  // page tables out of these images, never out of live memory.
  std::unordered_map<uint64_t, const Bytes*> images;
  bool any_meta = false;

  std::array<uint64_t, kMaxAddressSpaces> transtab_lo{};
  std::array<uint64_t, kMaxAddressSpaces> transtab_hi{};
  std::array<bool, kMaxAddressSpaces> transtab_set{};
  std::array<uint64_t, kMaxJobSlots> head_lo{};
  std::array<uint64_t, kMaxJobSlots> head_hi{};
  std::array<uint32_t, kMaxJobSlots> config{};

  for (size_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    ptrdiff_t at = static_cast<ptrdiff_t>(i);

    if (e.op == LogOp::kMemPage) {
      if (e.metastate) {
        meta_pages.insert(e.pa);
        any_meta = true;
      }
      if (e.data.size() == kPageSize) {
        images[e.pa] = &e.data;
      }
      continue;
    }
    if (e.op != LogOp::kRegWrite) {
      continue;
    }

    int as;
    uint32_t rel;
    if (DecodeAsRegister(e.reg, &as, &rel)) {
      auto a = static_cast<size_t>(as);
      if (rel == kAsTranstabLo) {
        transtab_lo[a] = e.value;
        transtab_set[a] = true;
      } else if (rel == kAsTranstabHi) {
        transtab_hi[a] = e.value;
      }
      continue;
    }
    int slot;
    if (!DecodeJobSlotRegister(e.reg, &slot, &rel)) {
      continue;
    }
    auto s = static_cast<size_t>(slot);
    if (rel == kJsHeadNextLo) {
      head_lo[s] = e.value;
    } else if (rel == kJsHeadNextHi) {
      head_hi[s] = e.value;
    } else if (rel == kJsConfigNext) {
      config[s] = e.value;
    } else if (IsJobStartWrite(e.reg, e.value)) {
      if (!any_meta) {
        Error(report, at,
              Fmt("job submitted on slot %d without any preceding metastate "
                  "sync (page tables and command buffers unsynced)",
                  slot));
        continue;
      }
      uint32_t job_as = config[s];
      if (job_as >= kMaxAddressSpaces ||
          !transtab_set[static_cast<size_t>(job_as)]) {
        // Root unknown within this log (continuation segments inherit it
        // from their predecessor); nothing static to walk.
        continue;
      }
      uint64_t root = (transtab_hi[job_as] << 32) | transtab_lo[job_as];
      if (meta_pages.count(root) == 0) {
        Error(report, at,
              Fmt("page-table root 0x%" PRIx64
                  " of AS%u is not covered by a synced metastate page",
                  root, job_as));
        continue;
      }
      if (in.sku == nullptr) {
        continue;  // leaf format unknown; sku-compat reports the bad SKU
      }
      // Walk the recorded page-table images for the chain head VA: every
      // table level and the command page the head descriptor lives in must
      // have been synced as metastate before the submit (§5).
      uint64_t head_va = (head_hi[s] << 32) | head_lo[s];
      uint64_t table_pa = root;
      bool walk_failed = false;
      for (int level = 0; level < kPtLevels - 1 && !walk_failed; ++level) {
        auto it = images.find(table_pa);
        if (it == images.end()) {
          Error(report, at,
                Fmt("page-table level-%d page 0x%" PRIx64
                    " was never synced into the recording",
                    level, table_pa));
          walk_failed = true;
          break;
        }
        uint64_t pte = ImageU64(*it->second, PtIndex(head_va, level) * 8);
        auto next = DecodeTablePte(in.sku->pt_format, pte);
        if (!next.ok()) {
          Error(report, at,
                Fmt("invalid level-%d table descriptor for job chain head "
                    "va 0x%" PRIx64,
                    level, head_va));
          walk_failed = true;
          break;
        }
        table_pa = next.value();
        if (meta_pages.count(table_pa) == 0 && level + 1 < kPtLevels - 1) {
          Error(report, at,
                Fmt("page-table level-%d page 0x%" PRIx64
                    " is not covered by synced metastate",
                    level + 1, table_pa));
          walk_failed = true;
        }
      }
      if (walk_failed) {
        continue;
      }
      auto leaf_it = images.find(table_pa);
      if (leaf_it == images.end()) {
        Error(report, at,
              Fmt("leaf page-table page 0x%" PRIx64
                  " was never synced into the recording",
                  table_pa));
        continue;
      }
      uint64_t leaf_pte =
          ImageU64(*leaf_it->second, PtIndex(head_va, kPtLevels - 1) * 8);
      auto leaf = DecodePte(in.sku->pt_format, leaf_pte);
      if (!leaf.ok()) {
        Error(report, at,
              Fmt("job chain head va 0x%" PRIx64
                  " is unmapped in the synced page tables",
                  head_va));
        continue;
      }
      uint64_t cmd_page = leaf->first;
      if (meta_pages.count(cmd_page) == 0) {
        Error(report, at,
              Fmt("command buffer page 0x%" PRIx64
                  " (job chain head va 0x%" PRIx64
                  ") is not covered by synced metastate",
                  cmd_page, head_va));
      }
    }
  }
}

// ------------------------------------------------------------- sku-compat

void SkuCompatPass::Run(const AnalysisInput& in,
                        AnalysisReport* report) const {
  if (in.sku == nullptr) {
    Error(report, kWholeRecording,
          Fmt("recording claims SKU id 0x%X, which is not in the registry",
              static_cast<uint32_t>(in.recording->header.sku)));
    return;
  }
  const GpuSku& sku = *in.sku;
  const auto& entries = in.recording->log.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    ptrdiff_t at = static_cast<ptrdiff_t>(i);

    if (e.op == LogOp::kRegRead) {
      uint32_t expected = 0;
      bool known = true;
      switch (e.reg) {
        case kRegGpuId: expected = sku.gpu_id_reg; break;
        case kRegShaderPresentLo: expected = sku.shader_present; break;
        case kRegTilerPresentLo: expected = sku.tiler_present; break;
        case kRegL2PresentLo: expected = sku.l2_present; break;
        case kRegShaderPresentHi:
        case kRegTilerPresentHi:
        case kRegL2PresentHi: expected = 0; break;
        case kRegMmuFeatures: expected = sku.mmu_features; break;
        case kRegAsPresent: expected = AsPresentMask(sku); break;
        case kRegJsPresent: expected = JsPresentMask(sku); break;
        case kRegCoreFeatures: expected = sku.macs_per_core_clk; break;
        case kRegThreadMaxThreads: expected = sku.thread_max; break;
        case kRegTextureFeatures0: expected = sku.texture_features; break;
        default: known = false; break;
      }
      if (known && e.value != expected) {
        Error(report, at,
              Fmt("recorded %s value 0x%X does not match the claimed SKU "
                  "%s (expected 0x%X)",
                  RegisterName(e.reg), e.value, sku.name.c_str(), expected));
      }
      continue;
    }

    if (e.op != LogOp::kRegWrite) {
      continue;
    }
    switch (e.reg) {
      case kRegShaderPwrOnLo:
        if ((e.value & ~sku.shader_present) != 0) {
          Error(report, at,
                Fmt("powers shader cores 0x%X absent on %s (present 0x%X)",
                    e.value & ~sku.shader_present, sku.name.c_str(),
                    sku.shader_present));
        }
        continue;
      case kRegTilerPwrOnLo:
        if ((e.value & ~sku.tiler_present) != 0) {
          Error(report, at,
                Fmt("powers tiler units absent on %s", sku.name.c_str()));
        }
        continue;
      case kRegL2PwrOnLo:
        if ((e.value & ~sku.l2_present) != 0) {
          Error(report, at,
                Fmt("powers L2 slices absent on %s", sku.name.c_str()));
        }
        continue;
      default:
        break;
    }
    int slot;
    uint32_t rel;
    if (DecodeJobSlotRegister(e.reg, &slot, &rel)) {
      if (static_cast<uint32_t>(slot) >= sku.js_count) {
        Error(report, at,
              Fmt("touches job slot %d; %s has %u slots", slot,
                  sku.name.c_str(), sku.js_count));
      }
      if ((rel == kJsAffinityNextLo || rel == kJsAffinityLo) &&
          (e.value & ~sku.shader_present) != 0) {
        Error(report, at,
              Fmt("job affinity 0x%X selects shader cores absent on %s "
                  "(present 0x%X) — core tiling mismatch",
                  e.value, sku.name.c_str(), sku.shader_present));
      }
      if ((rel == kJsConfigNext || rel == kJsConfig) &&
          e.value >= sku.as_count) {
        Error(report, at,
              Fmt("job configured for address space %u; %s has %u", e.value,
                  sku.name.c_str(), sku.as_count));
      }
      continue;
    }
    int as;
    if (DecodeAsRegister(e.reg, &as, &rel) &&
        static_cast<uint32_t>(as) >= sku.as_count) {
      Error(report, at,
            Fmt("touches address space %d; %s has %u", as, sku.name.c_str(),
                sku.as_count));
    }
  }
}

// ---------------------------------------------------- footprint-soundness

void FootprintSoundnessPass::Run(const AnalysisInput& in,
                                 AnalysisReport* report) const {
  const ResourceFootprint& declared = in.recording->header.footprint;
  if (!declared.computed) {
    // Not an integrity failure — the producer predates footprint stamping
    // — but the device pool will refuse to co-locate this recording with
    // anything (an absent footprint proves no disjointness).
    Warn(report, kWholeRecording,
         "recording carries no computed resource footprint; co-residency "
         "analysis will treat it as conflicting with every plan");
    return;
  }
  Status shape = ValidateFootprint(declared);
  if (!shape.ok()) {
    Error(report, kWholeRecording, shape.message());
    return;
  }
  // Re-derive the footprint and demand the declared one over-approximates
  // it. A footprint that under-declares would let the device pool co-locate
  // plans that actually interfere, so under-approximation is tampering.
  ResourceFootprint required = ComputeFootprint(*in.recording, in.sku);
  std::string why;
  if (!FootprintCovers(declared, required, &why)) {
    Error(report, kWholeRecording,
          "declared footprint fails to over-approximate the log: " + why);
  }
}

}  // namespace grt
