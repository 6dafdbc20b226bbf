#include "src/analysis/footprint/footprint.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "src/hw/mmu.h"
#include "src/hw/regs.h"
#include "src/mem/phys_mem.h"

namespace grt {

namespace {

// Reads a 64-bit little-endian word from a page image.
uint64_t ImageU64(const Bytes& image, uint64_t offset) {
  uint64_t v = 0;
  for (int b = 7; b >= 0; --b) {
    v = (v << 8) | image[offset + static_cast<uint64_t>(b)];
  }
  return v;
}

// Accumulates unit-granularity access bits and coalesces them into sorted
// [lo, hi) ranges of equal access on extraction.
class AccessMap {
 public:
  explicit AccessMap(uint64_t unit) : unit_(unit) {}

  void Add(uint64_t addr, uint8_t bits) { acc_[addr - addr % unit_] |= bits; }

  std::vector<FootprintRange> Ranges() const {
    std::vector<FootprintRange> out;
    for (const auto& [addr, bits] : acc_) {
      if (bits == 0) {
        continue;
      }
      if (!out.empty() && out.back().hi == addr &&
          out.back().access == bits) {
        out.back().hi = addr + unit_;
      } else {
        out.push_back(FootprintRange{addr, addr + unit_, bits});
      }
    }
    return out;
  }

 private:
  uint64_t unit_;
  std::map<uint64_t, uint8_t> acc_;
};

// Walks one recorded page-table tree, adding every reachable leaf mapping
// to `pages` (read always — the GPU may fetch through it — write when the
// PTE grants it) and every table page as read (the walker fetches PTEs).
// Tables are looked up across *all* recorded images of a page, so a table
// rewritten mid-recording contributes the union of its versions.
void WalkTable(const std::map<uint64_t, std::vector<const Bytes*>>& images,
               PageTableFormat format, uint64_t table_pa, int level,
               std::set<std::pair<uint64_t, int>>* visited, AccessMap* pages) {
  if (level >= kPtLevels || !visited->insert({table_pa, level}).second) {
    return;
  }
  auto it = images.find(table_pa);
  if (it == images.end()) {
    return;
  }
  pages->Add(table_pa, kFpRead);
  for (const Bytes* image : it->second) {
    if (image->size() < kPageSize) {
      continue;
    }
    for (uint64_t i = 0; i < kPtEntries; ++i) {
      uint64_t pte = ImageU64(*image, i * 8);
      if (level < kPtLevels - 1) {
        auto next = DecodeTablePte(format, pte);
        if (next.ok()) {
          WalkTable(images, format, *next, level + 1, visited, pages);
        }
      } else {
        auto leaf = DecodePte(format, pte);
        if (leaf.ok()) {
          pages->Add(leaf->first,
                     static_cast<uint8_t>(kFpRead |
                                          (leaf->second.write ? kFpWrite : 0)));
        }
      }
    }
  }
}

bool RangesOverlap(const FootprintRange& a, const FootprintRange& b) {
  return a.lo < b.hi && b.lo < a.hi;
}

// True when some range with access∩`bits_a` in `a` overlaps some range
// with access∩`bits_b` in `b`.
bool AnyOverlap(const std::vector<FootprintRange>& a, uint8_t bits_a,
                const std::vector<FootprintRange>& b, uint8_t bits_b) {
  for (const FootprintRange& ra : a) {
    if ((ra.access & bits_a) == 0) {
      continue;
    }
    for (const FootprintRange& rb : b) {
      if ((rb.access & bits_b) != 0 && RangesOverlap(ra, rb)) {
        return true;
      }
    }
  }
  return false;
}

std::string FmtRange(const FootprintRange& r) {
  char buf[96];
  std::string access;
  if (r.access & kFpRead) access += "r";
  if (r.access & kFpWrite) access += "w";
  if (r.access & kFpClobber) access += "c";
  if (r.access & kFpExternal) access += "x";
  std::snprintf(buf, sizeof(buf), "[%#llx,%#llx):%s",
                static_cast<unsigned long long>(r.lo),
                static_cast<unsigned long long>(r.hi), access.c_str());
  return buf;
}

Status ValidateRanges(const std::vector<FootprintRange>& ranges,
                      uint64_t unit, uint64_t limit, const char* what) {
  uint64_t prev_hi = 0;
  bool first = true;
  for (const FootprintRange& r : ranges) {
    if (r.lo >= r.hi || r.lo % unit != 0 || r.hi % unit != 0) {
      return IntegrityViolation(std::string(what) +
                                " footprint range malformed: " + FmtRange(r));
    }
    if (limit != 0 && r.hi > limit) {
      return IntegrityViolation(std::string(what) +
                                " footprint range out of window: " +
                                FmtRange(r));
    }
    if (!first && r.lo < prev_hi) {
      return IntegrityViolation(std::string(what) +
                                " footprint ranges unsorted or overlapping "
                                "at " + FmtRange(r));
    }
    if (r.access == 0 ||
        (r.access & ~(kFpRead | kFpWrite | kFpClobber | kFpExternal)) != 0) {
      return IntegrityViolation(std::string(what) +
                                " footprint range has bad access bits: " +
                                FmtRange(r));
    }
    prev_hi = r.hi;
    first = false;
  }
  return OkStatus();
}

// Checks that `declared` grants at least `r.access` on every `unit`-sized
// address of `r`. Exact for recomputed footprints: their ranges coalesce
// only equal-access units, so the range's access is each unit's access.
bool CoversRange(const ResourceFootprint& declared,
                 const std::vector<FootprintRange>& declared_ranges,
                 const FootprintRange& r, uint64_t unit, const char* what,
                 std::string* why) {
  for (uint64_t addr = r.lo; addr < r.hi; addr += unit) {
    uint8_t have = declared.AccessAt(declared_ranges, addr);
    if ((r.access & ~have) != 0) {
      if (why != nullptr) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%s %#llx requires access %#x but footprint declares "
                      "%#x",
                      what, static_cast<unsigned long long>(addr), r.access,
                      have);
        *why = buf;
      }
      return false;
    }
  }
  return true;
}

}  // namespace

const char* InterferenceName(Interference v) {
  switch (v) {
    case Interference::kDisjoint: return "disjoint";
    case Interference::kSerializable: return "serializable";
    case Interference::kConflicting: return "conflicting";
  }
  return "?";
}

ResourceFootprint ComputeFootprint(const Recording& rec, const GpuSku* sku) {
  ResourceFootprint fp;
  fp.computed = true;

  AccessMap regs(/*unit=*/4);
  AccessMap pages(kPageSize);

  // --- register / IRQ / latch sweep -------------------------------------
  // Write stimuli seen so far, for the establishment test and the clobber
  // closure below — deduped to one representative per (register, clobber
  // value-class), which is exact: MayClobberRegister is value-insensitive
  // within a class (ClobberValueClass). Large logs write thousands of
  // distinct values (job-chain pointers, TRANSTAB roots) to a handful of
  // registers; keying the closure's MMIO sweep on the class keeps it
  // O(distinct stimulus registers), not O(distinct recorded writes).
  std::vector<std::pair<uint32_t, uint32_t>> stimuli;
  std::set<std::pair<uint32_t, uint32_t>> stimuli_seen;  // (reg, class)
  std::set<uint32_t> established;
  auto is_established = [&](uint32_t reg) {
    if (established.count(reg) != 0) {
      return true;
    }
    for (const auto& [sreg, svalue] : stimuli) {
      if (sreg == reg || MayClobberRegister(sreg, svalue, reg)) {
        established.insert(reg);
        return true;
      }
    }
    return false;
  };
  // An observation of `reg` before any in-log stimulus established its
  // value crosses the plan boundary: the replay depends on device state it
  // did not set up itself. Constant and nondeterministic registers are
  // exempt (discovery reads and values the replayer never verifies).
  auto observe = [&](uint32_t reg) {
    uint8_t bits = kFpRead;
    RegClass cls = ClassifyRegister(reg);
    if (cls != RegClass::kConstant && cls != RegClass::kNondet &&
        !is_established(reg)) {
      bits |= kFpExternal;
    }
    regs.Add(reg, bits);
    return bits;
  };

  // Current TRANSTAB latch value per address space; every latched non-zero
  // root is a candidate tree for the GPU-DMA walk (over-approximating:
  // roots latched but never walked only add pages).
  uint64_t transtab_lo[kMaxAddressSpaces] = {};
  uint64_t transtab_hi[kMaxAddressSpaces] = {};
  std::set<uint64_t> roots;
  std::map<uint64_t, std::vector<const Bytes*>> images;

  for (const LogEntry& e : rec.log.entries()) {
    switch (e.op) {
      case LogOp::kRegWrite: {
        regs.Add(e.reg, kFpWrite);
        if (stimuli_seen.insert({e.reg, ClobberValueClass(e.reg, e.value)})
                .second) {
          stimuli.emplace_back(e.reg, e.value);
        }
        int slot = 0;
        int as = 0;
        uint32_t rel = 0;
        if (DecodeJobSlotRegister(e.reg, &slot, &rel)) {
          fp.slot_write_mask |= 1u << slot;
        } else if (DecodeAsRegister(e.reg, &as, &rel)) {
          fp.as_write_mask |= 1u << as;
          if (rel == kAsTranstabLo) {
            transtab_lo[as] = e.value;
          } else if (rel == kAsTranstabHi) {
            transtab_hi[as] = e.value;
          }
          uint64_t root = (transtab_hi[as] << 32) | transtab_lo[as];
          if ((rel == kAsTranstabLo || rel == kAsTranstabHi) && root != 0) {
            roots.insert(root);
          }
        }
        break;
      }
      case LogOp::kRegRead:
      case LogOp::kPollWait:
        observe(e.reg);
        break;
      case LogOp::kIrqWait: {
        fp.irq_lines |= e.irq_lines;
        // A wait observes each waited line's RAWSTAT (the replayer
        // level-checks it while waiting).
        for (const IrqLine& line : kIrqLines) {
          if ((e.irq_lines & line.bit) != 0 &&
              (observe(line.rawstat) & kFpExternal) != 0) {
            fp.irq_external |= line.bit;
          }
        }
        break;
      }
      case LogOp::kMemPage:
        // The replayer applies the image with CPU writes.
        pages.Add(e.pa, kFpWrite);
        images[e.pa - e.pa % kPageSize].push_back(&e.data);
        break;
      case LogOp::kDelay:
        break;
    }
  }

  // Clobber closure: any register a recorded stimulus may perturb, across
  // the whole MMIO window. Order-independent, so computed after the sweep;
  // one window sweep per stimulus value-class (see the dedupe above).
  for (const auto& [sreg, svalue] : stimuli) {
    for (uint32_t cand = 0; cand < kGpuMmioSize; cand += 4) {
      if (MayClobberRegister(sreg, svalue, cand)) {
        regs.Add(cand, kFpClobber);
      }
    }
  }

  // --- page sets --------------------------------------------------------
  // Tensor bindings: the replayer CPU-writes staged inputs/parameters and
  // CPU-reads outputs.
  for (const auto& [name, binding] : rec.bindings) {
    for (uint64_t pa : binding.pages) {
      pages.Add(pa, binding.writable_at_replay ? kFpWrite : kFpRead);
    }
  }

  if (sku != nullptr) {
    // GPU DMA: walk every page-table tree the log ever latched. Leaf
    // mappings with the write permission are GPU-writable during replay.
    std::set<std::pair<uint64_t, int>> visited;
    for (uint64_t root : roots) {
      WalkTable(images, sku->pt_format, root, 0, &visited, &pages);
    }
  } else {
    // Unknown SKU: the walk is impossible, so assume the GPU can reach
    // every recorded page and every binding page, read-write.
    for (const auto& [pa, unused] : images) {
      pages.Add(pa, kFpRead | kFpWrite);
    }
    for (const auto& [name, binding] : rec.bindings) {
      for (uint64_t pa : binding.pages) {
        pages.Add(pa, kFpRead | kFpWrite);
      }
    }
  }

  fp.regs = regs.Ranges();
  fp.pages = pages.Ranges();
  return fp;
}

void StampFootprint(Recording* rec) {
  auto sku = FindSku(rec->header.sku);
  rec->header.footprint =
      ComputeFootprint(*rec, sku.ok() ? &sku.value() : nullptr);
}

Interference CheckInterference(const ResourceFootprint& a,
                               const ResourceFootprint& b) {
  // A recording without a computed footprint proves nothing: assume the
  // worst.
  if (!a.computed || !b.computed) {
    return Interference::kConflicting;
  }
  // Page conflict: a page one side writes that the other can read or
  // write. DRAM survives the reset fence between replays, so no fence
  // makes this safe; it also breaks the co-resident warm path (a foreign
  // write would dirty pages behind the other engine's tracker).
  if (AnyOverlap(a.pages, kFpWrite, b.pages, kFpRead | kFpWrite) ||
      AnyOverlap(b.pages, kFpWrite, a.pages, kFpRead | kFpWrite)) {
    return Interference::kConflicting;
  }
  // Shared job-slot or address-space latch group: the GPU-DMA page proof
  // composes only under exclusive slot/AS ownership.
  if ((a.slot_write_mask & b.slot_write_mask) != 0 ||
      (a.as_write_mask & b.as_write_mask) != 0) {
    return Interference::kConflicting;
  }
  // Register overlap matters only where one side observes state across
  // its own plan boundary: everything else is re-established by the
  // observer's own in-plan writes on every replay. A reset fence
  // (scrub_before) restores boot state, so this is serializable.
  if (AnyOverlap(a.regs, kFpWrite | kFpClobber, b.regs, kFpExternal) ||
      AnyOverlap(b.regs, kFpWrite | kFpClobber, a.regs, kFpExternal)) {
    return Interference::kSerializable;
  }
  if ((a.irq_lines & b.irq_external) != 0 ||
      (b.irq_lines & a.irq_external) != 0) {
    return Interference::kSerializable;
  }
  return Interference::kDisjoint;
}

Interference AdmissionInterference(const ResourceFootprint& a,
                                   const ResourceFootprint& b,
                                   bool reset_fenced) {
  Interference v = CheckInterference(a, b);
  if (v == Interference::kSerializable && !reset_fenced) {
    // No reset fence between replays: the register state one plan
    // observes across its boundary survives the other's writes, so
    // serialized execution is no longer provably clean.
    return Interference::kConflicting;
  }
  return v;
}

bool FootprintCovers(const ResourceFootprint& declared,
                     const ResourceFootprint& required, std::string* why) {
  for (const FootprintRange& r : required.regs) {
    if (!CoversRange(declared, declared.regs, r, 4, "register", why)) {
      return false;
    }
  }
  for (const FootprintRange& r : required.pages) {
    if (!CoversRange(declared, declared.pages, r, kPageSize, "page", why)) {
      return false;
    }
  }
  if ((required.irq_lines & ~declared.irq_lines) != 0 ||
      (required.irq_external & ~declared.irq_external) != 0) {
    if (why != nullptr) {
      *why = "IRQ lines missing from the declared footprint";
    }
    return false;
  }
  if ((required.slot_write_mask & ~declared.slot_write_mask) != 0) {
    if (why != nullptr) {
      *why = "job-slot write mask missing bits";
    }
    return false;
  }
  if ((required.as_write_mask & ~declared.as_write_mask) != 0) {
    if (why != nullptr) {
      *why = "address-space write mask missing bits";
    }
    return false;
  }
  return true;
}

Status ValidateFootprint(const ResourceFootprint& fp) {
  GRT_RETURN_IF_ERROR(ValidateRanges(fp.regs, 4, kGpuMmioSize, "register"));
  GRT_RETURN_IF_ERROR(ValidateRanges(fp.pages, kPageSize, 0, "page"));
  if ((fp.irq_external & ~fp.irq_lines) != 0) {
    return IntegrityViolation(
        "footprint marks IRQ lines external that it never waits on");
  }
  return OkStatus();
}

std::string FootprintToString(const ResourceFootprint& fp) {
  if (!fp.computed) {
    return "  (no computed footprint: pre-v4 producer)\n";
  }
  std::string out;
  char buf[128];
  out += "  registers:\n";
  for (const FootprintRange& r : fp.regs) {
    out += "    " + FmtRange(r) + "\n";
  }
  out += "  pages:\n";
  for (const FootprintRange& r : fp.pages) {
    out += "    " + FmtRange(r) + "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "  irq_lines=%#x irq_external=%#x slots=%#x as=%#x\n",
                fp.irq_lines, fp.irq_external, fp.slot_write_mask,
                fp.as_write_mask);
  out += buf;
  return out;
}

std::string FootprintToJson(const ResourceFootprint& fp) {
  auto ranges_json = [](const std::vector<FootprintRange>& ranges) {
    std::string out = "[";
    bool first = true;
    for (const FootprintRange& r : ranges) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"lo\":%llu,\"hi\":%llu,\"access\":%u}",
                    first ? "" : ",", static_cast<unsigned long long>(r.lo),
                    static_cast<unsigned long long>(r.hi), r.access);
      out += buf;
      first = false;
    }
    return out + "]";
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"irq_lines\":%u,\"irq_external\":%u,\"slot_write_mask\":%u,"
                "\"as_write_mask\":%u",
                fp.irq_lines, fp.irq_external, fp.slot_write_mask,
                fp.as_write_mask);
  return std::string("{\"computed\":") + (fp.computed ? "true" : "false") +
         ",\"regs\":" + ranges_json(fp.regs) +
         ",\"pages\":" + ranges_json(fp.pages) + "," + buf + "}";
}

}  // namespace grt
