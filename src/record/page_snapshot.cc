#include "src/record/page_snapshot.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/hash.h"

namespace grt {

PageSnapshotter::PageSnapshotter(PhysicalMemory* mem)
    : mem_(mem), pages_(mem->size() / kPageSize) {
  observer_id_ = mem_->AddWriteObserver(
      [this](uint64_t pa, uint64_t len) { MarkWritten(pa, len); });
}

PageSnapshotter::~PageSnapshotter() {
  mem_->RemoveWriteObserver(observer_id_);
}

void PageSnapshotter::MarkWritten(uint64_t pa, uint64_t len) {
  const uint64_t base = mem_->base();
  if (len == 0 || pa + len <= base) {
    return;
  }
  const uint64_t first = pa > base ? (pa - base) / kPageSize : 0;
  const uint64_t end = std::min<uint64_t>(
      (pa + len - base + kPageMask) / kPageSize, pages_.size());
  for (uint64_t i = first; i < end; ++i) {
    pages_[i].pending = true;
  }
}

SnapshotCounts PageSnapshotter::Snapshot(
    const std::vector<uint64_t>& pages,
    const std::vector<uint64_t>& metastate, InteractionLog* log) {
  SnapshotCounts counts;
  const std::unordered_set<uint64_t> meta(metastate.begin(), metastate.end());
  for (uint64_t pa : pages) {
    // Every listed page still goes through the memory's access policies,
    // as in a full scan: the shim's sealed window counts refused reads.
    auto view = mem_->PageView(pa);
    if (!view.ok()) {
      continue;  // refused or outside the memory; a pending page stays so
    }
    PageState& page = pages_[(pa - mem_->base()) / kPageSize];
    if (!page.pending) {
      continue;  // unwritten since hashed: its CRC still matches
    }
    const uint32_t crc = Crc32(view.value(), kPageSize);
    ++counts.hashed;
    page.pending = false;
    if (page.hashed && page.crc == crc) {
      continue;  // rewritten with the bytes it held when last hashed
    }
    page.crc = crc;
    page.hashed = true;
    ++counts.logged;
    LogEntry e;
    e.op = LogOp::kMemPage;
    e.pa = pa;
    e.metastate = meta.count(pa) > 0;
    e.data.assign(view.value(), view.value() + kPageSize);
    log->Add(std::move(e));
  }
  return counts;
}

}  // namespace grt
