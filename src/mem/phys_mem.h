// Physical memory model for the GPU carveout.
//
// The paper's client statically reserves memory regions for the GPU and maps
// them into the TEE (§6, TZASC workaround). The cloud VM's devicetree carves
// out the *same* physical range, so page tables built by the cloud driver
// hold physical addresses that are valid on the client. We model exactly
// that: both parties instantiate a PhysicalMemory covering the identical
// [base_pa, base_pa + size) carveout, and memory synchronization copies
// carveout pages between them.
#ifndef GRT_SRC_MEM_PHYS_MEM_H_
#define GRT_SRC_MEM_PHYS_MEM_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <functional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace grt {

constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kPageMask = kPageSize - 1;

inline uint64_t PageAlignDown(uint64_t addr) { return addr & ~kPageMask; }
inline uint64_t PageAlignUp(uint64_t addr) {
  return (addr + kPageMask) & ~kPageMask;
}

// Who is touching memory; the TZASC policy hook discriminates on this.
enum class MemAccessOrigin {
  kCpuNormalWorld,
  kCpuSecureWorld,
  kGpu,
};

// Byte-addressed physical memory window with bounds checking and an
// optional access-policy hook (installed by the TZASC model).
class PhysicalMemory {
 public:
  // Policy returns true to permit the access.
  using AccessPolicy = std::function<bool(uint64_t pa, uint64_t len, bool write,
                                          MemAccessOrigin origin)>;
  // Observer invoked after every successful write (any origin: CPU either
  // world, GPU DMA) and after ZeroAll. The replayer's dirty-page tracker
  // interposes here to learn which recorded-image pages a replay
  // clobbered, and the recorder's PageSnapshotter to learn which pages it
  // must hash again.
  using WriteObserver = std::function<void(uint64_t pa, uint64_t len)>;

  PhysicalMemory(uint64_t base_pa, uint64_t size)
      : base_(base_pa), data_(size, 0) {}

  uint64_t base() const { return base_; }
  uint64_t size() const { return data_.size(); }
  bool Contains(uint64_t pa, uint64_t len) const {
    return pa >= base_ && pa + len <= base_ + size() && pa + len >= pa;
  }

  // Replaces all installed policies with one (legacy single-policy use).
  void SetAccessPolicy(AccessPolicy policy) {
    policies_.clear();
    AddAccessPolicy(std::move(policy));
  }
  // Installs an additional policy; every installed policy must permit an
  // access. Returns a handle for RemoveAccessPolicy.
  int AddAccessPolicy(AccessPolicy policy) {
    policies_.emplace_back(next_policy_id_, std::move(policy));
    return next_policy_id_++;
  }
  void RemoveAccessPolicy(int id) {
    policies_.erase(
        std::remove_if(policies_.begin(), policies_.end(),
                       [id](const auto& p) { return p.first == id; }),
        policies_.end());
  }

  // Installs a write observer; returns a handle for RemoveWriteObserver.
  // Observers see permitted writes only (denied accesses never mutate).
  int AddWriteObserver(WriteObserver observer) {
    observers_.emplace_back(next_observer_id_, std::move(observer));
    return next_observer_id_++;
  }
  void RemoveWriteObserver(int id) {
    observers_.erase(
        std::remove_if(observers_.begin(), observers_.end(),
                       [id](const auto& o) { return o.first == id; }),
        observers_.end());
  }

  Status Read(uint64_t pa, void* out, uint64_t len,
              MemAccessOrigin origin = MemAccessOrigin::kCpuSecureWorld) const;
  Status Write(uint64_t pa, const void* in, uint64_t len,
               MemAccessOrigin origin = MemAccessOrigin::kCpuSecureWorld);

  Result<uint32_t> ReadU32(
      uint64_t pa, MemAccessOrigin origin = MemAccessOrigin::kCpuSecureWorld) const;
  Result<uint64_t> ReadU64(
      uint64_t pa, MemAccessOrigin origin = MemAccessOrigin::kCpuSecureWorld) const;
  Status WriteU32(uint64_t pa, uint32_t v,
                  MemAccessOrigin origin = MemAccessOrigin::kCpuSecureWorld);
  Status WriteU64(uint64_t pa, uint64_t v,
                  MemAccessOrigin origin = MemAccessOrigin::kCpuSecureWorld);

  // Zero-copy span views (hot path: the shader-core executor's DMA maps
  // whole tensors instead of bouncing them through per-op copies). A view
  // is policy-checked once for the whole span at acquisition; the pointer
  // is valid until the next reallocation of this memory (never — data_ is
  // fixed at construction) but callers must not hold it across policy
  // changes. WriteView callers MUST call NotifyWritten over every byte
  // range they actually mutate, or write observers (dirty-page tracking,
  // footprint soundness) silently miss the write.
  Result<const uint8_t*> ReadView(
      uint64_t pa, uint64_t len,
      MemAccessOrigin origin = MemAccessOrigin::kCpuSecureWorld) const;
  Result<uint8_t*> WriteView(
      uint64_t pa, uint64_t len,
      MemAccessOrigin origin = MemAccessOrigin::kCpuSecureWorld);
  // Fires write observers for a range mutated through a WriteView, as one
  // batched call (observers that think in pages expand it themselves).
  void NotifyWritten(uint64_t pa, uint64_t len);

  // Snapshot helpers for memory synchronization.
  Result<Bytes> DumpPage(uint64_t page_pa) const;
  // Zero-copy read-only view of one page (hot paths: CRC, delta compare).
  // The pointer is valid until the next mutation of this memory.
  Result<const uint8_t*> PageView(uint64_t page_pa) const;
  Status LoadPage(uint64_t page_pa, const Bytes& content);
  Bytes DumpAll() const { return Bytes(data_.begin(), data_.end()); }

  // Scrubs every byte (record sessions start from zeroed memory). Write
  // observers see the scrub as one write over the whole memory, so dirty
  // tracking built on them stays exact across it.
  void ZeroAll() {
    std::fill(data_.begin(), data_.end(), 0);
    NotifyWritten(base_, size());
  }

 private:
  Status CheckAccess(uint64_t pa, uint64_t len, bool write,
                     MemAccessOrigin origin) const;

  uint64_t base_;
  Bytes data_;
  std::vector<std::pair<int, AccessPolicy>> policies_;
  int next_policy_id_ = 1;
  std::vector<std::pair<int, WriteObserver>> observers_;
  int next_observer_id_ = 1;
};

// Simple page allocator over a carveout; returns physical page addresses.
// Deterministic: lowest-address free page first.
class PageAllocator {
 public:
  PageAllocator(uint64_t base_pa, uint64_t size);

  Result<uint64_t> AllocPage();
  // Allocates n physically-contiguous pages (needed by job chains that the
  // GPU reads without translation).
  Result<uint64_t> AllocContiguous(uint64_t n_pages);
  Status FreePage(uint64_t page_pa);

  uint64_t free_pages() const { return free_count_; }
  uint64_t total_pages() const { return used_.size(); }

  void Reset();

 private:
  uint64_t base_;
  std::vector<bool> used_;
  uint64_t free_count_;
  uint64_t next_hint_ = 0;
};

}  // namespace grt

#endif  // GRT_SRC_MEM_PHYS_MEM_H_
