// PageSnapshotter: the recorder's deduplicated GPU-memory dump (§5: right
// before every job-start write the recorder dumps GPU memory into the log).
//
// A listed page is logged when the CRC-32 of its bytes differs from the CRC
// taken when it was last hashed, or when it was never hashed. Instead of
// hashing every page at every snapshot, the snapshotter observes the
// memory's writes and hashes only pages written since their CRC was taken,
// plus pages it never hashed. An unwritten page still holds the bytes its
// CRC came from, so a full scan would skip it too: the log is the same,
// byte for byte (DESIGN.md §6, item 6).
//
// Exactness needs every mutation of the memory to reach its write
// observers: PhysicalMemory fires them for Write, LoadPage and ZeroAll, and
// WriteView callers must call NotifyWritten. Used by the local Recorder and
// the cloud DriverShim.
#ifndef GRT_SRC_RECORD_PAGE_SNAPSHOT_H_
#define GRT_SRC_RECORD_PAGE_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "src/mem/phys_mem.h"
#include "src/record/log.h"

namespace grt {

struct SnapshotCounts {
  uint64_t hashed = 0;  // pages CRC'd by this snapshot
  uint64_t logged = 0;  // kMemPage entries it appended
};

class PageSnapshotter {
 public:
  // Registers a write observer on `mem` (page-aligned base, as every
  // carveout is), which must outlive the snapshotter; the destructor
  // removes it.
  explicit PageSnapshotter(PhysicalMemory* mem);
  ~PageSnapshotter();
  PageSnapshotter(const PageSnapshotter&) = delete;
  PageSnapshotter& operator=(const PageSnapshotter&) = delete;

  // Appends a kMemPage entry to `log` for every page of `pages`, in order,
  // whose bytes changed since it was last logged or that was never logged,
  // tagged metastate when it is in `metastate`. A page whose PageView the
  // memory refuses (an access policy, outside the memory) is skipped and
  // stays pending until a snapshot can read it.
  SnapshotCounts Snapshot(const std::vector<uint64_t>& pages,
                          const std::vector<uint64_t>& metastate,
                          InteractionLog* log);

 private:
  struct PageState {
    uint32_t crc = 0;      // CRC of the bytes when the page was last hashed
    bool hashed = false;   // crc is valid
    bool pending = true;   // never hashed, or written since it was
  };

  void MarkWritten(uint64_t pa, uint64_t len);

  PhysicalMemory* mem_;
  std::vector<PageState> pages_;  // indexed by page number in mem_
  int observer_id_ = 0;
};

}  // namespace grt

#endif  // GRT_SRC_RECORD_PAGE_SNAPSHOT_H_
