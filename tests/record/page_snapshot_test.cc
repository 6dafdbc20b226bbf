// PageSnapshotter tests: the job-start memory snapshot hashes only pages
// written since their last CRC, and must log exactly what a full scan
// (CRC every listed page at every snapshot) logs. The oracle below is that
// full scan; random writes go through every PhysicalMemory write path
// (Write, WriteU32/WriteU64, LoadPage, WriteView + NotifyWritten, ZeroAll)
// so a path that stops reaching the write observers shows up as a missed
// page.
#include "src/record/page_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/common/rng.h"

namespace grt {
namespace {

constexpr uint64_t kBase = 0x80000000ull;
constexpr uint64_t kPages = 48;
constexpr uint64_t kSize = kPages * kPageSize;

uint64_t PageAt(uint64_t i) { return kBase + i * kPageSize; }

// The full scan the snapshotter replaces: CRC every listed page the memory
// lets it read, log the ones whose CRC changed or that it never saw.
class FullScanOracle {
 public:
  explicit FullScanOracle(const PhysicalMemory* mem) : mem_(mem) {}

  std::vector<LogEntry> Snapshot(const std::vector<uint64_t>& pages,
                                 const std::vector<uint64_t>& metastate) {
    const std::set<uint64_t> meta(metastate.begin(), metastate.end());
    std::vector<LogEntry> out;
    for (uint64_t pa : pages) {
      auto view = mem_->PageView(pa);
      if (!view.ok()) {
        continue;
      }
      const uint32_t crc = Crc32(view.value(), kPageSize);
      auto it = crc_.find(pa);
      if (it != crc_.end() && it->second == crc) {
        continue;
      }
      crc_[pa] = crc;
      LogEntry e;
      e.op = LogOp::kMemPage;
      e.pa = pa;
      e.metastate = meta.count(pa) > 0;
      e.data.assign(view.value(), view.value() + kPageSize);
      out.push_back(std::move(e));
    }
    return out;
  }

 private:
  const PhysicalMemory* mem_;
  std::unordered_map<uint64_t, uint32_t> crc_;
};

// Memory whose reads of a chosen page set are refused (writes still land),
// like the shim's sealed window.
class SnapshotFixture : public ::testing::Test {
 protected:
  SnapshotFixture() : mem_(kBase, kSize), snap_(&mem_), oracle_(&mem_) {
    mem_.AddAccessPolicy([this](uint64_t pa, uint64_t len, bool write,
                                MemAccessOrigin) {
      if (write) {
        return true;
      }
      for (uint64_t p = PageAlignDown(pa); p < pa + len; p += kPageSize) {
        if (refused_.count(p) > 0) {
          return false;
        }
      }
      return true;
    });
  }

  // Snapshots both ways and checks the entries match; returns the counts.
  SnapshotCounts SnapshotAndCompare(const std::vector<uint64_t>& pages,
                                    const std::vector<uint64_t>& meta) {
    const size_t before = log_.size();
    const SnapshotCounts counts = snap_.Snapshot(pages, meta, &log_);
    const std::vector<LogEntry> want = oracle_.Snapshot(pages, meta);
    std::vector<LogEntry> got(log_.entries().begin() + before,
                              log_.entries().end());
    EXPECT_EQ(counts.logged, got.size());
    EXPECT_LE(counts.hashed, pages.size());
    EXPECT_EQ(got.size(), want.size()) << "snapshot " << snapshots_;
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].op, LogOp::kMemPage);
      EXPECT_EQ(got[i].pa, want[i].pa) << "snapshot " << snapshots_;
      EXPECT_EQ(got[i].metastate, want[i].metastate);
      EXPECT_TRUE(got[i].data == want[i].data)
          << "snapshot " << snapshots_ << " page " << std::hex << got[i].pa;
    }
    ++snapshots_;
    return counts;
  }

  std::vector<uint64_t> AllPages() const {
    std::vector<uint64_t> pages;
    for (uint64_t i = 0; i < kPages; ++i) {
      pages.push_back(PageAt(i));
    }
    return pages;
  }

  PhysicalMemory mem_;
  PageSnapshotter snap_;
  FullScanOracle oracle_;
  InteractionLog log_;
  std::set<uint64_t> refused_;
  int snapshots_ = 0;
};

TEST_F(SnapshotFixture, UnwrittenPagesAreNotHashedAgain) {
  const std::vector<uint64_t> pages = AllPages();
  SnapshotCounts first = SnapshotAndCompare(pages, {PageAt(0)});
  EXPECT_EQ(first.hashed, kPages);
  EXPECT_EQ(first.logged, kPages);
  SnapshotCounts second = SnapshotAndCompare(pages, {PageAt(0)});
  EXPECT_EQ(second.hashed, 0u);
  EXPECT_EQ(second.logged, 0u);
}

TEST_F(SnapshotFixture, IdenticalRewriteIsHashedButNotLogged) {
  const std::vector<uint64_t> pages = AllPages();
  ASSERT_TRUE(mem_.WriteU32(PageAt(3) + 8, 0xABCD).ok());
  SnapshotAndCompare(pages, {});
  ASSERT_TRUE(mem_.WriteU32(PageAt(3) + 8, 0xABCD).ok());
  SnapshotCounts counts = SnapshotAndCompare(pages, {});
  EXPECT_EQ(counts.hashed, 1u);
  EXPECT_EQ(counts.logged, 0u);
}

TEST_F(SnapshotFixture, PageRefusedWhileDirtyIsLoggedOnceReadable) {
  const std::vector<uint64_t> pages = AllPages();
  SnapshotAndCompare(pages, {});
  refused_.insert(PageAt(5));
  ASSERT_TRUE(mem_.WriteU64(PageAt(5) + 40, 0x1122334455667788ull).ok());
  SnapshotCounts refused = SnapshotAndCompare(pages, {});
  EXPECT_EQ(refused.logged, 0u);
  refused_.clear();
  SnapshotCounts readable = SnapshotAndCompare(pages, {PageAt(5)});
  EXPECT_EQ(readable.hashed, 1u);
  ASSERT_EQ(readable.logged, 1u);
  EXPECT_EQ(log_.entries().back().pa, PageAt(5));
  EXPECT_TRUE(log_.entries().back().metastate);
}

TEST_F(SnapshotFixture, PageJoiningTheListIsLoggedWithItsWrites) {
  std::vector<uint64_t> pages = {PageAt(1), PageAt(2)};
  SnapshotAndCompare(pages, {});
  // Page 7 is written while unlisted, hashed once listed, written again.
  ASSERT_TRUE(mem_.Write(PageAt(7) + 100, "abc", 3).ok());
  pages.push_back(PageAt(7));
  EXPECT_EQ(SnapshotAndCompare(pages, {}).logged, 1u);
  pages.pop_back();
  ASSERT_TRUE(mem_.Write(PageAt(7) + 200, "def", 3).ok());
  EXPECT_EQ(SnapshotAndCompare(pages, {}).hashed, 0u);
  pages.push_back(PageAt(7));
  EXPECT_EQ(SnapshotAndCompare(pages, {}).logged, 1u);
}

TEST_F(SnapshotFixture, ZeroAllReachesTheSnapshot) {
  const std::vector<uint64_t> pages = AllPages();
  ASSERT_TRUE(mem_.LoadPage(PageAt(9), Bytes(kPageSize, 0x77)).ok());
  SnapshotAndCompare(pages, {});
  mem_.ZeroAll();
  SnapshotCounts counts = SnapshotAndCompare(pages, {});
  EXPECT_EQ(counts.hashed, kPages);
  EXPECT_EQ(counts.logged, 1u);
}

// Random writes through every path, a few between snapshots, with page
// refusals and a changing page list; every snapshot is checked against the
// oracle.
TEST_F(SnapshotFixture, RandomWritesMatchFullScanOracle) {
  Rng rng(20261019);
  std::vector<uint64_t> listed = AllPages();
  std::vector<uint64_t> meta = {PageAt(0), PageAt(1), PageAt(17)};
  // An address outside the memory stays in the list: both sides skip it.
  listed.push_back(kBase + kSize);
  auto random_bytes = [&](uint64_t n) {
    Bytes b(n);
    for (uint8_t& x : b) {
      x = static_cast<uint8_t>(rng.NextBelow(4));  // many repeats
    }
    return b;
  };
  for (int round = 0; round < 3000; ++round) {
    const int ops = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < ops; ++i) {
      const uint64_t page = PageAt(rng.NextBelow(kPages));
      const uint64_t off = rng.NextBelow(kPageSize);
      switch (rng.NextBelow(9)) {
        case 0: {  // Write, possibly across pages
          const uint64_t len =
              1 + rng.NextBelow(rng.NextBool() ? 64 : 3 * kPageSize);
          const uint64_t pa = std::min(page + off, kBase + kSize - len);
          ASSERT_TRUE(mem_.Write(pa, random_bytes(len).data(), len).ok());
          break;
        }
        case 1:
          ASSERT_TRUE(
              mem_.WriteU32(page + (off & ~3ull), rng.NextU32() & 0x0303).ok());
          break;
        case 2:
          ASSERT_TRUE(mem_.WriteU64(page + (off & ~7ull), rng.NextU64()).ok());
          break;
        case 3:
          ASSERT_TRUE(mem_.LoadPage(page, random_bytes(kPageSize)).ok());
          break;
        case 4: {  // WriteView + NotifyWritten over the bytes changed
          const uint64_t len = 1 + rng.NextBelow(2 * kPageSize);
          const uint64_t pa = std::min(page + off, kBase + kSize - len);
          auto view = mem_.WriteView(pa, len, MemAccessOrigin::kGpu);
          ASSERT_TRUE(view.ok());
          const Bytes b = random_bytes(len);
          std::memcpy(view.value(), b.data(), len);
          mem_.NotifyWritten(pa, len);
          break;
        }
        case 5: {  // rewrite a page with the bytes it holds
          auto view = mem_.WriteView(page, kPageSize);
          ASSERT_TRUE(view.ok());
          const Bytes same(view.value(), view.value() + kPageSize);
          ASSERT_TRUE(rng.NextBool() ? mem_.LoadPage(page, same).ok()
                                     : mem_.Write(page, same.data(),
                                                  kPageSize).ok());
          break;
        }
        case 6:  // refuse or re-admit reads of a page
          if (refused_.count(page) > 0) {
            refused_.erase(page);
          } else if (rng.NextBelow(4) == 0) {
            refused_.insert(page);
          }
          break;
        case 7: {  // a page leaves or joins the list
          auto it = std::find(listed.begin(), listed.end(), page);
          if (it != listed.end()) {
            listed.erase(it);
          } else {
            listed.push_back(page);
          }
          break;
        }
        case 8:
          if (rng.NextBelow(40) == 0) {
            mem_.ZeroAll();
          }
          break;
      }
    }
    SnapshotAndCompare(listed, meta);
    if (HasFailure()) {
      FAIL() << "diverged at round " << round;
    }
  }
}

TEST(PageSnapshotter, DestructorRemovesItsObserver) {
  PhysicalMemory mem(kBase, kSize);
  {
    PageSnapshotter snap(&mem);
    InteractionLog log;
    snap.Snapshot({kBase}, {}, &log);
  }
  // A left-behind observer would run on the destroyed snapshotter here.
  EXPECT_TRUE(mem.WriteU32(kBase, 1).ok());
  mem.ZeroAll();
}

}  // namespace
}  // namespace grt
