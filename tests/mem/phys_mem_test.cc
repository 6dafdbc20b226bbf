// Physical memory + page allocator tests (the shared GPU carveout).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/mem/phys_mem.h"

namespace grt {
namespace {

constexpr uint64_t kBase = 0x80000000ull;
constexpr uint64_t kSize = 1 << 20;  // 1 MiB

TEST(PhysMem, ReadWriteRoundTrip) {
  PhysicalMemory mem(kBase, kSize);
  ASSERT_TRUE(mem.WriteU32(kBase + 16, 0xCAFEBABE).ok());
  EXPECT_EQ(mem.ReadU32(kBase + 16).value(), 0xCAFEBABEu);
  ASSERT_TRUE(mem.WriteU64(kBase + 64, 0x1122334455667788ull).ok());
  EXPECT_EQ(mem.ReadU64(kBase + 64).value(), 0x1122334455667788ull);
}

TEST(PhysMem, OutOfRangeRejected) {
  PhysicalMemory mem(kBase, kSize);
  EXPECT_FALSE(mem.ReadU32(kBase - 4).ok());
  EXPECT_FALSE(mem.ReadU32(kBase + kSize).ok());
  EXPECT_FALSE(mem.WriteU32(kBase + kSize - 2, 1).ok());  // straddles end
  uint8_t buf[16];
  EXPECT_FALSE(mem.Read(kBase + kSize - 8, buf, 16).ok());
}

TEST(PhysMem, AccessPolicyGates) {
  PhysicalMemory mem(kBase, kSize);
  int denied = 0;
  mem.SetAccessPolicy([&](uint64_t, uint64_t, bool write,
                          MemAccessOrigin origin) {
    if (origin == MemAccessOrigin::kCpuNormalWorld && write) {
      ++denied;
      return false;
    }
    return true;
  });
  EXPECT_FALSE(
      mem.WriteU32(kBase, 1, MemAccessOrigin::kCpuNormalWorld).ok());
  EXPECT_EQ(denied, 1);
  EXPECT_TRUE(mem.WriteU32(kBase, 1, MemAccessOrigin::kCpuSecureWorld).ok());
  EXPECT_TRUE(mem.ReadU32(kBase, MemAccessOrigin::kCpuNormalWorld).ok());
  EXPECT_TRUE(mem.WriteU32(kBase, 2, MemAccessOrigin::kGpu).ok());
}

TEST(PhysMem, ZeroAllFiresWriteObserversOverTheWholeMemory) {
  PhysicalMemory mem(kBase, kSize);
  ASSERT_TRUE(mem.WriteU32(kBase + 16, 7).ok());
  std::vector<std::pair<uint64_t, uint64_t>> seen;
  int id = mem.AddWriteObserver(
      [&](uint64_t pa, uint64_t len) { seen.emplace_back(pa, len); });
  mem.ZeroAll();
  mem.RemoveWriteObserver(id);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, kBase);
  EXPECT_EQ(seen[0].second, kSize);
  EXPECT_EQ(mem.ReadU32(kBase + 16).value(), 0u);
}

TEST(PhysMem, PageOps) {
  PhysicalMemory mem(kBase, kSize);
  Bytes page(kPageSize, 0x5A);
  ASSERT_TRUE(mem.LoadPage(kBase + kPageSize, page).ok());
  EXPECT_EQ(mem.DumpPage(kBase + kPageSize).value(), page);
  EXPECT_FALSE(mem.LoadPage(kBase + 100, page).ok());  // unaligned
  EXPECT_FALSE(mem.LoadPage(kBase, Bytes(10)).ok());   // short
  EXPECT_FALSE(mem.DumpPage(kBase + 1).ok());
  auto view = mem.PageView(kBase + kPageSize);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value()[0], 0x5A);
}

TEST(PageAllocator, AllocFreeCycle) {
  PageAllocator alloc(kBase, kSize);
  EXPECT_EQ(alloc.total_pages(), kSize / kPageSize);
  uint64_t p1 = alloc.AllocPage().value();
  uint64_t p2 = alloc.AllocPage().value();
  EXPECT_NE(p1, p2);
  EXPECT_EQ(p1 & kPageMask, 0u);
  EXPECT_TRUE(alloc.FreePage(p1).ok());
  EXPECT_FALSE(alloc.FreePage(p1).ok());  // double free
  EXPECT_FALSE(alloc.FreePage(kBase + 3).ok());  // unaligned
}

TEST(PageAllocator, ContiguousRuns) {
  PageAllocator alloc(kBase, kSize);
  uint64_t run = alloc.AllocContiguous(8).value();
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(alloc.FreePage(run + i * kPageSize).ok());
  }
  EXPECT_FALSE(alloc.AllocContiguous(0).ok());
}

TEST(PageAllocator, Exhaustion) {
  PageAllocator alloc(kBase, 4 * kPageSize);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(alloc.AllocPage().ok());
  }
  EXPECT_FALSE(alloc.AllocPage().ok());
  alloc.Reset();
  EXPECT_EQ(alloc.free_pages(), 4u);
  EXPECT_TRUE(alloc.AllocPage().ok());
}

TEST(PageAllocator, DeterministicSequence) {
  PageAllocator a(kBase, kSize), b(kBase, kSize);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.AllocPage().value(), b.AllocPage().value());
  }
}

TEST(PageAllocator, ContiguousSkipsHoles) {
  PageAllocator alloc(kBase, 8 * kPageSize);
  uint64_t p0 = alloc.AllocPage().value();
  uint64_t p1 = alloc.AllocPage().value();
  (void)p0;
  ASSERT_TRUE(alloc.FreePage(p1).ok());
  // One free page at slot 1, then a used slot? Allocate 3 contiguous:
  // must come after the used prefix, not split across the hole.
  uint64_t p2 = alloc.AllocPage().value();  // fills slot 1 again (hint)
  (void)p2;
  uint64_t run = alloc.AllocContiguous(3).value();
  EXPECT_GE(run, kBase + 2 * kPageSize);
}

}  // namespace
}  // namespace grt
