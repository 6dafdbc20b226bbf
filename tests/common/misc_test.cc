// Tests for clock, hash, and rng primitives.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace grt {
namespace {

TEST(Clock, AdvanceIsMonotonic) {
  Timeline t("x");
  EXPECT_EQ(t.now(), 0);
  t.Advance(100);
  EXPECT_EQ(t.now(), 100);
  t.Advance(-50);  // negative advances are ignored
  EXPECT_EQ(t.now(), 100);
  t.AdvanceTo(50);  // never moves backwards
  EXPECT_EQ(t.now(), 100);
  t.AdvanceTo(500);
  EXPECT_EQ(t.now(), 500);
}

TEST(Clock, UnitConversions) {
  EXPECT_EQ(FromMilliseconds(1.0), kMillisecond);
  EXPECT_EQ(FromSeconds(2.0), 2 * kSecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(kSecond), 1000.0);
}

TEST(Clock, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(2 * kSecond), "2.000 s");
  EXPECT_EQ(FormatDuration(3 * kMillisecond), "3.000 ms");
  EXPECT_EQ(FormatDuration(4 * kMicrosecond), "4.000 us");
  EXPECT_EQ(FormatDuration(5), "5 ns");
}

TEST(Hash, Crc32KnownVectors) {
  // "123456789" -> 0xCBF43926 (IEEE CRC-32 check value).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Hash, Crc32Discriminates) {
  EXPECT_NE(Crc32("abc", 3), Crc32("abd", 3));
}

// One byte through the reflected polynomial a bit at a time: the oracle the
// table-driven Crc32 must match. The register is kept uninverted, so the
// CRC of the bytes so far is ~reg.
uint32_t CrcBytewiseStep(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1) ? (0xEDB88320u ^ (reg >> 1)) : (reg >> 1);
  }
  return reg;
}

std::vector<uint8_t> RandomBuffer(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint8_t> b(n);
  for (auto& x : b) {
    x = static_cast<uint8_t>(rng.NextU32());
  }
  return b;
}

TEST(Hash, Crc32MatchesBytewiseOracle) {
  constexpr size_t kMaxLen = 4200;
  const std::vector<uint8_t> buf = RandomBuffer(0xC4C32, kMaxLen + 8);
  for (size_t off = 0; off < 8; ++off) {
    uint32_t reg = 0xFFFFFFFFu;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(buf.data() + off, len), ~reg)
          << "offset " << off << ", length " << len;
      if (len < kMaxLen) {
        reg = CrcBytewiseStep(reg, buf[off + len]);
      }
    }
  }
}

TEST(Hash, Crc32ChainsThroughItsSeed) {
  const std::vector<uint8_t> buf = RandomBuffer(0xC4A1, 4200);
  Rng rng(0x5EED);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t start = rng.NextBelow(8);
    const size_t n = rng.NextBelow(buf.size() - start + 1);
    const size_t na = rng.NextBelow(n + 1);
    const uint8_t* a = buf.data() + start;
    ASSERT_EQ(Crc32(a + na, n - na, Crc32(a, na)), Crc32(a, n))
        << "start " << start << ", split " << na << " of " << n;
  }
}

TEST(Hash, FnvDeterministicAndSensitive) {
  EXPECT_EQ(Fnv1a("hello"), Fnv1a("hello"));
  EXPECT_NE(Fnv1a("hello"), Fnv1a("hellp"));
  uint64_t h = kFnvOffset;
  EXPECT_NE(FnvMix(h, 1), FnvMix(h, 2));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.NextU64() == b.NextU64());
  }
  EXPECT_EQ(same, 0);
}

class RngRangeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngRangeTest, BoundsRespected) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    float f = rng.NextFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
    float g = rng.NextFloat(-2.0f, 3.0f);
    EXPECT_GE(g, -2.0f);
    EXPECT_LT(g, 3.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngRangeTest,
                         ::testing::Values(1, 7, 123, 98765));

TEST(Rng, FloatDistributionRoughlyUniform) {
  Rng rng(9);
  double sum = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.NextFloat();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

}  // namespace
}  // namespace grt
