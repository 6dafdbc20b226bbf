// Satellite: property-based round-trip tests for recording format v2.
//
// A seeded generator composes random — but verifier-clean — recordings
// (random headers, bindings, and interaction logs drawn from the grammar
// the static analyzer accepts) and checks the container format properties
// the rest of the system relies on:
//   * serialize -> deserialize -> re-serialize is byte-stable,
//   * the static verifier accepts the recording before and after a trip,
//   * the signed envelope round-trips under the right key and is refused
//     under the wrong key or after any single-byte tamper.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/verifier.h"
#include "src/common/rng.h"
#include "src/hw/regs.h"
#include "src/mem/phys_mem.h"
#include "src/record/recording.h"
#include "src/sku/sku.h"

namespace grt {
namespace {

constexpr int kGeneratedRecordings = 60;

// Registers safe for random reads: not SKU-identity (whose values the
// sku-compat pass pins), not nondeterministic (timestamps/counters).
constexpr uint32_t kReadableRegs[] = {
    kRegGpuIrqRawstat, kRegGpuIrqStatus, kRegGpuStatus, kRegJobIrqRawstat,
    kRegGpuFaultStatus};

// Registers safe for random writes: interrupt mask/clear plumbing with no
// protocol state machine attached.
constexpr uint32_t kWritableRegs[] = {kRegGpuIrqMask, kRegGpuIrqClear,
                                      kRegJobIrqMask, kRegJobIrqClear};

LogEntry RandomEntry(Rng* rng, const GpuSku& sku) {
  LogEntry e;
  switch (rng->NextBelow(7)) {
    case 0: {  // plain register write
      e.op = LogOp::kRegWrite;
      e.reg = kWritableRegs[rng->NextBelow(std::size(kWritableRegs))];
      e.value = rng->NextU32();
      break;
    }
    case 1: {  // power-domain write, masked to cores the SKU has
      e.op = LogOp::kRegWrite;
      e.reg = kRegShaderPwrOnLo;
      e.value = rng->NextU32() & sku.shader_present;
      break;
    }
    case 2: {  // register read (validated at replay; never speculative)
      e.op = LogOp::kRegRead;
      e.reg = kReadableRegs[rng->NextBelow(std::size(kReadableRegs))];
      e.value = rng->NextU32();
      e.speculative = false;
      break;
    }
    case 3: {  // poll whose recorded final value satisfies its predicate
      e.op = LogOp::kPollWait;
      e.reg = kRegGpuIrqRawstat;
      e.mask = rng->NextU32() | 1u;  // nonzero
      e.expected = rng->NextU32() & e.mask;
      e.value = (rng->NextU32() & ~e.mask) | e.expected;
      break;
    }
    case 4: {  // positive delay
      e.op = LogOp::kDelay;
      e.delay = static_cast<Duration>(1 + rng->NextBelow(1000000));
      break;
    }
    case 5: {  // interrupt wait on known lines
      e.op = LogOp::kIrqWait;
      e.irq_lines = static_cast<uint8_t>(1 + rng->NextBelow(kIrqLinesAll));
      break;
    }
    default: {  // page image: aligned, exactly one page of random bytes
      e.op = LogOp::kMemPage;
      e.pa = 0x80000000ull + rng->NextBelow(16384) * kPageSize;
      e.metastate = rng->NextBool(0.5);
      e.data.resize(kPageSize);
      for (auto& b : e.data) {
        b = static_cast<uint8_t>(rng->NextU32());
      }
      break;
    }
  }
  return e;
}

Recording RandomRecording(uint64_t seed) {
  Rng rng(seed ^ 0xF0F0A5A5ull);
  auto sku_result = FindSku(SkuId::kMaliG71Mp8);
  const GpuSku& sku = sku_result.value();

  Recording rec;
  rec.header.workload = "fuzz-" + std::to_string(seed);
  rec.header.sku = SkuId::kMaliG71Mp8;
  rec.header.record_nonce = rng.NextU64();
  rec.header.segment_index = 0;
  rec.header.segment_count = 1;

  int n_bindings = static_cast<int>(rng.NextBelow(4));
  for (int i = 0; i < n_bindings; ++i) {
    TensorBinding b;
    b.va = (1 + rng.NextBelow(1 << 20)) * 16ull;
    b.n_floats = 1 + rng.NextBelow(4096);
    int n_pages = static_cast<int>(1 + rng.NextBelow(4));
    for (int p = 0; p < n_pages; ++p) {
      b.pages.push_back(0x80000000ull + rng.NextBelow(16384) * kPageSize);
    }
    b.writable_at_replay = rng.NextBool(0.5);
    rec.bindings["t" + std::to_string(i)] = std::move(b);
  }

  // The register-protocol pass requires a reset before anything exciting;
  // every generated log opens with one, like real recordings do.
  LogEntry reset;
  reset.op = LogOp::kRegWrite;
  reset.reg = kRegGpuCommand;
  reset.value = kGpuCommandSoftReset;
  rec.log.Add(std::move(reset));

  int n_entries = static_cast<int>(1 + rng.NextBelow(120));
  for (int i = 0; i < n_entries; ++i) {
    rec.log.Add(RandomEntry(&rng, sku));
  }
  return rec;
}

TEST(FormatPropertyTest, GeneratedRecordingsAreVerifierClean) {
  for (uint64_t seed = 1; seed <= kGeneratedRecordings; ++seed) {
    Recording rec = RandomRecording(seed);
    Status v = VerifyRecording(rec);
    EXPECT_TRUE(v.ok()) << "seed " << seed << ": " << v.ToString();
  }
}

TEST(FormatPropertyTest, BodySerializationIsByteStableAcrossRoundTrips) {
  for (uint64_t seed = 1; seed <= kGeneratedRecordings; ++seed) {
    Recording rec = RandomRecording(seed);
    Bytes body = rec.SerializeBody();
    auto parsed = Recording::ParseUnsigned(body);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->SerializeBody(), body) << "seed " << seed;
    // And the trip preserved verifier-cleanliness.
    EXPECT_TRUE(VerifyRecording(*parsed).ok()) << "seed " << seed;
  }
}

TEST(FormatPropertyTest, RoundTripPreservesStructure) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Recording rec = RandomRecording(seed);
    auto parsed = Recording::ParseUnsigned(rec.SerializeBody());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->header.workload, rec.header.workload);
    EXPECT_EQ(parsed->header.record_nonce, rec.header.record_nonce);
    EXPECT_EQ(parsed->header.sku, rec.header.sku);
    EXPECT_EQ(parsed->bindings.size(), rec.bindings.size());
    ASSERT_EQ(parsed->log.size(), rec.log.size());
    for (size_t i = 0; i < rec.log.size(); ++i) {
      const LogEntry& a = rec.log.entries()[i];
      const LogEntry& b = parsed->log.entries()[i];
      EXPECT_EQ(a.op, b.op);
      EXPECT_EQ(a.reg, b.reg);
      EXPECT_EQ(a.value, b.value);
      EXPECT_EQ(a.data, b.data);
    }
  }
}

TEST(FormatPropertyTest, SignedEnvelopeRoundTripsUnderTheRightKeyOnly) {
  Bytes key(32, 0x2B), wrong_key(32, 0x2C);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Recording rec = RandomRecording(seed);
    Bytes wire = rec.SerializeSigned(key);
    auto ok = Recording::ParseSigned(wire, key);
    EXPECT_TRUE(ok.ok()) << "seed " << seed;
    auto bad = Recording::ParseSigned(wire, wrong_key);
    EXPECT_FALSE(bad.ok()) << "seed " << seed;
  }
}

TEST(FormatPropertyTest, AnySingleByteTamperIsRejected) {
  Bytes key(32, 0x2B);
  Recording rec = RandomRecording(3);
  Bytes wire = rec.SerializeSigned(key);
  // Sampled positions (every 97th byte) spanning header, log, and MAC.
  for (size_t pos = 0; pos < wire.size(); pos += 97) {
    Bytes tampered = wire;
    tampered[pos] ^= 0x40;
    auto parsed = Recording::ParseSigned(tampered, key);
    EXPECT_FALSE(parsed.ok()) << "tamper at byte " << pos << " not caught";
  }
}

TEST(FormatPropertyTest, InteractionLogSerializationRoundTrips) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Recording rec = RandomRecording(seed);
    Bytes raw = rec.log.Serialize();
    auto log = InteractionLog::Deserialize(raw);
    ASSERT_TRUE(log.ok()) << "seed " << seed;
    EXPECT_EQ(log->Serialize(), raw) << "seed " << seed;
  }
}

}  // namespace
}  // namespace grt
