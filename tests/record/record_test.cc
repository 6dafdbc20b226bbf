// Record-module tests: log entry serialization (property sweep over entry
// kinds), recording container signing, and binding resolution.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/hw/regs.h"
#include "src/record/log.h"
#include "src/record/recording.h"

namespace grt {
namespace {

LogEntry RandomEntry(Rng* rng) {
  LogEntry e;
  switch (rng->NextBelow(6)) {
    case 0:
      e.op = LogOp::kRegWrite;
      e.reg = rng->NextU32() & 0x3FFC;
      e.value = rng->NextU32();
      break;
    case 1:
      e.op = LogOp::kRegRead;
      e.reg = rng->NextU32() & 0x3FFC;
      e.value = rng->NextU32();
      e.speculative = rng->NextBool();
      break;
    case 2:
      e.op = LogOp::kPollWait;
      e.reg = rng->NextU32() & 0x3FFC;
      e.mask = rng->NextU32();
      e.expected = rng->NextU32() & e.mask;
      e.value = rng->NextU32();
      break;
    case 3:
      e.op = LogOp::kDelay;
      e.delay = static_cast<Duration>(rng->NextBelow(kSecond));
      break;
    case 4:
      e.op = LogOp::kIrqWait;
      e.irq_lines = static_cast<uint8_t>(1 + rng->NextBelow(kIrqLinesAll));
      break;
    default: {
      e.op = LogOp::kMemPage;
      e.pa = 0x80000000 + rng->NextBelow(1024) * 4096;
      e.metastate = rng->NextBool();
      e.data.resize(64 + rng->NextBelow(128));
      for (auto& b : e.data) {
        b = static_cast<uint8_t>(rng->NextU32());
      }
      break;
    }
  }
  return e;
}

bool EntriesEqual(const LogEntry& a, const LogEntry& b) {
  return a.op == b.op && a.reg == b.reg && a.value == b.value &&
         a.mask == b.mask && a.expected == b.expected &&
         a.irq_lines == b.irq_lines && a.delay == b.delay && a.pa == b.pa &&
         a.metastate == b.metastate && a.speculative == b.speculative &&
         a.data == b.data;
}

class LogProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogProperty, RandomLogRoundTrips) {
  Rng rng(GetParam());
  InteractionLog log;
  for (int i = 0; i < 200; ++i) {
    log.Add(RandomEntry(&rng));
  }
  auto parsed = InteractionLog::Deserialize(log.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_TRUE(EntriesEqual(parsed->entries()[i], log.entries()[i]))
        << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogProperty,
                         ::testing::Values(1, 17, 99, 4242));

TEST(Log, CountsByKind) {
  InteractionLog log;
  LogEntry w;
  w.op = LogOp::kRegWrite;
  log.Add(w);
  log.Add(w);
  LogEntry r;
  r.op = LogOp::kRegRead;
  log.Add(r);
  EXPECT_EQ(log.CountOf(LogOp::kRegWrite), 2u);
  EXPECT_EQ(log.CountOf(LogOp::kRegRead), 1u);
  EXPECT_EQ(log.CountOf(LogOp::kIrqWait), 0u);
}

TEST(Log, PatchReadValue) {
  InteractionLog log;
  LogEntry r;
  r.op = LogOp::kRegRead;
  r.value = 1;
  r.speculative = true;
  log.Add(r);
  LogEntry w;
  w.op = LogOp::kRegWrite;
  log.Add(w);
  EXPECT_TRUE(log.PatchReadValue(0, 42).ok());
  EXPECT_EQ(log.entries()[0].value, 42u);
  EXPECT_FALSE(log.entries()[0].speculative);  // patching validates the read
  EXPECT_FALSE(log.PatchReadValue(1, 5).ok());  // not a read
  EXPECT_FALSE(log.PatchReadValue(9, 5).ok());  // out of range
}

// Regression: non-read entries must be rejected with a descriptive status
// (code and message identify the entry and its actual kind), not silently
// patched or met with a generic error.
TEST(Log, PatchReadValueRejectsNonReadsDescriptively) {
  InteractionLog log;
  LogEntry w;
  w.op = LogOp::kRegWrite;
  log.Add(w);
  LogEntry d;
  d.op = LogOp::kDelay;
  d.delay = 5;
  log.Add(d);

  Status not_read = log.PatchReadValue(0, 7);
  EXPECT_EQ(not_read.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(not_read.message().find("entry 0"), std::string::npos)
      << not_read.message();
  EXPECT_NE(not_read.message().find("reg-write"), std::string::npos)
      << not_read.message();

  Status not_read2 = log.PatchReadValue(1, 7);
  EXPECT_EQ(not_read2.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(not_read2.message().find("delay"), std::string::npos)
      << not_read2.message();

  Status oob = log.PatchReadValue(5, 7);
  EXPECT_EQ(oob.code(), StatusCode::kOutOfRange);
  EXPECT_NE(oob.message().find("index 5"), std::string::npos) << oob.message();
  // The log is untouched on every failure path.
  EXPECT_EQ(log.entries()[0].value, 0u);
}

TEST(Log, ConfirmReadValueClearsSpeculativeMark) {
  InteractionLog log;
  LogEntry r;
  r.op = LogOp::kRegRead;
  r.value = 9;
  r.speculative = true;
  log.Add(r);
  LogEntry w;
  w.op = LogOp::kRegWrite;
  log.Add(w);

  EXPECT_TRUE(log.ConfirmReadValue(0).ok());
  EXPECT_FALSE(log.entries()[0].speculative);
  EXPECT_EQ(log.entries()[0].value, 9u);  // value untouched, only the mark
  EXPECT_EQ(log.ConfirmReadValue(1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.ConfirmReadValue(2).code(), StatusCode::kOutOfRange);
}

TEST(Log, SpeculativeMarkRoundTrips) {
  InteractionLog log;
  LogEntry r;
  r.op = LogOp::kRegRead;
  r.reg = kRegGpuId;
  r.value = 3;
  r.speculative = true;
  log.Add(r);
  auto parsed = InteractionLog::Deserialize(log.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->entries()[0].speculative);
}

TEST(Log, CorruptTagRejected) {
  InteractionLog log;
  LogEntry w;
  w.op = LogOp::kRegWrite;
  log.Add(w);
  Bytes raw = log.Serialize();
  raw[4] = 0xEE;  // entry tag
  EXPECT_FALSE(InteractionLog::Deserialize(raw).ok());
}

Recording SampleRecording() {
  Recording rec;
  rec.header.workload = "mnist";
  rec.header.sku = SkuId::kMaliG71Mp8;
  rec.header.record_nonce = 77;
  TensorBinding b;
  b.va = 0x10000000;
  b.n_floats = 100;
  b.pages = {0x80001000, 0x80002000};
  b.writable_at_replay = true;
  rec.bindings["input"] = b;
  LogEntry e;
  e.op = LogOp::kRegWrite;
  e.reg = JobSlotRegister(0, kJsCommandNext);
  e.value = 1;
  rec.log.Add(e);
  return rec;
}

TEST(Recording, SignedRoundTrip) {
  Recording rec = SampleRecording();
  Bytes key(32, 0x42);
  auto parsed = Recording::ParseSigned(rec.SerializeSigned(key), key);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.workload, "mnist");
  EXPECT_EQ(parsed->header.sku, SkuId::kMaliG71Mp8);
  EXPECT_EQ(parsed->header.record_nonce, 77u);
  ASSERT_EQ(parsed->bindings.count("input"), 1u);
  EXPECT_EQ(parsed->bindings.at("input").pages.size(), 2u);
  EXPECT_TRUE(parsed->bindings.at("input").writable_at_replay);
  EXPECT_EQ(parsed->log.size(), 1u);
}

TEST(Recording, WrongKeyRejected) {
  Recording rec = SampleRecording();
  Bytes wire = rec.SerializeSigned(Bytes(32, 1));
  EXPECT_FALSE(Recording::ParseSigned(wire, Bytes(32, 2)).ok());
}

class RecordingTamper : public ::testing::TestWithParam<size_t> {};

TEST_P(RecordingTamper, AnyFlippedByteRejected) {
  Recording rec = SampleRecording();
  Bytes key(32, 0x42);
  Bytes wire = rec.SerializeSigned(key);
  size_t pos = GetParam() % wire.size();
  wire[pos] ^= 0x80;
  auto parsed = Recording::ParseSigned(wire, key);
  EXPECT_FALSE(parsed.ok());
}

INSTANTIATE_TEST_SUITE_P(Positions, RecordingTamper,
                         ::testing::Values(6, 20, 40, 80, 120, 150));

TEST(Recording, BadMagicRejected) {
  Recording rec = SampleRecording();
  rec.header.magic = 0x12345678;
  EXPECT_FALSE(Recording::ParseUnsigned(rec.SerializeBody()).ok());
}

TEST(Recording, UnsupportedVersionRejected) {
  // v4 headers carry a provenance block that v5 no longer has.
  for (uint32_t version : {4u, 99u}) {
    Recording rec = SampleRecording();
    rec.header.version = version;
    auto parsed = Recording::ParseUnsigned(rec.SerializeBody());
    ASSERT_FALSE(parsed.ok()) << "version " << version;
    EXPECT_EQ(parsed.status().code(), StatusCode::kIntegrityViolation)
        << "version " << version;
  }
}

}  // namespace
}  // namespace grt
