// RecordingStore tests: install/verify/load, rollback protection, sealing,
// and the end-to-end record -> store -> seal/unseal -> replay flow.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/ml/reference.h"
#include "src/record/replayer.h"
#include "src/record/store.h"

namespace grt {
namespace {

Bytes MakeSigned(const std::string& workload, uint64_t nonce,
                 const Bytes& key, SkuId sku = SkuId::kMaliG71Mp8) {
  Recording rec;
  rec.header.workload = workload;
  rec.header.sku = sku;
  rec.header.record_nonce = nonce;
  return rec.SerializeSigned(key);
}

TEST(RecordingStore, InstallAndLoad) {
  Bytes key(32, 5);
  RecordingStore store(key);
  ASSERT_TRUE(store.Install(MakeSigned("mnist", 1, key)).ok());
  EXPECT_TRUE(store.Contains("mnist", SkuId::kMaliG71Mp8));
  EXPECT_FALSE(store.Contains("mnist", SkuId::kMaliG71Mp4));  // per-SKU
  EXPECT_FALSE(store.Contains("vgg16", SkuId::kMaliG71Mp8));
  auto rec = store.Load("mnist", SkuId::kMaliG71Mp8);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->header.record_nonce, 1u);
}

TEST(RecordingStore, RejectsForgedRecordings) {
  Bytes key(32, 5);
  RecordingStore store(key);
  EXPECT_FALSE(store.Install(MakeSigned("mnist", 1, Bytes(32, 6))).ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST(RecordingStore, RollbackProtection) {
  Bytes key(32, 5);
  RecordingStore store(key);
  ASSERT_TRUE(store.Install(MakeSigned("mnist", 5, key)).ok());
  // Older or same nonce: rejected.
  EXPECT_FALSE(store.Install(MakeSigned("mnist", 4, key)).ok());
  EXPECT_FALSE(store.Install(MakeSigned("mnist", 5, key)).ok());
  // Newer: accepted.
  EXPECT_TRUE(store.Install(MakeSigned("mnist", 6, key)).ok());
  EXPECT_EQ(store.Load("mnist", SkuId::kMaliG71Mp8)->header.record_nonce,
            6u);
  EXPECT_EQ(store.size(), 1u);
}

// Stored bytes cross the TEE boundary, so a sealed image can carry an entry
// that no longer verifies. Its nonce is unknown: an install over it must
// fail closed instead of treating the slot as empty, and Remove is the way
// to clear it.
TEST(RecordingStore, CorruptStoredEntryRefusesInstall) {
  Bytes key(32, 5);
  Bytes not_a_recording(64, 0xEE);
  ByteWriter body;
  body.PutString("grt-store-v1");
  body.PutU32(1);
  body.PutString("mnist|" +
                 std::to_string(static_cast<uint32_t>(SkuId::kMaliG71Mp8)));
  body.PutBytes(not_a_recording);
  Bytes body_bytes = body.Take();
  Sha256Digest mac = HmacSha256(key, body_bytes);
  ByteWriter sealed;
  sealed.PutBytes(body_bytes);
  sealed.PutRaw(mac.data(), mac.size());

  auto store = RecordingStore::Unseal(sealed.Take(), key);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(store->size(), 1u);
  EXPECT_FALSE(store->Contains("mnist", SkuId::kMaliG71Mp8));
  EXPECT_FALSE(store->Install(MakeSigned("mnist", 1, key)).ok());
  EXPECT_FALSE(store->Load("mnist", SkuId::kMaliG71Mp8).ok());

  ASSERT_TRUE(store->Remove("mnist", SkuId::kMaliG71Mp8).ok());
  ASSERT_TRUE(store->Install(MakeSigned("mnist", 1, key)).ok());
  EXPECT_EQ(store->Load("mnist", SkuId::kMaliG71Mp8)->header.record_nonce,
            1u);
}

TEST(RecordingStore, RemoveAndMissingEntries) {
  Bytes key(32, 5);
  RecordingStore store(key);
  ASSERT_TRUE(store.Install(MakeSigned("a", 1, key)).ok());
  EXPECT_TRUE(store.Remove("a", SkuId::kMaliG71Mp8).ok());
  EXPECT_FALSE(store.Remove("a", SkuId::kMaliG71Mp8).ok());
  EXPECT_EQ(store.Load("a", SkuId::kMaliG71Mp8).status().code(),
            StatusCode::kNotFound);
}

TEST(RecordingStore, SealUnsealRoundTrip) {
  Bytes key(32, 7);
  RecordingStore store(key);
  ASSERT_TRUE(store.Install(MakeSigned("a", 1, key)).ok());
  ASSERT_TRUE(store.Install(MakeSigned("b", 2, key)).ok());
  Bytes sealed = store.Seal();
  auto restored = RecordingStore::Unseal(sealed, key);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 2u);
  EXPECT_TRUE(restored->Contains("a", SkuId::kMaliG71Mp8));
  EXPECT_TRUE(restored->Contains("b", SkuId::kMaliG71Mp8));
}

TEST(RecordingStore, TamperedSealRejected) {
  Bytes key(32, 7);
  RecordingStore store(key);
  ASSERT_TRUE(store.Install(MakeSigned("a", 1, key)).ok());
  Bytes sealed = store.Seal();
  sealed[sealed.size() / 2] ^= 1;
  EXPECT_FALSE(RecordingStore::Unseal(sealed, key).ok());
  // Wrong key also fails.
  EXPECT_FALSE(RecordingStore::Unseal(store.Seal(), Bytes(32, 8)).ok());
}

TEST(RecordingStore, EveryCorruptedSealByteIsRejected) {
  // Exhaustive tamper sweep: flipping any single byte of the sealed image
  // (framing, bodies, or MAC trailer) must make Unseal fail cleanly — no
  // partial store, no crash, an integrity error every time.
  Bytes key(32, 9);
  RecordingStore store(key);
  ASSERT_TRUE(store.Install(MakeSigned("mnist", 3, key)).ok());
  ASSERT_TRUE(store.Install(MakeSigned("vgg", 4, key)).ok());
  Bytes sealed = store.Seal();
  for (size_t pos = 0; pos < sealed.size(); ++pos) {
    for (uint8_t flip : {0x01, 0x80}) {
      Bytes tampered = sealed;
      tampered[pos] ^= flip;
      auto restored = RecordingStore::Unseal(tampered, key);
      ASSERT_FALSE(restored.ok())
          << "flip 0x" << std::hex << int(flip) << " at byte " << std::dec
          << pos << " survived Unseal";
    }
  }
  // The untampered image still restores.
  EXPECT_TRUE(RecordingStore::Unseal(sealed, key).ok());
}

TEST(RecordingStore, TruncatedSealIsRejected) {
  Bytes key(32, 9);
  RecordingStore store(key);
  ASSERT_TRUE(store.Install(MakeSigned("mnist", 3, key)).ok());
  Bytes sealed = store.Seal();
  for (size_t keep : {size_t{0}, size_t{1}, sealed.size() / 2,
                      sealed.size() - 1}) {
    Bytes truncated(sealed.begin(),
                    sealed.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_FALSE(RecordingStore::Unseal(truncated, key).ok())
        << "truncation to " << keep << " bytes survived Unseal";
  }
}

TEST(RecordingStore, StaleNonceInstallNeverReplacesNewer) {
  // Rollback protection must hold under repeated attack: after any number
  // of stale-install attempts the newest recording is still what loads.
  Bytes key(32, 9);
  RecordingStore store(key);
  ASSERT_TRUE(store.Install(MakeSigned("mnist", 10, key)).ok());
  for (uint64_t stale = 0; stale <= 10; ++stale) {
    Status s = store.Install(MakeSigned("mnist", stale, key));
    EXPECT_FALSE(s.ok()) << "stale nonce " << stale << " accepted";
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(store.size(), 1u);
  auto rec = store.Load("mnist", SkuId::kMaliG71Mp8);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->header.record_nonce, 10u);
  // And the protection survives a seal/unseal cycle.
  auto restored = RecordingStore::Unseal(store.Seal(), key);
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->Install(MakeSigned("mnist", 9, key)).ok());
  EXPECT_EQ(restored->Load("mnist", SkuId::kMaliG71Mp8)->header.record_nonce,
            10u);
}

TEST(RecordingStore, EndToEndRecordStoreReplay) {
  // Record once; install; seal; "reboot"; unseal; replay — the paper's
  // future-executions-without-the-cloud path.
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 173);
  SpeculationHistory history;
  auto m = RunRecordVariant(&device, net, "OursMDS", WifiConditions(),
                            &history, 1);
  ASSERT_TRUE(m.ok());

  RecordingStore store(m->session_key);
  ASSERT_TRUE(store.Install(m->signed_recording).ok());
  Bytes flash = store.Seal();

  auto after_reboot = RecordingStore::Unseal(flash, m->session_key);
  ASSERT_TRUE(after_reboot.ok());
  auto rec = after_reboot->Load(net.name, device.sku().id);
  ASSERT_TRUE(rec.ok());

  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  ASSERT_TRUE(replayer.Load(std::move(rec.value())).ok());
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      ASSERT_TRUE(
          replayer.StageTensor(t.name, GenerateParams(net.name, t, 7)).ok());
    }
  }
  std::vector<float> input = GenerateInput(net, 21);
  ASSERT_TRUE(replayer.StageTensor("input", input).ok());
  ASSERT_TRUE(replayer.Replay().ok());
  auto out = replayer.ReadTensor(net.output_tensor);
  auto ref = RunReference(net, input, 7);
  ASSERT_TRUE(out.ok() && ref.ok());
  EXPECT_LT(MaxAbsDiff(*out, *ref), 1e-4f);
}

}  // namespace
}  // namespace grt
