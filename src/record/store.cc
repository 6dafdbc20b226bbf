#include "src/record/store.h"

#include "src/analysis/verifier.h"
#include "src/common/sha256.h"

namespace grt {

std::string RecordingStore::KeyOf(const std::string& workload, SkuId sku) {
  return workload + "|" + std::to_string(static_cast<uint32_t>(sku));
}

Status RecordingStore::Install(const Bytes& signed_recording) {
  GRT_ASSIGN_OR_RETURN(Recording rec,
                       Recording::ParseSigned(signed_recording, key_));
  // Admission gate: never persist a recording the replayer would have to
  // refuse — the sealed store must hold only statically-valid recordings.
  GRT_RETURN_IF_ERROR(VerifyRecording(rec));
  std::lock_guard<std::mutex> lock(*mu_);
  std::string k = KeyOf(rec.header.workload, rec.header.sku);
  auto it = entries_.find(k);
  if (it != entries_.end()) {
    // Only accept strictly newer recordings for the same identity (a
    // rolled-back recording could reintroduce a withdrawn computation). A
    // stored entry that no longer verifies refuses the install too: its
    // nonce is unknown, and treating it as absent would let any nonce in.
    // Remove() is the explicit way to replace it.
    GRT_ASSIGN_OR_RETURN(Recording existing,
                         Recording::ParseSigned(it->second, key_));
    if (existing.header.record_nonce >= rec.header.record_nonce) {
      return FailedPrecondition(
          "an equal-or-newer recording is already installed");
    }
  }
  entries_[k] = signed_recording;
  ++version_;
  return OkStatus();
}

Result<Recording> RecordingStore::Load(const std::string& workload,
                                       SkuId sku) const {
  std::lock_guard<std::mutex> lock(*mu_);
  GRT_ASSIGN_OR_RETURN(std::shared_ptr<const Recording> rec,
                       LoadSharedLocked(workload, sku, nullptr));
  return *rec;
}

Result<std::shared_ptr<const Recording>> RecordingStore::LoadShared(
    const std::string& workload, SkuId sku, Sha256Digest* out_digest) const {
  std::lock_guard<std::mutex> lock(*mu_);
  return LoadSharedLocked(workload, sku, out_digest);
}

Result<std::shared_ptr<const Recording>> RecordingStore::LoadSharedLocked(
    const std::string& workload, SkuId sku, Sha256Digest* out_digest) const {
  std::string k = KeyOf(workload, sku);
  auto it = entries_.find(k);
  if (it == entries_.end()) {
    return NotFound("no recording for '" + workload + "' on this SKU");
  }
  // Stored bytes are outside the TCB at rest, so a load must never trust
  // them blindly — but re-running the HMAC and a full parse on EVERY load
  // is per-replay waste. Instead, prove the bytes unchanged since the last
  // verified parse (SHA-256 comparison) and reuse that verdict; any byte
  // flip misses the cache and takes the full ParseSigned path, which
  // rejects tampering exactly as before.
  Sha256Digest digest = Sha256::Hash(it->second);
  if (out_digest != nullptr) {
    *out_digest = digest;
  }
  auto cached = parse_cache_.find(k);
  if (cached != parse_cache_.end() && cached->second.digest == digest) {
    return cached->second.parsed;
  }
  GRT_ASSIGN_OR_RETURN(Recording rec, Recording::ParseSigned(it->second, key_));
  auto parsed = std::make_shared<const Recording>(std::move(rec));
  parse_cache_[k] = ParseCacheEntry{digest, parsed};
  return parsed;
}

bool RecordingStore::Contains(const std::string& workload, SkuId sku) const {
  std::lock_guard<std::mutex> lock(*mu_);
  return LoadSharedLocked(workload, sku, nullptr).ok();
}

Status RecordingStore::Remove(const std::string& workload, SkuId sku) {
  std::lock_guard<std::mutex> lock(*mu_);
  if (entries_.erase(KeyOf(workload, sku)) == 0) {
    return NotFound("no such recording");
  }
  parse_cache_.erase(KeyOf(workload, sku));
  ++version_;
  return OkStatus();
}

Bytes RecordingStore::Seal() const {
  std::lock_guard<std::mutex> lock(*mu_);
  ByteWriter w;
  w.PutString("grt-store-v1");
  w.PutU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [k, bytes] : entries_) {
    w.PutString(k);
    w.PutBytes(bytes);
  }
  Bytes body = w.Take();
  Sha256Digest mac = HmacSha256(key_, body);
  ByteWriter sealed;
  sealed.PutBytes(body);
  sealed.PutRaw(mac.data(), mac.size());
  return sealed.Take();
}

Result<RecordingStore> RecordingStore::Unseal(const Bytes& sealed,
                                              Bytes key) {
  ByteReader r(sealed);
  GRT_ASSIGN_OR_RETURN(Bytes body, r.ReadBytes());
  Sha256Digest mac;
  GRT_RETURN_IF_ERROR(r.ReadRaw(mac.data(), mac.size()));
  if (HmacSha256(key, body) != mac) {
    return IntegrityViolation("sealed store authentication failed");
  }

  ByteReader br(body);
  GRT_ASSIGN_OR_RETURN(std::string magic, br.ReadString());
  if (magic != "grt-store-v1") {
    return IntegrityViolation("bad store magic");
  }
  RecordingStore store(std::move(key));
  GRT_ASSIGN_OR_RETURN(uint32_t n, br.ReadU32());
  for (uint32_t i = 0; i < n; ++i) {
    GRT_ASSIGN_OR_RETURN(std::string k, br.ReadString());
    GRT_ASSIGN_OR_RETURN(Bytes bytes, br.ReadBytes());
    store.entries_[k] = std::move(bytes);
  }
  return store;
}

}  // namespace grt
