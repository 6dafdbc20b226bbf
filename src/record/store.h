// RecordingStore: the client TEE's persistent recording cache.
//
// §3.1: after the one-time dry run, "for actual executions of the ML
// workload, the client TEE replays the recorded CPU/GPU interactions on
// new input; it no longer invokes the cloud." The store holds downloaded,
// signed recordings keyed by (workload, SKU), re-verifies the signature on
// every load (the flash contents cross the TEE boundary), and persists to
// a single blob the TEE can seal to storage.
#ifndef GRT_SRC_RECORD_STORE_H_
#define GRT_SRC_RECORD_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/sha256.h"
#include "src/common/status.h"
#include "src/record/recording.h"

namespace grt {

class RecordingStore {
 public:
  // `key` authenticates both individual recordings and the sealed image.
  explicit RecordingStore(Bytes key) : key_(std::move(key)) {}

  // Installs a signed recording (e.g. fresh from a record session).
  // Verifies before accepting; replaces an existing entry for the same
  // (workload, SKU) only if the nonce is newer. An existing entry that fails
  // verification refuses the install (its nonce cannot be trusted); Remove
  // it first to replace it.
  Status Install(const Bytes& signed_recording);

  // Loads and re-verifies a recording for this workload + device SKU.
  Result<Recording> Load(const std::string& workload, SkuId sku) const;

  // Like Load, but returns a shared parse. Repeated loads of unchanged
  // bytes hit a digest-keyed cache: the HMAC check and full parse ran once
  // when those exact bytes were first admitted, and a SHA-256 of the blob
  // proves the bytes have not changed since — the cached verdict stands.
  // The serving engine loads plans through this to avoid per-worker
  // reparsing. `digest` (optional) receives the SHA-256 of the stored
  // signed bytes — the identity the serving engine keys its plan cache by.
  Result<std::shared_ptr<const Recording>> LoadShared(
      const std::string& workload, SkuId sku,
      Sha256Digest* digest = nullptr) const;

  // True if a verified entry exists.
  bool Contains(const std::string& workload, SkuId sku) const;

  Status Remove(const std::string& workload, SkuId sku);

  size_t size() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return entries_.size();
  }

  // Monotonic mutation counter: bumped by every successful Install or
  // Remove. Stored bytes cannot change without passing through those
  // methods, so a caller that cached a digest at version V may keep using
  // it — skipping the per-load re-hash — for as long as version() == V.
  // The serving engine's warm path rides on this.
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return version_;
  }

  // Seals the whole store into one authenticated blob / restores it.
  Bytes Seal() const;
  static Result<RecordingStore> Unseal(const Bytes& sealed, Bytes key);

 private:
  struct ParseCacheEntry {
    Sha256Digest digest{};  // of the signed bytes the parse came from
    std::shared_ptr<const Recording> parsed;
  };

  static std::string KeyOf(const std::string& workload, SkuId sku);

  // Implementation of LoadShared; `mu_` must be held.
  Result<std::shared_ptr<const Recording>> LoadSharedLocked(
      const std::string& workload, SkuId sku, Sha256Digest* out_digest) const;

  // Serving workers resolve recordings concurrently; the store's maps
  // (including the mutable parse cache) are guarded by one mutex. Heap-
  // allocated so the store stays movable (Unseal returns by value); a
  // moved-from store is never used again.
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  uint64_t version_ = 0;
  Bytes key_;
  std::map<std::string, Bytes> entries_;  // (workload|sku) -> signed bytes
  // Verified-parse cache; consulted only when the stored bytes still hash
  // to the digest recorded at verification time.
  mutable std::map<std::string, ParseCacheEntry> parse_cache_;
};

}  // namespace grt

#endif  // GRT_SRC_RECORD_STORE_H_
