// SHA-256 and HMAC-SHA256, implemented from the FIPS 180-4 spec.
//
// Used by the TEE/cloud session layer: recordings are signed (HMAC under the
// session key) by the cloud and verified by the replayer in the client TEE
// (§3.2, §7.1). A from-scratch implementation keeps the simulation free of
// external dependencies.
//
// Set-up hashes every recording several times (signing, verifying, and the
// store's re-hash on load), so Update() feeds whole 64-byte blocks straight
// from the caller's buffer to one block function; only a partial head or
// tail is copied. That function is chosen once per process: the x86 SHA
// extensions where the CPU has them, otherwise the portable FIPS 180-4
// rounds (sha256_internal.h exposes both to the tests). Both produce the
// same digests; there is no switch between them.
#ifndef GRT_SRC_COMMON_SHA256_H_
#define GRT_SRC_COMMON_SHA256_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>

#include "src/common/bytes.h"

namespace grt {

using Sha256Digest = std::array<uint8_t, 32>;

// Incremental SHA-256.
class Sha256 {
 public:
  // A block function: the compression function over `nblocks` consecutive
  // 64-byte blocks at `data`, updating the eight state words in place.
  using CompressFn = void (*)(uint32_t* state, const uint8_t* data,
                              size_t nblocks);

  Sha256();

  void Reset();
  void Update(const void* data, size_t n);
  void Update(const Bytes& b) { Update(b.data(), b.size()); }
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(const void* data, size_t n);
  static Sha256Digest Hash(const Bytes& b) { return Hash(b.data(), b.size()); }

 protected:
  // For sha256_internal.h's test seam, which picks the block function.
  explicit Sha256(CompressFn compress);

 private:
  CompressFn compress_;
  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> block_;  // buffered partial block
  size_t block_len_ = 0;
  uint64_t total_len_ = 0;
};

// HMAC-SHA256 per RFC 2104.
Sha256Digest HmacSha256(const Bytes& key, const Bytes& message);

// Lowercase hex string of a digest, for logs and recording headers.
std::string DigestToHex(const Sha256Digest& d);

}  // namespace grt

#endif  // GRT_SRC_COMMON_SHA256_H_
