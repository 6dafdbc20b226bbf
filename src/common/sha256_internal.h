// The SHA-256 block functions behind Sha256, visible to tests so that both
// can be run on the same messages. This is a test seam, not a configuration
// point: Sha256 always uses Chosen(), which is fixed once per process.
#ifndef GRT_SRC_COMMON_SHA256_INTERNAL_H_
#define GRT_SRC_COMMON_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "src/common/sha256.h"

namespace grt::sha256_internal {

using CompressFn = Sha256::CompressFn;

struct BlockFunction {
  const char* name;
  CompressFn compress;  // nullptr when this host cannot run it
};

// The FIPS 180-4 rounds in portable C++; runs on every host.
BlockFunction Portable();

// The x86 SHA extensions; `compress` is nullptr on other architectures and
// on CPUs without them.
BlockFunction ShaExtensions();

// The block function every Sha256 in this process uses: the SHA extensions
// where the CPU has them, otherwise the portable rounds.
const BlockFunction& Chosen();

// A Sha256 whose blocks go to `fn` instead of Chosen(): the buffering,
// padding and HMAC code are the production ones whichever function runs.
class Sha256With : public Sha256 {
 public:
  explicit Sha256With(const BlockFunction& fn) : Sha256(fn.compress) {}
};

// HmacSha256 on `fn`.
Sha256Digest HmacWith(const BlockFunction& fn, const Bytes& key,
                      const Bytes& message);

}  // namespace grt::sha256_internal

#endif  // GRT_SRC_COMMON_SHA256_INTERNAL_H_
