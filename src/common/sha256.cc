#include "src/common/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/common/sha256_internal.h"

namespace grt {
namespace {

constexpr std::array<uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void CompressPortable(uint32_t* state, const uint8_t* data, size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
// The same compression on the SHA extensions. The state lives in two
// registers in the instructions' order, ABEF and CDGH. Each sha256rnds2 runs
// two rounds on the low two words of its message operand, so a quad-round
// issues it twice; msg1 and msg2 extend the 16-word schedule to 64 words four
// at a time, m[q % 4] holding the quad-round q's words.
__attribute__((target("sha,sse4.1"))) void CompressShaExtensions(
    uint32_t* state, const uint8_t* data, size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      if (q < 4) {
        m[q] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * q)),
            kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          m[q % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * q])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (q >= 3 && q < 15) {
        // Words of quad-round q + 1: m[(q + 1) % 4] already holds msg1 of
        // quad-round q - 3 with q - 2.
        __m128i& next = m[(q + 1) % 4];
        next =
            _mm_add_epi32(next, _mm_alignr_epi8(m[q % 4], m[(q + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, m[q % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (q >= 1 && q < 13) {
        m[(q + 3) % 4] = _mm_sha256msg1_epu32(m[(q + 3) % 4], m[q % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

}  // namespace

namespace sha256_internal {

BlockFunction Portable() { return {"portable", &CompressPortable}; }

BlockFunction ShaExtensions() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return {"x86-sha", &CompressShaExtensions};
  }
#endif
  return {"x86-sha", nullptr};
}

const BlockFunction& Chosen() {
  static const BlockFunction chosen = [] {
    BlockFunction fast = ShaExtensions();
    return fast.compress != nullptr ? fast : Portable();
  }();
  return chosen;
}

}  // namespace sha256_internal

Sha256::Sha256() : Sha256(sha256_internal::Chosen().compress) {}

Sha256::Sha256(CompressFn compress) : compress_(compress) { Reset(); }

void Sha256::Reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  block_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(const void* data, size_t n) {
  if (n == 0) {
    return;
  }
  const auto* p = static_cast<const uint8_t*>(data);
  total_len_ += n;
  if (block_len_ > 0) {
    const size_t take = std::min(n, block_.size() - block_len_);
    std::memcpy(block_.data() + block_len_, p, take);
    block_len_ += take;
    p += take;
    n -= take;
    if (block_len_ < block_.size()) {
      return;
    }
    compress_(state_.data(), block_.data(), 1);
    block_len_ = 0;
  }
  const size_t whole = n / block_.size();
  if (whole > 0) {
    compress_(state_.data(), p, whole);
    p += whole * block_.size();
    n -= whole * block_.size();
  }
  if (n > 0) {
    std::memcpy(block_.data(), p, n);
    block_len_ = n;
  }
}

Sha256Digest Sha256::Finish() {
  // Padding: 0x80, zeros up to 56 bytes mod 64, then the message length in
  // bits as a big-endian 64-bit word.
  const uint64_t bit_len = total_len_ * 8;
  block_[block_len_++] = 0x80;
  if (block_len_ > 56) {
    std::memset(block_.data() + block_len_, 0, block_.size() - block_len_);
    compress_(state_.data(), block_.data(), 1);
    block_len_ = 0;
  }
  std::memset(block_.data() + block_len_, 0, 56 - block_len_);
  for (int i = 0; i < 8; ++i) {
    block_[56 + i] = static_cast<uint8_t>(bit_len >> (8 * (7 - i)));
  }
  compress_(state_.data(), block_.data(), 1);

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  Reset();
  return out;
}

Sha256Digest Sha256::Hash(const void* data, size_t n) {
  Sha256 h;
  h.Update(data, n);
  return h.Finish();
}

namespace sha256_internal {

Sha256Digest HmacWith(const BlockFunction& fn, const Bytes& key,
                      const Bytes& message) {
  std::array<uint8_t, 64> k{};
  if (key.size() > 64) {
    Sha256With kh(fn);
    kh.Update(key);
    Sha256Digest kd = kh.Finish();
    std::memcpy(k.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }

  std::array<uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256With inner(fn);
  inner.Update(ipad.data(), ipad.size());
  inner.Update(message);
  Sha256Digest inner_digest = inner.Finish();

  Sha256With outer(fn);
  outer.Update(opad.data(), opad.size());
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

}  // namespace sha256_internal

Sha256Digest HmacSha256(const Bytes& key, const Bytes& message) {
  return sha256_internal::HmacWith(sha256_internal::Chosen(), key, message);
}

std::string DigestToHex(const Sha256Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace grt
