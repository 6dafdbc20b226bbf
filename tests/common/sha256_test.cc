#include "src/common/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sha256_internal.h"

namespace grt {
namespace {

using sha256_internal::BlockFunction;
using sha256_internal::Sha256With;

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(nullptr, 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc", 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(DigestToHex(Sha256::Hash(msg, 56)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog and more";
  Sha256 h;
  for (char c : msg) {
    h.Update(&c, 1);
  }
  EXPECT_EQ(h.Finish(), Sha256::Hash(msg.data(), msg.size()));
}

// RFC 4231 test case 2.
TEST(Hmac, Rfc4231Case2) {
  Bytes key = {'J', 'e', 'f', 'e'};
  std::string msg = "what do ya want for nothing?";
  Bytes message(msg.begin(), msg.end());
  EXPECT_EQ(DigestToHex(HmacSha256(key, message)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  std::string msg = "Hi There";
  Bytes message(msg.begin(), msg.end());
  EXPECT_EQ(DigestToHex(HmacSha256(key, message)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 6 (key longer than block size).
TEST(Hmac, LongKeyIsHashed) {
  Bytes key(131, 0xaa);
  std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  Bytes message(msg.begin(), msg.end());
  EXPECT_EQ(DigestToHex(HmacSha256(key, message)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDiffer) {
  Bytes m = {1, 2, 3};
  EXPECT_NE(HmacSha256(Bytes(32, 1), m), HmacSha256(Bytes(32, 2), m));
}

TEST(Hmac, DifferentMessagesDiffer) {
  Bytes key(32, 7);
  EXPECT_NE(HmacSha256(key, {1, 2, 3}), HmacSha256(key, {1, 2, 4}));
}

// ---- The two block functions --------------------------------------------
//
// Sha256 runs one block function per process (sha256_internal::Chosen()).
// These tests drive each function this CPU can run through the production
// buffering and padding code: each must reproduce the published vectors and
// match an explicitly padded oracle, so the two agree on every message
// below. On a CPU without the SHA extensions only the portable function
// runs, and its vector cases say so by skipping.

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes b(n);
  for (auto& x : b) {
    x = static_cast<uint8_t>(rng.NextU32());
  }
  return b;
}

Sha256Digest HashWith(const BlockFunction& fn, const void* data, size_t n) {
  Sha256With h(fn);
  h.Update(data, n);
  return h.Finish();
}

// The digest by explicit FIPS 180-4 padding of the whole message and one
// call of the portable block function: no buffering, no incremental Finish.
Sha256Digest PaddedOracle(const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0);
  }
  const uint64_t bits = uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  sha256_internal::Portable().compress(state, padded.data(),
                                       padded.size() / 64);
  Sha256Digest out;
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

constexpr char kNoShaExtensions[] =
    "this CPU has no SHA extensions: only the portable block function was "
    "tested";

TEST(Sha256BlockFunction, ChosenIsOneOfTheTwo) {
  const BlockFunction& chosen = sha256_internal::Chosen();
  const BlockFunction sha = sha256_internal::ShaExtensions();
  ASSERT_NE(chosen.compress, nullptr);
  EXPECT_EQ(chosen.compress, sha.compress != nullptr
                                 ? sha.compress
                                 : sha256_internal::Portable().compress);
  // CI logs show which function this host's suite exercised.
  std::printf("SHA-256 block function: %s\n", chosen.name);
}

class Sha256Vectors : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    fn_ = GetParam() ? sha256_internal::ShaExtensions()
                     : sha256_internal::Portable();
    if (fn_.compress == nullptr) {
      GTEST_SKIP() << kNoShaExtensions;
    }
  }
  std::string Hex(const std::string& msg) {
    return DigestToHex(HashWith(fn_, msg.data(), msg.size()));
  }
  std::string Hmac(const Bytes& key, const std::string& msg) {
    return DigestToHex(
        sha256_internal::HmacWith(fn_, key, Bytes(msg.begin(), msg.end())));
  }

  BlockFunction fn_{};
};

// FIPS 180-4 / NIST examples.
TEST_P(Sha256Vectors, Fips180Examples) {
  EXPECT_EQ(Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  Sha256With h(fn_);
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// RFC 4231 test cases 1, 2 and 6 (the key longer than a block is hashed).
TEST_P(Sha256Vectors, Rfc4231Hmac) {
  EXPECT_EQ(Hmac(Bytes(20, 0x0b), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(Hmac({'J', 'e', 'f', 'e'}, "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(Hmac(Bytes(131, 0xaa),
                 "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

INSTANTIATE_TEST_SUITE_P(BlockFunctions, Sha256Vectors, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "ShaExtensions" : "Portable";
                         });

// The block functions this CPU can run: the portable one, and the SHA
// extensions where present.
std::vector<BlockFunction> RunnableBlockFunctions() {
  std::vector<BlockFunction> fns = {sha256_internal::Portable()};
  if (sha256_internal::ShaExtensions().compress != nullptr) {
    fns.push_back(sha256_internal::ShaExtensions());
  }
  return fns;
}

TEST(Sha256BlockFunction, EveryLengthUpTo1100MatchesPaddedOracle) {
  Rng rng(0x0AC1E);
  for (size_t n = 0; n <= 1100; ++n) {
    const Bytes msg = RandomBytes(rng, n);
    const Sha256Digest want = PaddedOracle(msg);
    for (const BlockFunction& fn : RunnableBlockFunctions()) {
      ASSERT_EQ(HashWith(fn, msg.data(), n), want)
          << fn.name << ", length " << n;
    }
  }
}

TEST(Sha256BlockFunction, A4MbMessageMatchesPaddedOracle) {
  Rng rng(0x4D8);
  const Bytes msg = RandomBytes(rng, 4 << 20);
  const Sha256Digest want = PaddedOracle(msg);
  for (const BlockFunction& fn : RunnableBlockFunctions()) {
    EXPECT_EQ(HashWith(fn, msg.data(), msg.size()), want) << fn.name;
  }
}

// Each message is fed as a head that leaves 1-63 bytes buffered, then a run
// of several whole blocks (which must first complete and flush the buffered
// block), then random pieces. Every split must give the one-shot digest.
TEST(Sha256BlockFunction, SplitUpdatesMatchOneShot) {
  Rng rng(0x5B117);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t head = 64 * rng.NextBelow(3) + 1 + rng.NextBelow(63);
    const size_t run = 64 * (2 + rng.NextBelow(6)) + rng.NextBelow(64);
    const Bytes msg = RandomBytes(rng, head + run + rng.NextBelow(300));
    const Sha256Digest want = PaddedOracle(msg);
    for (const BlockFunction& fn : RunnableBlockFunctions()) {
      Sha256With h(fn);
      h.Update(msg.data(), head);
      h.Update(msg.data() + head, run);
      size_t at = head + run;
      while (at < msg.size()) {
        const size_t piece = std::min<size_t>(msg.size() - at,
                                              rng.NextBelow(150));
        h.Update(msg.data() + at, piece);
        at += piece;
      }
      ASSERT_EQ(h.Finish(), want) << fn.name << ", trial " << trial
                                  << ", head " << head << ", run " << run;
    }
  }
}

}  // namespace
}  // namespace grt
