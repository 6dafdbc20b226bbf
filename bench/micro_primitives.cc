// Micro-benchmarks (google-benchmark) of the primitives on GR-T's hot
// paths: range coder, delta codec, SHA-256/HMAC, CRC-32, symbolic-expression
// evaluation, page-table walks, and wire serialization.
#include <benchmark/benchmark.h>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/sha256.h"
#include "src/compress/delta.h"
#include "src/compress/range_coder.h"
#include "src/driver/regvalue.h"
#include "src/hw/mmu.h"
#include "src/mem/phys_mem.h"
#include "src/shim/wire.h"

namespace grt {
namespace {

Bytes MakeSparsePage(double density, uint64_t seed) {
  Rng rng(seed);
  Bytes page(kPageSize, 0);
  for (auto& b : page) {
    if (rng.NextBool(density)) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
  }
  return page;
}

void BM_RangeEncodeSparsePage(benchmark::State& state) {
  Bytes page = MakeSparsePage(state.range(0) / 100.0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RangeEncode(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_RangeEncodeSparsePage)->Arg(1)->Arg(10)->Arg(50);

void BM_RangeRoundTrip(benchmark::State& state) {
  Bytes page = MakeSparsePage(0.05, 2);
  for (auto _ : state) {
    Bytes enc = RangeEncode(page);
    benchmark::DoNotOptimize(RangeDecode(enc));
  }
}
BENCHMARK(BM_RangeRoundTrip);

void BM_ZeroRleEncode(benchmark::State& state) {
  Bytes page = MakeSparsePage(0.02, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZeroRleEncode(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_ZeroRleEncode);

void BM_XorDelta(benchmark::State& state) {
  Bytes a = MakeSparsePage(0.5, 4);
  Bytes b = a;
  b[100] ^= 0xFF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(XorDelta(a, b));
  }
}
BENCHMARK(BM_XorDelta);

void BM_HmacSha256Commit(benchmark::State& state) {
  Bytes key(32, 0x42);
  Bytes payload(300, 0xA5);  // typical commit payload size (§7.1)
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, payload));
  }
}
BENCHMARK(BM_HmacSha256Commit);

// One pass over a recording-sized blob, as the store and the signature
// checks run at set-up.
void BM_Sha256Blob(benchmark::State& state) {
  Rng rng(3);
  Bytes blob(4 << 20);
  for (auto& b : blob) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(blob));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_Sha256Blob);

// The per-page CRC of a record session's job-start snapshot.
void BM_Crc32Page(benchmark::State& state) {
  Bytes page = MakeSparsePage(0.5, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(page.data(), page.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_Crc32Page);

void BM_SymExprEval(benchmark::State& state) {
  // (S1 | 0x10) & ~(S2 << 3), resolved.
  SymNodePtr s1 = MakeReadNode(1, 0x100);
  s1->resolved = true;
  s1->value = 0xFF;
  SymNodePtr s2 = MakeReadNode(2, 0x104);
  s2->resolved = true;
  s2->value = 0x3;
  SymNodePtr expr = MakeOpNode(
      SymOp::kAnd, MakeOpNode(SymOp::kOr, s1, MakeConstNode(0x10)),
      MakeOpNode(SymOp::kShl, s2, MakeConstNode(3)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalSym(expr));
  }
}
BENCHMARK(BM_SymExprEval);

void BM_PageTableWalk(benchmark::State& state) {
  PhysicalMemory mem(0x80000000, 16 * 1024 * 1024);
  PageAllocator alloc(0x80000000, 16 * 1024 * 1024);
  PageTableBuilder builder(PageTableFormat::kFormatA, &mem, &alloc);
  (void)builder.Init();
  uint64_t pa = alloc.AllocPage().value();
  (void)builder.MapPage(0x10000000, pa, PteFlags{true, true, false});
  MmuWalker walker(PageTableFormat::kFormatA, &mem);
  MmuFault fault;
  for (auto _ : state) {
    // No TLB: measure the raw three-level walk.
    benchmark::DoNotOptimize(
        walker.Translate(builder.root_pa(), 0x10000123, nullptr, &fault));
  }
}
BENCHMARK(BM_PageTableWalk);

void BM_CommitBatchSerialize(benchmark::State& state) {
  CommitBatchMsg msg;
  msg.seq = 42;
  for (int i = 0; i < 4; ++i) {
    BatchItem read;
    read.is_write = false;
    read.reg = 0x100 + 4 * i;
    msg.items.push_back(read);
    BatchItem write;
    write.is_write = true;
    write.reg = 0x200 + 4 * i;
    write.expr = {{BatchItem::Token::Kind::kSlot, static_cast<uint32_t>(i)},
                  {BatchItem::Token::Kind::kConst, 0x10},
                  {BatchItem::Token::Kind::kOr, 0}};
    msg.items.push_back(write);
  }
  for (auto _ : state) {
    Bytes wire = msg.Serialize();
    benchmark::DoNotOptimize(CommitBatchMsg::Deserialize(wire));
  }
}
BENCHMARK(BM_CommitBatchSerialize);

}  // namespace
}  // namespace grt

BENCHMARK_MAIN();
