// Kernel golden suite: every GpuOp executed through the full job path
// under both kernel engines (pinned scalar reference vs optimized
// zero-copy/SIMD), asserting bitwise-identical output bytes, identical
// modeled duration (which covers MACs *and* bytes-moved accounting), and
// identical fault behaviour. Shapes include odd/tail sizes, page-crossing
// tensors over physically discontiguous (reversed) pages, unaligned
// bases, in-place operands, and partially-overlapping operands. Values
// include +-0, +-Inf, denormals and NaNs; NaN bit patterns are not pinned
// (kernels.h), so NaN cases compare NaN positions, not NaN bits.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "src/hw/executor.h"

namespace grt {
namespace {

constexpr uint64_t kBase = 0x80000000ull;
constexpr uint64_t kSize = 16 << 20;

// Deterministic pseudo-random tensor data including exact +0.0f and -0.0f
// entries (the GEMM zero-skip treats both as zero; both engines must
// agree).
std::vector<float> TestData(size_t n, uint32_t seed) {
  std::vector<float> v(n);
  uint32_t s = seed * 2654435761u + 12345u;
  for (size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    float f = static_cast<float>(static_cast<int32_t>(s >> 8) % 1000) / 250.0f;
    if (s % 7 == 0) {
      f = 0.0f;
    } else if (s % 11 == 0) {
      f = -0.0f;
    }
    v[i] = f;
  }
  return v;
}

// TestData with about one value in eight replaced by an IEEE special:
// +-Inf, denormals of both signs (down to the smallest), or the largest
// finite float. With `nan`, about one in sixteen more becomes a NaN (quiet
// or signalling, either sign, with and without payload).
std::vector<float> SpecialData(size_t n, uint32_t seed, bool nan) {
  static const uint32_t kSpecials[] = {
      0x7f800000u,  // +Inf
      0xff800000u,  // -Inf
      0x00000001u,  // smallest denormal
      0x80000001u,  // its negation
      0x007fffffu,  // largest denormal
      0x80400000u,  // a negative denormal
      0x7f7fffffu,  // FLT_MAX
  };
  static const uint32_t kNans[] = {0x7fc00000u, 0xffc00000u, 0x7fc00123u,
                                   0xffa00001u};
  std::vector<float> v = TestData(n, seed);
  uint32_t s = seed * 40503u + 977u;
  for (size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    const uint32_t r = s >> 16;
    uint32_t bits = 0;
    if (r % 8 == 0) {
      bits = kSpecials[(r / 8) % 7];
    } else if (nan && r % 16 == 1) {
      bits = kNans[(r / 16) % 4];
    } else {
      continue;
    }
    std::memcpy(&v[i], &bits, sizeof(bits));
  }
  return v;
}

std::vector<float> InfDenormData(size_t n, uint32_t seed) {
  return SpecialData(n, seed, false);
}

std::vector<float> NanData(size_t n, uint32_t seed) {
  return SpecialData(n, seed, true);
}

using DataFn = std::vector<float> (*)(size_t, uint32_t);

// Bare-metal single-engine rig (same shape as the executor_test harness,
// but constructed fresh per engine so each run starts from identical
// memory).
class Rig {
 public:
  explicit Rig(KernelEngine engine)
      : sku_(FindSku(SkuId::kMaliG71Mp8).value()),
        mem_(kBase, kSize),
        alloc_(kBase, kSize),
        builder_(sku_.pt_format, &mem_, &alloc_),
        executor_(sku_, &mem_) {
    EXPECT_TRUE(builder_.Init().ok());
    executor_.set_engine(engine);
  }

  // Maps n_pages at the next free VA. `reversed` maps the VA range onto
  // physically *descending* pages, guaranteeing the span is discontiguous
  // (forces the optimized engine's gather/scatter path).
  uint64_t Map(uint64_t n_pages, PteFlags flags, bool reversed = false) {
    return MapRuns(n_pages, flags, reversed ? 1 : n_pages);
  }

  // Maps n_pages at the next free VA in physically contiguous runs of
  // run_pages pages, the runs in descending physical order, so the span
  // breaks physically every run_pages pages.
  uint64_t MapRuns(uint64_t n_pages, PteFlags flags, uint64_t run_pages) {
    uint64_t va = next_va_;
    std::vector<uint64_t> pas(n_pages);
    for (uint64_t i = 0; i < n_pages; ++i) {
      pas[i] = alloc_.AllocPage().value();
    }
    for (uint64_t i = 0; i < n_pages; ++i) {
      const uint64_t run_start = i / run_pages * run_pages;
      const uint64_t run_len = std::min(run_pages, n_pages - run_start);
      const uint64_t pa =
          pas[n_pages - (run_start + run_len) + (i - run_start)];
      EXPECT_TRUE(builder_.MapPage(va + i * kPageSize, pa, flags).ok());
      pa_of_[va + i * kPageSize] = pa;
    }
    next_va_ += (n_pages + 1) * kPageSize;  // guard gap
    return va;
  }

  void WriteVa(uint64_t va, const void* data, uint64_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t done = 0;
    while (done < len) {
      uint64_t page_va = (va + done) & ~kPageMask;
      uint64_t off = (va + done) & kPageMask;
      uint64_t chunk = std::min<uint64_t>(len - done, kPageSize - off);
      EXPECT_TRUE(mem_.Write(pa_of_[page_va] + off, p + done, chunk).ok());
      done += chunk;
    }
  }

  std::vector<uint8_t> ReadVaBytes(uint64_t va, uint64_t len) {
    std::vector<uint8_t> out(len);
    uint64_t done = 0;
    while (done < len) {
      uint64_t page_va = (va + done) & ~kPageMask;
      uint64_t off = (va + done) & kPageMask;
      uint64_t chunk = std::min<uint64_t>(len - done, kPageSize - off);
      EXPECT_TRUE(mem_.Read(pa_of_[page_va] + off, out.data() + done,
                            chunk).ok());
      done += chunk;
    }
    return out;
  }

  void WriteF32(uint64_t va, const std::vector<float>& v) {
    WriteVa(va, v.data(), v.size() * sizeof(float));
  }

  // Installs a shader + descriptor for `d`; returns the descriptor va.
  uint64_t InstallJob(JobDescriptor d, uint64_t next_job_va = 0) {
    ShaderBlobHeader h;
    h.layout_version = sku_.mem_layout_version;
    h.op = d.op;
    h.core_count = static_cast<uint32_t>(sku_.core_count());
    h.code_len = 256;
    Bytes blob = BuildShaderBlob(h);
    uint64_t shader_va = Map(1, {true, false, true});
    WriteVa(shader_va, blob.data(), blob.size());

    d.layout_version = sku_.mem_layout_version;
    d.shader_va = shader_va;
    d.shader_len = static_cast<uint32_t>(blob.size());
    d.next_job_va = next_job_va;
    uint64_t desc_va = Map(1, {true, false, false});
    Bytes raw = d.Serialize();
    WriteVa(desc_va, raw.data(), raw.size());
    return desc_va;
  }

  ExecResult Execute(uint64_t chain_va) {
    return executor_.ExecuteChain(chain_va, builder_.root_pa(), &tlb_);
  }

 private:
  GpuSku sku_;
  PhysicalMemory mem_;
  PageAllocator alloc_;
  PageTableBuilder builder_;
  ShaderCoreExecutor executor_;
  GpuTlb tlb_;
  uint64_t next_va_ = 0x10000000;
  std::map<uint64_t, uint64_t> pa_of_;
};

struct Prepared {
  uint64_t chain = 0;
  uint64_t out_va = 0;
  uint64_t out_bytes = 0;
};

struct Outcome {
  ExecResult result;
  std::vector<uint8_t> out;
};

// Runs the same scenario on a fresh rig per engine: [0] is the reference
// engine, [1] the optimized one.
template <typename SetupFn>
std::array<Outcome, 2> RunEngines(SetupFn setup) {
  std::array<Outcome, 2> res;
  const KernelEngine engines[2] = {KernelEngine::kReference,
                                   KernelEngine::kOptimized};
  for (int i = 0; i < 2; ++i) {
    Rig rig(engines[i]);
    Prepared p = setup(rig);
    res[i].result = rig.Execute(p.chain);
    if (p.out_bytes > 0) {
      res[i].out = rig.ReadVaBytes(p.out_va, p.out_bytes);
    }
  }
  return res;
}

// Status, fault register content, modeled duration (covers MACs and
// bytes-moved) and job count agree between the engines.
void ExpectStatusParity(const std::array<Outcome, 2>& res) {
  const ExecResult& ref = res[0].result;
  const ExecResult& opt = res[1].result;
  EXPECT_EQ(ref.status.ok(), opt.status.ok())
      << "ref: " << ref.status.ToString() << " opt: " << opt.status.ToString();
  EXPECT_EQ(ref.status.message(), opt.status.message());
  EXPECT_EQ(ref.is_mmu_fault, opt.is_mmu_fault);
  EXPECT_EQ(ref.mmu_fault.status, opt.mmu_fault.status);
  EXPECT_EQ(ref.mmu_fault.address, opt.mmu_fault.address);
  EXPECT_EQ(ref.duration, opt.duration);
  EXPECT_EQ(ref.total_macs, opt.total_macs);
  EXPECT_EQ(ref.jobs_executed, opt.jobs_executed);
}

// Runs the same scenario on a fresh rig per engine and asserts full
// parity: status, fault register content, modeled duration (covers MACs
// and bytes-moved), and bitwise output bytes. Returns both outcomes.
template <typename SetupFn>
std::array<Outcome, 2> ExpectEngineParity(SetupFn setup) {
  std::array<Outcome, 2> res = RunEngines(setup);
  ExpectStatusParity(res);
  EXPECT_EQ(res[0].out, res[1].out) << "output bytes differ";
  return res;
}

float FloatAt(const std::vector<uint8_t>& bytes, size_t i) {
  float f;
  std::memcpy(&f, bytes.data() + i * sizeof(float), sizeof(f));
  return f;
}

// Parity for NaN-bearing inputs, whose NaN bits are not pinned: status
// parity, bitwise equality on every output the reference does not make
// NaN, and NaN exactly where the reference has one. Returns the number of
// NaN outputs.
template <typename SetupFn>
size_t ExpectEngineParityUpToNanBits(SetupFn setup) {
  const std::array<Outcome, 2> res = RunEngines(setup);
  ExpectStatusParity(res);
  EXPECT_EQ(res[0].out.size(), res[1].out.size());
  size_t nans = 0;
  for (size_t i = 0; i < res[0].out.size() / sizeof(float); ++i) {
    if (std::isnan(FloatAt(res[0].out, i))) {
      ++nans;
      EXPECT_TRUE(std::isnan(FloatAt(res[1].out, i))) << "output " << i;
    } else {
      EXPECT_EQ(0, std::memcmp(res[0].out.data() + i * sizeof(float),
                               res[1].out.data() + i * sizeof(float),
                               sizeof(float)))
          << "output " << i;
    }
  }
  return nans;
}

Prepared GemmCase(Rig& rig, uint32_t m, uint32_t k, uint32_t n, bool relu,
                  bool reversed = false, DataFn data = TestData) {
  auto pages = [](size_t floats) {
    return (floats * 4 + kPageSize - 1) / kPageSize;
  };
  uint64_t a = rig.Map(pages(static_cast<size_t>(m) * k) , {true, false, false},
                       reversed);
  uint64_t b = rig.Map(pages(static_cast<size_t>(k) * n), {true, false, false},
                       reversed);
  uint64_t c = rig.Map(pages(static_cast<size_t>(m) * n), {true, true, false},
                       reversed);
  rig.WriteF32(a, data(static_cast<size_t>(m) * k, m * 31 + k));
  rig.WriteF32(b, data(static_cast<size_t>(k) * n, k * 17 + n));
  JobDescriptor d;
  d.op = GpuOp::kGemm;
  if (relu) {
    d.flags = kJobFlagReluFused;
  }
  d.input_va[0] = a;
  d.aux_va = b;
  d.output_va = c;
  d.params = {m, k, n, 0, 0, 0, 0, 0};
  return {rig.InstallJob(d), c, static_cast<uint64_t>(m) * n * 4};
}

// One conv2d job on s = {cin, h, w, cout, kh, kw, stride, pad}.
Prepared ConvCase(Rig& rig, const std::array<uint32_t, 8>& s, bool relu,
                  const std::vector<float>& in_data,
                  const std::vector<float>& wt_data,
                  bool reversed_weights = false) {
  uint32_t cin = s[0], h = s[1], w = s[2], cout = s[3];
  uint32_t kh = s[4], kw = s[5], stride = s[6], pad = s[7];
  uint32_t oh = (h + 2 * pad - kh) / stride + 1;
  uint32_t ow = (w + 2 * pad - kw) / stride + 1;
  size_t out_n = static_cast<size_t>(cout) * oh * ow;
  uint64_t in =
      rig.Map((in_data.size() * 4) / kPageSize + 1, {true, false, false});
  uint64_t wt = rig.Map((wt_data.size() * 4) / kPageSize + 1,
                        {true, false, false}, reversed_weights);
  uint64_t out = rig.Map((out_n * 4) / kPageSize + 1, {true, true, false});
  rig.WriteF32(in, in_data);
  rig.WriteF32(wt, wt_data);
  JobDescriptor d;
  d.op = GpuOp::kConv2d;
  if (relu) {
    d.flags = kJobFlagReluFused;
  }
  d.input_va[0] = in;
  d.aux_va = wt;
  d.output_va = out;
  d.params = {cin, h, w, cout, kh, kw, stride, pad};
  return {rig.InstallJob(d), out, out_n * 4};
}

Prepared ConvCase(Rig& rig, const std::array<uint32_t, 8>& s, bool relu,
                  DataFn data) {
  const size_t in_n = static_cast<size_t>(s[0]) * s[1] * s[2];
  const size_t wt_n = static_cast<size_t>(s[3]) * s[0] * s[4] * s[5];
  return ConvCase(rig, s, relu, data(in_n, s[1] * 3 + s[2]),
                  data(wt_n, s[3] * 13 + s[4]));
}

Prepared PoolCase(Rig& rig, GpuOp op, uint32_t c, uint32_t h, uint32_t w,
                  uint32_t win, uint32_t stride, DataFn data) {
  uint32_t oh = (h - win) / stride + 1;
  uint32_t ow = (w - win) / stride + 1;
  size_t in_n = static_cast<size_t>(c) * h * w;
  size_t out_n = static_cast<size_t>(c) * oh * ow;
  uint64_t in = rig.Map((in_n * 4) / kPageSize + 1, {true, false, false});
  uint64_t out = rig.Map((out_n * 4) / kPageSize + 1, {true, true, false});
  rig.WriteF32(in, data(in_n, c * 5 + win));
  JobDescriptor d;
  d.op = op;
  d.input_va[0] = in;
  d.output_va = out;
  d.params = {c, h, w, win, stride, 0, 0, 0};
  return {rig.InstallJob(d), out, out_n * 4};
}

Prepared BiasReluCase(Rig& rig, uint32_t count, uint32_t bias_len, bool relu,
                      DataFn data) {
  uint64_t x = rig.Map(2, {true, false, false});
  uint64_t b = rig.Map(1, {true, false, false});
  uint64_t out = rig.Map(2, {true, true, false});
  rig.WriteF32(x, data(count, count * 3));
  rig.WriteF32(b, data(bias_len, bias_len + 41));
  JobDescriptor d;
  d.op = GpuOp::kBiasRelu;
  if (relu) {
    d.flags = kJobFlagReluFused;
  }
  d.input_va[0] = x;
  d.aux_va = b;
  d.output_va = out;
  d.params = {count, bias_len, 0, 0, 0, 0, 0, 0};
  return {rig.InstallJob(d), out, static_cast<uint64_t>(count) * 4};
}

Prepared EltwiseAddCase(Rig& rig, uint32_t count, bool relu, DataFn data) {
  uint64_t a = rig.Map(2, {true, false, false});
  uint64_t b = rig.Map(2, {true, false, false});
  uint64_t out = rig.Map(2, {true, true, false});
  rig.WriteF32(a, data(count, count));
  rig.WriteF32(b, data(count, count + 1));
  JobDescriptor d;
  d.op = GpuOp::kEltwiseAdd;
  if (relu) {
    d.flags = kJobFlagReluFused;
  }
  d.input_va[0] = a;
  d.input_va[1] = b;
  d.output_va = out;
  d.params = {count, 0, 0, 0, 0, 0, 0, 0};
  return {rig.InstallJob(d), out, static_cast<uint64_t>(count) * 4};
}

Prepared SoftmaxCase(Rig& rig, uint32_t count, DataFn data) {
  uint64_t x = rig.Map(1, {true, false, false});
  uint64_t out = rig.Map(1, {true, true, false});
  rig.WriteF32(x, data(count, count * 13));
  JobDescriptor d;
  d.op = GpuOp::kSoftmax;
  d.input_va[0] = x;
  d.output_va = out;
  d.params = {count, 0, 0, 0, 0, 0, 0, 0};
  return {rig.InstallJob(d), out, static_cast<uint64_t>(count) * 4};
}

TEST(KernelGolden, GemmOddShapes) {
  const uint32_t shapes[][3] = {{5, 7, 9},  {1, 3, 8},    {4, 1, 6},
                                {3, 5, 1},  {9, 2, 2},    {16, 16, 16},
                                {33, 17, 31}, {37, 29, 1}, {2, 64, 5}};
  for (const auto& s : shapes) {
    for (bool relu : {false, true}) {
      ExpectEngineParity([&](Rig& rig) {
        return GemmCase(rig, s[0], s[1], s[2], relu);
      });
    }
  }
}

TEST(KernelGolden, GemmPageCrossingReversedPages) {
  // 40x40 tensors span 2 pages each; reversed physical order forces the
  // optimized engine onto the gather/scatter path.
  ExpectEngineParity(
      [](Rig& rig) { return GemmCase(rig, 40, 40, 40, true, true); });
}

// ------------------------------------------------ GEMM panels and GEMV
// The optimized GEMM packs B into 8-column panels and runs a 4-row
// register tile over them (n >= 2), or 16 rows in vector lanes (n == 1);
// tail rows and padded columns are computed and never stored. These
// shapes put every n, m and k tail against those widths.

// A with about 40% +-0.0 (both signs): TestData's zeros plus every
// column kk in `dead`, which is all zeros.
std::vector<float> ZeroHeavyA(uint32_t m, uint32_t k,
                              const std::vector<bool>& dead, uint32_t seed) {
  std::vector<float> a = TestData(static_cast<size_t>(m) * k, seed);
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t kk = 0; kk < k; ++kk) {
      if (dead[kk]) {
        a[static_cast<size_t>(i) * k + kk] = (i + kk) % 2 == 0 ? 0.0f : -0.0f;
      }
    }
  }
  return a;
}

// B whose rows kk in `dead` are +-Inf and NaN: the reference skips every
// product of those rows (their av is always 0), so every output stays
// finite only if the optimized kernel skips them too.
std::vector<float> PoisonedB(uint32_t k, uint32_t n,
                             const std::vector<bool>& dead, uint32_t seed) {
  static const uint32_t kPoison[] = {0x7f800000u, 0xff800000u, 0x7fc00000u,
                                     0xffc00123u};
  std::vector<float> b = TestData(static_cast<size_t>(k) * n, seed);
  for (uint32_t kk = 0; kk < k; ++kk) {
    if (!dead[kk]) {
      continue;
    }
    for (uint32_t j = 0; j < n; ++j) {
      std::memcpy(&b[static_cast<size_t>(kk) * n + j], &kPoison[(kk + j) % 4],
                  sizeof(float));
    }
  }
  return b;
}

// One chain of GEMM jobs of m x n outputs: every k in `ks`, relu off and
// on, with finite and with poisoned B. The outputs sit back to back in
// one region, so one comparison covers the chain.
Prepared GemmTailChain(Rig& rig, uint32_t m, uint32_t n,
                       const std::vector<uint32_t>& ks) {
  auto pages = [](size_t floats) {
    return (floats * 4 + kPageSize - 1) / kPageSize;
  };
  struct Job {
    uint32_t k;
    bool relu;
    bool poisoned;
  };
  std::vector<Job> jobs;
  for (uint32_t k : ks) {
    for (bool relu : {false, true}) {
      for (bool poisoned : {false, true}) {
        jobs.push_back({k, relu, poisoned});
      }
    }
  }
  const size_t cn = static_cast<size_t>(m) * n;
  const uint64_t c = rig.Map(pages(cn * jobs.size()), {true, true, false});
  uint64_t next = 0;
  for (size_t j = jobs.size(); j-- > 0;) {
    const Job& job = jobs[j];
    std::vector<bool> dead(job.k);
    for (uint32_t kk = 0; kk < job.k; ++kk) {
      dead[kk] = kk % 4 == 1;
    }
    const uint32_t seed = m * 131 + n * 17 + job.k;
    const uint64_t a = rig.Map(pages(static_cast<size_t>(m) * job.k),
                               {true, false, false});
    const uint64_t b = rig.Map(pages(static_cast<size_t>(job.k) * n),
                               {true, false, false});
    rig.WriteF32(a, ZeroHeavyA(m, job.k, dead, seed));
    rig.WriteF32(b, job.poisoned ? PoisonedB(job.k, n, dead, seed + 1)
                                 : TestData(static_cast<size_t>(job.k) * n,
                                            seed + 1));
    JobDescriptor d;
    d.op = GpuOp::kGemm;
    d.flags = job.relu ? kJobFlagReluFused : 0;
    d.input_va[0] = a;
    d.aux_va = b;
    d.output_va = c + j * cn * 4;
    d.params = {m, job.k, n, 0, 0, 0, 0, 0};
    next = rig.InstallJob(d, next);
  }
  return {next, c, cn * jobs.size() * 4};
}

TEST(KernelGolden, GemmPanelAndGemvTails) {
  const uint32_t ns[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17};
  const uint32_t ms[] = {1, 2, 3, 4, 5, 6, 7, 15, 16, 17, 33};
  const std::vector<uint32_t> ks = {1, 3, 4, 5, 131};
  for (uint32_t n : ns) {
    for (uint32_t m : ms) {
      const auto res = ExpectEngineParity(
          [&](Rig& rig) { return GemmTailChain(rig, m, n, ks); });
      for (size_t i = 0; i < res[0].out.size() / sizeof(float); ++i) {
        ASSERT_TRUE(std::isfinite(FloatAt(res[0].out, i)))
            << "m " << m << " n " << n << " output " << i;
      }
    }
  }
}

// One GEMM job whose A and B are mapped in physically contiguous runs of
// `run_pages` pages (descending), A's base `a_offset` bytes into its
// first page.
Prepared GemmLayoutCase(Rig& rig, uint32_t m, uint32_t k, uint32_t n,
                        uint64_t run_pages, uint64_t a_offset) {
  auto pages = [](uint64_t bytes) {
    return (bytes + kPageSize - 1) / kPageSize;
  };
  const uint64_t a_bytes = static_cast<uint64_t>(m) * k * 4;
  const uint64_t b_bytes = static_cast<uint64_t>(k) * n * 4;
  const uint64_t a = rig.MapRuns(pages(a_bytes + a_offset),
                                 {true, false, false}, run_pages) +
                     a_offset;
  const uint64_t b =
      rig.MapRuns(pages(b_bytes), {true, false, false}, run_pages);
  const uint64_t c = rig.Map(pages(static_cast<uint64_t>(m) * n * 4),
                             {true, true, false});
  rig.WriteF32(a, TestData(static_cast<size_t>(m) * k, m + k));
  rig.WriteF32(b, TestData(static_cast<size_t>(k) * n, k + n));
  JobDescriptor d;
  d.op = GpuOp::kGemm;
  d.flags = kJobFlagReluFused;
  d.input_va[0] = a;
  d.aux_va = b;
  d.output_va = c;
  d.params = {m, k, n, 0, 0, 0, 0, 0};
  return {rig.InstallJob(d), c, static_cast<uint64_t>(m) * n * 4};
}

TEST(KernelGolden, GemmRowsStraddlePageBreaks) {
  // k = 1000: 4000-byte rows of A against 4096-byte pages, so the rows
  // start at a different offset in every page. On reversed pages (a break
  // at every page) nearly every row straddles a break; with 3-page runs
  // some rows are read in place and the rest are copied.
  for (uint32_t n : {1u, 3u, 8u, 9u}) {
    for (uint64_t run : {1u, 3u}) {
      ExpectEngineParity(
          [&](Rig& rig) { return GemmLayoutCase(rig, 21, 1000, n, run, 0); });
    }
    // A +2-byte-unaligned A base: no row of A is a direct view.
    ExpectEngineParity(
        [&](Rig& rig) { return GemmLayoutCase(rig, 9, 1000, n, 3, 2); });
  }
  // An unmapped page in the middle of A's row 2 (bytes 8000-12000): both
  // engines report the same translate fault at that page.
  uint64_t a_va = 0;
  const auto res = ExpectEngineParity([&](Rig& rig) -> Prepared {
    const uint32_t m = 8, k = 1000, n = 2;
    a_va = rig.Map(2, {true, false, false});
    rig.Map(6, {true, false, false});  // resumes after a one-page hole
    const uint64_t b = rig.Map(2, {true, false, false});
    const uint64_t c = rig.Map(1, {true, true, false});
    rig.WriteF32(a_va, TestData(2000, 4));
    rig.WriteF32(b, TestData(static_cast<size_t>(k) * n, 5));
    JobDescriptor d;
    d.op = GpuOp::kGemm;
    d.input_va[0] = a_va;
    d.aux_va = b;
    d.output_va = c;
    d.params = {m, k, n, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), 0, 0};
  });
  EXPECT_TRUE(res[0].result.is_mmu_fault);
  EXPECT_EQ(res[0].result.mmu_fault.status, kFaultTranslation);
  EXPECT_EQ(res[0].result.mmu_fault.address, a_va + 2 * kPageSize);
}

TEST(KernelGolden, GemmZeroDimFaultParity) {
  ExpectEngineParity([](Rig& rig) { return GemmCase(rig, 0, 3, 3, false); });
  ExpectEngineParity([](Rig& rig) { return GemmCase(rig, 3, 0, 3, false); });
}

TEST(KernelGolden, Im2ColShapes) {
  const uint32_t shapes[][7] = {
      // cin, h, w, kh, kw, stride, pad
      {3, 7, 5, 3, 3, 1, 1},  {2, 8, 8, 3, 3, 2, 0}, {1, 5, 5, 1, 1, 1, 0},
      {4, 6, 7, 5, 3, 1, 2},  {2, 9, 9, 3, 3, 3, 1}, {1, 3, 3, 5, 5, 1, 2},
      {3, 16, 16, 3, 3, 1, 1}};
  for (const auto& s : shapes) {
    ExpectEngineParity([&](Rig& rig) -> Prepared {
      uint32_t cin = s[0], h = s[1], w = s[2], kh = s[3], kw = s[4];
      uint32_t stride = s[5], pad = s[6];
      uint32_t oh = (h + 2 * pad - kh) / stride + 1;
      uint32_t ow = (w + 2 * pad - kw) / stride + 1;
      size_t in_n = static_cast<size_t>(cin) * h * w;
      size_t out_n = static_cast<size_t>(cin) * kh * kw * oh * ow;
      uint64_t in = rig.Map((in_n * 4) / kPageSize + 1, {true, false, false});
      uint64_t out = rig.Map((out_n * 4) / kPageSize + 1, {true, true, false});
      rig.WriteF32(in, TestData(in_n, cin * 7 + h));
      JobDescriptor d;
      d.op = GpuOp::kIm2Col;
      d.input_va[0] = in;
      d.output_va = out;
      d.params = {cin, h, w, kh, kw, stride, pad, 0};
      return {rig.InstallJob(d), out, out_n * 4};
    });
  }
}

TEST(KernelGolden, Conv2dShapes) {
  const std::array<uint32_t, 8> shapes[] = {
      // cin, h, w, cout, kh, kw, stride, pad
      {3, 7, 7, 4, 3, 3, 1, 1},  {2, 9, 5, 3, 3, 3, 1, 0},
      {1, 8, 8, 2, 5, 5, 2, 2},  {4, 5, 5, 1, 1, 1, 1, 0},
      {3, 16, 16, 8, 3, 3, 1, 1}, {2, 7, 9, 3, 3, 1, 2, 1}};
  for (const auto& s : shapes) {
    for (bool relu : {false, true}) {
      ExpectEngineParity(
          [&](Rig& rig) { return ConvCase(rig, s, relu, TestData); });
    }
  }
}


TEST(KernelGolden, PoolShapes) {
  const uint32_t shapes[][5] = {// c, h, w, win, stride
                                {3, 7, 5, 3, 2}, {2, 4, 4, 2, 2},
                                {1, 9, 9, 3, 3}, {4, 8, 8, 2, 2},
                                {2, 5, 7, 3, 1}};
  for (const auto& s : shapes) {
    for (GpuOp op : {GpuOp::kPoolMax, GpuOp::kPoolAvg}) {
      ExpectEngineParity([&](Rig& rig) {
        return PoolCase(rig, op, s[0], s[1], s[2], s[3], s[4], TestData);
      });
    }
  }
}


TEST(KernelGolden, BiasReluShapes) {
  const uint32_t shapes[][2] = {// count, bias_len
                                {12, 3}, {7, 7}, {5, 0}, {7, 3},
                                {1, 1},  {1024, 16}, {0, 3}};
  for (const auto& s : shapes) {
    for (bool relu : {false, true}) {
      ExpectEngineParity([&](Rig& rig) {
        return BiasReluCase(rig, s[0], s[1], relu, TestData);
      });
    }
  }
}


TEST(KernelGolden, BiasReluBadShapeFaultParity) {
  // count < bias_len (nonzero): spatial would be 0 — both engines fault
  // identically instead of dividing by zero.
  ExpectEngineParity([](Rig& rig) -> Prepared {
    uint64_t x = rig.Map(1, {true, false, false});
    uint64_t b = rig.Map(1, {true, false, false});
    uint64_t out = rig.Map(1, {true, true, false});
    rig.WriteF32(x, TestData(3, 9));
    rig.WriteF32(b, TestData(8, 10));
    JobDescriptor d;
    d.op = GpuOp::kBiasRelu;
    d.input_va[0] = x;
    d.aux_va = b;
    d.output_va = out;
    d.params = {3, 8, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), 0, 0};
  });
}

TEST(KernelGolden, EltwiseAddOddCounts) {
  for (uint32_t count : {1u, 7u, 51u, 1025u}) {
    for (bool relu : {false, true}) {
      ExpectEngineParity(
          [&](Rig& rig) { return EltwiseAddCase(rig, count, relu, TestData); });
    }
  }
}


TEST(KernelGolden, SoftmaxCounts) {
  for (uint32_t count : {1u, 9u, 100u, 1000u}) {
    ExpectEngineParity(
        [&](Rig& rig) { return SoftmaxCase(rig, count, TestData); });
  }
}


TEST(KernelGolden, CopyAndFill) {
  for (uint32_t count : {1u, 13u, 2000u}) {
    ExpectEngineParity([&](Rig& rig) -> Prepared {
      uint64_t x = rig.Map(2, {true, false, false});
      uint64_t out = rig.Map(2, {true, true, false});
      rig.WriteF32(x, TestData(count, count * 3 + 5));
      JobDescriptor d;
      d.op = GpuOp::kCopy;
      d.input_va[0] = x;
      d.output_va = out;
      d.params = {count, 0, 0, 0, 0, 0, 0, 0};
      return {rig.InstallJob(d), out, static_cast<uint64_t>(count) * 4};
    });
    ExpectEngineParity([&](Rig& rig) -> Prepared {
      uint64_t out = rig.Map(2, {true, true, false});
      float v = -3.25f;
      uint32_t bits;
      std::memcpy(&bits, &v, 4);
      JobDescriptor d;
      d.op = GpuOp::kFill;
      d.output_va = out;
      d.params = {count, bits, 0, 0, 0, 0, 0, 0};
      return {rig.InstallJob(d), out, static_cast<uint64_t>(count) * 4};
    });
  }
}

TEST(KernelGolden, UnalignedBaseForcesGather) {
  // Tensor bases at +2 bytes: translation succeeds but pa % 4 != 0, so
  // the optimized engine must stage through the arena.
  ExpectEngineParity([](Rig& rig) -> Prepared {
    uint32_t count = 300;
    uint64_t a = rig.Map(2, {true, false, false}) + 2;
    uint64_t b = rig.Map(2, {true, false, false}) + 2;
    uint64_t out = rig.Map(2, {true, true, false}) + 2;
    rig.WriteF32(a, TestData(count, 77));
    rig.WriteF32(b, TestData(count, 78));
    JobDescriptor d;
    d.op = GpuOp::kEltwiseAdd;
    d.flags = kJobFlagReluFused;
    d.input_va[0] = a;
    d.input_va[1] = b;
    d.output_va = out;
    d.params = {count, 0, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), out, static_cast<uint64_t>(count) * 4};
  });
}

TEST(KernelGolden, InPlaceOps) {
  // out == in (identical range): elementwise-safe, the optimized engine
  // may run in place but must still match the reference byte-for-byte.
  ExpectEngineParity([](Rig& rig) -> Prepared {  // bias_relu in place
    uint32_t count = 48, bias_len = 4;
    uint64_t x = rig.Map(1, {true, true, false});
    uint64_t b = rig.Map(1, {true, false, false});
    rig.WriteF32(x, TestData(count, 5));
    rig.WriteF32(b, TestData(bias_len, 6));
    JobDescriptor d;
    d.op = GpuOp::kBiasRelu;
    d.flags = kJobFlagReluFused;
    d.input_va[0] = x;
    d.aux_va = b;
    d.output_va = x;
    d.params = {count, bias_len, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), x, static_cast<uint64_t>(count) * 4};
  });
  ExpectEngineParity([](Rig& rig) -> Prepared {  // a += a
    uint32_t count = 65;
    uint64_t x = rig.Map(1, {true, true, false});
    rig.WriteF32(x, TestData(count, 15));
    JobDescriptor d;
    d.op = GpuOp::kEltwiseAdd;
    d.input_va[0] = x;
    d.input_va[1] = x;
    d.output_va = x;
    d.params = {count, 0, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), x, static_cast<uint64_t>(count) * 4};
  });
  ExpectEngineParity([](Rig& rig) -> Prepared {  // softmax in place
    uint32_t count = 33;
    uint64_t x = rig.Map(1, {true, true, false});
    rig.WriteF32(x, TestData(count, 25));
    JobDescriptor d;
    d.op = GpuOp::kSoftmax;
    d.input_va[0] = x;
    d.output_va = x;
    d.params = {count, 0, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), x, static_cast<uint64_t>(count) * 4};
  });
  ExpectEngineParity([](Rig& rig) -> Prepared {  // copy onto itself
    uint32_t count = 21;
    uint64_t x = rig.Map(1, {true, true, false});
    rig.WriteF32(x, TestData(count, 35));
    JobDescriptor d;
    d.op = GpuOp::kCopy;
    d.input_va[0] = x;
    d.output_va = x;
    d.params = {count, 0, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), x, static_cast<uint64_t>(count) * 4};
  });
}

TEST(KernelGolden, PartialOverlapForcesBufferedWrite) {
  // GEMM output range starting inside the B matrix: the reference engine
  // reads everything before writing anything; the optimized engine must
  // buffer the output to reproduce that.
  ExpectEngineParity([](Rig& rig) -> Prepared {
    uint32_t m = 6, k = 5, n = 4;
    uint64_t a = rig.Map(1, {true, false, false});
    uint64_t region = rig.Map(2, {true, true, false});
    uint64_t b = region;
    uint64_t c = region + (static_cast<uint64_t>(k) * n - 2) * 4;
    rig.WriteF32(a, TestData(static_cast<size_t>(m) * k, 81));
    rig.WriteF32(b, TestData(static_cast<size_t>(k) * n, 82));
    JobDescriptor d;
    d.op = GpuOp::kGemm;
    d.input_va[0] = a;
    d.aux_va = b;
    d.output_va = c;
    d.params = {m, k, n, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), c, static_cast<uint64_t>(m) * n * 4};
  });
  // Elementwise partial overlap (out = a shifted by one element).
  ExpectEngineParity([](Rig& rig) -> Prepared {
    uint32_t count = 40;
    uint64_t region = rig.Map(1, {true, true, false});
    uint64_t a = region;
    uint64_t out = region + 4;
    rig.WriteF32(a, TestData(count + 1, 91));
    JobDescriptor d;
    d.op = GpuOp::kEltwiseAdd;
    d.input_va[0] = a;
    d.input_va[1] = a;
    d.output_va = out;
    d.params = {count, 0, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), out, static_cast<uint64_t>(count) * 4};
  });
}

TEST(KernelGolden, WriteFaultParity) {
  // Read-only output: the reference engine faults at the post-compute
  // write, the optimized engine at map time — identical fault register
  // content and modeled duration either way.
  ExpectEngineParity([](Rig& rig) -> Prepared {
    uint32_t count = 16;
    uint64_t x = rig.Map(1, {true, false, false});
    uint64_t out = rig.Map(1, {true, false, false});  // no write permission
    rig.WriteF32(x, TestData(count, 3));
    JobDescriptor d;
    d.op = GpuOp::kCopy;
    d.input_va[0] = x;
    d.output_va = out;
    d.params = {count, 0, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), 0, 0};
  });
}

TEST(KernelGolden, UnmappedTensorFaultParity) {
  // Tensor extends past its mapping into the guard gap: both engines
  // report the translate fault at the same first unmapped VA.
  ExpectEngineParity([](Rig& rig) -> Prepared {
    uint32_t count = 3000;  // 12000 bytes > 2 pages
    uint64_t x = rig.Map(2, {true, false, false});
    uint64_t out = rig.Map(3, {true, true, false});
    JobDescriptor d;
    d.op = GpuOp::kCopy;
    d.input_va[0] = x;
    d.output_va = out;
    d.params = {count, 0, 0, 0, 0, 0, 0, 0};
    return {rig.InstallJob(d), 0, 0};
  });
}

TEST(KernelGolden, ChainedJobsReuseArena) {
  // fill -> gemm -> softmax in one chain: the optimized engine reuses one
  // arena across jobs; results must still match the reference exactly.
  ExpectEngineParity([](Rig& rig) -> Prepared {
    uint32_t m = 9, k = 8, n = 7;
    uint64_t a = rig.Map(1, {true, true, false});
    uint64_t b = rig.Map(1, {true, false, false});
    uint64_t c = rig.Map(1, {true, true, false});
    uint64_t s = rig.Map(1, {true, true, false});
    rig.WriteF32(b, TestData(static_cast<size_t>(k) * n, 57));

    JobDescriptor sm;
    sm.op = GpuOp::kSoftmax;
    sm.input_va[0] = c;
    sm.output_va = s;
    sm.params = {m * n, 0, 0, 0, 0, 0, 0, 0};
    uint64_t third = rig.InstallJob(sm);

    JobDescriptor gm;
    gm.op = GpuOp::kGemm;
    gm.input_va[0] = a;
    gm.aux_va = b;
    gm.output_va = c;
    gm.params = {m, k, n, 0, 0, 0, 0, 0};
    uint64_t second = rig.InstallJob(gm, third);

    JobDescriptor fill;
    fill.op = GpuOp::kFill;
    fill.output_va = a;
    float v = 0.75f;
    uint32_t bits;
    std::memcpy(&bits, &v, 4);
    fill.params = {m * k, bits, 0, 0, 0, 0, 0, 0};
    uint64_t first = rig.InstallJob(fill, second);
    return {first, s, static_cast<uint64_t>(m) * n * 4};
  });
}

// ------------------------------------------------- special values, tails
// Direct-conv shapes at the optimized kernel's register-tile tails: 2x2
// and 4x4 outputs with pad 1, stride 2, channel counts of 1, 9, 10 and 12
// against an 8-channel tile, 15 and 36 pixels against a 4-pixel tile,
// kh != kw, 1x1 windows, and pixels whose whole window is padding.
const std::array<uint32_t, 8> kConvTailShapes[] = {
    // cin, h, w, cout, kh, kw, stride, pad
    {3, 2, 2, 10, 3, 3, 1, 1}, {4, 4, 4, 12, 3, 3, 1, 1},
    {5, 8, 8, 1, 3, 3, 2, 1},  {3, 7, 5, 10, 3, 1, 2, 1},
    {2, 3, 3, 9, 2, 3, 2, 1},  {6, 5, 3, 12, 1, 1, 1, 0},
    {2, 1, 1, 3, 3, 3, 1, 1},  {2, 4, 4, 5, 1, 1, 1, 1}};

TEST(KernelGolden, Conv2dTileTailShapes) {
  for (const auto& s : kConvTailShapes) {
    for (bool relu : {false, true}) {
      ExpectEngineParity(
          [&](Rig& rig) { return ConvCase(rig, s, relu, TestData); });
    }
  }
}

TEST(KernelGolden, Conv2dWeightsOnReversedPages) {
  // 64 input channels x 3x3: 2304-byte weight rows (one per output
  // channel) over physically descending pages, so rows straddle a break
  // at varying offsets and the optimized engine reads the others in
  // place.
  const std::array<uint32_t, 8> s = {64, 4, 4, 16, 3, 3, 1, 1};
  const std::vector<float> in = TestData(64 * 4 * 4, 7);
  const std::vector<float> wt = TestData(16 * 64 * 9, 8);
  for (bool relu : {false, true}) {
    ExpectEngineParity(
        [&](Rig& rig) { return ConvCase(rig, s, relu, in, wt, true); });
  }
}

TEST(KernelGolden, InfAndDenormalValues) {
  for (bool relu : {false, true}) {
    ExpectEngineParity([&](Rig& rig) {
      return GemmCase(rig, 33, 17, 31, relu, false, InfDenormData);
    });
    ExpectEngineParity([&](Rig& rig) {
      return GemmCase(rig, 37, 29, 1, relu, false, InfDenormData);
    });
    for (const auto& s : kConvTailShapes) {
      ExpectEngineParity(
          [&](Rig& rig) { return ConvCase(rig, s, relu, InfDenormData); });
    }
    ExpectEngineParity([&](Rig& rig) {
      return BiasReluCase(rig, 1024, 16, relu, InfDenormData);
    });
    ExpectEngineParity(
        [&](Rig& rig) { return EltwiseAddCase(rig, 1025, relu, InfDenormData); });
  }
  for (GpuOp op : {GpuOp::kPoolMax, GpuOp::kPoolAvg}) {
    ExpectEngineParity([&](Rig& rig) {
      return PoolCase(rig, op, 3, 7, 5, 3, 2, InfDenormData);
    });
  }
  for (uint32_t count : {9u, 1000u}) {
    ExpectEngineParity(
        [&](Rig& rig) { return SoftmaxCase(rig, count, InfDenormData); });
  }
}

TEST(KernelGolden, Conv2dInfWeightsOnPaddedTapsAreSkipped) {
  // Every weight in kernel row ki = 0 is +-Inf. For output row 0 those
  // taps lie in the top padding, which the reference skips, so that row
  // stays finite; a kernel that multiplied padded zeros would get
  // Inf * 0 = NaN there.
  const std::array<uint32_t, 8> s = {2, 4, 4, 12, 3, 3, 1, 1};
  std::vector<float> in = TestData(2 * 4 * 4, 5);
  std::vector<float> wt = TestData(12 * 2 * 3 * 3, 6);
  for (size_t i = 0; i < wt.size(); i += 9) {
    for (size_t kj = 0; kj < 3; ++kj) {
      wt[i + kj] = (i / 9 + kj) % 2 == 0
                       ? std::numeric_limits<float>::infinity()
                       : -std::numeric_limits<float>::infinity();
    }
  }
  for (bool relu : {false, true}) {
    const auto res = ExpectEngineParity(
        [&](Rig& rig) { return ConvCase(rig, s, relu, in, wt); });
    for (uint32_t co = 0; co < 12; ++co) {
      for (uint32_t oj = 0; oj < 4; ++oj) {
        EXPECT_TRUE(std::isfinite(FloatAt(res[0].out, co * 16 + oj)))
            << "co " << co << " oj " << oj;
      }
    }
  }
}

TEST(KernelGolden, NanValuesMatchUpToNanBits) {
  size_t nans = 0;
  for (bool relu : {false, true}) {
    nans += ExpectEngineParityUpToNanBits([&](Rig& rig) {
      return GemmCase(rig, 33, 17, 31, relu, false, NanData);
    });
    nans += ExpectEngineParityUpToNanBits([&](Rig& rig) {
      return GemmCase(rig, 37, 29, 1, relu, false, NanData);
    });
    for (const auto& s : kConvTailShapes) {
      nans += ExpectEngineParityUpToNanBits(
          [&](Rig& rig) { return ConvCase(rig, s, relu, NanData); });
    }
    nans += ExpectEngineParityUpToNanBits([&](Rig& rig) {
      return BiasReluCase(rig, 1024, 16, relu, NanData);
    });
    nans += ExpectEngineParityUpToNanBits(
        [&](Rig& rig) { return EltwiseAddCase(rig, 1025, relu, NanData); });
  }
  for (GpuOp op : {GpuOp::kPoolMax, GpuOp::kPoolAvg}) {
    nans += ExpectEngineParityUpToNanBits(
        [&](Rig& rig) { return PoolCase(rig, op, 3, 7, 5, 3, 2, NanData); });
  }
  for (uint32_t count : {9u, 1000u}) {
    nans += ExpectEngineParityUpToNanBits(
        [&](Rig& rig) { return SoftmaxCase(rig, count, NanData); });
  }
  EXPECT_GT(nans, 0u) << "the NaN data never reached an output";
}

// A window wider than its padded input has no output position; the
// unsigned output-size arithmetic would wrap. Both engines fault on the
// descriptor instead. The operands are one mapped page each: no size is
// derived from the shape.
Prepared WindowJob(Rig& rig, GpuOp op, std::array<uint32_t, 8> params) {
  uint64_t in = rig.Map(1, {true, false, false});
  uint64_t wt = rig.Map(1, {true, false, false});
  uint64_t out = rig.Map(1, {true, true, false});
  rig.WriteF32(in, TestData(1, 3));
  rig.WriteF32(wt, TestData(9, 4));
  JobDescriptor d;
  d.op = op;
  d.input_va[0] = in;
  d.aux_va = wt;
  d.output_va = out;
  d.params = params;
  return {rig.InstallJob(d), 0, 0};
}

TEST(KernelGolden, Conv2dWindowExceedsInputFaultParity) {
  // cin = h = w = 1 under an unpadded 3x3 window.
  const auto res = ExpectEngineParity([](Rig& rig) {
    return WindowJob(rig, GpuOp::kConv2d, {1, 1, 1, 1, 3, 3, 1, 0});
  });
  EXPECT_EQ(res[0].result.status.message(),
            "conv window exceeds padded input");
}

TEST(KernelGolden, Im2ColWindowExceedsInputFaultParity) {
  const auto res = ExpectEngineParity([](Rig& rig) {
    return WindowJob(rig, GpuOp::kIm2Col, {1, 1, 1, 3, 3, 1, 0, 0});
  });
  EXPECT_EQ(res[0].result.status.message(),
            "im2col window exceeds padded input");
}

TEST(KernelGolden, PoolWindowExceedsInputFaultParity) {
  // A 3x3 max-pool window over a 1x1 input.
  const auto res = ExpectEngineParity([](Rig& rig) {
    return WindowJob(rig, GpuOp::kPoolMax, {1, 1, 1, 3, 1, 0, 0, 0});
  });
  EXPECT_EQ(res[0].result.status.message(), "pool window exceeds input");
}

// Shapes whose operands span far past their one mapped page, at sizes no
// host can allocate, or whose size_t float count wraps to a small number.
// Each engine used to size a buffer from the shape first (the reference
// engine's vectors, the optimized engine's arena) and throw
// std::bad_alloc out of ExecuteChain, or, for a wrapped count, size and
// walk a small buffer that the kernel then overran. Both now walk every
// operand, inputs then output, at its true size (saturated past the VA
// space) before sizing anything, and report the translate fault at the
// oversized operand's second page.
TEST(KernelGolden, UnmappableOperandFaultParity) {
  struct Case {
    GpuOp op;
    std::array<uint32_t, 8> params;
    bool output_faults;  // else the first input does
  };
  const Case cases[] = {
      // GEMM m = k = 2^30, n = 1: A is 2^60 floats.
      {GpuOp::kGemm, {1u << 30, 1u << 30, 1, 0, 0, 0, 0, 0}, false},
      // conv2d over one 2^23 x 2^23 channel: 2^46 input floats.
      {GpuOp::kConv2d, {1, 1u << 23, 1u << 23, 1, 1, 1, 1, 0}, false},
      // im2col of a one-float input padded by 2^22: ~2^46 output floats.
      {GpuOp::kIm2Col, {1, 1, 1, 1, 1, 1, 1u << 22, 0}, true},
      // 1x1 max-pool over one 2^23 x 2^23 channel.
      {GpuOp::kPoolMax, {1, 1u << 23, 1u << 23, 1, 1, 0, 0, 0}, false},
      // Input float counts c * h * w = 2^16 * 2^24 * 2^24 that wrap to 0.
      {GpuOp::kPoolMax, {1u << 16, 1u << 24, 1u << 24, 1, 1, 0, 0, 0}, false},
      {GpuOp::kConv2d, {1u << 16, 1u << 24, 1u << 24, 1, 1, 1, 1, 0}, false},
      // A one-float input under a 2^16 x 2^16 window padded to 2^32 - 1:
      // the output count kh * kw * oh * ow wraps to 0.
      {GpuOp::kIm2Col, {1, 1, 1, 1u << 16, 1u << 16, 1, 0x7FFFFFFFu, 0}, true},
  };
  for (const Case& c : cases) {
    // Every fresh rig maps the same VAs, so both engines see these.
    uint64_t in_va = 0;
    uint64_t out_va = 0;
    const auto res = ExpectEngineParity([&](Rig& rig) -> Prepared {
      in_va = rig.Map(1, {true, false, false});
      uint64_t wt = rig.Map(1, {true, false, false});
      out_va = rig.Map(1, {true, true, false});
      JobDescriptor d;
      d.op = c.op;
      d.input_va[0] = in_va;
      d.aux_va = wt;
      d.output_va = out_va;
      d.params = c.params;
      return {rig.InstallJob(d), 0, 0};
    });
    EXPECT_TRUE(res[0].result.is_mmu_fault);
    EXPECT_EQ(res[0].result.mmu_fault.status, kFaultTranslation);
    EXPECT_EQ(res[0].result.mmu_fault.address,
              (c.output_faults ? out_va : in_va) + kPageSize);
  }
}

}  // namespace
}  // namespace grt
