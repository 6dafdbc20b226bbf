// Kernel microbenchmark: the shader-core kernel library (src/hw/kernels)
// measured directly on host buffers, reference vs optimized, with
// network-representative shapes. Reports GFLOP/s for the MAC kernels and
// GB/s for the bandwidth kernels, plus the opt/ref speedup per shape.
//
// Every case first checks that the optimized kernel's output is
// bitwise-identical to the reference's (memcmp over the float buffers) —
// a perf number for a kernel that diverged would be meaningless, and the
// bitwise contract is the whole point of the engine design.
//
// `--smoke` runs small shapes of every op, enforces the bitwise check, and
// exits nonzero on divergence — scripts/ci.sh runs it so a kernel change
// that breaks bit-identity fails fast without waiting for the full
// replay-level gates. No speedup gate here: micro shapes on a loaded CI
// host are too noisy; the enforced wall-clock gate lives in
// bench/replay_serving where the kernels run in their real context.
//
// The full mode writes BENCH_kernel_bench.json into the current directory
// unless given `--out`; --smoke writes JSON only to an `--out` path, so a
// smoke run never replaces the committed full-mode file.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/harness/table.h"
#include "src/hw/kernels.h"

namespace grt {
namespace {

constexpr int kReps = 7;  // min-of-N per engine

// Deterministic pseudo-random fill with exact zeros sprinkled in (about
// 22%, including -0.0f) so the GEMM zero-skip paths are exercised.
std::vector<float> TestData(size_t n, uint64_t seed) {
  std::vector<float> v(n);
  uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    if (s % 7 == 0) {
      v[i] = 0.0f;
    } else if (s % 11 == 0) {
      v[i] = -0.0f;
    } else {
      v[i] = static_cast<float>(static_cast<int64_t>(s >> 33) % 2048 - 1024) /
             256.0f;
    }
  }
  return v;
}

// Network-like dense data, as src/ml generates it: uniform in [lo, hi)
// with no exact zeros (weights use He-style bounds, activations [0, 1)).
std::vector<float> DenseData(size_t n, uint64_t seed, float lo, float hi) {
  std::vector<float> v(n);
  uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const float u = static_cast<float>((s >> 40) + 1) / 16777217.0f;
    v[i] = lo + (hi - lo) * u;
  }
  return v;
}

// The row table the executor hands the optimized kernels for a tensor
// stored contiguously.
std::vector<const float*> RowTable(const std::vector<float>& v, size_t rows) {
  std::vector<const float*> t(rows);
  const size_t len = rows == 0 ? 0 : v.size() / rows;
  for (size_t r = 0; r < rows; ++r) {
    t[r] = v.data() + r * len;
  }
  return t;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CaseResult {
  std::string name;
  double flops = 0;       // per run; 0 for bandwidth-only kernels
  double bytes = 0;       // per run (read + written)
  double ref_seconds = 0;
  double opt_seconds = 0;
  bool bitwise_identical = false;

  double speedup() const {
    return opt_seconds == 0 ? 0.0 : ref_seconds / opt_seconds;
  }
  double opt_gflops() const {
    return opt_seconds == 0 ? 0.0 : flops / opt_seconds / 1e9;
  }
  double opt_gbps() const {
    return opt_seconds == 0 ? 0.0 : bytes / opt_seconds / 1e9;
  }
};

// Times `ref` and `opt` (min of kReps each), checks the outputs are
// bitwise identical, and returns the filled row. Both run on the same
// inputs; each run fully overwrites the output buffer.
template <typename RefFn, typename OptFn>
CaseResult RunCase(const std::string& name, double flops, double bytes,
                   std::vector<float>* out_ref, std::vector<float>* out_opt,
                   RefFn ref, OptFn opt) {
  CaseResult r;
  r.name = name;
  r.flops = flops;
  r.bytes = bytes;
  ref(out_ref->data());  // warm caches + page in buffers
  opt(out_opt->data());
  r.bitwise_identical =
      out_ref->size() == out_opt->size() &&
      std::memcmp(out_ref->data(), out_opt->data(),
                  out_ref->size() * sizeof(float)) == 0;
  for (int i = 0; i < kReps; ++i) {
    double t0 = NowSeconds();
    ref(out_ref->data());
    double t = NowSeconds() - t0;
    if (i == 0 || t < r.ref_seconds) r.ref_seconds = t;
  }
  for (int i = 0; i < kReps; ++i) {
    double t0 = NowSeconds();
    opt(out_opt->data());
    double t = NowSeconds() - t0;
    if (i == 0 || t < r.opt_seconds) r.opt_seconds = t;
  }
  return r;
}

std::vector<CaseResult> RunAll(bool smoke) {
  std::vector<CaseResult> results;

  // GEMM: conv-lowered shape (cout x cin*kh*kw patch matrix), a
  // fully-connected classifier tail, and the skinny n=1 vector case, on
  // zero-sprinkled data; then the shapes the networks run (vgg16's FC
  // GEMV and stage-5 n=4 GEMM, the 64x576x64 of resnet12 and vgg16) on
  // dense network-like data, and one with Inf in B, which takes the
  // kernel's zero-skip select. --smoke covers a tile with row and column
  // tails and a GEMV with row and k tails.
  enum class Fill { kZeros, kDense, kInfB };
  struct GemmShape {
    uint32_t m, k, n;
    Fill fill;
  };
  std::vector<GemmShape> gemms =
      smoke ? std::vector<GemmShape>{{17, 33, 9, Fill::kZeros},
                                     {7, 13, 5, Fill::kZeros},
                                     {37, 29, 1, Fill::kZeros}}
            : std::vector<GemmShape>{{256, 1152, 64, Fill::kZeros},
                                     {512, 2048, 1, Fill::kZeros},
                                     {2048, 2048, 8, Fill::kZeros},
                                     {2048, 2048, 1, Fill::kDense},
                                     {128, 1152, 4, Fill::kDense},
                                     {64, 576, 64, Fill::kDense},
                                     {64, 576, 64, Fill::kInfB}};
  for (const GemmShape& g : gemms) {
    std::vector<float> a, b;
    if (g.fill == Fill::kZeros) {
      a = TestData(size_t{g.m} * g.k, 1);
      b = TestData(size_t{g.k} * g.n, 2);
    } else {
      const float bound = std::sqrt(6.0f / static_cast<float>(g.k));
      a = DenseData(size_t{g.m} * g.k, 1, -bound, bound);
      b = DenseData(size_t{g.k} * g.n, 2, 0.0f, 1.0f);
    }
    if (g.fill == Fill::kInfB) {
      // Every eighth B row is +Inf and its A column zero, so the outputs
      // stay finite only through the zero skip.
      for (uint32_t kk = 3; kk < g.k; kk += 8) {
        for (uint32_t i = 0; i < g.m; ++i) {
          a[size_t{i} * g.k + kk] = i % 2 == 0 ? 0.0f : -0.0f;
        }
        std::fill_n(b.begin() + size_t{kk} * g.n, g.n,
                    std::numeric_limits<float>::infinity());
      }
    }
    const std::vector<const float*> a_rows = RowTable(a, g.m);
    const std::vector<const float*> b_rows = RowTable(b, g.k);
    std::vector<float> bpack(kern::GemmPackFloats(g.k, g.n));
    std::vector<float> cr(size_t{g.m} * g.n), co(size_t{g.m} * g.n);
    char name[64];
    std::snprintf(name, sizeof(name), "gemm %ux%ux%u%s", g.m, g.k, g.n,
                  g.fill == Fill::kDense  ? " dense"
                  : g.fill == Fill::kInfB ? " inf-b"
                                          : "");
    results.push_back(RunCase(
        name, 2.0 * g.m * g.k * g.n,
        4.0 * (static_cast<double>(g.m) * g.k +
               static_cast<double>(g.k) * g.n +
               static_cast<double>(g.m) * g.n),
        &cr, &co,
        [&](float* c) { kern::GemmRef(a.data(), b.data(), c, g.m, g.k, g.n,
                                      true); },
        [&](float* c) {
          kern::GemmOpt(a_rows.data(), b_rows.data(), bpack.data(), c, g.m,
                        g.k, g.n, true);
        }));
  }

  // Direct conv: a VGG-style interior-heavy shape, then the shapes the
  // networks spend their conv time in (mobilenet's dense 3x3 stand-ins at
  // 4x4 and 2x2 outputs, squeezenet's 96-channel 1x1 squeeze). --smoke adds a
  // border-heavy shape whose 16 pixels and 12 channels hit both register
  // tile tails, so the CI bitwise gate covers them.
  struct ConvShape {
    uint32_t cin, h, w, cout, k, stride, pad;
  };
  std::vector<ConvShape> convs =
      smoke ? std::vector<ConvShape>{{3, 9, 9, 4, 3, 1, 1},
                                     {5, 4, 4, 12, 3, 1, 1}}
            : std::vector<ConvShape>{{64, 32, 32, 64, 3, 1, 1},
                                     {64, 4, 4, 64, 3, 1, 1},
                                     {128, 2, 2, 128, 3, 1, 1},
                                     {96, 4, 4, 12, 1, 1, 0}};
  for (const ConvShape& s : convs) {
    uint32_t oh = (s.h + 2 * s.pad - s.k) / s.stride + 1;
    uint32_t ow = (s.w + 2 * s.pad - s.k) / s.stride + 1;
    std::vector<float> in = TestData(size_t{s.cin} * s.h * s.w, 3);
    std::vector<float> wts = TestData(size_t{s.cout} * s.cin * s.k * s.k, 4);
    const std::vector<const float*> wrows = RowTable(wts, s.cout);
    std::vector<float> wpack(kern::Conv2dPackFloats(s.cin, s.cout, s.k, s.k));
    std::vector<float> outr(size_t{s.cout} * oh * ow),
        outo(size_t{s.cout} * oh * ow);
    char name[64];
    std::snprintf(name, sizeof(name), "conv2d %ux%ux%u c%u k%us%up%u", s.cin,
                  s.h, s.w, s.cout, s.k, s.stride, s.pad);
    results.push_back(RunCase(
        name, 2.0 * s.cout * oh * ow * s.cin * s.k * s.k,
        (in.size() + wts.size() + outr.size()) * 4.0, &outr, &outo,
        [&](float* out) {
          kern::Conv2dRef(in.data(), wts.data(), out, s.cin, s.h, s.w, s.cout,
                          s.k, s.k, s.stride, s.pad, true);
        },
        [&](float* out) {
          kern::Conv2dOpt(in.data(), wrows.data(), wpack.data(), out, s.cin,
                          s.h, s.w, s.cout, s.k, s.k, s.stride, s.pad, true);
        }));
  }

  // im2col lowering and pooling on the interior-heavy shape.
  {
    const ConvShape& s = convs.front();
    uint32_t cin = s.cin, h = s.h, w = s.w, kh = 3, kw = 3, stride = 1, pad = 1;
    uint32_t oh = (h + 2 * pad - kh) / stride + 1;
    uint32_t ow = (w + 2 * pad - kw) / stride + 1;
    std::vector<float> in = TestData(size_t{cin} * h * w, 3);
    char name[64];
    size_t patch = size_t{cin} * kh * kw * oh * ow;
    std::vector<float> pr(patch), po(patch);
    std::snprintf(name, sizeof(name), "im2col %ux%ux%u k3s1p1", cin, h, w);
    results.push_back(RunCase(
        name, 0.0, (in.size() + patch) * 4.0, &pr, &po,
        [&](float* out) {
          kern::Im2ColRef(in.data(), out, cin, h, w, kh, kw, stride, pad);
        },
        [&](float* out) {
          kern::Im2ColOpt(in.data(), out, cin, h, w, kh, kw, stride, pad);
        }));

    uint32_t pw = 2, ph2 = h / 2, pw2 = w / 2;
    std::vector<float> plr(size_t{cin} * ph2 * pw2),
        plo(size_t{cin} * ph2 * pw2);
    std::snprintf(name, sizeof(name), "maxpool %ux%ux%u 2x2", cin, h, w);
    results.push_back(RunCase(
        name, 0.0, (in.size() + plr.size()) * 4.0, &plr, &plo,
        [&](float* out) {
          kern::PoolRef(in.data(), out, cin, h, w, pw, pw, true);
        },
        [&](float* out) {
          kern::PoolOpt(in.data(), out, cin, h, w, pw, pw, true);
        }));
  }

  // Bandwidth kernels on an activation-sized strip.
  {
    uint32_t count = smoke ? 1001 : 1 << 20;
    uint32_t bias_len = smoke ? 7 : 64;
    std::vector<float> x = TestData(count, 5);
    std::vector<float> y = TestData(count, 6);
    std::vector<float> bias = TestData(bias_len, 7);
    std::vector<float> outr(count), outo(count);
    char name[64];
    std::snprintf(name, sizeof(name), "bias_relu n=%u c=%u", count, bias_len);
    results.push_back(RunCase(
        name, 0.0, count * 8.0, &outr, &outo,
        [&](float* out) {
          kern::BiasReluRef(x.data(), bias.data(), out, count, bias_len, true);
        },
        [&](float* out) {
          kern::BiasReluOpt(x.data(), bias.data(), out, count, bias_len, true);
        }));
    std::snprintf(name, sizeof(name), "eltwise_add n=%u", count);
    results.push_back(RunCase(
        name, static_cast<double>(count), count * 12.0, &outr, &outo,
        [&](float* out) { kern::EltwiseAddRef(x.data(), y.data(), out, count,
                                              false); },
        [&](float* out) { kern::EltwiseAddOpt(x.data(), y.data(), out, count,
                                              false); }));
    std::snprintf(name, sizeof(name), "copy n=%u", count);
    results.push_back(RunCase(
        name, 0.0, count * 8.0, &outr, &outo,
        [&](float* out) { kern::CopyRef(x.data(), out, count); },
        [&](float* out) { kern::CopyOpt(x.data(), out, count); }));
    std::snprintf(name, sizeof(name), "fill n=%u", count);
    results.push_back(RunCase(
        name, 0.0, count * 4.0, &outr, &outo,
        [&](float* out) { kern::FillRef(out, count, 1.5f); },
        [&](float* out) { kern::FillOpt(out, count, 1.5f); }));
  }

  // Softmax on a classifier-sized vector.
  {
    uint32_t count = smoke ? 97 : 4096;
    std::vector<float> x = TestData(count, 8);
    std::vector<float> outr(count), outo(count);
    char name[64];
    std::snprintf(name, sizeof(name), "softmax n=%u", count);
    results.push_back(RunCase(
        name, count * 4.0, count * 8.0, &outr, &outo,
        [&](float* out) { kern::SoftmaxRef(x.data(), out, count); },
        [&](float* out) { kern::SoftmaxOpt(x.data(), out, count); }));
  }

  return results;
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<CaseResult>& results, bool bitwise_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernel_bench\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"reps\": %d,\n", kReps);
  std::fprintf(f, "  \"bitwise_ok\": %s,\n", bitwise_ok ? "true" : "false");
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(
        f,
        "    {\"kernel\": \"%s\", \"ref_us\": %.2f, \"opt_us\": %.2f, "
        "\"speedup\": %.3f, \"opt_gflops\": %.3f, \"opt_gbps\": %.3f, "
        "\"bitwise_identical\": %s}%s\n",
        r.name.c_str(), r.ref_seconds * 1e6, r.opt_seconds * 1e6, r.speedup(),
        r.opt_gflops(), r.opt_gbps(),
        r.bitwise_identical ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

int Run(bool smoke, const std::string& out_path) {
  std::vector<CaseResult> results = RunAll(smoke);
  TextTable table({"kernel", "ref", "opt", "speedup", "GFLOP/s", "GB/s",
                   "bitwise"});
  bool bitwise_ok = true;
  for (const CaseResult& r : results) {
    char ref_buf[32], opt_buf[32], sp[16], gf[16], gb[16];
    std::snprintf(ref_buf, sizeof(ref_buf), "%.1f us", r.ref_seconds * 1e6);
    std::snprintf(opt_buf, sizeof(opt_buf), "%.1f us", r.opt_seconds * 1e6);
    std::snprintf(sp, sizeof(sp), "%.2fx", r.speedup());
    std::snprintf(gf, sizeof(gf), "%.2f", r.opt_gflops());
    std::snprintf(gb, sizeof(gb), "%.2f", r.opt_gbps());
    table.AddRow({r.name, ref_buf, opt_buf, sp, r.flops > 0 ? gf : "-", gb,
                  r.bitwise_identical ? "ok" : "FAIL"});
    if (!r.bitwise_identical) {
      std::fprintf(stderr,
                   "BITWISE FAILURE: %s — optimized kernel diverged from the "
                   "reference\n",
                   r.name.c_str());
      bitwise_ok = false;
    }
  }
  std::printf("Shader-core kernels: reference vs optimized, host wall clock "
              "(min of %d)\n\n", kReps);
  table.Print();
  if (!out_path.empty()) {
    WriteJson(out_path, smoke, results, bitwise_ok);
  }
  return bitwise_ok ? 0 : 1;
}

}  // namespace
}  // namespace grt

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  if (out.empty() && !smoke) {
    out = "BENCH_kernel_bench.json";
  }
  return grt::Run(smoke, out);
}
