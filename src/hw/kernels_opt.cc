// Blocked, lane-parallel kernels. Every transformation here reorders work
// across independent outputs only; each output's scalar accumulation chain
// is byte-for-byte the reference's (see kernels.h for the argument), so
// results are bitwise-identical to kernels_ref.cc — asserted per op and
// shape by tests/hw/kernel_golden_test.cc.
#include "src/hw/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace grt {
namespace kern {

namespace {

// Four float lanes. GCC/Clang vector extensions, no ISA intrinsics: the
// baseline x86-64 build lowers them to SSE, -march=native builds to
// whatever the host has, and the arithmetic is the same IEEE single
// precision either way.
typedef float F4 __attribute__((vector_size(16)));
typedef int32_t I4 __attribute__((vector_size(16)));

F4 Load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store4(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

F4 Splat(float v) { return F4{v, v, v, v}; }

// GEMM register tile: kTileRows rows of A against one B panel of
// kPanelCols columns, the accumulators two F4 per row. kTileRows divides
// every channel count the networks use, so their tiles have no row tail.
constexpr uint32_t kTileRows = 4;
constexpr uint32_t kPanelCols = 8;
// Rows of A per GEMV block: four F4 lanes of accumulators.
constexpr uint32_t kGemvRows = 16;
// Direct-conv register tile: kConvPix output pixels x kConvCo output
// channels. The vector lanes run across output channels, so every lane of
// a pixel row shares that pixel's tap bounds.
constexpr uint32_t kConvPix = 4;
constexpr uint32_t kConvCo = 8;
// Pool output-pixel lanes.
constexpr uint32_t kLanes = 8;
// Weight repack transpose block (one cache line of floats each way).
constexpr uint32_t kPackBlock = 16;

uint32_t ConvPaddedCout(uint32_t cout) {
  return (cout + kConvCo - 1) / kConvCo * kConvCo;
}

// [co][ci][ki][kj] -> [ci][ki][kj][co], co zero-padded to a multiple of
// kConvCo; wrows[co] is output channel co's [ci][ki][kj] row. Transposed
// in kPackBlock-square blocks, so both the source rows and the
// destination rows are walked a cache line at a time.
void PackConvWeights(const float* const* wrows, float* packed, uint32_t cin,
                     uint32_t cout, uint32_t kh, uint32_t kw) {
  const uint32_t coutp = ConvPaddedCout(cout);
  const size_t taps = static_cast<size_t>(cin) * kh * kw;
  for (size_t t0 = 0; t0 < taps; t0 += kPackBlock) {
    const size_t nt = std::min<size_t>(kPackBlock, taps - t0);
    for (uint32_t co0 = 0; co0 < cout; co0 += kPackBlock) {
      const uint32_t nc = std::min(kPackBlock, cout - co0);
      for (uint32_t c = 0; c < nc; ++c) {
        const float* src = wrows[co0 + c] + t0;
        float* dst = packed + t0 * coutp + co0 + c;
        for (size_t t = 0; t < nt; ++t) {
          dst[t * coutp] = src[t];
        }
      }
    }
    for (size_t t = t0; t < t0 + nt; ++t) {
      std::fill(packed + t * coutp + cout, packed + (t + 1) * coutp, 0.0f);
    }
  }
}

// One output pixel's in-bounds taps: the [ki_lo,ki_hi) x [kj_lo,kj_hi)
// rectangle as an input offset, a packed-weight offset, and its extent.
// An empty rectangle (a tail slot, or a pixel whose whole window is
// padding) has nki == 0 and visits nothing.
struct ConvPixelTaps {
  size_t in_off = 0;
  size_t w_off = 0;
  uint32_t nki = 0;
  uint32_t nkj = 0;
};

ConvPixelTaps PixelTaps(uint32_t oi, uint32_t oj, uint32_t h, uint32_t w,
                        uint32_t kh, uint32_t kw, uint32_t stride,
                        uint32_t pad, uint32_t coutp) {
  ConvPixelTaps t;
  const int64_t i0 = static_cast<int64_t>(oi) * stride - pad;
  const int64_t j0 = static_cast<int64_t>(oj) * stride - pad;
  const int64_t ki_lo = std::max<int64_t>(0, -i0);
  const int64_t ki_hi = std::min<int64_t>(kh, static_cast<int64_t>(h) - i0);
  const int64_t kj_lo = std::max<int64_t>(0, -j0);
  const int64_t kj_hi = std::min<int64_t>(kw, static_cast<int64_t>(w) - j0);
  if (ki_lo >= ki_hi || kj_lo >= kj_hi) {
    return t;
  }
  t.in_off = static_cast<size_t>(i0 + ki_lo) * w +
             static_cast<size_t>(j0 + kj_lo);
  t.w_off = (static_cast<size_t>(ki_lo) * kw + static_cast<size_t>(kj_lo)) *
            coutp;
  t.nki = static_cast<uint32_t>(ki_hi - ki_lo);
  t.nkj = static_cast<uint32_t>(kj_hi - kj_lo);
  return t;
}

// One step of a GEMM output chain in each lane: acc + a * b. With
// kSkipZeros the product of a lane whose a is 0 is replaced by -0.0f, and
// x + (-0.0f) == x for every x, so the step is bit for bit the
// reference's "skip the += when av == 0" without a branch. A lane whose a
// is NaN keeps its product, as the reference does (NaN == 0 is false).
template <bool kSkipZeros>
F4 MulAdd(F4 acc, F4 a, F4 b) {
  F4 prod = a * b;
  if constexpr (kSkipZeros) {
    const I4 neg_zero = {INT32_MIN, INT32_MIN, INT32_MIN, INT32_MIN};
    const I4 keep = a != F4{};
    prod = reinterpret_cast<F4>((reinterpret_cast<I4>(prod) & keep) |
                                (neg_zero & ~keep));
  }
  return acc + prod;
}

uint32_t GemmPanels(uint32_t n) { return (n + kPanelCols - 1) / kPanelCols; }

float Relu(float v, bool relu) { return relu ? std::max(0.0f, v) : v; }

// True when any of the n floats is an Inf or a NaN (all exponent bits set).
bool AnyNonFinite(const float* v, size_t n) {
  constexpr int32_t kExp = 0x7f800000;
  const I4 exp = {kExp, kExp, kExp, kExp};
  I4 bad = {};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    I4 bits;
    std::memcpy(&bits, v + i, sizeof(bits));
    bad |= (bits & exp) == exp;
  }
  for (; i < n; ++i) {
    int32_t bits;
    std::memcpy(&bits, v + i, sizeof(bits));
    bad[0] |= (bits & kExp) == kExp;
  }
  return (bad[0] | bad[1] | bad[2] | bad[3]) != 0;
}

// B[k][n] -> panels of kPanelCols columns, each [k][kPanelCols], the last
// one zero-padded; n == 1 packs B into one contiguous [k] vector.
void PackGemmB(const float* const* b_rows, float* pack, uint32_t k,
               uint32_t n) {
  if (n == 1) {
    for (uint32_t kk = 0; kk < k; ++kk) {
      pack[kk] = b_rows[kk][0];
    }
    return;
  }
  const size_t panel_floats = static_cast<size_t>(k) * kPanelCols;
  for (uint32_t kk = 0; kk < k; ++kk) {
    const float* brow = b_rows[kk];
    float* dst = pack + static_cast<size_t>(kk) * kPanelCols;
    uint32_t j0 = 0;
    for (; j0 + kPanelCols <= n; j0 += kPanelCols, dst += panel_floats) {
      Store4(dst, Load4(brow + j0));
      Store4(dst + 4, Load4(brow + j0 + 4));
    }
    if (j0 < n) {
      std::memcpy(dst, brow + j0, (n - j0) * sizeof(float));
      std::fill(dst + (n - j0), dst + kPanelCols, 0.0f);
    }
  }
}

// n >= 2: every kTileRows x kPanelCols tile of C, each output's chain the
// reference's (+0.0f, kk ascending, the (i,kk) zero skip, relu at the
// store). A tail block repeats its last row and the last panel's padded
// columns are zeros: both are computed and never stored.
template <bool kSkipZeros>
void GemmTiles(const float* const* a_rows, const float* bpack, float* c,
               uint32_t m, uint32_t k, uint32_t n, bool relu) {
  const uint32_t panels = GemmPanels(n);
  for (uint32_t i0 = 0; i0 < m; i0 += kTileRows) {
    const uint32_t rows = std::min(kTileRows, m - i0);
    const float* a[kTileRows];
    for (uint32_t r = 0; r < kTileRows; ++r) {
      a[r] = a_rows[i0 + std::min(r, rows - 1)];
    }
    for (uint32_t p = 0; p < panels; ++p) {
      const float* bp = bpack + static_cast<size_t>(p) * k * kPanelCols;
      F4 lo[kTileRows] = {};
      F4 hi[kTileRows] = {};
      for (uint32_t kk = 0; kk < k; ++kk) {
        const F4 blo = Load4(bp + static_cast<size_t>(kk) * kPanelCols);
        const F4 bhi = Load4(bp + static_cast<size_t>(kk) * kPanelCols + 4);
        // Fully unrolled, so the accumulators stay in registers.
#pragma GCC unroll 8
        for (uint32_t r = 0; r < kTileRows; ++r) {
          const F4 av = Splat(a[r][kk]);
          lo[r] = MulAdd<kSkipZeros>(lo[r], av, blo);
          hi[r] = MulAdd<kSkipZeros>(hi[r], av, bhi);
        }
      }
      const uint32_t j0 = p * kPanelCols;
      const uint32_t cols = std::min(kPanelCols, n - j0);
      for (uint32_t r = 0; r < rows; ++r) {
        float acc[kPanelCols];
        std::memcpy(acc, &lo[r], sizeof(F4));
        std::memcpy(acc + 4, &hi[r], sizeof(F4));
        float* crow = c + static_cast<size_t>(i0 + r) * n + j0;
        for (uint32_t jj = 0; jj < cols; ++jj) {
          crow[jj] = Relu(acc[jj], relu);
        }
      }
    }
  }
}

// Transposes four rows of four floats: t[j] holds element j of each row.
void Transpose4(const F4 (&rows)[4], F4 (&t)[4]) {
  const F4 lo01 = __builtin_shufflevector(rows[0], rows[1], 0, 4, 1, 5);
  const F4 lo23 = __builtin_shufflevector(rows[2], rows[3], 0, 4, 1, 5);
  const F4 hi01 = __builtin_shufflevector(rows[0], rows[1], 2, 6, 3, 7);
  const F4 hi23 = __builtin_shufflevector(rows[2], rows[3], 2, 6, 3, 7);
  t[0] = __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
  t[1] = __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
  t[2] = __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
  t[3] = __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
}

// n == 1 (fully-connected layers): kGemvRows rows of A in vector lanes,
// four kk at a time from 4x4-transposed loads, so each lane is one row's
// chain in the reference's kk order. A tail block repeats its last row.
template <bool kSkipZeros>
void Gemv(const float* const* a_rows, const float* x, float* c, uint32_t m,
          uint32_t k, bool relu) {
  constexpr uint32_t kGroups = kGemvRows / 4;
  for (uint32_t i0 = 0; i0 < m; i0 += kGemvRows) {
    const uint32_t rows = std::min(kGemvRows, m - i0);
    const float* a[kGemvRows];
    for (uint32_t r = 0; r < kGemvRows; ++r) {
      a[r] = a_rows[i0 + std::min(r, rows - 1)];
    }
    F4 acc[kGroups] = {};
    uint32_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const F4 xv = Load4(x + kk);
      const F4 xs[4] = {Splat(xv[0]), Splat(xv[1]), Splat(xv[2]),
                        Splat(xv[3])};
#pragma GCC unroll 8
      for (uint32_t g = 0; g < kGroups; ++g) {
        const F4 blk[4] = {Load4(a[4 * g] + kk), Load4(a[4 * g + 1] + kk),
                           Load4(a[4 * g + 2] + kk), Load4(a[4 * g + 3] + kk)};
        F4 t[4];
        Transpose4(blk, t);
#pragma GCC unroll 4
        for (uint32_t j = 0; j < 4; ++j) {
          acc[g] = MulAdd<kSkipZeros>(acc[g], t[j], xs[j]);
        }
      }
    }
    for (; kk < k; ++kk) {
      const F4 xs = Splat(x[kk]);
#pragma GCC unroll 8
      for (uint32_t g = 0; g < kGroups; ++g) {
        const F4 col = {a[4 * g][kk], a[4 * g + 1][kk], a[4 * g + 2][kk],
                        a[4 * g + 3][kk]};
        acc[g] = MulAdd<kSkipZeros>(acc[g], col, xs);
      }
    }
    float out[kGemvRows];
    std::memcpy(out, acc, sizeof(out));
    for (uint32_t r = 0; r < rows; ++r) {
      c[i0 + r] = Relu(out[r], relu);
    }
  }
}

}  // namespace

size_t GemmPackFloats(uint32_t k, uint32_t n) {
  return static_cast<size_t>(k) *
         (n == 1 ? 1 : static_cast<size_t>(GemmPanels(n)) * kPanelCols);
}

void GemmOpt(const float* const* a_rows, const float* const* b_rows,
             float* bpack, float* c, uint32_t m, uint32_t k, uint32_t n,
             bool relu) {
  PackGemmB(b_rows, bpack, k, n);
  // A zero av's product is ±0 unless its B value is an Inf or a NaN, and
  // a chain that starts at +0.0f never holds -0.0f (a sum is -0.0f only
  // when both addends are), so adding ±0 changes no bits: the zero skip
  // needs the select only when B holds a non-finite value.
  const bool skip_zeros = AnyNonFinite(bpack, GemmPackFloats(k, n));
  if (n == 1) {
    if (skip_zeros) {
      Gemv<true>(a_rows, bpack, c, m, k, relu);
    } else {
      Gemv<false>(a_rows, bpack, c, m, k, relu);
    }
  } else if (skip_zeros) {
    GemmTiles<true>(a_rows, bpack, c, m, k, n, relu);
  } else {
    GemmTiles<false>(a_rows, bpack, c, m, k, n, relu);
  }
}

void Im2ColOpt(const float* in, float* out, uint32_t cin, uint32_t h,
               uint32_t w, uint32_t kh, uint32_t kw, uint32_t stride,
               uint32_t pad) {
  uint32_t oh = (h + 2 * pad - kh) / stride + 1;
  uint32_t ow = (w + 2 * pad - kw) / stride + 1;
  size_t col = static_cast<size_t>(oh) * ow;
  // Row decomposition: for a fixed (c, ki, kj), each output row oi is a
  // strided (contiguous when stride==1) slice of one input row, with zero
  // runs where the padded window falls outside — a handful of fills and a
  // copy instead of per-element bounds tests. Values are copies of the
  // same input floats the reference read, so equality is trivial.
  for (uint32_t c = 0; c < cin; ++c) {
    for (uint32_t ki = 0; ki < kh; ++ki) {
      for (uint32_t kj = 0; kj < kw; ++kj) {
        size_t row = (static_cast<size_t>(c) * kh + ki) * kw + kj;
        float* rbase = out + row * col;
        const int64_t joff = static_cast<int64_t>(kj) - pad;
        // oj in [lo, hi) has jj = oj*stride + joff inside [0, w).
        uint32_t lo = 0;
        if (joff < 0) {
          lo = static_cast<uint32_t>((-joff + stride - 1) / stride);
        }
        uint32_t hi = 0;
        if (static_cast<int64_t>(w) - 1 - joff >= 0) {
          hi = static_cast<uint32_t>(
                   (static_cast<int64_t>(w) - 1 - joff) / stride) +
               1;
        }
        lo = std::min(lo, ow);
        hi = std::min(hi, ow);
        hi = std::max(hi, lo);
        for (uint32_t oi = 0; oi < oh; ++oi) {
          float* orow = rbase + static_cast<size_t>(oi) * ow;
          const int64_t ii = static_cast<int64_t>(oi) * stride + ki - pad;
          if (ii < 0 || ii >= h) {
            std::fill(orow, orow + ow, 0.0f);
            continue;
          }
          const float* irow = in + (static_cast<size_t>(c) * h + ii) * w;
          std::fill(orow, orow + lo, 0.0f);
          if (stride == 1) {
            std::memcpy(orow + lo, irow + lo + joff,
                        static_cast<size_t>(hi - lo) * sizeof(float));
          } else {
            for (uint32_t oj = lo; oj < hi; ++oj) {
              orow[oj] =
                  irow[static_cast<size_t>(oj) * stride + joff];
            }
          }
          std::fill(orow + hi, orow + ow, 0.0f);
        }
      }
    }
  }
}

size_t Conv2dPackFloats(uint32_t cin, uint32_t cout, uint32_t kh,
                        uint32_t kw) {
  return static_cast<size_t>(cin) * kh * kw * ConvPaddedCout(cout);
}

void Conv2dOpt(const float* in, const float* const* wrows, float* wpack,
               float* out, uint32_t cin, uint32_t h, uint32_t w,
               uint32_t cout, uint32_t kh, uint32_t kw, uint32_t stride,
               uint32_t pad, bool relu) {
  const uint32_t oh = (h + 2 * pad - kh) / stride + 1;
  const uint32_t ow = (w + 2 * pad - kw) / stride + 1;
  const size_t npix = static_cast<size_t>(oh) * ow;
  const uint32_t coutp = ConvPaddedCout(cout);
  const size_t in_ci = static_cast<size_t>(h) * w;
  const size_t w_ci = static_cast<size_t>(kh) * kw * coutp;
  PackConvWeights(wrows, wpack, cin, cout, kh, kw);
  for (uint32_t co0 = 0; co0 < cout; co0 += kConvCo) {
    for (size_t q0 = 0; q0 < npix; q0 += kConvPix) {
      const uint32_t np =
          static_cast<uint32_t>(std::min<size_t>(kConvPix, npix - q0));
      ConvPixelTaps px[kConvPix];
      for (uint32_t p = 0; p < np; ++p) {
        const size_t q = q0 + p;
        px[p] = PixelTaps(static_cast<uint32_t>(q / ow),
                          static_cast<uint32_t>(q % ow), h, w, kh, kw, stride,
                          pad, coutp);
      }
      // Each pixel row is the reference's chain: +0.0f, then ci
      // ascending, and inside each ci exactly its in-bounds taps in
      // (ki, kj) order. Rows are independent, so interleaving them per ci
      // changes no bits; the padded channel lanes are never stored.
      float acc[kConvPix][kConvCo] = {};
      for (uint32_t ci = 0; ci < cin; ++ci) {
        const float* xc = in + ci * in_ci;
        const float* wc = wpack + ci * w_ci + co0;
        for (uint32_t p = 0; p < kConvPix; ++p) {
          const float* x = xc + px[p].in_off;
          const float* wt = wc + px[p].w_off;
          for (uint32_t a = 0; a < px[p].nki; ++a) {
            for (uint32_t b = 0; b < px[p].nkj; ++b) {
              const float xv = x[static_cast<size_t>(a) * w + b];
              const float* w8 =
                  wt + (static_cast<size_t>(a) * kw + b) * coutp;
              for (uint32_t c = 0; c < kConvCo; ++c) {
                acc[p][c] += xv * w8[c];
              }
            }
          }
        }
      }
      const uint32_t nc = std::min(kConvCo, cout - co0);
      for (uint32_t c = 0; c < nc; ++c) {
        float* orow = out + (co0 + c) * npix + q0;
        for (uint32_t p = 0; p < np; ++p) {
          orow[p] = relu ? std::max(0.0f, acc[p][c]) : acc[p][c];
        }
      }
    }
  }
}

void BiasReluOpt(const float* x, const float* bias, float* out, uint32_t count,
                 uint32_t bias_len, bool relu) {
  if (bias_len == 0) {
    if (relu) {
      for (uint32_t i = 0; i < count; ++i) {
        out[i] = std::max(0.0f, x[i]);
      }
    } else {
      std::memmove(out, x, static_cast<size_t>(count) * sizeof(float));
    }
    return;
  }
  // The reference's (i/spatial) % bias_len channel index is constant over
  // runs of `spatial` elements — hoist the bias load per run and let the
  // inner strips vectorize.
  const uint32_t spatial = count / bias_len;
  if (spatial == 0) {
    return;  // executor faults this shape before any engine runs
  }
  for (uint32_t o = 0; o < count; o += spatial) {
    const uint32_t run = std::min(spatial, count - o);
    const float bv = bias[(o / spatial) % bias_len];
    if (relu) {
      for (uint32_t e = 0; e < run; ++e) {
        out[o + e] = std::max(0.0f, x[o + e] + bv);
      }
    } else {
      for (uint32_t e = 0; e < run; ++e) {
        out[o + e] = x[o + e] + bv;
      }
    }
  }
}

void PoolOpt(const float* in, float* out, uint32_t c, uint32_t h, uint32_t w,
             uint32_t win, uint32_t stride, bool is_max) {
  uint32_t oh = (h - win) / stride + 1;
  uint32_t ow = (w - win) / stride + 1;
  for (uint32_t ci = 0; ci < c; ++ci) {
    for (uint32_t oi = 0; oi < oh; ++oi) {
      const float* ibase =
          in + (static_cast<size_t>(ci) * h + static_cast<size_t>(oi) * stride) * w;
      float* orow = out + (static_cast<size_t>(ci) * oh + oi) * ow;
      for (uint32_t oj0 = 0; oj0 < ow; oj0 += kLanes) {
        const uint32_t lanes = std::min(kLanes, ow - oj0);
        float acc[kLanes];
        const float init =
            is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
        for (uint32_t r = 0; r < lanes; ++r) {
          acc[r] = init;
        }
        // (ki, kj) ascending per output lane — the reference's window walk.
        for (uint32_t ki = 0; ki < win; ++ki) {
          const float* irow = ibase + static_cast<size_t>(ki) * w +
                              static_cast<size_t>(oj0) * stride;
          for (uint32_t kj = 0; kj < win; ++kj) {
            if (is_max) {
              for (uint32_t r = 0; r < lanes; ++r) {
                acc[r] = std::max(
                    acc[r], irow[static_cast<size_t>(r) * stride + kj]);
              }
            } else {
              for (uint32_t r = 0; r < lanes; ++r) {
                acc[r] += irow[static_cast<size_t>(r) * stride + kj];
              }
            }
          }
        }
        if (is_max) {
          for (uint32_t r = 0; r < lanes; ++r) {
            orow[oj0 + r] = acc[r];
          }
        } else {
          const float inv = static_cast<float>(win * win);
          for (uint32_t r = 0; r < lanes; ++r) {
            orow[oj0 + r] = acc[r] / inv;
          }
        }
      }
    }
  }
}

void EltwiseAddOpt(const float* a, const float* b, float* out, uint32_t count,
                   bool relu) {
  if (relu) {
    for (uint32_t i = 0; i < count; ++i) {
      out[i] = std::max(0.0f, a[i] + b[i]);
    }
  } else {
    for (uint32_t i = 0; i < count; ++i) {
      out[i] = a[i] + b[i];
    }
  }
}

void SoftmaxOpt(const float* x, float* out, uint32_t count) {
  // Same three passes as the reference: serial max (NaN handling is
  // order-dependent), float exp, serial double sum, double divide. The
  // exp pass dominates and is elementwise; the serial passes stay serial
  // on purpose — reassociating them would change bits.
  float mx = -std::numeric_limits<float>::infinity();
  for (uint32_t i = 0; i < count; ++i) {
    mx = std::max(mx, x[i]);
  }
  double sum = 0.0;
  for (uint32_t i = 0; i < count; ++i) {
    float e = std::exp(x[i] - mx);
    out[i] = e;
    sum += e;
  }
  for (uint32_t i = 0; i < count; ++i) {
    out[i] = static_cast<float>(out[i] / sum);
  }
}

void CopyOpt(const float* x, float* out, uint32_t count) {
  std::memmove(out, x, static_cast<size_t>(count) * sizeof(float));
}

void FillOpt(float* out, uint32_t count, float value) {
  std::fill(out, out + count, value);
}

}  // namespace kern
}  // namespace grt
