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

// Register-tile sizes for GEMM: a 4x8 accumulator block fits comfortably
// in registers and gives four independent dependency chains per vector
// lane (the serial FP-add latency chain is the reference's bottleneck).
constexpr uint32_t kGemmRows = 4;
constexpr uint32_t kGemmCols = 8;
// Independent output lanes for n==1 GEMM (fully-connected layers) and
// pool.
constexpr uint32_t kLanes = 8;
// Direct-conv register tile: kConvPix output pixels x kConvCo output
// channels. The vector lanes run across output channels, so every lane of
// a pixel row shares that pixel's tap bounds.
constexpr uint32_t kConvPix = 4;
constexpr uint32_t kConvCo = 8;
// Weight repack transpose block (one cache line of floats each way).
constexpr uint32_t kPackBlock = 16;

uint32_t ConvPaddedCout(uint32_t cout) {
  return (cout + kConvCo - 1) / kConvCo * kConvCo;
}

// [co][ci][ki][kj] -> [ci][ki][kj][co], co zero-padded to a multiple of
// kConvCo. Transposed in kPackBlock-square blocks, so both the source
// rows and the destination rows are walked a cache line at a time.
void PackConvWeights(const float* wts, float* packed, uint32_t cin,
                     uint32_t cout, uint32_t kh, uint32_t kw) {
  const uint32_t coutp = ConvPaddedCout(cout);
  const size_t taps = static_cast<size_t>(cin) * kh * kw;
  for (size_t t0 = 0; t0 < taps; t0 += kPackBlock) {
    const size_t nt = std::min<size_t>(kPackBlock, taps - t0);
    for (uint32_t co0 = 0; co0 < cout; co0 += kPackBlock) {
      const uint32_t nc = std::min(kPackBlock, cout - co0);
      for (uint32_t c = 0; c < nc; ++c) {
        const float* src = wts + (co0 + c) * taps + t0;
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

// n == 1 (fully-connected) GEMM: one dot product per output row. The
// reference's chain is serial per row; running kLanes rows side by side
// turns latency-bound accumulation into throughput-bound accumulation.
// The av==0 skip is per (row, kk), so each lane keeps its own predicate —
// the guarded add is exactly the reference's "skip the += when av == 0"
// (never rewritten as "+= 0", which would flip -0.0 sums to +0.0).
void GemmOptN1(const float* a, const float* b, float* c, uint32_t m,
               uint32_t k, bool relu) {
  uint32_t i0 = 0;
  for (; i0 + kLanes <= m; i0 += kLanes) {
    float acc[kLanes] = {};
    const float* arow = a + static_cast<size_t>(i0) * k;
    for (uint32_t kk = 0; kk < k; ++kk) {
      const float bv = b[kk];
      for (uint32_t r = 0; r < kLanes; ++r) {
        const float av = arow[static_cast<size_t>(r) * k + kk];
        if (av != 0.0f) {
          acc[r] += av * bv;
        }
      }
    }
    for (uint32_t r = 0; r < kLanes; ++r) {
      c[i0 + r] = relu ? std::max(0.0f, acc[r]) : acc[r];
    }
  }
  for (; i0 < m; ++i0) {
    float acc = 0.0f;
    const float* arow = a + static_cast<size_t>(i0) * k;
    for (uint32_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) {
        continue;
      }
      acc += av * b[kk];
    }
    c[i0] = relu ? std::max(0.0f, acc) : acc;
  }
}

}  // namespace

void GemmOpt(const float* a, const float* b, float* c, uint32_t m, uint32_t k,
             uint32_t n, bool relu) {
  if (n == 1) {
    GemmOptN1(a, b, c, m, k, relu);
    return;
  }
  for (uint32_t i0 = 0; i0 < m; i0 += kGemmRows) {
    const uint32_t ie = std::min(i0 + kGemmRows, m);
    for (uint32_t j0 = 0; j0 < n; j0 += kGemmCols) {
      const uint32_t je = std::min(j0 + kGemmCols, n);
      if (ie - i0 == kGemmRows && je - j0 == kGemmCols) {
        // Full register tile: kk ascending per output, the av==0 skip is
        // uniform across the kGemmCols j-lanes (it depends on (i,kk) only).
        float acc[kGemmRows][kGemmCols] = {};
        const float* ablk = a + static_cast<size_t>(i0) * k;
        for (uint32_t kk = 0; kk < k; ++kk) {
          const float* brow = b + static_cast<size_t>(kk) * n + j0;
          for (uint32_t r = 0; r < kGemmRows; ++r) {
            const float av = ablk[static_cast<size_t>(r) * k + kk];
            if (av == 0.0f) {
              continue;
            }
            for (uint32_t jj = 0; jj < kGemmCols; ++jj) {
              acc[r][jj] += av * brow[jj];
            }
          }
        }
        for (uint32_t r = 0; r < kGemmRows; ++r) {
          float* crow = c + static_cast<size_t>(i0 + r) * n + j0;
          for (uint32_t jj = 0; jj < kGemmCols; ++jj) {
            crow[jj] = relu ? std::max(0.0f, acc[r][jj]) : acc[r][jj];
          }
        }
      } else {
        // Tail tile: the same kk-ascending lane walk with runtime
        // bounds, so skinny outputs (pointwise convs with n <
        // kGemmCols spatial columns) keep their lane parallelism
        // instead of dropping to the scalar reference loop. Each
        // output's chain is still the reference's: kk ascending with
        // the uniform (i,kk) zero skip.
        const uint32_t rows = ie - i0;
        const uint32_t cols = je - j0;
        float acc[kGemmRows][kGemmCols] = {};
        const float* ablk = a + static_cast<size_t>(i0) * k;
        for (uint32_t kk = 0; kk < k; ++kk) {
          const float* brow = b + static_cast<size_t>(kk) * n + j0;
          for (uint32_t r = 0; r < rows; ++r) {
            const float av = ablk[static_cast<size_t>(r) * k + kk];
            if (av == 0.0f) {
              continue;
            }
            for (uint32_t jj = 0; jj < cols; ++jj) {
              acc[r][jj] += av * brow[jj];
            }
          }
        }
        for (uint32_t r = 0; r < rows; ++r) {
          float* crow = c + static_cast<size_t>(i0 + r) * n + j0;
          for (uint32_t jj = 0; jj < cols; ++jj) {
            crow[jj] = relu ? std::max(0.0f, acc[r][jj]) : acc[r][jj];
          }
        }
      }
    }
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

void Conv2dOpt(const float* in, const float* wts, float* wpack, float* out,
               uint32_t cin, uint32_t h, uint32_t w, uint32_t cout,
               uint32_t kh, uint32_t kw, uint32_t stride, uint32_t pad,
               bool relu) {
  const uint32_t oh = (h + 2 * pad - kh) / stride + 1;
  const uint32_t ow = (w + 2 * pad - kw) / stride + 1;
  const size_t npix = static_cast<size_t>(oh) * ow;
  const uint32_t coutp = ConvPaddedCout(cout);
  const size_t in_ci = static_cast<size_t>(h) * w;
  const size_t w_ci = static_cast<size_t>(kh) * kw * coutp;
  PackConvWeights(wts, wpack, cin, cout, kh, kw);
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
