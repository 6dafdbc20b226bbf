// Shader-core kernel library.
//
// Two complete implementations of every GPU compute op:
//   * the *Ref kernels are the pinned scalar reference — the exact loops
//     the executor ran before the kernel-engine rewrite. They define the
//     bit pattern every recording, the ml/ reference comparison, and the
//     dirty-page machinery depend on, and they are the baseline the
//     wall-clock speedup gate in bench/replay_serving measures against.
//   * the *Opt kernels are cache-blocked and lane-parallel: they vectorize
//     across independent outputs (GEMM register tiles over packed B
//     panels, GEMV row lanes, conv output-channel lanes, pool
//     output-pixel lanes, elementwise strips) while preserving each
//     output's scalar FP accumulation order, so results are
//     bitwise-identical to the reference (tests/hw/kernel_golden_test.cc).
//
// Why lane-parallelism is bitwise-safe: every optimization only reorders
// work *across* outputs, never within one output's accumulation chain.
// GEMM keeps the reference's kk-ascending order per c[i,j] from a +0.0f
// start. Its av==0 skip depends only on (i,kk): the n >= 2 tile applies
// it uniformly across the j lanes of a row, the n == 1 GEMV per row lane.
// Both apply it without a branch: the skipped product becomes -0.0f, and
// x + (-0.0f) == x for every x. When B holds no Inf or NaN even that
// select is dropped, because a zero av's product is then ±0 and a chain
// that starts at +0.0f never holds -0.0f, so adding ±0 changes no bits.
// Conv runs its lanes across output channels: the reference's
// out-of-bounds skip depends only on (pixel, tap), so it is uniform across
// them, and each pixel visits exactly its in-bounds taps, (ci,ki,kj)
// ascending, from a +0.0f start. Pool visits (ki,kj) ascending per output
// pixel; softmax keeps the serial max and serial double-precision sum.
// Compiled with -ffp-contract=off so FMA contraction cannot change results
// on targets where the compiler would otherwise fuse.
//
// The bitwise contract covers every value except NaN bit patterns: when
// two NaNs meet in one operation, x86 returns one operand's NaN, and the
// two kernels may order an add's operands differently, so a NaN output can
// differ in sign or payload. Which outputs are NaN is identical.
//
// All kernels take raw pointers (the executor hands them zero-copy views
// into PhysicalMemory or arena scratch); shapes are in elements. The GEMM
// operands and the conv weights are row-addressed: a table of row
// pointers, so a tensor whose pages are not physically contiguous is read
// in place row by row instead of being gathered whole. Output ranges are
// fully overwritten — callers never need to zero them first.
#ifndef GRT_SRC_HW_KERNELS_H_
#define GRT_SRC_HW_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace grt {

// Which kernel implementation set the shader-core executor runs. Both
// produce bitwise-identical results; kReference additionally uses the
// pre-rewrite DMA data path (full-tensor copy in, copy out), making it the
// honest "old engine" baseline for wall-clock comparisons.
enum class KernelEngine {
  kReference,
  kOptimized,
};

// Per-device reusable scratch: a bump allocator over one growing buffer.
// The executor sizes it once per job (BeginJob with the worst-case float
// count) and carves tensor staging buffers, row-pointer tables and packed
// operands out of it; capacity persists across jobs and replays, so
// steady-state execution performs no heap allocation. Memory is neither
// zeroed nor touched until a job writes it — every kernel fully overwrites
// its output and every gather path fully fills its staging buffer — so the
// worst-case sizing of a row-addressed operand's copy region costs no
// resident memory for the rows that are read in place.
class ScratchArena {
 public:
  // Ensures capacity for `max_floats` (plus per-alloc alignment padding)
  // and resets the bump pointer.
  void BeginJob(size_t max_floats) {
    if (capacity_ < max_floats) {
      buf_.reset(new float[max_floats]);
      capacity_ = max_floats;
    }
    used_ = 0;
  }

  // 64-byte-aligned block of n floats; valid until the next BeginJob.
  float* AllocF32(size_t n) {
    used_ = (used_ + 15) & ~size_t{15};
    float* p = buf_.get() + used_;
    used_ += n;
    return p;
  }

  // Floats a table of n row pointers occupies.
  static constexpr size_t RowTableFloats(size_t n) {
    return n * (sizeof(const float*) / sizeof(float));
  }

  // Uninitialized table of n row pointers; valid until the next BeginJob.
  const float** AllocRowTable(size_t n) {
    return ::new (AllocF32(RowTableFloats(n))) const float*[n];
  }

  size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<float[]> buf_;
  size_t capacity_ = 0;
  size_t used_ = 0;
};

namespace kern {

// C[m,n] = A[m,k] * B[k,n], optional fused relu. C is fully overwritten
// (accumulation starts from +0.0f, as the reference's zero-initialized
// output vector did).
void GemmRef(const float* a, const float* b, float* c, uint32_t m, uint32_t k,
             uint32_t n, bool relu);
// The optimized GEMM reads A and B through row tables: a_rows[i] points at
// A's row i (k floats), b_rows[kk] at B's row kk (n floats). It packs B
// into `bpack` (GemmPackFloats floats of caller-owned scratch, e.g.
// ScratchArena): zero-padded [k][8] panels of 8 columns, or one [k]
// vector when n == 1. The contents of bpack are overwritten.
size_t GemmPackFloats(uint32_t k, uint32_t n);
void GemmOpt(const float* const* a_rows, const float* const* b_rows,
             float* bpack, float* c, uint32_t m, uint32_t k, uint32_t n,
             bool relu);

// Convolution lowering: out[cin*kh*kw, oh*ow] patch matrix, zero padding.
void Im2ColRef(const float* in, float* out, uint32_t cin, uint32_t h,
               uint32_t w, uint32_t kh, uint32_t kw, uint32_t stride,
               uint32_t pad);
void Im2ColOpt(const float* in, float* out, uint32_t cin, uint32_t h,
               uint32_t w, uint32_t kh, uint32_t kw, uint32_t stride,
               uint32_t pad);

// Direct convolution, optional fused relu. The optimized kernel reads the
// weights through a row table (wrows[co] points at output channel co's
// [ci][ki][kj] weights) and repacks them into `wpack` (Conv2dPackFloats
// floats of caller-owned scratch, e.g. ScratchArena) as [ci][ki][kj][co]
// with co zero-padded to its lane width; the contents of wpack are
// overwritten.
void Conv2dRef(const float* in, const float* wts, float* out, uint32_t cin,
               uint32_t h, uint32_t w, uint32_t cout, uint32_t kh, uint32_t kw,
               uint32_t stride, uint32_t pad, bool relu);
size_t Conv2dPackFloats(uint32_t cin, uint32_t cout, uint32_t kh,
                        uint32_t kw);
void Conv2dOpt(const float* in, const float* const* wrows, float* wpack,
               float* out, uint32_t cin, uint32_t h, uint32_t w,
               uint32_t cout, uint32_t kh, uint32_t kw, uint32_t stride,
               uint32_t pad, bool relu);

// out[i] = x[i] (+ bias[(i/spatial) % bias_len] when bias_len > 0, with
// spatial = count / bias_len), optional relu. bias may be null when
// bias_len == 0. In-place (out == x) is supported.
void BiasReluRef(const float* x, const float* bias, float* out, uint32_t count,
                 uint32_t bias_len, bool relu);
void BiasReluOpt(const float* x, const float* bias, float* out, uint32_t count,
                 uint32_t bias_len, bool relu);

// Max/avg pooling over square windows, no padding.
void PoolRef(const float* in, float* out, uint32_t c, uint32_t h, uint32_t w,
             uint32_t win, uint32_t stride, bool is_max);
void PoolOpt(const float* in, float* out, uint32_t c, uint32_t h, uint32_t w,
             uint32_t win, uint32_t stride, bool is_max);

// out[i] = a[i] + b[i], optional relu. In-place (out aliasing a or b at
// identical offsets) is supported.
void EltwiseAddRef(const float* a, const float* b, float* out, uint32_t count,
                   bool relu);
void EltwiseAddOpt(const float* a, const float* b, float* out, uint32_t count,
                   bool relu);

// Numerically-guarded softmax (serial max, serial double sum — both orders
// are part of the pinned bit pattern). In-place supported.
void SoftmaxRef(const float* x, float* out, uint32_t count);
void SoftmaxOpt(const float* x, float* out, uint32_t count);

// out[i] = x[i]; overlapping ranges behave like memmove in both versions.
void CopyRef(const float* x, float* out, uint32_t count);
void CopyOpt(const float* x, float* out, uint32_t count);

void FillRef(float* out, uint32_t count, float value);
void FillOpt(float* out, uint32_t count, float value);

}  // namespace kern
}  // namespace grt

#endif  // GRT_SRC_HW_KERNELS_H_
