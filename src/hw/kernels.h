// Shader-core kernel library.
//
// Two complete implementations of every GPU compute op:
//   * the *Ref kernels are the pinned scalar reference — the exact loops
//     the executor ran before the kernel-engine rewrite. They define the
//     bit pattern every recording, the ml/ reference comparison, and the
//     dirty-page machinery depend on, and they are the baseline the
//     wall-clock speedup gate in bench/replay_serving measures against.
//   * the *Opt kernels are cache-blocked and lane-parallel: they vectorize
//     across independent outputs (GEMM j-lanes and row blocks, conv
//     output-channel lanes, pool output-pixel lanes, elementwise strips)
//     while preserving each output's scalar FP accumulation order, so
//     results are bitwise-identical to the reference
//     (tests/hw/kernel_golden_test.cc).
//
// Why lane-parallelism is bitwise-safe: every optimization only reorders
// work *across* outputs, never within one output's accumulation chain.
// GEMM keeps the reference's kk-ascending order per c[i,j] (the av==0 skip
// depends only on (i,kk), so it is uniform across the j lanes). Conv runs
// its lanes across output channels: the reference's out-of-bounds skip
// depends only on (pixel, tap), so it is uniform across them, and each
// pixel visits exactly its in-bounds taps, (ci,ki,kj) ascending, from a
// +0.0f start. Pool visits (ki,kj) ascending per output pixel; softmax
// keeps the serial max and serial double-precision sum. Compiled with
// -ffp-contract=off so FMA contraction cannot change results on targets
// where the compiler would otherwise fuse.
//
// The bitwise contract covers every value except NaN bit patterns: when
// two NaNs meet in one operation, x86 returns one operand's NaN, and the
// two kernels may order an add's operands differently, so a NaN output can
// differ in sign or payload. Which outputs are NaN is identical.
//
// All kernels take raw pointers (the executor hands them zero-copy views
// into PhysicalMemory or arena scratch); shapes are in elements. Output
// ranges are fully overwritten — callers never need to zero them first.
#ifndef GRT_SRC_HW_KERNELS_H_
#define GRT_SRC_HW_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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
// count) and carves tensor staging buffers out of it; capacity persists
// across jobs and replays, so steady-state execution performs no heap
// allocation. Alloc'd memory is NOT zeroed — every kernel fully overwrites
// its output and every gather path fully fills its staging buffer.
class ScratchArena {
 public:
  // Ensures capacity for `max_floats` (plus per-alloc alignment padding)
  // and resets the bump pointer.
  void BeginJob(size_t max_floats) {
    if (buf_.size() < max_floats) {
      buf_.resize(max_floats);
    }
    used_ = 0;
  }

  // 64-byte-aligned block of n floats; valid until the next BeginJob.
  float* AllocF32(size_t n) {
    used_ = (used_ + 15) & ~size_t{15};
    float* p = buf_.data() + used_;
    used_ += n;
    return p;
  }

  size_t capacity() const { return buf_.size(); }

 private:
  std::vector<float> buf_;
  size_t used_ = 0;
};

namespace kern {

// C[m,n] = A[m,k] * B[k,n], optional fused relu. C is fully overwritten
// (accumulation starts from +0.0f, as the reference's zero-initialized
// output vector did).
void GemmRef(const float* a, const float* b, float* c, uint32_t m, uint32_t k,
             uint32_t n, bool relu);
void GemmOpt(const float* a, const float* b, float* c, uint32_t m, uint32_t k,
             uint32_t n, bool relu);

// Convolution lowering: out[cin*kh*kw, oh*ow] patch matrix, zero padding.
void Im2ColRef(const float* in, float* out, uint32_t cin, uint32_t h,
               uint32_t w, uint32_t kh, uint32_t kw, uint32_t stride,
               uint32_t pad);
void Im2ColOpt(const float* in, float* out, uint32_t cin, uint32_t h,
               uint32_t w, uint32_t kh, uint32_t kw, uint32_t stride,
               uint32_t pad);

// Direct convolution, optional fused relu. The optimized kernel repacks
// the [co][ci][ki][kj] weights into `wpack` (Conv2dPackFloats floats of
// caller-owned scratch, e.g. ScratchArena) as [ci][ki][kj][co] with co
// zero-padded to its lane width; the contents of wpack are overwritten.
void Conv2dRef(const float* in, const float* wts, float* out, uint32_t cin,
               uint32_t h, uint32_t w, uint32_t cout, uint32_t kh, uint32_t kw,
               uint32_t stride, uint32_t pad, bool relu);
size_t Conv2dPackFloats(uint32_t cin, uint32_t cout, uint32_t kh,
                        uint32_t kw);
void Conv2dOpt(const float* in, const float* wts, float* wpack, float* out,
               uint32_t cin, uint32_t h, uint32_t w, uint32_t cout,
               uint32_t kh, uint32_t kw, uint32_t stride, uint32_t pad,
               bool relu);

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
