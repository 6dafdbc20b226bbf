#include "src/hw/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace grt {

Status GpuDma::Read(uint64_t va, void* out, uint64_t len, bool as_code) {
  auto* dst = static_cast<uint8_t*>(out);
  uint64_t done = 0;
  while (done < len) {
    uint64_t cur_va = va + done;
    uint64_t chunk = std::min<uint64_t>(len - done,
                                        kPageSize - (cur_va & kPageMask));
    auto t = walker_->Translate(root_pa_, cur_va, tlb_, &fault_);
    if (!t.ok()) {
      return t.status();
    }
    bool permitted = as_code ? t.value().flags.execute : t.value().flags.read;
    if (!permitted) {
      fault_.status = kFaultPermission;
      fault_.address = cur_va;
      return DeviceFault("MMU permission fault (read)");
    }
    GRT_RETURN_IF_ERROR(
        mem_->Read(t.value().pa, dst + done, chunk, MemAccessOrigin::kGpu));
    done += chunk;
  }
  bytes_moved_ += len;
  return OkStatus();
}

Status GpuDma::Write(uint64_t va, const void* in, uint64_t len) {
  const auto* src = static_cast<const uint8_t*>(in);
  uint64_t done = 0;
  while (done < len) {
    uint64_t cur_va = va + done;
    uint64_t chunk = std::min<uint64_t>(len - done,
                                        kPageSize - (cur_va & kPageMask));
    auto t = walker_->Translate(root_pa_, cur_va, tlb_, &fault_);
    if (!t.ok()) {
      return t.status();
    }
    if (!t.value().flags.write) {
      fault_.status = kFaultPermission;
      fault_.address = cur_va;
      return DeviceFault("MMU permission fault (write)");
    }
    GRT_RETURN_IF_ERROR(
        mem_->Write(t.value().pa, src + done, chunk, MemAccessOrigin::kGpu));
    done += chunk;
  }
  bytes_moved_ += len;
  return OkStatus();
}

Result<Bytes> GpuDma::ReadBytes(uint64_t va, uint64_t len, bool as_code) {
  Bytes out(len);
  GRT_RETURN_IF_ERROR(Read(va, out.data(), len, as_code));
  return out;
}

Result<GpuDma::SpanF32> GpuDma::ResolveF32(uint64_t va, size_t n, bool write) {
  // Same ascending page walk as Read()/Write(), so the fault register
  // carries the first offending VA exactly as they would.
  SpanF32 span;
  span.va = va;
  span.n = n;
  const uint64_t len = static_cast<uint64_t>(n) * sizeof(float);
  uint64_t done = 0;
  while (done < len) {
    uint64_t cur_va = va + done;
    uint64_t chunk = std::min<uint64_t>(len - done,
                                        kPageSize - (cur_va & kPageMask));
    auto t = walker_->Translate(root_pa_, cur_va, tlb_, &fault_);
    if (!t.ok()) {
      return t.status();
    }
    if (!(write ? t.value().flags.write : t.value().flags.read)) {
      fault_.status = kFaultPermission;
      fault_.address = cur_va;
      return DeviceFault(write ? "MMU permission fault (write)"
                               : "MMU permission fault (read)");
    }
    if (done == 0) {
      span.first_pa = t.value().pa;
    } else if (t.value().pa != span.first_pa + done) {
      span.contiguous = false;
    }
    done += chunk;
  }
  return span;
}

Result<const float*> GpuDma::MapReadF32(const SpanF32& span,
                                        ScratchArena* arena, bool force_copy) {
  const uint64_t va = span.va;
  const uint64_t len = static_cast<uint64_t>(span.n) * sizeof(float);
  if (len == 0) {
    return static_cast<const float*>(nullptr);
  }
  if (!force_copy && span.contiguous && (span.first_pa & 3) == 0) {
    auto view = mem_->ReadView(span.first_pa, len, MemAccessOrigin::kGpu);
    if (!view.ok()) {
      return view.status();
    }
    bytes_moved_ += len;
    return reinterpret_cast<const float*>(view.value());
  }
  // Gather fallback: page-crossing discontiguous or unaligned tensors (or
  // forced copies for aliased operands). ResolveF32 primed the TLB.
  float* buf = arena->AllocF32(span.n);
  GRT_RETURN_IF_ERROR(CopyOut(va, reinterpret_cast<uint8_t*>(buf), len));
  bytes_moved_ += len;
  return static_cast<const float*>(buf);
}

Result<const float* const*> GpuDma::MapReadRowsF32(const SpanF32& span,
                                                   size_t rows,
                                                   ScratchArena* arena) {
  const float** table = arena->AllocRowTable(rows);
  const uint64_t len = static_cast<uint64_t>(span.n) * sizeof(float);
  if (rows == 0 || len == 0) {
    std::fill(table, table + rows, nullptr);
    return static_cast<const float* const*>(table);
  }
  const uint64_t row_bytes = len / rows;
  // Every address of a span shares its first byte's offset modulo 4
  // (pages are 4-byte aligned), so a misaligned span has no direct row.
  const bool aligned = (span.first_pa & 3) == 0;
  // Copied rows land at their own offset in a region reserved for the
  // whole tensor; only the rows written there touch its pages.
  float* spill = nullptr;
  // The physically contiguous run [run_lo, run_hi) of span offsets that
  // the last direct row came from, and its host view.
  uint64_t run_lo = 0;
  uint64_t run_hi = 0;
  const uint8_t* run_view = nullptr;
  if (aligned && span.contiguous) {
    GRT_ASSIGN_OR_RETURN(
        run_view, mem_->ReadView(span.first_pa, len, MemAccessOrigin::kGpu));
    run_hi = len;
  }
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t lo = r * row_bytes;
    const uint64_t hi = lo + row_bytes;
    if (aligned && lo >= run_hi) {
      // Open a run at this row and extend it page by page for as long as
      // the physical pages follow on. ResolveF32 primed the TLB.
      auto t = walker_->Translate(root_pa_, span.va + lo, tlb_, &fault_);
      if (!t.ok()) {
        return t.status();
      }
      const uint64_t run_pa = t.value().pa;
      uint64_t end = ((span.va + lo) & ~kPageMask) + kPageSize - span.va;
      while (end < len) {
        auto next = walker_->Translate(root_pa_, span.va + end, tlb_, &fault_);
        if (!next.ok()) {
          return next.status();
        }
        if (next.value().pa != run_pa + (end - lo)) {
          break;
        }
        end += kPageSize;
      }
      run_lo = lo;
      run_hi = std::min(end, len);
      GRT_ASSIGN_OR_RETURN(
          run_view,
          mem_->ReadView(run_pa, run_hi - run_lo, MemAccessOrigin::kGpu));
    }
    if (aligned && hi <= run_hi) {
      table[r] = reinterpret_cast<const float*>(run_view + (lo - run_lo));
      continue;
    }
    if (spill == nullptr) {
      spill = arena->AllocF32(span.n);
    }
    auto* dst = reinterpret_cast<uint8_t*>(spill) + lo;
    GRT_RETURN_IF_ERROR(CopyOut(span.va + lo, dst, row_bytes));
    table[r] = reinterpret_cast<const float*>(dst);
  }
  bytes_moved_ += len;
  return static_cast<const float* const*>(table);
}

Status GpuDma::CopyOut(uint64_t va, uint8_t* dst, uint64_t len) {
  uint64_t done = 0;
  while (done < len) {
    uint64_t cur_va = va + done;
    uint64_t chunk = std::min<uint64_t>(len - done,
                                        kPageSize - (cur_va & kPageMask));
    auto t = walker_->Translate(root_pa_, cur_va, tlb_, &fault_);
    if (!t.ok()) {
      return t.status();
    }
    GRT_RETURN_IF_ERROR(
        mem_->Read(t.value().pa, dst + done, chunk, MemAccessOrigin::kGpu));
    done += chunk;
  }
  return OkStatus();
}

Result<GpuDma::WriteSpanF32> GpuDma::MapWriteF32(const SpanF32& span,
                                                 ScratchArena* arena,
                                                 bool force_copy) {
  WriteSpanF32 out;
  out.va = span.va;
  out.n = span.n;
  const uint64_t len = static_cast<uint64_t>(span.n) * sizeof(float);
  if (len == 0) {
    return out;
  }
  if (!force_copy && span.contiguous && (span.first_pa & 3) == 0) {
    auto view = mem_->WriteView(span.first_pa, len, MemAccessOrigin::kGpu);
    if (!view.ok()) {
      return view.status();
    }
    out.data = reinterpret_cast<float*>(view.value());
    out.pa = span.first_pa;
    out.direct = true;
    return out;
  }
  out.data = arena->AllocF32(span.n);
  return out;
}

Status GpuDma::CommitWriteF32(const WriteSpanF32& span) {
  const uint64_t len = static_cast<uint64_t>(span.n) * sizeof(float);
  if (len == 0) {
    return OkStatus();
  }
  if (span.direct) {
    bytes_moved_ += len;
    mem_->NotifyWritten(span.pa, len);
    return OkStatus();
  }
  return Write(span.va, span.data, len);
}

Status GpuDma::ReadShaderHeader(uint64_t va, uint64_t blob_len, uint8_t* out,
                                size_t out_cap, size_t* out_len) {
  uint64_t done = 0;
  while (done < blob_len) {
    uint64_t cur_va = va + done;
    uint64_t chunk = std::min<uint64_t>(blob_len - done,
                                        kPageSize - (cur_va & kPageMask));
    auto t = walker_->Translate(root_pa_, cur_va, tlb_, &fault_);
    if (!t.ok()) {
      return t.status();
    }
    if (!t.value().flags.execute) {
      fault_.status = kFaultPermission;
      fault_.address = cur_va;
      return DeviceFault("MMU permission fault (read)");
    }
    // Policy-check every page like a full ReadBytes would, but only copy
    // the header prefix out.
    auto view = mem_->ReadView(t.value().pa, chunk, MemAccessOrigin::kGpu);
    if (!view.ok()) {
      return view.status();
    }
    if (done < out_cap) {
      uint64_t copy = std::min<uint64_t>(chunk, out_cap - done);
      std::memcpy(out + done, view.value(), static_cast<size_t>(copy));
    }
    done += chunk;
  }
  bytes_moved_ += blob_len;
  *out_len = static_cast<size_t>(std::min<uint64_t>(blob_len, out_cap));
  return OkStatus();
}

namespace {

// Reads a resolved float tensor from GPU memory (reference-engine data
// path).
Status ReadF32(GpuDma* dma, const GpuDma::SpanF32& span,
               std::vector<float>* out) {
  out->resize(span.n);
  return dma->Read(span.va, out->data(), span.n * sizeof(float));
}

Status WriteF32(GpuDma* dma, uint64_t va, const std::vector<float>& v) {
  return dma->Write(va, v.data(), v.size() * sizeof(float));
}

// The float count of a tensor with dimensions `dims`, saturated just past
// the GPU VA space. A larger tensor cannot be mapped (resolving it faults
// at its first unmapped page), and the plain size_t product of three or
// more uint32 dimensions can wrap to a small count that the kernel, which
// walks the true shape, would overrun.
size_t TensorFloats(std::initializer_list<uint32_t> dims) {
  constexpr uint64_t kCap = (uint64_t{1} << kGpuVaBits) / sizeof(float) + 1;
  uint64_t n = 1;
  for (uint32_t d : dims) {
    if (d == 0) {
      return 0;
    }
    n = n > kCap / d ? kCap : n * d;
  }
  return static_cast<size_t>(n);
}

struct Operand {
  uint64_t va;
  size_t n;
};

// A job's tensor operands, resolved in the order both engines fault in:
// inputs, then the output. Both engines resolve before sizing any buffer
// from the descriptor, so a shape whose operands cannot be mapped faults
// at the first unmapped VA instead of throwing from an allocation.
struct JobOperands {
  GpuDma::SpanF32 in[2];
  GpuDma::SpanF32 out;
};

Result<JobOperands> ResolveOperands(GpuDma* dma,
                                    std::initializer_list<Operand> inputs,
                                    Operand output) {
  JobOperands ops;
  size_t i = 0;
  for (const Operand& in : inputs) {
    GRT_ASSIGN_OR_RETURN(ops.in[i++], dma->ResolveF32(in.va, in.n));
  }
  GRT_ASSIGN_OR_RETURN(ops.out,
                       dma->ResolveF32(output.va, output.n, /*write=*/true));
  return ops;
}

// True when a window of `window` taps has at least one position inside
// `extent` plus `pad` on each side, with the padded extent representable
// in the kernels' uint32_t shape arithmetic. Otherwise the output-size
// formula (extent + 2*pad - window) / stride + 1 wraps, so both engines
// fault on the descriptor before computing any size.
bool WindowFits(uint32_t extent, uint32_t window, uint32_t pad) {
  const uint64_t padded = uint64_t{extent} + 2 * uint64_t{pad};
  return padded <= UINT32_MAX && window <= padded;
}

// True when the two float spans share any VA byte.
bool RangesOverlap(uint64_t va_a, size_t n_a, uint64_t va_b, size_t n_b) {
  const uint64_t la = static_cast<uint64_t>(n_a) * sizeof(float);
  const uint64_t lb = static_cast<uint64_t>(n_b) * sizeof(float);
  if (la == 0 || lb == 0) {
    return false;
  }
  return va_a < va_b + lb && va_b < va_a + la;
}

// Overlapping but not the exact same range. Identical ranges are safe for
// elementwise kernels (out[i] depends only on in[i]); anything partial
// needs the buffered read-everything-then-write path.
bool PartialOverlap(uint64_t va_a, size_t n_a, uint64_t va_b, size_t n_b) {
  return RangesOverlap(va_a, n_a, va_b, n_b) &&
         !(va_a == va_b && n_a == n_b);
}

[[maybe_unused]] const char* KernelSpanName(GpuOp op) {
  switch (op) {
    case GpuOp::kNop: return "hw.op.nop";
    case GpuOp::kGemm: return "hw.op.gemm";
    case GpuOp::kIm2Col: return "hw.op.im2col";
    case GpuOp::kConv2d: return "hw.op.conv2d";
    case GpuOp::kBiasRelu: return "hw.op.bias_relu";
    case GpuOp::kPoolMax: return "hw.op.pool_max";
    case GpuOp::kPoolAvg: return "hw.op.pool_avg";
    case GpuOp::kEltwiseAdd: return "hw.op.eltwise_add";
    case GpuOp::kSoftmax: return "hw.op.softmax";
    case GpuOp::kCopy: return "hw.op.copy";
    case GpuOp::kFill: return "hw.op.fill";
  }
  return "hw.op.unknown";
}

[[maybe_unused]] const char* KernelHistName(GpuOp op) {
  switch (op) {
    case GpuOp::kNop: return "hw.op_ns.nop";
    case GpuOp::kGemm: return "hw.op_ns.gemm";
    case GpuOp::kIm2Col: return "hw.op_ns.im2col";
    case GpuOp::kConv2d: return "hw.op_ns.conv2d";
    case GpuOp::kBiasRelu: return "hw.op_ns.bias_relu";
    case GpuOp::kPoolMax: return "hw.op_ns.pool_max";
    case GpuOp::kPoolAvg: return "hw.op_ns.pool_avg";
    case GpuOp::kEltwiseAdd: return "hw.op_ns.eltwise_add";
    case GpuOp::kSoftmax: return "hw.op_ns.softmax";
    case GpuOp::kCopy: return "hw.op_ns.copy";
    case GpuOp::kFill: return "hw.op_ns.fill";
  }
  return "hw.op_ns.unknown";
}

}  // namespace

Status ShaderCoreExecutor::ExecuteJob(const JobDescriptor& d, GpuDma* dma,
                                      uint64_t* macs) {
  GRT_TRACE_SPAN(KernelSpanName(d.op), "hw");
#if !defined(GRT_OBS_COMPILED_OUT)
  const bool timed = obs::Enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
#endif
  Status s = engine_ == KernelEngine::kReference
                 ? ExecuteJobReference(d, dma, macs)
                 : ExecuteJobOptimized(d, dma, macs);
#if !defined(GRT_OBS_COMPILED_OUT)
  if (timed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    // Not GRT_OBS_HIST: that macro caches one histogram per call site, but
    // the metric name here varies per op.
    obs::MetricsRegistry::Global()
        .GetHistogram(KernelHistName(d.op))
        ->Record(static_cast<uint64_t>(ns));
  }
#endif
  return s;
}

// The pre-rewrite engine: full-tensor DMA copies through fresh vectors,
// pinned scalar kernels. Baseline for bitwise equality and wall-clock
// speedup measurement.
Status ShaderCoreExecutor::ExecuteJobReference(const JobDescriptor& d,
                                               GpuDma* dma, uint64_t* macs) {
  switch (d.op) {
    case GpuOp::kNop:
      return OkStatus();

    case GpuOp::kGemm: {
      uint32_t m = d.params[0], k = d.params[1], n = d.params[2];
      if (m == 0 || k == 0 || n == 0) {
        return DeviceFault("GEMM with zero dimension");
      }
      const size_t an = static_cast<size_t>(m) * k;
      const size_t bn = static_cast<size_t>(k) * n;
      const size_t cn = static_cast<size_t>(m) * n;
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], an}, {d.aux_va, bn}},
                          {d.output_va, cn}));
      std::vector<float> a, b, c(cn);
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[0], &a));
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[1], &b));
      kern::GemmRef(a.data(), b.data(), c.data(), m, k, n,
                    (d.flags & kJobFlagReluFused) != 0);
      *macs += static_cast<uint64_t>(m) * k * n;
      return WriteF32(dma, d.output_va, c);
    }

    case GpuOp::kIm2Col: {
      uint32_t cin = d.params[0], h = d.params[1], w = d.params[2];
      uint32_t kh = d.params[3], kw = d.params[4];
      uint32_t stride = d.params[5], pad = d.params[6];
      if (stride == 0) {
        return DeviceFault("im2col stride 0");
      }
      if (!WindowFits(h, kh, pad) || !WindowFits(w, kw, pad)) {
        return DeviceFault("im2col window exceeds padded input");
      }
      uint32_t oh = (h + 2 * pad - kh) / stride + 1;
      uint32_t ow = (w + 2 * pad - kw) / stride + 1;
      const size_t in_n = TensorFloats({cin, h, w});
      const size_t out_n = TensorFloats({cin, kh, kw, oh, ow});
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], in_n}}, {d.output_va, out_n}));
      std::vector<float> in;
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[0], &in));
      std::vector<float> out(out_n);
      kern::Im2ColRef(in.data(), out.data(), cin, h, w, kh, kw, stride, pad);
      *macs += out.size();  // data movement cost proxy
      return WriteF32(dma, d.output_va, out);
    }

    case GpuOp::kConv2d: {
      uint32_t cin = d.params[0], h = d.params[1], w = d.params[2];
      uint32_t cout = d.params[3], kh = d.params[4], kw = d.params[5];
      uint32_t stride = d.params[6], pad = d.params[7];
      if (stride == 0) {
        return DeviceFault("conv stride 0");
      }
      if (!WindowFits(h, kh, pad) || !WindowFits(w, kw, pad)) {
        return DeviceFault("conv window exceeds padded input");
      }
      uint32_t oh = (h + 2 * pad - kh) / stride + 1;
      uint32_t ow = (w + 2 * pad - kw) / stride + 1;
      const size_t in_n = TensorFloats({cin, h, w});
      const size_t wt_n = TensorFloats({cout, cin, kh, kw});
      const size_t out_n = TensorFloats({cout, oh, ow});
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], in_n}, {d.aux_va, wt_n}},
                          {d.output_va, out_n}));
      std::vector<float> in, wts;
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[0], &in));
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[1], &wts));
      std::vector<float> out(out_n);
      kern::Conv2dRef(in.data(), wts.data(), out.data(), cin, h, w, cout, kh,
                      kw, stride, pad, (d.flags & kJobFlagReluFused) != 0);
      *macs += static_cast<uint64_t>(cout) * oh * ow * cin * kh * kw;
      return WriteF32(dma, d.output_va, out);
    }

    case GpuOp::kBiasRelu: {
      uint32_t count = d.params[0], bias_len = d.params[1];
      if (bias_len > 0 && count > 0 && count / bias_len == 0) {
        return DeviceFault("bias_relu bad shape");
      }
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], count}, {d.aux_va, bias_len}},
                          {d.output_va, count}));
      std::vector<float> x, b;
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[0], &x));
      if (bias_len > 0) {
        GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[1], &b));
      }
      kern::BiasReluRef(x.data(), bias_len > 0 ? b.data() : nullptr, x.data(),
                        count, bias_len, (d.flags & kJobFlagReluFused) != 0);
      *macs += count;
      return WriteF32(dma, d.output_va, x);
    }

    case GpuOp::kPoolMax:
    case GpuOp::kPoolAvg: {
      uint32_t c = d.params[0], h = d.params[1], w = d.params[2];
      uint32_t win = d.params[3], stride = d.params[4];
      if (stride == 0 || win == 0) {
        return DeviceFault("pool with zero window/stride");
      }
      if (!WindowFits(h, win, 0) || !WindowFits(w, win, 0)) {
        return DeviceFault("pool window exceeds input");
      }
      uint32_t oh = (h - win) / stride + 1;
      uint32_t ow = (w - win) / stride + 1;
      const size_t in_n = TensorFloats({c, h, w});
      const size_t out_n = TensorFloats({c, oh, ow});
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], in_n}}, {d.output_va, out_n}));
      std::vector<float> in;
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[0], &in));
      std::vector<float> out(out_n);
      kern::PoolRef(in.data(), out.data(), c, h, w, win, stride,
                    d.op == GpuOp::kPoolMax);
      *macs += static_cast<uint64_t>(c) * oh * ow * win * win;
      return WriteF32(dma, d.output_va, out);
    }

    case GpuOp::kEltwiseAdd: {
      uint32_t count = d.params[0];
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], count}, {d.input_va[1], count}},
                          {d.output_va, count}));
      std::vector<float> a, b;
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[0], &a));
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[1], &b));
      kern::EltwiseAddRef(a.data(), b.data(), a.data(), count,
                          (d.flags & kJobFlagReluFused) != 0);
      *macs += count;
      return WriteF32(dma, d.output_va, a);
    }

    case GpuOp::kSoftmax: {
      uint32_t count = d.params[0];
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], count}}, {d.output_va, count}));
      std::vector<float> x;
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[0], &x));
      kern::SoftmaxRef(x.data(), x.data(), count);
      *macs += 4ull * count;
      return WriteF32(dma, d.output_va, x);
    }

    case GpuOp::kCopy: {
      uint32_t count = d.params[0];
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], count}}, {d.output_va, count}));
      std::vector<float> x;
      GRT_RETURN_IF_ERROR(ReadF32(dma, ops.in[0], &x));
      *macs += count;
      return WriteF32(dma, d.output_va, x);
    }

    case GpuOp::kFill: {
      uint32_t count = d.params[0];
      float value;
      uint32_t bits = d.params[1];
      std::memcpy(&value, &bits, sizeof(value));
      GRT_RETURN_IF_ERROR(
          ResolveOperands(dma, {}, {d.output_va, count}).status());
      std::vector<float> x(count, value);
      *macs += count;
      return WriteF32(dma, d.output_va, x);
    }
  }
  return DeviceFault("unknown GPU op");
}

// The zero-copy engine: tensors are mapped as direct views into physical
// memory when possible (gather/scatter through the arena otherwise), and
// outputs aliasing an input VA range are forced through an arena buffer so
// the kernels observe the reference engine's read-everything-then-write
// semantics. MACs, bytes-moved, and fault behaviour match the reference
// engine exactly.
Status ShaderCoreExecutor::ExecuteJobOptimized(const JobDescriptor& d,
                                               GpuDma* dma, uint64_t* macs) {
  switch (d.op) {
    case GpuOp::kNop:
      return OkStatus();

    case GpuOp::kGemm: {
      uint32_t m = d.params[0], k = d.params[1], n = d.params[2];
      if (m == 0 || k == 0 || n == 0) {
        return DeviceFault("GEMM with zero dimension");
      }
      const size_t an = static_cast<size_t>(m) * k;
      const size_t bn = static_cast<size_t>(k) * n;
      const size_t cn = static_cast<size_t>(m) * n;
      const size_t pack_n = kern::GemmPackFloats(k, n);
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], an}, {d.aux_va, bn}},
                          {d.output_va, cn}));
      // A and B are read in place row by row; B is packed into panels.
      arena_.BeginJob(ScratchArena::RowTableFloats(m) + an +
                      ScratchArena::RowTableFloats(k) + bn + cn + pack_n +
                      6 * 16);
      const bool clash = RangesOverlap(d.output_va, cn, d.input_va[0], an) ||
                         RangesOverlap(d.output_va, cn, d.aux_va, bn);
      GRT_ASSIGN_OR_RETURN(const float* const* a,
                           dma->MapReadRowsF32(ops.in[0], m, &arena_));
      GRT_ASSIGN_OR_RETURN(const float* const* b,
                           dma->MapReadRowsF32(ops.in[1], k, &arena_));
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 c,
                           dma->MapWriteF32(ops.out, &arena_, clash));
      kern::GemmOpt(a, b, arena_.AllocF32(pack_n), c.data, m, k, n,
                    (d.flags & kJobFlagReluFused) != 0);
      *macs += static_cast<uint64_t>(m) * k * n;
      return dma->CommitWriteF32(c);
    }

    case GpuOp::kIm2Col: {
      uint32_t cin = d.params[0], h = d.params[1], w = d.params[2];
      uint32_t kh = d.params[3], kw = d.params[4];
      uint32_t stride = d.params[5], pad = d.params[6];
      if (stride == 0) {
        return DeviceFault("im2col stride 0");
      }
      if (!WindowFits(h, kh, pad) || !WindowFits(w, kw, pad)) {
        return DeviceFault("im2col window exceeds padded input");
      }
      uint32_t oh = (h + 2 * pad - kh) / stride + 1;
      uint32_t ow = (w + 2 * pad - kw) / stride + 1;
      const size_t in_n = TensorFloats({cin, h, w});
      const size_t out_n = TensorFloats({cin, kh, kw, oh, ow});
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], in_n}}, {d.output_va, out_n}));
      arena_.BeginJob(in_n + out_n + 48);
      const bool clash = RangesOverlap(d.output_va, out_n, d.input_va[0], in_n);
      GRT_ASSIGN_OR_RETURN(const float* in,
                           dma->MapReadF32(ops.in[0], &arena_));
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 out,
                           dma->MapWriteF32(ops.out, &arena_, clash));
      kern::Im2ColOpt(in, out.data, cin, h, w, kh, kw, stride, pad);
      *macs += out_n;  // data movement cost proxy
      return dma->CommitWriteF32(out);
    }

    case GpuOp::kConv2d: {
      uint32_t cin = d.params[0], h = d.params[1], w = d.params[2];
      uint32_t cout = d.params[3], kh = d.params[4], kw = d.params[5];
      uint32_t stride = d.params[6], pad = d.params[7];
      if (stride == 0) {
        return DeviceFault("conv stride 0");
      }
      if (!WindowFits(h, kh, pad) || !WindowFits(w, kw, pad)) {
        return DeviceFault("conv window exceeds padded input");
      }
      uint32_t oh = (h + 2 * pad - kh) / stride + 1;
      uint32_t ow = (w + 2 * pad - kw) / stride + 1;
      const size_t in_n = TensorFloats({cin, h, w});
      const size_t wt_n = TensorFloats({cout, cin, kh, kw});
      const size_t out_n = TensorFloats({cout, oh, ow});
      const size_t pack_n = kern::Conv2dPackFloats(cin, cout, kh, kw);
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], in_n}, {d.aux_va, wt_n}},
                          {d.output_va, out_n}));
      // The weights are read in place, one output channel's row at a time.
      arena_.BeginJob(in_n + ScratchArena::RowTableFloats(cout) + wt_n +
                      out_n + pack_n + 5 * 16);
      const bool clash =
          RangesOverlap(d.output_va, out_n, d.input_va[0], in_n) ||
          RangesOverlap(d.output_va, out_n, d.aux_va, wt_n);
      GRT_ASSIGN_OR_RETURN(const float* in,
                           dma->MapReadF32(ops.in[0], &arena_));
      GRT_ASSIGN_OR_RETURN(const float* const* wts,
                           dma->MapReadRowsF32(ops.in[1], cout, &arena_));
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 out,
                           dma->MapWriteF32(ops.out, &arena_, clash));
      kern::Conv2dOpt(in, wts, arena_.AllocF32(pack_n), out.data, cin, h, w,
                      cout, kh, kw, stride, pad,
                      (d.flags & kJobFlagReluFused) != 0);
      *macs += static_cast<uint64_t>(cout) * oh * ow * cin * kh * kw;
      return dma->CommitWriteF32(out);
    }

    case GpuOp::kBiasRelu: {
      uint32_t count = d.params[0], bias_len = d.params[1];
      if (bias_len > 0 && count > 0 && count / bias_len == 0) {
        return DeviceFault("bias_relu bad shape");
      }
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], count}, {d.aux_va, bias_len}},
                          {d.output_va, count}));
      arena_.BeginJob(static_cast<size_t>(count) * 2 + bias_len + 64);
      // Identical-range aliasing is elementwise-safe here: when the bias
      // range equals the output range, count == bias_len so spatial == 1
      // and out[i] reads only bias[i].
      const bool clash =
          PartialOverlap(d.output_va, count, d.input_va[0], count) ||
          PartialOverlap(d.output_va, count, d.aux_va, bias_len);
      GRT_ASSIGN_OR_RETURN(const float* x, dma->MapReadF32(ops.in[0], &arena_));
      // A zero-length bias maps to nullptr (no bias).
      GRT_ASSIGN_OR_RETURN(const float* bias,
                           dma->MapReadF32(ops.in[1], &arena_));
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 out,
                           dma->MapWriteF32(ops.out, &arena_, clash));
      kern::BiasReluOpt(x, bias, out.data, count, bias_len,
                        (d.flags & kJobFlagReluFused) != 0);
      *macs += count;
      return dma->CommitWriteF32(out);
    }

    case GpuOp::kPoolMax:
    case GpuOp::kPoolAvg: {
      uint32_t c = d.params[0], h = d.params[1], w = d.params[2];
      uint32_t win = d.params[3], stride = d.params[4];
      if (stride == 0 || win == 0) {
        return DeviceFault("pool with zero window/stride");
      }
      if (!WindowFits(h, win, 0) || !WindowFits(w, win, 0)) {
        return DeviceFault("pool window exceeds input");
      }
      uint32_t oh = (h - win) / stride + 1;
      uint32_t ow = (w - win) / stride + 1;
      const size_t in_n = TensorFloats({c, h, w});
      const size_t out_n = TensorFloats({c, oh, ow});
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], in_n}}, {d.output_va, out_n}));
      arena_.BeginJob(in_n + out_n + 48);
      const bool clash = RangesOverlap(d.output_va, out_n, d.input_va[0], in_n);
      GRT_ASSIGN_OR_RETURN(const float* in,
                           dma->MapReadF32(ops.in[0], &arena_));
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 out,
                           dma->MapWriteF32(ops.out, &arena_, clash));
      kern::PoolOpt(in, out.data, c, h, w, win, stride,
                    d.op == GpuOp::kPoolMax);
      *macs += static_cast<uint64_t>(c) * oh * ow * win * win;
      return dma->CommitWriteF32(out);
    }

    case GpuOp::kEltwiseAdd: {
      uint32_t count = d.params[0];
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], count}, {d.input_va[1], count}},
                          {d.output_va, count}));
      arena_.BeginJob(static_cast<size_t>(count) * 3 + 64);
      const bool clash =
          PartialOverlap(d.output_va, count, d.input_va[0], count) ||
          PartialOverlap(d.output_va, count, d.input_va[1], count);
      GRT_ASSIGN_OR_RETURN(const float* a, dma->MapReadF32(ops.in[0], &arena_));
      GRT_ASSIGN_OR_RETURN(const float* b, dma->MapReadF32(ops.in[1], &arena_));
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 out,
                           dma->MapWriteF32(ops.out, &arena_, clash));
      kern::EltwiseAddOpt(a, b, out.data, count,
                          (d.flags & kJobFlagReluFused) != 0);
      *macs += count;
      return dma->CommitWriteF32(out);
    }

    case GpuOp::kSoftmax: {
      uint32_t count = d.params[0];
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], count}}, {d.output_va, count}));
      arena_.BeginJob(static_cast<size_t>(count) * 2 + 48);
      const bool clash =
          PartialOverlap(d.output_va, count, d.input_va[0], count);
      GRT_ASSIGN_OR_RETURN(const float* x, dma->MapReadF32(ops.in[0], &arena_));
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 out,
                           dma->MapWriteF32(ops.out, &arena_, clash));
      kern::SoftmaxOpt(x, out.data, count);
      *macs += 4ull * count;
      return dma->CommitWriteF32(out);
    }

    case GpuOp::kCopy: {
      uint32_t count = d.params[0];
      GRT_ASSIGN_OR_RETURN(
          JobOperands ops,
          ResolveOperands(dma, {{d.input_va[0], count}}, {d.output_va, count}));
      arena_.BeginJob(static_cast<size_t>(count) * 2 + 48);
      const bool clash =
          PartialOverlap(d.output_va, count, d.input_va[0], count);
      GRT_ASSIGN_OR_RETURN(const float* x, dma->MapReadF32(ops.in[0], &arena_));
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 out,
                           dma->MapWriteF32(ops.out, &arena_, clash));
      kern::CopyOpt(x, out.data, count);
      *macs += count;
      return dma->CommitWriteF32(out);
    }

    case GpuOp::kFill: {
      uint32_t count = d.params[0];
      float value;
      uint32_t bits = d.params[1];
      std::memcpy(&value, &bits, sizeof(value));
      GRT_ASSIGN_OR_RETURN(JobOperands ops,
                           ResolveOperands(dma, {}, {d.output_va, count}));
      arena_.BeginJob(static_cast<size_t>(count) + 32);
      GRT_ASSIGN_OR_RETURN(GpuDma::WriteSpanF32 out,
                           dma->MapWriteF32(ops.out, &arena_));
      kern::FillOpt(out.data, count, value);
      *macs += count;
      return dma->CommitWriteF32(out);
    }
  }
  return DeviceFault("unknown GPU op");
}

ExecResult ShaderCoreExecutor::ExecuteChain(uint64_t head_va, uint64_t root_pa,
                                            GpuTlb* tlb) {
  const auto wall0 = std::chrono::steady_clock::now();
  ExecResult result = ExecuteChainImpl(head_va, root_pa, tlb);
  exec_wall_ns_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0)
          .count());
  return result;
}

ExecResult ShaderCoreExecutor::ExecuteChainImpl(uint64_t head_va,
                                                uint64_t root_pa, GpuTlb* tlb) {
  ExecResult result;
  GpuDma dma(&walker_, mem_, tlb, root_pa);

  constexpr Duration kJobOverhead = 18 * kMicrosecond;
  constexpr int kMaxChainLength = 4096;  // runaway-chain backstop

  uint64_t va = head_va;
  int chain_len = 0;
  while (va != 0) {
    if (++chain_len > kMaxChainLength) {
      result.status = DeviceFault("job chain too long");
      return result;
    }
    uint8_t desc_buf[kJobDescSize];
    Status rs = dma.Read(va, desc_buf, kJobDescSize);
    if (!rs.ok()) {
      result.status = rs;
      result.mmu_fault = dma.fault();
      result.is_mmu_fault = true;
      result.duration += kJobOverhead;
      return result;
    }
    auto desc = JobDescriptor::Deserialize(desc_buf, kJobDescSize);
    if (!desc.ok()) {
      result.status = desc.status();
      result.duration += kJobOverhead;
      return result;
    }
    const JobDescriptor& d = desc.value();

    // Shared-memory layout check: a descriptor produced for another SKU
    // generation is rejected (§2.4 breakage).
    if (d.layout_version != sku_.mem_layout_version) {
      result.status = DeviceFault("job descriptor layout mismatch");
      result.duration += kJobOverhead;
      return result;
    }

    // Shader fetch + validation (requires executable mapping). The
    // optimized engine validates execute permission on every blob page but
    // copies out only the header; the reference engine materializes the
    // whole blob as before. Both account shader_len bytes moved.
    if (d.shader_va != 0) {
      Result<ShaderBlobHeader> header = ShaderBlobHeader{};
      if (engine_ == KernelEngine::kReference) {
        auto blob = dma.ReadBytes(d.shader_va, d.shader_len, /*as_code=*/true);
        if (!blob.ok()) {
          result.status = blob.status();
          result.mmu_fault = dma.fault();
          result.is_mmu_fault = true;
          result.duration += kJobOverhead;
          return result;
        }
        header = ParseShaderBlob(blob.value());
      } else {
        uint8_t hdr_buf[kShaderHeaderSize];
        size_t hdr_len = 0;
        Status hs = dma.ReadShaderHeader(d.shader_va, d.shader_len, hdr_buf,
                                         sizeof(hdr_buf), &hdr_len);
        if (!hs.ok()) {
          result.status = hs;
          result.mmu_fault = dma.fault();
          result.is_mmu_fault = true;
          result.duration += kJobOverhead;
          return result;
        }
        header = ParseShaderHeader(hdr_buf, hdr_len, d.shader_len);
      }
      if (!header.ok()) {
        result.status = header.status();
        result.duration += kJobOverhead;
        return result;
      }
      // The JIT tiled this shader for a specific core count; running it on
      // different hardware is invalid (the paper: shader core count
      // "determines how the JIT compiler generates and optimizes shaders").
      if (header.value().core_count !=
              static_cast<uint32_t>(sku_.core_count()) ||
          header.value().layout_version != sku_.mem_layout_version ||
          header.value().op != d.op) {
        result.status = DeviceFault("shader/SKU mismatch");
        result.duration += kJobOverhead;
        return result;
      }
    }

    uint64_t macs = 0;
    Status s = ExecuteJob(d, &dma, &macs);
    if (!s.ok()) {
      result.status = s;
      if (dma.fault().status != 0) {
        result.mmu_fault = dma.fault();
        result.is_mmu_fault = true;
      }
      result.duration += kJobOverhead;
      return result;
    }

    // Cost model: MAC throughput + memory traffic at ~8 GB/s.
    double clock_hz = static_cast<double>(sku_.clock_mhz) * 1e6;
    double mac_rate =
        clock_hz * sku_.macs_per_core_clk * sku_.core_count();
    Duration compute = static_cast<Duration>(
        static_cast<double>(macs) / mac_rate * kSecond);
    result.duration += kJobOverhead + compute;
    result.total_macs += macs;
    ++result.jobs_executed;

    va = d.next_job_va;
  }

  // Memory traffic term, once per chain.
  constexpr double kMemBytesPerSec = 8e9;
  result.duration += static_cast<Duration>(
      static_cast<double>(dma.bytes_moved()) / kMemBytesPerSec * kSecond);
  return result;
}

}  // namespace grt
