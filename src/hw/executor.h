// Shader-core executor: parses job chains from GPU-virtual memory and
// actually performs the compute (GEMM, convolution lowering, pooling,
// elementwise ops) so that record/replay correctness is checkable
// end-to-end against a CPU reference.
//
// All memory traffic goes through the MMU walker + TLB with permission
// enforcement: shader fetches require the execute bit, data reads the read
// bit, result writes the write bit. Job duration follows a per-SKU cost
// model (core count × MACs/cycle × clock), so the same workload runs
// faster on an MP8 than an MP2 — and the JIT's per-SKU tiling is validated
// by the hardware (core-count mismatch faults the job).
//
// Two kernel engines share that contract (kernels.h):
//   * kOptimized (default) maps tensors as zero-copy views into
//     PhysicalMemory when their pages are physically contiguous (gather/
//     scatter through a per-device scratch arena otherwise), reads the
//     GEMM operands and the conv weights in place row by row, and runs
//     the blocked lane-parallel kernels;
//   * kReference replays the pre-rewrite data path — full-tensor DMA
//     copies through fresh vectors and the pinned scalar kernels — as the
//     golden baseline for bitwise equality and wall-clock speedup gates.
// Both engines produce bitwise-identical memory contents, identical MMU
// fault codes/addresses, and identical modeled durations (MACs and
// bytes-moved accounting are engine-independent), so recordings and the
// virtual timeline cannot observe which engine ran.
#ifndef GRT_SRC_HW_EXECUTOR_H_
#define GRT_SRC_HW_EXECUTOR_H_

#include <cstddef>
#include <cstdint>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/hw/job_format.h"
#include "src/hw/kernels.h"
#include "src/hw/mmu.h"
#include "src/mem/phys_mem.h"
#include "src/sku/sku.h"

namespace grt {

// DMA engine view of GPU memory: VA-addressed, permission-checked.
class GpuDma {
 public:
  GpuDma(const MmuWalker* walker, PhysicalMemory* mem, GpuTlb* tlb,
         uint64_t root_pa)
      : walker_(walker), mem_(mem), tlb_(tlb), root_pa_(root_pa) {}

  Status Read(uint64_t va, void* out, uint64_t len, bool as_code = false);
  Status Write(uint64_t va, const void* in, uint64_t len);

  Result<Bytes> ReadBytes(uint64_t va, uint64_t len, bool as_code = false);

  // ---- zero-copy tensor access (optimized kernel engine) ----
  //
  // A tensor operand of n floats at va whose every page translated with
  // read (or, for `write`, write) permission. Both kernel engines resolve
  // every operand of a job, inputs then output, before sizing any buffer
  // from a descriptor's shape, so a shape that cannot be mapped faults
  // instead of allocating. Fault semantics match Read()/Write(): pages
  // are walked ascending, so the fault register carries the first
  // offending VA.
  struct SpanF32 {
    uint64_t va = 0;
    size_t n = 0;
    uint64_t first_pa = 0;
    bool contiguous = true;  // one physically-contiguous run
  };
  Result<SpanF32> ResolveF32(uint64_t va, size_t n, bool write = false);

  // A pointer to a read-resolved span's floats: a direct view into
  // physical memory when the span is physically contiguous and 4-byte
  // aligned; otherwise (or when force_copy) a gather into arena scratch.
  Result<const float*> MapReadF32(const SpanF32& span, ScratchArena* arena,
                                  bool force_copy = false);

  // A read-resolved span addressed as `rows` rows of span.n / rows floats
  // (span.n must be a multiple of rows): an arena-resident table of row
  // pointers. A row inside one physically contiguous, 4-byte-aligned run
  // of pages is a direct view into physical memory; only a row that
  // straddles a physical break, or every row of a misaligned span, is
  // copied into arena scratch. The mapping needs RowTableFloats(rows) plus
  // span.n floats of arena (the copy region is reserved whole and only
  // the copied rows are written) and accounts the span's full length once,
  // like MapReadF32.
  Result<const float* const*> MapReadRowsF32(const SpanF32& span,
                                             size_t rows,
                                             ScratchArena* arena);

  // A mapped output tensor. `data` is where the kernel writes; direct
  // spans point straight into physical memory, buffered spans into arena
  // scratch that CommitWriteF32 scatters out.
  struct WriteSpanF32 {
    float* data = nullptr;
    uint64_t va = 0;
    size_t n = 0;
    uint64_t pa = 0;  // valid when direct
    bool direct = false;
  };

  // Maps a write-resolved span. Its pages were validated by ResolveF32,
  // so CommitWriteF32 cannot fault. force_copy buffers the output in the
  // arena — used when the output VA range overlaps an input's, to keep
  // the reference engine's read-everything-then-write semantics.
  Result<WriteSpanF32> MapWriteF32(const SpanF32& span, ScratchArena* arena,
                                   bool force_copy = false);

  // Completes a mapped write: fires write observers over the span (direct)
  // or scatters the buffered data through the page walk. Accounts the
  // span's bytes exactly like Write().
  Status CommitWriteF32(const WriteSpanF32& span);

  // Shader fetch without materializing the code body: walks every page of
  // the blob checking execute permission (ascending), copies out the first
  // min(blob_len, out_cap) bytes, and accounts blob_len bytes moved —
  // byte-identical fault and cost behaviour to a full ReadBytes.
  Status ReadShaderHeader(uint64_t va, uint64_t blob_len, uint8_t* out,
                          size_t out_cap, size_t* out_len);

  const MmuFault& fault() const { return fault_; }
  uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  // Copies [va, va + len) out page by page, without accounting; the pages
  // were validated by ResolveF32.
  Status CopyOut(uint64_t va, uint8_t* dst, uint64_t len);

  const MmuWalker* walker_;
  PhysicalMemory* mem_;
  GpuTlb* tlb_;
  uint64_t root_pa_;
  MmuFault fault_;
  uint64_t bytes_moved_ = 0;
};

struct ExecResult {
  Status status = OkStatus();   // kDeviceFault on job fault
  Duration duration = 0;        // modeled GPU execution time of the chain
  MmuFault mmu_fault;           // valid if status is an MMU-origin fault
  bool is_mmu_fault = false;
  uint64_t jobs_executed = 0;
  uint64_t total_macs = 0;
};

class ShaderCoreExecutor {
 public:
  ShaderCoreExecutor(const GpuSku& sku, PhysicalMemory* mem)
      : sku_(sku), mem_(mem), walker_(sku.pt_format, mem) {}

  // Executes the job chain rooted at head_va under address space root_pa.
  // Performs the math immediately; the caller schedules IRQ delivery at
  // now + result.duration.
  ExecResult ExecuteChain(uint64_t head_va, uint64_t root_pa, GpuTlb* tlb);

  // Selects the kernel implementation set (results are bitwise-identical
  // either way; benches flip this to measure the optimized engine against
  // the pinned reference).
  void set_engine(KernelEngine engine) { engine_ = engine; }
  KernelEngine engine() const { return engine_; }

  // Cumulative host wall-clock nanoseconds spent inside ExecuteChain.
  // Chains run synchronously inside dispatch register writes, so this is
  // the only place real shader-execution time is observable; replay
  // reports diff it to attribute wall time to the shader stage.
  uint64_t exec_wall_ns() const { return exec_wall_ns_; }

 private:
  ExecResult ExecuteChainImpl(uint64_t head_va, uint64_t root_pa, GpuTlb* tlb);
  Status ExecuteJob(const JobDescriptor& d, GpuDma* dma, uint64_t* macs);
  Status ExecuteJobReference(const JobDescriptor& d, GpuDma* dma,
                             uint64_t* macs);
  Status ExecuteJobOptimized(const JobDescriptor& d, GpuDma* dma,
                             uint64_t* macs);

  const GpuSku& sku_;
  PhysicalMemory* mem_;
  MmuWalker walker_;
  KernelEngine engine_ = KernelEngine::kOptimized;
  ScratchArena arena_;
  uint64_t exec_wall_ns_ = 0;
};

}  // namespace grt

#endif  // GRT_SRC_HW_EXECUTOR_H_
