// Static plan footprints and pairwise interference analysis.
//
// Lifts a verified recording into a conservative summary of every resource
// a replay of it can touch: MMIO register ranges classified
// read/write/clobber via the clobber-window model in src/hw/regs, physical
// pages written by the CPU (applied page images, writable tensor bindings)
// and by GPU DMA (a walk of every page table the log latches into an
// address space), IRQ lines waited on, and the job-slot / address-space
// latch groups written. The footprint travels in the recording header
// (container v4) and is the evidence the serving device pool uses to prove
// two plans non-interfering before co-locating them on one device — the
// non-interference SAGE establishes dynamically, derived here ahead of
// time from the closed-world recording.
//
// Soundness contract: ComputeFootprint over-approximates. Every register a
// replay observes or perturbs, and every physical byte a replay (CPU or
// GPU) can write, lies inside the footprint. The `footprint-soundness`
// verifier pass re-derives the footprint and rejects recordings whose
// declared footprint fails to cover it; the CheckFootprintSoundness
// harness (src/harness/soundness.h) re-checks the same inclusion
// dynamically against per-page write observers on a live replay.
#ifndef GRT_SRC_ANALYSIS_FOOTPRINT_FOOTPRINT_H_
#define GRT_SRC_ANALYSIS_FOOTPRINT_FOOTPRINT_H_

#include <string>

#include "src/common/status.h"
#include "src/record/recording.h"
#include "src/sku/sku.h"

namespace grt {

// Pairwise interference verdict lattice, ordered by severity:
//
//   kDisjoint     the two replays touch provably disjoint state: no page
//                 either writes is readable or writable by the other, and
//                 they own disjoint job slots and address spaces. Safe to
//                 co-reside on one device with no fence — each engine's
//                 dirty-page warm path stays sound.
//   kSerializable the replays overlap only on register state one of them
//                 observes across its own plan boundary (or on IRQ lines
//                 waited on externally). A reset fence between runs — the
//                 replayer's default scrub_before — restores boot state,
//                 so serialized execution on one device is safe but
//                 interleaving without the fence is not.
//   kConflicting  a page one replay writes is read or written by the
//                 other, or they write the same job-slot / address-space
//                 latch group. DRAM survives reset fences and slot/AS
//                 sharing breaks the GPU-DMA page proof, so these plans
//                 must not share resident engines: separate devices, or
//                 evict-and-reload (cold) on every switch.
enum class Interference : uint8_t {
  kDisjoint = 0,
  kSerializable = 1,
  kConflicting = 2,
};

const char* InterferenceName(Interference v);

// Computes the conservative footprint of `rec`. `sku` supplies the
// page-table format for the GPU-DMA walk; when nullptr (unknown SKU) the
// walk is impossible and every recorded image page and binding page is
// instead marked read+write — maximally conservative, never unsound.
ResourceFootprint ComputeFootprint(const Recording& rec, const GpuSku* sku);

// Resolves the header's SKU and stamps header.footprint in place. Called
// by every recording producer (shim finish, recorder finish).
void StampFootprint(Recording* rec);

// Pairwise verdict; symmetric in its arguments.
Interference CheckInterference(const ResourceFootprint& a,
                               const ResourceFootprint& b);

// Admission-time verdict for a device pool. kSerializable's soundness
// argument IS the per-replay reset fence (the replayer's scrub_before
// hard reset restores boot state between runs); a deployment that
// disables the fence must treat serializable pairs as conflicting.
// `reset_fenced` says whether the pool replays with the fence on.
Interference AdmissionInterference(const ResourceFootprint& a,
                                   const ResourceFootprint& b,
                                   bool reset_fenced);

// True when `declared` over-approximates `required` (register ranges,
// page ranges, IRQ lines, slot/AS masks). On failure *why names the first
// uncovered resource.
bool FootprintCovers(const ResourceFootprint& declared,
                     const ResourceFootprint& required, std::string* why);

// Structural well-formedness: sorted non-overlapping ranges, register
// offsets 4-aligned inside the MMIO window, page-aligned page ranges.
Status ValidateFootprint(const ResourceFootprint& fp);

// Human-readable / machine-readable dumps (grt_lint --footprint,
// recording_inspector --footprint).
std::string FootprintToString(const ResourceFootprint& fp);
std::string FootprintToJson(const ResourceFootprint& fp);

}  // namespace grt

#endif  // GRT_SRC_ANALYSIS_FOOTPRINT_FOOTPRINT_H_
