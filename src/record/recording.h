// The recording container: header + tensor bindings + interaction log,
// signed by the producer (the cloud, §3.2: "DriverShim processes logged
// interactions as a recording; it signs and sends the recording back").
//
// The replayer verifies the signature and the SKU identity before touching
// the GPU: "the replayer only accepts recordings signed by the cloud"
// (§7.1), and recordings are SKU-specific (§2.4).
#ifndef GRT_SRC_RECORD_RECORDING_H_
#define GRT_SRC_RECORD_RECORDING_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/bytes.h"
#include "src/common/sha256.h"
#include "src/common/status.h"
#include "src/record/log.h"
#include "src/sku/sku.h"

namespace grt {

// Where a named workload tensor lives in GPU memory; the replayer uses
// these to inject new inputs / model parameters and fetch outputs
// ("the replayer injects a new input to the recorded input address and can
// later retrieve the corresponding output from the recorded output
// address", §2.3).
struct TensorBinding {
  uint64_t va = 0;
  uint64_t n_floats = 0;
  // Physical pages backing the tensor, in VA order (the replayer writes
  // through physical addresses; it has no GPU stack to translate).
  std::vector<uint64_t> pages;
  bool writable_at_replay = false;  // inputs/parameters: yes; outputs: no
};

// Container format revision. v2 added the per-read speculative mark to the
// kRegRead wire encoding; v3 added an offline-optimizer provenance block to
// the header; v4 added the static resource footprint; v5 dropped the
// provenance block with the optimizer that wrote it. Older versions are
// refused (v1 predates the static verifier and cannot prove
// speculation-residue freedom; v2 and v3 carry no footprint, so the
// serving device pool could not prove two plans non-interfering; v4
// carries the provenance block this layout no longer reads).
constexpr uint32_t kRecordingVersion = 5;

// ------------------------------------------------------ resource footprint
// Conservative static summary of everything a replay of this recording can
// touch (v4). Computed by src/analysis/footprint from the interaction log
// and the recorded memory images; the `footprint-soundness` verifier pass
// refuses recordings whose declared footprint fails to over-approximate a
// recomputation, and the serving device pool uses pairwise interference
// verdicts over footprints to decide which plans may share a device.

// Access-class bits carried per FootprintRange.
constexpr uint8_t kFpRead = 1;      // observed (read / polled)
constexpr uint8_t kFpWrite = 2;     // written directly
constexpr uint8_t kFpClobber = 4;   // possibly perturbed by a write to a
                                    // different register (clobber window)
constexpr uint8_t kFpExternal = 8;  // observed before any in-log stimulus
                                    // established it (crosses the plan
                                    // boundary; empty for real recordings)

// Half-open interval [lo, hi) of byte addresses — MMIO offsets for the
// register set, physical addresses for the page set — with the union of
// access bits over the interval. Ranges are sorted and non-overlapping.
struct FootprintRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint8_t access = 0;
};

struct ResourceFootprint {
  bool computed = false;  // false: recording predates stamping (warn-only)
  std::vector<FootprintRange> regs;   // MMIO offsets within the GPU window
  std::vector<FootprintRange> pages;  // physical pages (page-aligned)
  uint8_t irq_lines = 0;     // IRQ lines waited on (kIrqLine* bits)
  uint8_t irq_external = 0;  // lines waited on before in-log establishment
  uint32_t slot_write_mask = 0;  // job-slot latch groups written
  uint32_t as_write_mask = 0;    // address-space latch groups written

  // Union of access bits over ranges covering `addr` (0 if uncovered).
  uint8_t AccessAt(const std::vector<FootprintRange>& ranges,
                   uint64_t addr) const {
    uint8_t bits = 0;
    for (const FootprintRange& range : ranges) {
      if (addr >= range.lo && addr < range.hi) {
        bits |= range.access;
      }
    }
    return bits;
  }
  uint8_t RegAccess(uint64_t reg) const { return AccessAt(regs, reg); }
  uint8_t PageAccess(uint64_t pa) const { return AccessAt(pages, pa); }
};

struct RecordingHeader {
  uint32_t magic = 0x47525452;  // "GRTR"
  uint32_t version = kRecordingVersion;
  std::string workload;
  SkuId sku = SkuId::kMaliG71Mp8;
  uint64_t record_nonce = 0;  // freshness / identification
  // Per-layer granularity (Fig. 2): this recording is segment k of n
  // produced by one record run; {0, 1} for a monolithic recording.
  uint32_t segment_index = 0;
  uint32_t segment_count = 1;
  // Static resource footprint (v4), stamped at recording finish.
  ResourceFootprint footprint;
};

class Recording {
 public:
  RecordingHeader header;
  std::map<std::string, TensorBinding> bindings;
  InteractionLog log;

  // Serializes the body (everything except the signature).
  Bytes SerializeBody() const;

  // Body + HMAC trailer under `key` (the cloud/session key).
  Bytes SerializeSigned(const Bytes& key) const;

  // Verifies the trailer MAC and parses. Refuses tampered recordings.
  static Result<Recording> ParseSigned(const Bytes& raw, const Bytes& key);

  // Parses without verification (for introspection in trusted tests).
  static Result<Recording> ParseUnsigned(const Bytes& body);
};

}  // namespace grt

#endif  // GRT_SRC_RECORD_RECORDING_H_
