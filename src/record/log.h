// The CPU/GPU interaction log: the content of a recording.
//
// Entries capture everything needed to reproduce GPU computation without a
// GPU stack (§2.3 "Completeness"): register writes (CPU stimuli), register
// reads with their observed values (GPU responses, validated at replay),
// polling waits, explicit delays, interrupt waits, and snapshots of shared
// memory (page images, deduplicated against the previous snapshot).
#ifndef GRT_SRC_RECORD_LOG_H_
#define GRT_SRC_RECORD_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/status.h"

namespace grt {

enum class LogOp : uint8_t {
  kRegWrite = 1,
  kRegRead = 2,   // expected value; replay verifies deterministic registers
  kPollWait = 3,  // replay: poll until (value & mask) == expected
  kDelay = 4,
  kIrqWait = 5,   // replay: wait for the same interrupt lines
  kMemPage = 6,   // page image: pa + content (possibly meta-only flagged)
};

// Human-readable op name ("reg-write", "poll-wait", ...).
const char* LogOpName(LogOp op);

struct LogEntry {
  LogOp op = LogOp::kRegWrite;
  uint32_t reg = 0;
  uint32_t value = 0;
  uint32_t mask = 0;      // kPollWait
  uint32_t expected = 0;  // kPollWait
  uint8_t irq_lines = 0;  // kIrqWait: kIrqLine* bits (src/hw/regs.h)
  Duration delay = 0;     // kDelay
  uint64_t pa = 0;        // kMemPage
  bool metastate = false; // kMemPage: page holds GPU metastate
  // kRegRead: value is a speculation-engine prediction that has not (yet)
  // been validated against the device (§4.2). Cleared when the real reply
  // matches (ConfirmReadValue) or the entry is patched with the truth
  // (PatchReadValue). A finished recording must have no speculative reads;
  // the static verifier rejects any residue.
  bool speculative = false;
  Bytes data;             // kMemPage content

  void Serialize(ByteWriter* w) const;
  static Result<LogEntry> Deserialize(ByteReader* r);
};

class InteractionLog {
 public:
  void Add(LogEntry entry) { entries_.push_back(std::move(entry)); }
  const std::vector<LogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  void Clear() { entries_.clear(); }

  // Counts by kind, for stats and tests.
  size_t CountOf(LogOp op) const;

  // Replaces the expected value of a kRegRead entry (misprediction
  // recovery patches predicted values with the device's true values) and
  // clears its speculative mark. Rejects out-of-range indices and entries
  // that are not register reads with a descriptive status.
  Status PatchReadValue(size_t index, uint32_t value);

  // Clears the speculative mark on a kRegRead entry whose predicted value
  // the device confirmed verbatim (§4.2 validation).
  Status ConfirmReadValue(size_t index);

  Bytes Serialize() const;
  static Result<InteractionLog> Deserialize(const Bytes& raw);

  // Rebuilds a log from raw entries. Tests only (hand-built plans); the
  // record path always appends through Add.
  static InteractionLog FromEntries(std::vector<LogEntry> entries);

 private:
  std::vector<LogEntry> entries_;
};

}  // namespace grt

#endif  // GRT_SRC_RECORD_LOG_H_
