// Wire protocol between DriverShim (cloud) and GpuShim (client TEE).
//
// All recording traffic is serialized to real bytes: message sizes drive
// the network timing model and reproduce §7.1's observation that commit
// payloads are small (200–400 B). Write values may be symbolic
// *expressions over reads in the same batch* (Listing 1(a): the write to
// MMU_CONFIG encodes S2 | 0x10); the client evaluates them against its own
// read results, which is what keeps deferral transparent to the GPU.
#ifndef GRT_SRC_SHIM_WIRE_H_
#define GRT_SRC_SHIM_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/driver/regvalue.h"

namespace grt {

// ----------------------------------------------------------------- batches
struct BatchItem {
  bool is_write = false;
  uint32_t reg = 0;
  // For writes: a small postfix program over constants and slot references
  // (slot i = result of the i-th read in this batch).
  struct Token {
    enum class Kind : uint8_t { kConst, kSlot, kAnd, kOr, kXor, kAdd, kShl,
                                kShr, kNot };
    Kind kind = Kind::kConst;
    uint32_t value = 0;  // kConst payload or kSlot index
  };
  std::vector<Token> expr;
};

struct CommitBatchMsg {
  uint64_t seq = 0;
  std::vector<BatchItem> items;

  Bytes Serialize() const;
  static Result<CommitBatchMsg> Deserialize(const Bytes& raw);
};

struct CommitReplyMsg {
  uint64_t seq = 0;
  std::vector<uint32_t> read_values;  // in batch read order
  Bytes Serialize() const;
  static Result<CommitReplyMsg> Deserialize(const Bytes& raw);
};

// Compiles a SymNode expression into postfix tokens. Reads must either be
// resolved (encoded as constants) or present in `slot_of` (reads belonging
// to the same batch).
Result<std::vector<BatchItem::Token>> CompileExpr(
    const SymNodePtr& node,
    const std::vector<const SymNode*>& batch_reads);

// Evaluates a postfix program against this batch's read results.
Result<uint32_t> EvalExpr(const std::vector<BatchItem::Token>& expr,
                          const std::vector<uint32_t>& slot_values);

// -------------------------------------------------------------------- polls
struct PollRequestMsg {
  uint64_t seq = 0;
  uint32_t reg = 0;
  uint32_t mask = 0;
  uint32_t expected = 0;
  int32_t max_iters = 0;
  int64_t iter_delay_ns = 0;
  Bytes Serialize() const;
  static Result<PollRequestMsg> Deserialize(const Bytes& raw);
};

struct PollReplyMsg {
  uint64_t seq = 0;
  uint32_t final_value = 0;
  int32_t iterations = 0;
  bool timed_out = false;
  Bytes Serialize() const;
  static Result<PollReplyMsg> Deserialize(const Bytes& raw);
};

// --------------------------------------------------------------- IRQ events
struct IrqEventMsg {
  uint8_t lines = 0;  // kIrqLine* bits (src/hw/regs.h)
  Bytes mem_dump;     // client->cloud memory synchronization payload
  Bytes Serialize() const;
  static Result<IrqEventMsg> Deserialize(const Bytes& raw);
};

// -------------------------------------------------------------- link frames
// Transport envelope carried by every recording-traffic message once the
// session is keyed: a link-level sequence number (for exactly-once
// execution under retransmission), the session epoch (bumped on every
// re-key after a disconnect, so frames from a dead incarnation can never
// be replayed into the new one), and an HMAC-SHA256 trailer under the
// session key. Receivers verify the MAC before trusting any field;
// corrupted frames are rejected and recovered by retransmission.
enum class FrameType : uint8_t {
  kCommit = 1,     // CommitBatchMsg -> CommitReplyMsg
  kPoll = 2,       // PollRequestMsg -> PollReplyMsg
  kCloudSync = 3,  // cloud->client memory sync -> empty ack
  kIrqEvent = 4,   // client->cloud IrqEventMsg push
  kControl = 5,    // payload with no client-side effect (e.g. download)
};

struct LinkFrame {
  FrameType type = FrameType::kControl;
  uint32_t epoch = 0;
  uint64_t seq = 0;
  Bytes payload;

  // body(type, epoch, seq, payload) || HMAC(key, body).
  Bytes Seal(const Bytes& key) const;
  // Verifies the trailer before parsing; kIntegrityViolation on any
  // mismatch or truncation.
  static Result<LinkFrame> Open(const Bytes& raw, const Bytes& key);
};

}  // namespace grt

#endif  // GRT_SRC_SHIM_WIRE_H_
