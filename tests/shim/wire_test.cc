// Wire protocol tests: commit batches with symbolic write expressions,
// postfix compilation/evaluation properties, poll and IRQ messages.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/hw/regs.h"
#include "src/shim/wire.h"

namespace grt {
namespace {

using TokenKind = BatchItem::Token::Kind;

TEST(Wire, CommitBatchRoundTrip) {
  CommitBatchMsg msg;
  msg.seq = 99;
  BatchItem read;
  read.reg = 0x100;
  msg.items.push_back(read);
  BatchItem write;
  write.is_write = true;
  write.reg = 0xF0C;
  write.expr = {{TokenKind::kSlot, 0},
                {TokenKind::kConst, 0x10},
                {TokenKind::kOr, 0}};
  msg.items.push_back(write);

  auto parsed = CommitBatchMsg::Deserialize(msg.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->seq, 99u);
  ASSERT_EQ(parsed->items.size(), 2u);
  EXPECT_FALSE(parsed->items[0].is_write);
  EXPECT_TRUE(parsed->items[1].is_write);
  ASSERT_EQ(parsed->items[1].expr.size(), 3u);
  EXPECT_EQ(parsed->items[1].expr[0].kind, TokenKind::kSlot);
}

TEST(Wire, CommitPayloadIsSmall) {
  // §7.1: commit payloads are a few hundred bytes at most.
  CommitBatchMsg msg;
  for (int i = 0; i < 4; ++i) {
    BatchItem item;
    item.is_write = (i % 2) == 1;
    item.reg = 0x100 + 4 * i;
    if (item.is_write) {
      item.expr = {{TokenKind::kConst, 0xFF}};
    }
    msg.items.push_back(item);
  }
  EXPECT_LT(msg.Serialize().size(), 100u);
}

TEST(Wire, ExprCompileResolvesSlotAndConst) {
  // (S0 | 0x10) where S0 is this batch's first read — Listing 1(a).
  SymNodePtr read = MakeReadNode(1, 0xF0C);
  SymNodePtr expr = MakeOpNode(SymOp::kOr, read, MakeConstNode(0x10));
  auto tokens = CompileExpr(expr, {read.get()});
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(EvalExpr(tokens.value(), {0x03}).value(), 0x13u);
  EXPECT_EQ(EvalExpr(tokens.value(), {0xF0}).value(), 0xF0u | 0x10u);
}

TEST(Wire, ExprCompileUsesResolvedValueForForeignReads) {
  SymNodePtr old_read = MakeReadNode(1, 0x100);
  old_read->resolved = true;
  old_read->value = 0xAB;
  auto tokens = CompileExpr(old_read, /*batch_reads=*/{});
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(EvalExpr(tokens.value(), {}).value(), 0xABu);
}

TEST(Wire, ExprCompileRejectsUnresolvedForeignRead) {
  SymNodePtr dangling = MakeReadNode(1, 0x100);
  EXPECT_FALSE(CompileExpr(dangling, {}).ok());
}

TEST(Wire, EvalRejectsBadPrograms) {
  // Slot out of range.
  EXPECT_FALSE(EvalExpr({{TokenKind::kSlot, 5}}, {1, 2}).ok());
  // Stack underflow.
  EXPECT_FALSE(EvalExpr({{TokenKind::kOr, 0}}, {}).ok());
  // Leftover operands.
  EXPECT_FALSE(
      EvalExpr({{TokenKind::kConst, 1}, {TokenKind::kConst, 2}}, {}).ok());
  // Empty program.
  EXPECT_FALSE(EvalExpr({}, {}).ok());
}

class ExprProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprProperty, CompiledExprMatchesSymEval) {
  // Random expression trees over two batch reads evaluate identically via
  // EvalSym (cloud side) and EvalExpr (client side) — the transparency
  // property deferral depends on.
  Rng rng(GetParam());
  SymNodePtr r0 = MakeReadNode(1, 0x100);
  SymNodePtr r1 = MakeReadNode(2, 0x104);
  std::vector<SymNodePtr> pool = {r0, r1, MakeConstNode(rng.NextU32()),
                                  MakeConstNode(rng.NextU32() & 0xFF)};
  for (int i = 0; i < 12; ++i) {
    SymOp op = static_cast<SymOp>(2 + rng.NextBelow(5));  // And..Shr
    SymNodePtr lhs = pool[rng.NextBelow(pool.size())];
    SymNodePtr rhs = op == SymOp::kShl || op == SymOp::kShr
                         ? MakeConstNode(static_cast<uint32_t>(
                               rng.NextBelow(33)))
                         : pool[rng.NextBelow(pool.size())];
    pool.push_back(MakeOpNode(op, lhs, rhs));
  }
  SymNodePtr expr = pool.back();
  auto tokens = CompileExpr(expr, {r0.get(), r1.get()});
  ASSERT_TRUE(tokens.ok());

  uint32_t v0 = rng.NextU32(), v1 = rng.NextU32();
  r0->resolved = true;
  r0->value = v0;
  r1->resolved = true;
  r1->value = v1;
  auto direct = EvalSym(expr);
  auto remote = EvalExpr(tokens.value(), {v0, v1});
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(direct.value(), remote.value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Wire, PollMessagesRoundTrip) {
  PollRequestMsg req;
  req.seq = 5;
  req.reg = 0x200;
  req.mask = 0xFF;
  req.expected = 0;
  req.max_iters = 128;
  req.iter_delay_ns = 3000;
  auto parsed = PollRequestMsg::Deserialize(req.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->mask, 0xFFu);
  EXPECT_EQ(parsed->max_iters, 128);
  EXPECT_EQ(parsed->iter_delay_ns, 3000);

  PollReplyMsg reply;
  reply.seq = 5;
  reply.final_value = 0xAA;
  reply.iterations = 17;
  reply.timed_out = true;
  auto r = PollReplyMsg::Deserialize(reply.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->final_value, 0xAAu);
  EXPECT_EQ(r->iterations, 17);
  EXPECT_TRUE(r->timed_out);
}

TEST(Wire, IrqEventRoundTrip) {
  IrqEventMsg ev;
  ev.lines = kIrqLineJob | kIrqLineMmu;
  ev.mem_dump = {1, 2, 3, 4};
  auto parsed = IrqEventMsg::Deserialize(ev.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->lines, kIrqLineJob | kIrqLineMmu);
  EXPECT_EQ(parsed->mem_dump, ev.mem_dump);
}

TEST(Wire, CorruptBatchRejected) {
  CommitBatchMsg msg;
  BatchItem w;
  w.is_write = true;
  w.reg = 0x10;
  w.expr = {{TokenKind::kConst, 1}};
  msg.items.push_back(w);
  Bytes raw = msg.Serialize();
  raw.resize(raw.size() - 2);  // truncate
  EXPECT_FALSE(CommitBatchMsg::Deserialize(raw).ok());
}

TEST(Wire, LinkFrameSealOpenRoundTrip) {
  Bytes key(32, 0x5A);
  LinkFrame frame;
  frame.type = FrameType::kCommit;
  frame.epoch = 3;
  frame.seq = 41;
  frame.payload = {9, 8, 7, 6, 5};
  auto opened = LinkFrame::Open(frame.Seal(key), key);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->type, FrameType::kCommit);
  EXPECT_EQ(opened->epoch, 3u);
  EXPECT_EQ(opened->seq, 41u);
  EXPECT_EQ(opened->payload, frame.payload);
}

TEST(Wire, LinkFrameRejectsWrongKey) {
  Bytes key(32, 0x5A), wrong(32, 0x5B);
  LinkFrame frame;
  frame.payload = {1, 2, 3};
  Bytes sealed = frame.Seal(key);
  auto opened = LinkFrame::Open(sealed, wrong);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIntegrityViolation);
}

TEST(Wire, LinkFrameRejectsEverySingleByteTamper) {
  Bytes key(32, 0x5A);
  LinkFrame frame;
  frame.type = FrameType::kPoll;
  frame.epoch = 1;
  frame.seq = 7;
  frame.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  Bytes sealed = frame.Seal(key);
  for (size_t pos = 0; pos < sealed.size(); ++pos) {
    Bytes tampered = sealed;
    tampered[pos] ^= 0x01;
    EXPECT_FALSE(LinkFrame::Open(tampered, key).ok())
        << "tamper at byte " << pos << " survived";
  }
}

TEST(Wire, LinkFrameRejectsTruncation) {
  Bytes key(32, 0x5A);
  LinkFrame frame;
  frame.payload = Bytes(100, 0x11);
  Bytes sealed = frame.Seal(key);
  for (size_t keep : {size_t{0}, size_t{1}, sealed.size() / 2,
                      sealed.size() - 1}) {
    Bytes cut(sealed.begin(), sealed.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_FALSE(LinkFrame::Open(cut, key).ok())
        << "truncation to " << keep << " bytes survived";
  }
}

TEST(Wire, LinkFrameSealCoversEveryHeaderField) {
  // Two frames differing in any one header field seal to different wires
  // (the MAC binds type, epoch, and seq — not just the payload).
  Bytes key(32, 0x5A);
  LinkFrame base;
  base.type = FrameType::kCommit;
  base.epoch = 2;
  base.seq = 9;
  base.payload = {1, 2, 3};
  LinkFrame other_type = base;
  other_type.type = FrameType::kPoll;
  LinkFrame other_epoch = base;
  other_epoch.epoch = 3;
  LinkFrame other_seq = base;
  other_seq.seq = 10;
  EXPECT_NE(base.Seal(key), other_type.Seal(key));
  EXPECT_NE(base.Seal(key), other_epoch.Seal(key));
  EXPECT_NE(base.Seal(key), other_seq.Seal(key));
}

}  // namespace
}  // namespace grt
