// Stream-robustness suite for the serving front-end (satellite: byte
// dribble, slow-loris, bounded buffers, write backpressure).
//
// These tests attack the *transport* behavior of the epoll loop: frames
// arriving one byte at a time, connections that never finish a header,
// peers that stop reading while the server has megabytes of responses
// queued. The invariants are always the same — bounded memory, typed
// errors, and no effect on well-behaved connections.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "tests/serve/frontend_test_util.h"

namespace grt {
namespace {

using ::std::chrono::milliseconds;

class FrontendStreamTest : public FrontendFixture {};

// Encodes `count` copies of `request` (corr ids first_corr, first_corr+1,
// ...) into one buffer, framed as ReplayClient::Send frames each one.
// Sent with one SendBytes, the whole pipeline reaches the server's socket
// at once, so the loop's first 64 KB read admits every request before a
// completion can pause reads. A request still unread when the first big
// response pauses reads (the designed backpressure) would never run.
Bytes PipelinedRequests(const WireRequest& request, uint64_t first_corr,
                        int count) {
  Bytes wire;
  for (int i = 0; i < count; ++i) {
    Frame frame;
    frame.type = WireFrameType::kRequest;
    frame.flags = WireRequestFlags(request);
    frame.correlation_id = first_corr + static_cast<uint64_t>(i);
    frame.payload = EncodeWireRequest(request);
    Bytes encoded = EncodeFrame(frame);
    wire.insert(wire.end(), encoded.begin(), encoded.end());
  }
  return wire;
}

// A valid request dribbled in 1..7-byte chunks must decode and execute
// exactly as a single-send request does.
TEST_F(FrontendStreamTest, ByteDribbleEveryChunkSize) {
  Boot();
  ReplayClient staging;
  ASSERT_TRUE(staging.Connect("127.0.0.1", port()).ok());
  auto baseline = staging.Call(1, MakeWireRequest(3));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->status, WireStatus::kOk);
  ASSERT_FALSE(baseline->output.empty());

  for (size_t chunk = 1; chunk <= 7; ++chunk) {
    ReplayClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
    Frame frame;
    frame.type = WireFrameType::kRequest;
    frame.correlation_id = 100 + chunk;
    // Params are already resident from the staging call, so the dribbled
    // request stays small (~3 KB) and the dribble finishes fast.
    frame.payload =
        EncodeWireRequest(MakeWireRequest(3, /*with_params=*/false));
    Bytes wire = EncodeFrame(frame);
    for (size_t off = 0; off < wire.size(); off += chunk) {
      size_t len = std::min(chunk, wire.size() - off);
      Bytes piece(wire.begin() + off, wire.begin() + off + len);
      ASSERT_TRUE(client.SendBytes(piece).ok());
    }
    auto response = client.Recv(100 + chunk);
    ASSERT_TRUE(response.ok())
        << "chunk=" << chunk << ": " << response.status().ToString();
    EXPECT_EQ(response->status, WireStatus::kOk) << "chunk=" << chunk;
    EXPECT_EQ(response->output, baseline->output) << "chunk=" << chunk;
  }
}

// Connections that park mid-header forever must not starve a healthy
// client: the loop is event-driven, so a stalled read costs nothing.
TEST_F(FrontendStreamTest, SlowLorisConnectionsDoNotStarveOthers) {
  Boot();
  std::vector<ReplayClient> loris(6);
  for (size_t i = 0; i < loris.size(); ++i) {
    ASSERT_TRUE(loris[i].Connect("127.0.0.1", port()).ok());
    // A few header bytes (valid magic prefix), then silence.
    Bytes partial{0x53, 0x54, 0x52, 0x47, 0x01};
    ASSERT_TRUE(loris[i].SendBytes(partial).ok());
  }
  ASSERT_TRUE(WaitForStats(
      [&](const FrontendStats& s) { return s.accepted >= loris.size(); }));

  ReplayClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", port()).ok());
  auto response = good.Call(1, MakeWireRequest(0));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, WireStatus::kOk);

  // The stalled connections are still merely parked, not errored.
  FrontendStats stats = frontend_->Stats();
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.truncated_streams, 0u);
}

// With a configured frame ceiling, an over-limit declaration is refused
// before any payload is buffered, and the same listener keeps serving
// in-limit requests afterwards.
TEST_F(FrontendStreamTest, BoundedBuffersRefuseOverLimitFramesAndRecover) {
  FrontendConfig fconfig;
  fconfig.max_frame_payload = 1u << 20;  // params request (~215 KB) fits
  Boot({}, fconfig);

  ReplayClient abuser;
  ASSERT_TRUE(abuser.Connect("127.0.0.1", port()).ok());
  Frame frame;
  frame.type = WireFrameType::kRequest;
  frame.correlation_id = 9;
  frame.payload.resize(24, 0xEE);
  Bytes wire = EncodeFrame(frame);
  // Rewrite the declared length to 2 MB but send only the header: the
  // refusal must come from the declaration alone.
  uint32_t declared = 2u << 20;
  std::memcpy(wire.data() + 8, &declared, sizeof(declared));
  wire.resize(kFrameHeaderBytes);
  ASSERT_TRUE(abuser.SendBytes(wire).ok());

  auto reply = abuser.RecvAny();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->first, 0u);
  EXPECT_EQ(reply->second.status, WireStatus::kBadRequest);
  EXPECT_NE(reply->second.message.find("oversized-frame"), std::string::npos)
      << reply->second.message;
  EXPECT_FALSE(abuser.RecvAny().ok());  // then the connection dies

  ASSERT_TRUE(WaitForStats(
      [](const FrontendStats& s) { return s.oversized_disconnects == 1; }));

  // An in-limit full request (params included) on a fresh connection
  // still round-trips bitwise.
  ReplayClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", port()).ok());
  auto response = good.Call(1, MakeWireRequest(2));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, WireStatus::kOk);
  EXPECT_FALSE(response->output.empty());
}

// A reader that stops consuming makes the server queue responses; once
// the outbuf crosses the high watermark the loop must stop reading from
// that connection (paused_reads), and resume once the client drains.
TEST_F(FrontendStreamTest, StalledReaderPausesReadsThenResumes) {
  constexpr int kRequests = 8;
  FrontendConfig fconfig;
  fconfig.so_sndbuf = 32 * 1024;           // keep kernel buffering small
  fconfig.write_high_watermark = 64 * 1024;
  fconfig.write_hard_cap = 32u << 20;      // never trip the hard cap here
  Boot({}, fconfig);

  ReplayClient staging;
  ASSERT_TRUE(staging.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(staging.Call(1, MakeWireRequest(0)).ok());
  const std::string big = BigTensorName();

  ReplayClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", port(), /*recv_timeout_ms=*/5000,
                     /*rcvbuf=*/4 * 1024)
          .ok());
  WireRequest request = MakeWireRequest(0, /*with_params=*/false);
  request.output_tensor = big;  // ~200 KB response each
  ASSERT_TRUE(
      client.SendBytes(PipelinedRequests(request, 1000, kRequests)).ok());

  // Wait for every completion to land in the outbuf; with ~1.6 MB queued
  // against a 64 KB watermark the loop must have paused at least once.
  ASSERT_TRUE(WaitForStats([](const FrontendStats& s) {
    return s.responses_ok >= kRequests + 1;  // +1 for the staging call
  }));
  FrontendStats mid = frontend_->Stats();
  EXPECT_GE(mid.paused_reads, 1u);
  EXPECT_EQ(mid.stalled_disconnects, 0u);

  // Drain: every response arrives intact despite the pause.
  size_t expected_floats = 0;
  for (const TensorDef& t : net().tensors) {
    if (t.name == big) {
      expected_floats = GenerateParams(net().name, t, 7).size();
    }
  }
  for (int i = 0; i < kRequests; ++i) {
    auto response = client.Recv(1000 + i);
    ASSERT_TRUE(response.ok()) << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status, WireStatus::kOk);
    EXPECT_EQ(response->output.size(), expected_floats);
  }

  // Reads resumed: the same connection serves another request.
  auto after = client.Call(2000, MakeWireRequest(0, /*with_params=*/false));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->status, WireStatus::kOk);
}

// Past the hard cap the server cuts the stalled connection loose instead
// of buffering without bound — and healthy clients are unaffected.
TEST_F(FrontendStreamTest, StalledReaderBeyondHardCapIsDisconnected) {
  FrontendConfig fconfig;
  fconfig.so_sndbuf = 32 * 1024;
  fconfig.write_high_watermark = 64 * 1024;
  fconfig.write_hard_cap = 256 * 1024;  // two big responses trip it
  Boot({}, fconfig);

  ReplayClient staging;
  ASSERT_TRUE(staging.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(staging.Call(1, MakeWireRequest(0)).ok());
  const std::string big = BigTensorName();

  ReplayClient stalled;
  ASSERT_TRUE(stalled
                  .Connect("127.0.0.1", port(), /*recv_timeout_ms=*/5000,
                           /*rcvbuf=*/4 * 1024)
                  .ok());
  WireRequest request = MakeWireRequest(0, /*with_params=*/false);
  request.output_tensor = big;
  ASSERT_TRUE(stalled.SendBytes(PipelinedRequests(request, 3000, 4)).ok());

  ASSERT_TRUE(WaitForStats(
      [](const FrontendStats& s) { return s.stalled_disconnects == 1; }));

  // The healthy path is untouched.
  auto response = staging.Call(2, MakeWireRequest(1, /*with_params=*/false));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, WireStatus::kOk);
}

// Half-close: a client that shuts down its write side after sending a
// request still receives the response (clean EOF is not an error).
TEST_F(FrontendStreamTest, HalfCloseStillDeliversInFlightResponses) {
  Boot();
  ReplayClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(client.Send(42, MakeWireRequest(1)).ok());
  client.ShutdownWrite();

  auto response = client.Recv(42);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, WireStatus::kOk);
  EXPECT_FALSE(response->output.empty());

  // After the flush the server closes its side too.
  auto eof = client.RecvAny();
  EXPECT_FALSE(eof.ok());

  ASSERT_TRUE(
      WaitForStats([](const FrontendStats& s) { return s.closed == 1; }));
  FrontendStats stats = frontend_->Stats();
  EXPECT_EQ(stats.truncated_streams, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

}  // namespace
}  // namespace grt
