// Tests for the serving wire protocol (src/net/protocol.h): frame
// round-trips, incremental decoding, and the error-containment contract —
// malformed payloads are per-request errors, while bad magic/version/length/
// CRC are connection-fatal and latch. Includes a seeded garbage fuzz and a
// corrupt-every-byte sweep: no input may crash or desync the decoder.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "net/protocol.h"

namespace ipa::net {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<int> v) {
  std::vector<uint8_t> out;
  for (int b : v) out.push_back(static_cast<uint8_t>(b));
  return out;
}

std::vector<uint8_t> Encode(uint8_t op, uint64_t id,
                            const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire;
  EncodeFrame(op, id, payload, &wire);
  return wire;
}

TEST(Protocol, RoundTripEmptyAndPayload) {
  for (const auto& payload :
       {std::vector<uint8_t>{}, Bytes({1, 2, 3}),
        std::vector<uint8_t>(4096, 0xEE)}) {
    std::vector<uint8_t> wire =
        Encode(static_cast<uint8_t>(Op::kPut), 77, payload);
    ASSERT_EQ(wire.size(), FrameBytes(payload.size()));
    FrameDecoder dec;
    dec.Feed(wire);
    Frame f;
    ASSERT_EQ(dec.Poll(&f), FrameDecoder::Next::kFrame);
    EXPECT_EQ(f.op, static_cast<uint8_t>(Op::kPut));
    EXPECT_EQ(f.request_id, 77u);
    EXPECT_EQ(f.payload, payload);
    EXPECT_EQ(dec.Poll(&f), FrameDecoder::Next::kNeedMore);
    EXPECT_FALSE(dec.mid_frame());
  }
}

TEST(Protocol, ByteAtATimeFeed) {
  std::vector<uint8_t> wire =
      Encode(static_cast<uint8_t>(Op::kGet), 5, GetPayload(kAutoCommit, 42));
  FrameDecoder dec;
  Frame f;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.Feed(std::span<const uint8_t>(&wire[i], 1));
    ASSERT_EQ(dec.Poll(&f), FrameDecoder::Next::kNeedMore) << "at byte " << i;
    EXPECT_TRUE(dec.mid_frame());
  }
  dec.Feed(std::span<const uint8_t>(&wire.back(), 1));
  ASSERT_EQ(dec.Poll(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.request_id, 5u);
}

TEST(Protocol, BackToBackFramesOneBuffer) {
  std::vector<uint8_t> wire;
  for (uint64_t id = 1; id <= 50; ++id) {
    EncodeFrame(static_cast<uint8_t>(Op::kPing), id, {}, &wire);
  }
  FrameDecoder dec;
  dec.Feed(wire);
  Frame f;
  for (uint64_t id = 1; id <= 50; ++id) {
    ASSERT_EQ(dec.Poll(&f), FrameDecoder::Next::kFrame);
    EXPECT_EQ(f.request_id, id);
  }
  EXPECT_EQ(dec.Poll(&f), FrameDecoder::Next::kNeedMore);
}

TEST(Protocol, CompactionSurvivesManyFrames) {
  // Enough traffic through one decoder to force internal buffer compaction.
  FrameDecoder dec;
  Frame f;
  std::vector<uint8_t> payload(512, 0x5A);
  for (uint64_t id = 0; id < 200; ++id) {
    std::vector<uint8_t> wire =
        Encode(static_cast<uint8_t>(Op::kPut), id, payload);
    dec.Feed(wire);
    ASSERT_EQ(dec.Poll(&f), FrameDecoder::Next::kFrame);
    ASSERT_EQ(f.request_id, id);
    ASSERT_EQ(f.payload, payload);
  }
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(Protocol, BadMagicIsFatalAndLatches) {
  std::vector<uint8_t> wire = Encode(static_cast<uint8_t>(Op::kPing), 1, {});
  wire[0] ^= 0xFF;
  FrameDecoder dec;
  dec.Feed(wire);
  Frame f;
  std::string err;
  ASSERT_EQ(dec.Poll(&f, &err), FrameDecoder::Next::kFatal);
  EXPECT_FALSE(err.empty());
  // Fatal latches: even a subsequent pristine frame is not decoded.
  dec.Feed(Encode(static_cast<uint8_t>(Op::kPing), 2, {}));
  EXPECT_EQ(dec.Poll(&f), FrameDecoder::Next::kFatal);
}

TEST(Protocol, BadVersionIsFatal) {
  std::vector<uint8_t> wire = Encode(static_cast<uint8_t>(Op::kPing), 1, {});
  wire[2] = kProtocolVersion + 1;
  FrameDecoder dec;
  dec.Feed(wire);
  Frame f;
  EXPECT_EQ(dec.Poll(&f), FrameDecoder::Next::kFatal);
}

TEST(Protocol, OversizedPayloadLenIsFatal) {
  std::vector<uint8_t> wire = Encode(static_cast<uint8_t>(Op::kPing), 1, {});
  uint32_t huge = kMaxPayload + 1;
  std::memcpy(&wire[4], &huge, sizeof(huge));
  FrameDecoder dec;
  dec.Feed(wire);
  Frame f;
  // Rejected from the header alone — no attempt to buffer a bogus megabyte.
  EXPECT_EQ(dec.Poll(&f), FrameDecoder::Next::kFatal);
}

TEST(Protocol, CrcMismatchIsFatal) {
  std::vector<uint8_t> wire =
      Encode(static_cast<uint8_t>(Op::kPut), 9, Bytes({10, 20, 30}));
  wire.back() ^= 0x01;  // flip one payload bit
  FrameDecoder dec;
  dec.Feed(wire);
  Frame f;
  EXPECT_EQ(dec.Poll(&f), FrameDecoder::Next::kFatal);
}

TEST(Protocol, CorruptEveryByteNeverYieldsTheFrame) {
  std::vector<uint8_t> payload = Bytes({1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<uint8_t> wire =
      Encode(static_cast<uint8_t>(Op::kPut), 123456789, payload);
  for (size_t i = 0; i < wire.size(); ++i) {
    std::vector<uint8_t> bad = wire;
    bad[i] ^= 0x40;
    FrameDecoder dec;
    dec.Feed(bad);
    Frame f;
    auto r = dec.Poll(&f);
    // A single flipped byte must never round-trip as the original frame:
    // either the CRC catches it (fatal) or the length field now demands
    // more bytes (kNeedMore). It must never be silently accepted.
    if (r == FrameDecoder::Next::kFrame) {
      ADD_FAILURE() << "byte " << i << " flip was accepted";
    }
  }
}

TEST(Protocol, SeededGarbageNeverCrashes) {
  Rng rng(0xF00D);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder dec;
    Frame f;
    size_t total = 1 + rng.Uniform(512);
    size_t fed = 0;
    bool fatal = false;
    while (fed < total) {
      size_t chunk = 1 + rng.Uniform(63);
      std::vector<uint8_t> bytes(std::min(chunk, total - fed));
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
      dec.Feed(bytes);
      fed += bytes.size();
      for (int polls = 0; polls < 8; ++polls) {
        auto r = dec.Poll(&f);
        if (r == FrameDecoder::Next::kFatal) fatal = true;
        if (r != FrameDecoder::Next::kFrame) break;
      }
      if (fatal) break;
    }
    // Random bytes essentially never form a valid magic+version+CRC, so the
    // stream must have been rejected (or still be waiting on a length).
    if (fatal) {
      EXPECT_EQ(dec.Poll(&f), FrameDecoder::Next::kFatal);
    }
  }
}

TEST(Protocol, UnknownOpcodeIsPerRequestNotFatal) {
  // Structurally valid frame, nonsense opcode: ParseRequest refuses it but
  // the connection stays in sync and the next frame decodes fine.
  std::vector<uint8_t> wire = Encode(0x33, 1, Bytes({1, 2, 3}));
  EncodeFrame(static_cast<uint8_t>(Op::kGet), 2, GetPayload(kAutoCommit, 7),
              &wire);
  FrameDecoder dec;
  dec.Feed(wire);
  Frame f;
  ASSERT_EQ(dec.Poll(&f), FrameDecoder::Next::kFrame);
  Request req;
  EXPECT_FALSE(ParseRequest(f, &req));
  ASSERT_EQ(dec.Poll(&f), FrameDecoder::Next::kFrame);
  EXPECT_TRUE(ParseRequest(f, &req));
  EXPECT_EQ(req.op, Op::kGet);
  EXPECT_EQ(req.key, 7u);
}

TEST(Protocol, ParseRequestShapes) {
  Request req;
  auto frame = [](Op op, std::vector<uint8_t> payload) {
    Frame f;
    f.op = static_cast<uint8_t>(op);
    f.payload = std::move(payload);
    return f;
  };

  EXPECT_TRUE(ParseRequest(frame(Op::kPing, {}), &req));
  EXPECT_FALSE(ParseRequest(frame(Op::kPing, Bytes({1})), &req));

  EXPECT_TRUE(ParseRequest(frame(Op::kGet, GetPayload(3, 9)), &req));
  EXPECT_EQ(req.txn, 3u);
  EXPECT_EQ(req.key, 9u);
  EXPECT_FALSE(ParseRequest(frame(Op::kGet, Bytes({1, 2, 3})), &req));

  // req.value aliases the frame payload, so the frame must outlive the check.
  std::vector<uint8_t> value = Bytes({9, 8, 7});
  Frame put_frame = frame(Op::kPut, PutPayload(0, 4, value));
  EXPECT_TRUE(ParseRequest(put_frame, &req));
  EXPECT_EQ(req.key, 4u);
  ASSERT_EQ(req.value.size(), value.size());
  EXPECT_TRUE(std::equal(value.begin(), value.end(), req.value.begin()));
  EXPECT_FALSE(ParseRequest(frame(Op::kPut, Bytes({1, 2})), &req));

  EXPECT_TRUE(ParseRequest(frame(Op::kDelete, DeletePayload(0, 2)), &req));
  EXPECT_FALSE(ParseRequest(frame(Op::kDelete, {}), &req));

  EXPECT_TRUE(ParseRequest(frame(Op::kBegin, BeginPayload(11)), &req));
  EXPECT_EQ(req.key, 11u);
  EXPECT_TRUE(ParseRequest(frame(Op::kCommit, TxnPayload(5)), &req));
  EXPECT_EQ(req.txn, 5u);
  EXPECT_TRUE(ParseRequest(frame(Op::kAbort, TxnPayload(5)), &req));
  EXPECT_FALSE(ParseRequest(frame(Op::kCommit, Bytes({1, 2, 3, 4})), &req));

  // Response statuses are never valid request opcodes.
  Frame resp;
  resp.op = static_cast<uint8_t>(RStatus::kOk);
  EXPECT_FALSE(ParseRequest(resp, &req));
}

TEST(Protocol, ScalarHelpersRoundTrip) {
  std::vector<uint8_t> buf;
  PutU32(&buf, 0xDEADBEEF);
  PutU64(&buf, 0x0123456789ABCDEFull);
  // The wire is little-endian whatever the host: pin the bytes themselves,
  // not only the round trip.
  ASSERT_EQ(buf, Bytes({0xEF, 0xBE, 0xAD, 0xDE, 0xEF, 0xCD, 0xAB, 0x89, 0x67,
                        0x45, 0x23, 0x01}));
  EXPECT_EQ(DecodeU32(buf.data()), 0xDEADBEEFu);
  EXPECT_EQ(DecodeU64(buf.data() + 4), 0x0123456789ABCDEFull);
}

TEST(Protocol, NamesAreStable) {
  EXPECT_STREQ(OpName(Op::kPut), "PUT");
  EXPECT_STREQ(StatusName(RStatus::kRetry), "RETRY");
  EXPECT_TRUE(IsKnownRequestOp(static_cast<uint8_t>(Op::kAbort)));
  EXPECT_FALSE(IsKnownRequestOp(0x7F));
  EXPECT_TRUE(IsResponseOp(static_cast<uint8_t>(RStatus::kOk)));
  EXPECT_FALSE(IsResponseOp(static_cast<uint8_t>(Op::kGet)));
}

}  // namespace
}  // namespace ipa::net
