#include "net/protocol.h"

#include "common/bytes.h"
#include "common/crc32.h"

namespace ipa::net {

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing: return "PING";
    case Op::kGet: return "GET";
    case Op::kPut: return "PUT";
    case Op::kDelete: return "DELETE";
    case Op::kBegin: return "BEGIN";
    case Op::kCommit: return "COMMIT";
    case Op::kAbort: return "ABORT";
  }
  return "?";
}

const char* StatusName(RStatus s) {
  switch (s) {
    case RStatus::kOk: return "OK";
    case RStatus::kNotFound: return "NOT_FOUND";
    case RStatus::kRetry: return "RETRY";
    case RStatus::kBadRequest: return "BAD_REQUEST";
    case RStatus::kError: return "ERROR";
    case RStatus::kUnavailable: return "UNAVAILABLE";
  }
  return "?";
}

bool IsKnownRequestOp(uint8_t op) {
  return op >= static_cast<uint8_t>(Op::kPing) &&
         op <= static_cast<uint8_t>(Op::kAbort);
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  size_t at = out->size();
  out->resize(at + 4);
  EncodeU32(out->data() + at, v);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  size_t at = out->size();
  out->resize(at + 8);
  EncodeU64(out->data() + at, v);
}

void EncodeFrame(uint8_t op, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out) {
  size_t base = out->size();
  out->push_back(static_cast<uint8_t>(kMagic & 0xFF));
  out->push_back(static_cast<uint8_t>(kMagic >> 8));
  out->push_back(kProtocolVersion);
  out->push_back(op);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU64(out, request_id);
  uint32_t crc = Crc32c(out->data() + base, 16);
  if (!payload.empty()) crc = Crc32c(payload.data(), payload.size(), crc);
  PutU32(out, crc);
  out->insert(out->end(), payload.begin(), payload.end());
}

void FrameDecoder::Feed(std::span<const uint8_t> bytes) {
  if (fatal_) return;  // stream is poisoned; don't grow the buffer
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameDecoder::Compact() {
  // Reclaim consumed bytes once they dominate the buffer, keeping Feed/Poll
  // amortized O(1) per byte.
  if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

FrameDecoder::Next FrameDecoder::Poll(Frame* out, std::string* error) {
  auto fail = [&](const char* why) {
    fatal_ = true;
    buf_.clear();
    pos_ = 0;
    if (error) *error = why;
    return Next::kFatal;
  };
  if (fatal_) return fail("connection poisoned by earlier framing error");
  if (size() < kHeaderBytes) return Next::kNeedMore;

  const uint8_t* h = buf_.data() + pos_;
  uint16_t magic = static_cast<uint16_t>(h[0] | (h[1] << 8));
  if (magic != kMagic) return fail("bad frame magic");
  if (h[2] != kProtocolVersion) return fail("unsupported protocol version");
  uint32_t payload_len = DecodeU32(h + 4);
  if (payload_len > kMaxPayload) return fail("frame payload too large");
  if (size() < FrameBytes(payload_len)) return Next::kNeedMore;

  uint32_t want = DecodeU32(h + 16);
  uint32_t got = Crc32c(h, 16);
  got = Crc32c(h + kHeaderBytes, payload_len, got);
  if (want != got) return fail("frame CRC mismatch");

  out->op = h[3];
  out->request_id = DecodeU64(h + 8);
  out->payload.assign(h + kHeaderBytes, h + kHeaderBytes + payload_len);
  pos_ += FrameBytes(payload_len);
  if (size() == 0) {
    buf_.clear();
    pos_ = 0;
  } else {
    Compact();
  }
  return Next::kFrame;
}

bool ParseRequest(const Frame& frame, Request* out) {
  if (!IsKnownRequestOp(frame.op)) return false;
  out->op = static_cast<Op>(frame.op);
  out->txn = kAutoCommit;
  out->key = 0;
  out->value = {};
  const std::vector<uint8_t>& p = frame.payload;
  switch (out->op) {
    case Op::kPing:
      return p.empty();
    case Op::kGet:
    case Op::kDelete:
      if (p.size() != 16) return false;
      out->txn = DecodeU64(p.data());
      out->key = DecodeU64(p.data() + 8);
      return true;
    case Op::kPut:
      if (p.size() < 16) return false;
      out->txn = DecodeU64(p.data());
      out->key = DecodeU64(p.data() + 8);
      out->value = std::span<const uint8_t>(p).subspan(16);
      return true;
    case Op::kBegin:
      if (p.size() != 8) return false;
      out->key = DecodeU64(p.data());
      return true;
    case Op::kCommit:
    case Op::kAbort:
      if (p.size() != 8) return false;
      out->txn = DecodeU64(p.data());
      return true;
  }
  return false;
}

std::vector<uint8_t> GetPayload(uint64_t txn, uint64_t key) {
  std::vector<uint8_t> p;
  PutU64(&p, txn);
  PutU64(&p, key);
  return p;
}

std::vector<uint8_t> PutPayload(uint64_t txn, uint64_t key,
                                std::span<const uint8_t> value) {
  std::vector<uint8_t> p;
  p.reserve(16 + value.size());
  PutU64(&p, txn);
  PutU64(&p, key);
  p.insert(p.end(), value.begin(), value.end());
  return p;
}

std::vector<uint8_t> DeletePayload(uint64_t txn, uint64_t key) {
  return GetPayload(txn, key);
}

std::vector<uint8_t> BeginPayload(uint64_t key_hint) {
  std::vector<uint8_t> p;
  PutU64(&p, key_hint);
  return p;
}

std::vector<uint8_t> TxnPayload(uint64_t txn) {
  std::vector<uint8_t> p;
  PutU64(&p, txn);
  return p;
}

std::vector<uint8_t> RetryPayload(uint32_t hint_us) {
  std::vector<uint8_t> p;
  PutU32(&p, hint_us);
  return p;
}

}  // namespace ipa::net
