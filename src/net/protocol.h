// Wire protocol of the IPA serving layer (docs/SERVING.md).
//
// Every message — request or response — is one length-prefixed binary frame
// with a fixed 20-byte header and a CRC32-C over header and payload:
//
//   offset  size  field
//        0     2  magic        0x4950 ("IP", little-endian)
//        2     1  version      kProtocolVersion (1)
//        3     1  op           request opcode, or response status
//        4     4  payload_len  bytes following the header (<= kMaxPayload)
//        8     8  request_id   echoed verbatim in the response
//       16     4  crc          CRC32-C over bytes [0,16) then the payload
//
// Error containment contract (exercised by tests/net_protocol_test.cc):
//  * A structurally valid frame with an unknown opcode or a malformed
//    payload is a PER-REQUEST error: the server answers kBadRequest and the
//    connection stays in sync (the frame length was trusted, correctly).
//  * Bad magic, unsupported version, an oversized payload_len or a CRC
//    mismatch poison the byte stream — the frame extent cannot be trusted —
//    so they are CONNECTION-FATAL: the decoder reports kFatal, the server
//    sends one final error frame and closes. Closing never desyncs.
//  * Truncated frames simply wait for more bytes (kNeedMore); a connection
//    that closes mid-frame is dropped without a response.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ipa::net {

inline constexpr uint16_t kMagic = 0x4950;
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr uint32_t kHeaderBytes = 20;
inline constexpr uint32_t kMaxPayload = 1u << 20;

/// Request opcodes. GET/PUT/DELETE carry a transaction handle; handle 0
/// (kAutoCommit) executes the op as its own transaction.
enum class Op : uint8_t {
  kPing = 1,
  kGet = 2,     ///< payload: txn u64 | key u64
  kPut = 3,     ///< payload: txn u64 | key u64 | value bytes
  kDelete = 4,  ///< payload: txn u64 | key u64
  kBegin = 5,   ///< payload: key_hint u64 (homes the txn's partition)
  kCommit = 6,  ///< payload: txn u64
  kAbort = 7,   ///< payload: txn u64
};

/// Response status, carried in the header's op byte (high bit set).
enum class RStatus : uint8_t {
  kOk = 0x80,          ///< GET: value bytes; BEGIN: txn handle u64.
  kNotFound = 0x81,
  kRetry = 0x82,       ///< Shed by admission control; payload: hint_us u32.
  kBadRequest = 0x83,  ///< payload: human-readable reason.
  kError = 0x84,       ///< Engine error; payload: status string.
  kUnavailable = 0x85, ///< Device powered off / server shutting down.
};

inline constexpr uint64_t kAutoCommit = 0;

const char* OpName(Op op);
const char* StatusName(RStatus s);
inline bool IsResponseOp(uint8_t op) { return (op & 0x80) != 0; }
bool IsKnownRequestOp(uint8_t op);

/// One decoded frame. `op` is an Op for requests, an RStatus for responses.
struct Frame {
  uint8_t op = 0;
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;
};

/// Append one encoded frame to `out`. Payload length must be <= kMaxPayload.
void EncodeFrame(uint8_t op, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out);

/// Encoded size of a frame with `payload_len` payload bytes.
inline uint64_t FrameBytes(uint64_t payload_len) {
  return kHeaderBytes + payload_len;
}

// Append a little-endian scalar; shared by payload builders and the server.
// Read one back with DecodeU32/DecodeU64 (common/bytes.h).
void PutU32(std::vector<uint8_t>* out, uint32_t v);
void PutU64(std::vector<uint8_t>* out, uint64_t v);

/// Incremental frame parser for one connection's byte stream.
class FrameDecoder {
 public:
  enum class Next {
    kFrame,     ///< *out holds a complete, CRC-verified frame.
    kNeedMore,  ///< No complete frame buffered yet.
    kFatal,     ///< Stream poisoned (see header comment); close the
                ///< connection after sending one error frame.
  };

  /// Buffer `bytes` arriving from the peer.
  void Feed(std::span<const uint8_t> bytes);

  /// Extract the next frame. After kFatal every further Poll returns kFatal.
  Next Poll(Frame* out, std::string* error = nullptr);

  /// True when a partial frame is buffered (EOF now = truncated frame).
  bool mid_frame() const { return !fatal_ && size() > 0; }
  size_t buffered_bytes() const { return size(); }

 private:
  size_t size() const { return buf_.size() - pos_; }
  void Compact();

  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  bool fatal_ = false;
};

// ---------------------------------------------------------------------------
// Typed request payloads
// ---------------------------------------------------------------------------

/// A parsed GET/PUT/DELETE/BEGIN/COMMIT/ABORT request body.
struct Request {
  Op op = Op::kPing;
  uint64_t txn = kAutoCommit;  ///< Handle (GET/PUT/DELETE/COMMIT/ABORT).
  uint64_t key = 0;            ///< Key (GET/PUT/DELETE) or hint (BEGIN).
  std::span<const uint8_t> value;  ///< PUT only; aliases the frame payload.
};

/// Parse `frame` into a typed request. False on unknown opcode or malformed
/// payload (a per-request kBadRequest, never connection-fatal).
bool ParseRequest(const Frame& frame, Request* out);

// Request payload builders (compose with EncodeFrame).
std::vector<uint8_t> GetPayload(uint64_t txn, uint64_t key);
std::vector<uint8_t> PutPayload(uint64_t txn, uint64_t key,
                                std::span<const uint8_t> value);
std::vector<uint8_t> DeletePayload(uint64_t txn, uint64_t key);
std::vector<uint8_t> BeginPayload(uint64_t key_hint);
std::vector<uint8_t> TxnPayload(uint64_t txn);
std::vector<uint8_t> RetryPayload(uint32_t hint_us);

}  // namespace ipa::net
