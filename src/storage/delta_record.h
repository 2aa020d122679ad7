// Delta-record encoding, application and page diffing (Sections 6.1, 6.2),
// extended with per-page delta codecs (docs/DELTA_COMPRESSION.md).
//
// Under DeltaCodec::kRaw (the paper's format) a delta-record is:
//
//   [ctrl 1B] [body pairs: M x (value 1B, offset 2B)] [meta pairs: V x ...]
//
// appended into the page's delta-record area. A pair with offset 0xFFFF is
// unused (its three bytes stay erased, 0xFF, so the record can be programmed
// with ISPP). The ctrl byte flags the record as present. Applying a record
// replays `page[offset] = value` for every used pair; records are applied in
// append (forward) order, so the last write of an offset wins — exactly the
// REDO semantics of the paper.
//
// Under the byte codecs (kDelta, kDeltaCompress) records are variable-length
// and packed back to back in the same reserved area:
//
//   [ctrl 1B = kCtrlPresent] [len u16 LE] [crc16 u16 LE] [payload `len` B]
//
// kDelta's payload is a sequence of (varint offset-gap, absolute value byte)
// pairs in strictly ascending offset order (gap = offset - prev - 1, first
// gap = offset); absolute values keep application idempotent. kDeltaCompress
// prefixes one method byte (0 = stored, 1 = LZ) and runs the kDelta payload
// through the deterministic LZ pass of delta_codec.h, falling back to stored
// when compression does not help. The crc16 is Crc16() of the payload; a
// record whose ctrl byte, header, checksum or payload structure is off is
// torn and quarantines the rest of the area — torn compressed records must
// never decode as garbage. The codec is read from the page header
// (kOffCodec), so areas of different codecs mount, scrub and replay side by
// side.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/page_format.h"

namespace ipa::storage {

/// Control-byte value marking a present delta-record (any value != 0xFF
/// works under ISPP; this one keeps half the bits erased).
constexpr uint8_t kCtrlPresent = 0x5A;

/// Byte-codec record header: ctrl + len u16 + crc16.
constexpr uint32_t kByteRecordHeader = 5;

/// One changed byte at an absolute page offset.
struct ByteChange {
  uint16_t offset;
  uint8_t value;
};

/// Outcome of diffing the buffered page against its base (flash) image.
struct PageDiff {
  std::vector<ByteChange> body;  ///< Changes to tuple data.
  std::vector<ByteChange> meta;  ///< Changes to header + slot array.
  bool overflow = false;         ///< Hit the caps; lists are truncated.

  bool Empty() const { return body.empty() && meta.empty() && !overflow; }
  uint32_t TotalBytes() const {
    return static_cast<uint32_t>(body.size() + meta.size());
  }
};

/// Placement of freshly encoded records, i.e. the write_delta payload.
struct AppendPlan {
  uint32_t write_offset = 0;  ///< Page offset of the first new record.
  uint32_t write_len = 0;     ///< Bytes to append (k * RecordBytes()).
  uint32_t records = 0;       ///< Number of new records (k).
};

/// Strict structural check of one delta record: the ctrl byte must equal
/// kCtrlPresent and every (value, offset) pair must be either fully erased
/// (all three bytes 0xFF) or carry an offset inside the page body
/// (< delta_off). This is what EncodeDeltaRecords produces; anything else is
/// a torn append. Unlike the acceptance check on the read path, this
/// predicate ignores fault-injection overrides — the differential checker's
/// AuditDeltaArea oracle is built on it.
bool RecordWellFormed(const uint8_t* rec, uint32_t delta_off, Scheme scheme);

/// Audit the delta area of a raw page image (checker oracle): present
/// records must form a contiguous prefix of well-formed records — [NxM]
/// slots or byte-codec records, per the page's codec byte — and every byte
/// after the last present record must still read as erased (0xFF). Returns
/// Corruption describing the first violation. Does not touch the torn
/// counters (it is the oracle, not the read path).
Status AuditDeltaArea(const uint8_t* page, uint32_t page_size);

/// Number of delta-records currently present on the page (scans ctrl bytes;
/// records are contiguous from the start of the delta area). This is the
/// paper's N_E. Codec-aware: counts raw slots or byte-codec records per the
/// page's codec byte.
uint32_t CountDeltaRecords(const uint8_t* page, uint32_t page_size);

/// True when the first control byte of the page's delta area is programmed:
/// ApplyDeltaRecords then has a record to look at. When false it applies
/// nothing and counts no torn record.
bool HasDeltaRecords(const uint8_t* page, uint32_t page_size);

/// Apply all present delta-records to the page in forward order. Returns the
/// number of records applied. Idempotent (byte-codec payloads carry absolute
/// values, not XOR diffs, for exactly this reason).
uint32_t ApplyDeltaRecords(uint8_t* page, uint32_t page_size);

/// Remaining append budget for the page, in *changed bytes the next appends
/// could still cover*. Raw codec: the paper's C_p = (N - N_E) * M body-byte
/// budget. Byte codecs: an optimistic cap derived from the remaining area
/// bytes ((rem - header) / 2 for kDelta, rem - header - 1 for
/// kDeltaCompress); EncodeDeltaRecords does the exact fit check.
uint32_t DeltaBudgetRemaining(const uint8_t* page, uint32_t page_size);

/// Byte-diff `cur` against `base` over [0, delta_off), classifying offsets
/// into body vs metadata using `cur`'s header. Changes are collected in
/// ascending offset order. Collection stops (and `overflow` is set) once
/// body exceeds `body_cap` or meta exceeds `meta_cap` changes — enough to
/// know the [NxM] budget is blown without materializing a page-sized diff.
/// The scan skips equal 32-byte chunks with AVX2 when the CPU has it
/// (detected on the first call); the result is the same either way.
PageDiff DiffPages(const uint8_t* base, const uint8_t* cur, uint32_t page_size,
                   uint32_t body_cap, uint32_t meta_cap);

/// DiffPages into `out`, whose lists are cleared but keep their capacity, so
/// a reused PageDiff allocates nothing once it has grown.
void DiffPages(const uint8_t* base, const uint8_t* cur, uint32_t page_size,
               uint32_t body_cap, uint32_t meta_cap, PageDiff* out);

/// The portable word loop behind DiffPages on CPUs without AVX2. Tests run
/// it on any host.
void DiffPagesPortable(const uint8_t* base, const uint8_t* cur, uint32_t page_size,
                       uint32_t body_cap, uint32_t meta_cap, PageDiff* out);

/// Encode `diff` as new delta-records in `cur`'s delta area (mutates the
/// buffer). Raw codec: body pairs are distributed across ceil(|body|/M)
/// records and all metadata pairs go into the last record. Byte codecs: body
/// and meta changes merge into one variable-length record appended after the
/// existing ones. Fails with OutOfSpace when the diff does not fit the
/// remaining budget; the caller then writes the page out-of-place.
Result<AppendPlan> EncodeDeltaRecords(uint8_t* cur, uint32_t page_size,
                                      const PageDiff& diff);

}  // namespace ipa::storage
