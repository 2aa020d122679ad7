#include "storage/delta_record.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/bytes.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "storage/delta_codec.h"
#include "storage/slotted_page.h"

namespace ipa::storage {

namespace {

/// Single choke point for torn-record rejection. It publishes at once, to
/// two counters under one registry lock:
///  * `storage.delta.rejected_torn`: torn delta records rejected by the
///    read/apply paths. Every rejection is one scan hitting a record whose
///    ctrl byte is programmed but whose body fails validation (a torn
///    in-place append); the same physical record counts once per scan until
///    a scrub or quarantine clears it. Exported so the replication
///    convergence oracle can assert that torn-record drops are observable,
///    not silent.
///  * `storage.delta.quarantined_tails`: delta-area tails quarantined because
///    of a torn record. Once a scan rejects a record, everything from it to
///    the end of the area is treated as never written, so one rejected
///    record quarantines exactly one tail; the fuzzer's conservation oracle
///    asserts the two counters stay equal.
/// Only a power cut leaves a torn record, so this runs rarely enough to
/// publish at once instead of keeping a count.
void NoteTornRejected() {
  metrics::Registry::Instance().AddCounters(
      {{"storage.delta.rejected_torn", 1}, {"storage.delta.quarantined_tails", 1}});
}

struct AreaView {
  uint32_t delta_off;
  Scheme scheme;
  uint32_t record_bytes;
};

AreaView ViewOf(const uint8_t* page, uint32_t page_size) {
  ConstSlottedPage view(page, page_size);
  AreaView v;
  v.delta_off = view.delta_off();
  v.scheme = view.scheme();
  v.record_bytes = v.scheme.RecordBytes();
  return v;
}

/// Encode one (value, offset) pair at `dst`.
void PutPair(uint8_t* dst, ByteChange c) {
  dst[0] = c.value;
  EncodeU16(dst + 1, c.offset);
}

/// True iff the record at `rec` is a completely-programmed delta record. A
/// power loss mid-append can only clear bits (ISPP), so a torn ctrl byte is a
/// strict superset of kCtrlPresent's zero bits — never equal unless the ctrl
/// byte finished — and a torn pair can leave an offset pointing into the
/// delta area. Either way the record (and everything after it) must read as
/// never written. The kSkipDeltaRecordValidation fault point degrades this to
/// "ctrl byte not erased", letting torn records through — the deliberate bug
/// the differential checker must catch (tests/differential_test.cc).
bool ValidRecord(const uint8_t* rec, const AreaView& v) {
  if (fault::Enabled(fault::Point::kSkipDeltaRecordValidation)) {
    return rec[0] != 0xFF;
  }
  return RecordWellFormed(rec, v.delta_off, v.scheme);
}

// ---------------------------------------------------------------------------
// Byte codecs (kDelta, kDeltaCompress).

/// Decode a kDelta payload (varint offset-gaps + absolute values, strictly
/// ascending, fully consumed) into `out` (when non-null). Fails closed on
/// any structural violation.
bool DecodeGapPayload(const uint8_t* data, uint32_t len, uint32_t delta_off,
                      std::vector<ByteChange>* out) {
  uint32_t pos = 0;
  uint32_t next_min = 0;  // first offset = gap; later: prev + 1 + gap
  bool first = true;
  if (len == 0) return false;
  while (pos < len) {
    uint32_t gap = 0;
    if (!GetVarint(data, len, &pos, &gap)) return false;
    if (pos >= len) return false;  // value byte missing
    uint8_t value = data[pos++];
    uint64_t offset = static_cast<uint64_t>(next_min) + gap;
    if (offset >= delta_off) return false;
    if (out != nullptr) {
      out->push_back(ByteChange{static_cast<uint16_t>(offset), value});
    }
    next_min = static_cast<uint32_t>(offset) + 1;
    first = false;
  }
  return !first;
}

/// Decode the payload of a byte-codec record into `out` (when non-null),
/// handling the kDeltaCompress method byte. `scratch` holds decompressed
/// bytes so the caller controls allocation.
bool DecodeBytePayload(const uint8_t* payload, uint32_t len, const AreaView& v,
                       std::vector<ByteChange>* out,
                       std::vector<uint8_t>& scratch) {
  if (v.scheme.delta_codec() == DeltaCodec::kDelta) {
    return DecodeGapPayload(payload, len, v.delta_off, out);
  }
  if (len < 2) return false;  // method byte + at least one payload byte
  uint8_t method = payload[0];
  if (method == 0) {  // stored
    return DecodeGapPayload(payload + 1, len - 1, v.delta_off, out);
  }
  if (method != 1) return false;
  scratch.clear();
  // Each change costs >= 2 payload bytes and covers an offset < delta_off,
  // so a well-formed decompressed payload can never exceed 4 bytes/change.
  uint32_t max_out = 4u * v.delta_off;
  if (!LzDecompress(payload + 1, len - 1, max_out, scratch)) return false;
  return DecodeGapPayload(scratch.data(), static_cast<uint32_t>(scratch.size()),
                          v.delta_off, out);
}

/// Full validation of the byte-codec record at page offset `pos`:
/// header bounds, ctrl byte, payload checksum, structural decode. On success
/// sets *rec_len to the total record length (header + payload). Under
/// kSkipDeltaRecordValidation the checksum and decode checks are skipped
/// (the differential checker's deliberate bug); the header bounds are not —
/// they keep the scan itself memory-safe.
bool ValidByteRecord(const uint8_t* page, uint32_t page_size, uint32_t pos,
                     const AreaView& v, bool strict, uint32_t* rec_len,
                     std::vector<uint8_t>& scratch) {
  if (pos + kByteRecordHeader > page_size) return false;
  const uint8_t* rec = page + pos;
  uint16_t len = DecodeU16(rec + 1);
  if (len == 0 || pos + kByteRecordHeader + len > page_size) return false;
  *rec_len = kByteRecordHeader + len;
  if (!strict && fault::Enabled(fault::Point::kSkipDeltaRecordValidation)) {
    return rec[0] != 0xFF;
  }
  if (rec[0] != kCtrlPresent) return false;
  if (DecodeU16(rec + 3) != Crc16(rec + kByteRecordHeader, len)) return false;
  return DecodeBytePayload(rec + kByteRecordHeader, len, v, nullptr, scratch);
}

struct ByteScan {
  uint32_t count = 0;  ///< Valid records in the prefix.
  uint32_t end = 0;    ///< Page offset one past the last valid record.
  bool torn = false;   ///< Scan stopped at a programmed-but-invalid record.
};

/// Walk the byte-codec records from delta_off: a contiguous prefix of valid
/// records, terminated by an erased ctrl byte (clean end) or anything
/// invalid (torn tail). `strict` bypasses the fault-injection override —
/// the audit oracle must keep rejecting what the (deliberately) broken read
/// path lets through.
ByteScan ScanByteRecords(const uint8_t* page, uint32_t page_size,
                         const AreaView& v, bool strict = false) {
  ByteScan scan;
  scan.end = v.delta_off;
  std::vector<uint8_t> scratch;
  while (scan.end < page_size && page[scan.end] != 0xFF) {
    uint32_t rec_len = 0;
    if (!ValidByteRecord(page, page_size, scan.end, v, strict, &rec_len,
                         scratch)) {
      scan.torn = true;
      break;
    }
    scan.end += rec_len;
    scan.count++;
  }
  return scan;
}

bool IsByteCodec(const AreaView& v) {
  return v.scheme.delta_codec() != DeltaCodec::kRaw;
}

// ---------------------------------------------------------------------------
// Page diff kernels.

/// Collects a page diff: Add classifies changed byte `i` as body or meta and
/// returns false once a cap is hit (overflow set).
struct DiffSink {
  PageDiff* diff;
  const uint8_t* cur;
  uint32_t meta_begin;
  uint32_t delta_off;
  uint32_t body_cap;
  uint32_t meta_cap;

  bool Add(uint32_t i) {
    bool is_meta = i < kPageHeaderSize || (i >= meta_begin && i < delta_off);
    std::vector<ByteChange>& list = is_meta ? diff->meta : diff->body;
    if (list.size() >= (is_meta ? meta_cap : body_cap)) {
      diff->overflow = true;
      return false;
    }
    list.push_back(ByteChange{static_cast<uint16_t>(i), cur[i]});
    return true;
  }
};

/// Diffs [from, end) into `sink`, visiting changed bytes in ascending offset
/// order, so the diff, including its truncation at a cap, is that of a plain
/// byte loop.
using DiffKernel = void (*)(const uint8_t* base, const uint8_t* cur, uint32_t from,
                            uint32_t end, DiffSink& sink);

/// Most of the page is unchanged on a typical flush, so compare 8 bytes at a
/// time and only drop to byte granularity inside a differing word.
void DiffWords(const uint8_t* base, const uint8_t* cur, uint32_t from, uint32_t end,
               DiffSink& sink) {
  uint32_t i = from;
  const uint32_t word_end = from + ((end - from) & ~7u);
  for (; i < word_end; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, base + i, 8);
    std::memcpy(&b, cur + i, 8);
    if (a == b) continue;
    for (uint32_t k = i; k < i + 8; k++) {
      if (base[k] != cur[k] && !sink.Add(k)) return;
    }
  }
  for (; i < end; i++) {
    if (base[i] != cur[i] && !sink.Add(i)) return;
  }
}

#if defined(__x86_64__)
/// 0xFF in each byte where the 32 bytes at `a` and `b` are equal.
__attribute__((target("avx2"))) inline __m256i EqualBytes(const uint8_t* a,
                                                          const uint8_t* b) {
  return _mm256_cmpeq_epi8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)),
                           _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b)));
}

/// Skips equal 64-byte blocks with two 32-byte compares, walks a differing
/// block's mismatch bitmask lowest bit first, and leaves the last 0-63 bytes
/// to DiffWords.
__attribute__((target("avx2"))) void DiffAvx2(const uint8_t* base, const uint8_t* cur,
                                              uint32_t from, uint32_t end,
                                              DiffSink& sink) {
  uint32_t i = from;
  for (; end - i >= 64; i += 64) {
    __m256i lo = EqualBytes(base + i, cur + i);
    __m256i hi = EqualBytes(base + i + 32, cur + i + 32);
    if (_mm256_movemask_epi8(_mm256_and_si256(lo, hi)) == -1) continue;
    uint64_t differ = ~(uint64_t{static_cast<uint32_t>(_mm256_movemask_epi8(hi))} << 32 |
                        static_cast<uint32_t>(_mm256_movemask_epi8(lo)));
    for (; differ != 0; differ &= differ - 1) {
      if (!sink.Add(i + static_cast<uint32_t>(std::countr_zero(differ)))) return;
    }
  }
  DiffWords(base, cur, i, end, sink);
}
#endif

DiffKernel ChooseDiffKernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return DiffAvx2;
#endif
  return DiffWords;
}

void DiffWith(DiffKernel kernel, const uint8_t* base, const uint8_t* cur,
              uint32_t page_size, uint32_t body_cap, uint32_t meta_cap, PageDiff* out) {
  ConstSlottedPage view(cur, page_size);
  out->body.clear();
  out->meta.clear();
  out->overflow = false;
  DiffSink sink{out, cur, view.free_end(), view.delta_off(), body_cap, meta_cap};
  kernel(base, cur, 0, sink.delta_off, sink);
}

}  // namespace

bool RecordWellFormed(const uint8_t* rec, uint32_t delta_off, Scheme scheme) {
  if (rec[0] != kCtrlPresent) return false;
  uint32_t pairs = static_cast<uint32_t>(scheme.m) + scheme.v;
  for (uint32_t p = 0; p < pairs; p++) {
    const uint8_t* pair = rec + 1 + 3 * p;
    uint16_t offset = DecodeU16(pair + 1);
    if (offset == 0xFFFF) {
      // Unused pair: EncodeDeltaRecords leaves all three bytes erased. A
      // programmed value under an erased offset is a torn append.
      if (pair[0] != 0xFF) return false;
      continue;
    }
    if (offset >= delta_off) return false;
  }
  return true;
}

Status AuditDeltaArea(const uint8_t* page, uint32_t page_size) {
  AreaView v = ViewOf(page, page_size);
  if (v.scheme.enabled() && IsByteCodec(v)) {
    ByteScan scan = ScanByteRecords(page, page_size, v, /*strict=*/true);
    if (scan.torn) {
      return Status::Corruption("byte-codec delta record " +
                                std::to_string(scan.count) +
                                " is torn or malformed");
    }
    for (uint32_t i = scan.end; i < page_size; i++) {
      if (page[i] != 0xFF) {
        return Status::Corruption(
            "non-erased byte at page offset " + std::to_string(i) +
            " past byte-codec delta record " + std::to_string(scan.count));
      }
    }
    return Status::OK();
  }
  uint32_t present = 0;
  if (v.scheme.enabled()) {
    for (; present < v.scheme.n; present++) {
      uint32_t base = v.delta_off + present * v.record_bytes;
      if (base + v.record_bytes > page_size) break;
      if (page[base] == 0xFF) break;
      if (!RecordWellFormed(page + base, v.delta_off, v.scheme)) {
        return Status::Corruption("delta slot " + std::to_string(present) +
                                  " is torn or malformed");
      }
    }
  }
  // Everything past the present prefix — trailing slots and slack — must
  // still be erased; stray programmed bytes there are torn remnants.
  uint32_t tail = v.scheme.enabled()
                      ? v.delta_off + present * v.record_bytes
                      : v.delta_off;
  for (uint32_t i = tail; i < page_size; i++) {
    if (page[i] != 0xFF) {
      return Status::Corruption(
          "non-erased byte at page offset " + std::to_string(i) +
          " past delta record " + std::to_string(present));
    }
  }
  return Status::OK();
}

uint32_t CountDeltaRecords(const uint8_t* page, uint32_t page_size) {
  AreaView v = ViewOf(page, page_size);
  if (!v.scheme.enabled()) return 0;
  if (IsByteCodec(v)) {
    ByteScan scan = ScanByteRecords(page, page_size, v);
    if (scan.torn) NoteTornRejected();
    return scan.count;
  }
  uint32_t count = 0;
  for (uint32_t r = 0; r < v.scheme.n; r++) {
    uint32_t base = v.delta_off + r * v.record_bytes;
    if (base + v.record_bytes > page_size) break;
    if (page[base] == 0xFF) break;  // erased ctrl byte: no further records
    if (!ValidRecord(page + base, v)) {  // torn record: never written
      NoteTornRejected();
      break;
    }
    count++;
  }
  return count;
}

bool HasDeltaRecords(const uint8_t* page, uint32_t page_size) {
  AreaView v = ViewOf(page, page_size);
  return v.scheme.enabled() && v.delta_off < page_size && page[v.delta_off] != 0xFF;
}

uint32_t ApplyDeltaRecords(uint8_t* page, uint32_t page_size) {
  AreaView v = ViewOf(page, page_size);
  if (!v.scheme.enabled()) return 0;
  if (IsByteCodec(v)) {
    uint32_t applied = 0;
    uint32_t pos = v.delta_off;
    std::vector<uint8_t> scratch;
    std::vector<ByteChange> changes;
    while (pos < page_size && page[pos] != 0xFF) {
      uint32_t rec_len = 0;
      if (!ValidByteRecord(page, page_size, pos, v, /*strict=*/false,
                           &rec_len, scratch)) {
        NoteTornRejected();  // torn record: never written
        break;
      }
      uint16_t len = DecodeU16(page + pos + 1);
      changes.clear();
      // Decode can only fail under kSkipDeltaRecordValidation (the read
      // path's deliberate bug); apply whatever decoded before the failure —
      // exactly the garbage the differential checker must catch.
      DecodeBytePayload(page + pos + kByteRecordHeader, len, v, &changes,
                        scratch);
      for (const ByteChange& c : changes) page[c.offset] = c.value;
      pos += rec_len;
      applied++;
    }
    return applied;
  }
  uint32_t applied = 0;
  uint32_t pairs = static_cast<uint32_t>(v.scheme.m) + v.scheme.v;
  for (uint32_t r = 0; r < v.scheme.n; r++) {
    uint32_t base = v.delta_off + r * v.record_bytes;
    if (base + v.record_bytes > page_size) break;
    if (page[base] == 0xFF) break;
    if (!ValidRecord(page + base, v)) {  // torn record: never written
      NoteTornRejected();
      break;
    }
    for (uint32_t p = 0; p < pairs; p++) {
      const uint8_t* pair = page + base + 1 + 3 * p;
      uint16_t offset = DecodeU16(pair + 1);
      if (offset == 0xFFFF) continue;
      if (offset < v.delta_off) page[offset] = pair[0];
    }
    applied++;
  }
  return applied;
}

uint32_t DeltaBudgetRemaining(const uint8_t* page, uint32_t page_size) {
  AreaView v = ViewOf(page, page_size);
  if (!v.scheme.enabled()) return 0;
  if (IsByteCodec(v)) {
    ByteScan scan = ScanByteRecords(page, page_size, v);
    if (scan.torn) return 0;  // cannot append past torn bytes
    uint32_t remaining = page_size - scan.end;
    bool compress = v.scheme.delta_codec() == DeltaCodec::kDeltaCompress;
    uint32_t header = kByteRecordHeader + (compress ? 1 : 0);
    if (remaining <= header + 1) return 0;
    uint32_t usable = remaining - header;
    // kDelta: worst case 2 bytes per change. kDeltaCompress: optimistic
    // ~1 byte per change best case; EncodeDeltaRecords does the exact check.
    return compress ? usable : usable / 2;
  }
  uint32_t existing = CountDeltaRecords(page, page_size);
  return (v.scheme.n - existing) * v.scheme.m;
}

void DiffPages(const uint8_t* base, const uint8_t* cur, uint32_t page_size,
               uint32_t body_cap, uint32_t meta_cap, PageDiff* out) {
  static const DiffKernel kernel = ChooseDiffKernel();
  DiffWith(kernel, base, cur, page_size, body_cap, meta_cap, out);
}

void DiffPagesPortable(const uint8_t* base, const uint8_t* cur, uint32_t page_size,
                       uint32_t body_cap, uint32_t meta_cap, PageDiff* out) {
  DiffWith(DiffWords, base, cur, page_size, body_cap, meta_cap, out);
}

PageDiff DiffPages(const uint8_t* base, const uint8_t* cur, uint32_t page_size,
                   uint32_t body_cap, uint32_t meta_cap) {
  PageDiff diff;
  DiffPages(base, cur, page_size, body_cap, meta_cap, &diff);
  return diff;
}

Result<AppendPlan> EncodeDeltaRecords(uint8_t* cur, uint32_t page_size,
                                      const PageDiff& diff) {
  AreaView v = ViewOf(cur, page_size);
  if (!v.scheme.enabled()) {
    return Status::NotSupported("page has no delta area");
  }
  if (diff.overflow) {
    return Status::OutOfSpace("diff exceeds tracking caps");
  }
  if (diff.Empty()) {
    return AppendPlan{};  // nothing to write
  }
  if (IsByteCodec(v)) {
    ByteScan scan = ScanByteRecords(cur, page_size, v);
    if (scan.torn) {
      return Status::OutOfSpace("delta area has a torn tail");
    }
    // Merge body and meta changes into one ascending-offset stream (both
    // vectors come from DiffPages's ascending scan).
    std::vector<ByteChange> merged;
    merged.resize(diff.body.size() + diff.meta.size());
    std::merge(diff.body.begin(), diff.body.end(), diff.meta.begin(),
               diff.meta.end(), merged.begin(),
               [](ByteChange a, ByteChange b) { return a.offset < b.offset; });
    std::vector<uint8_t> payload;
    payload.reserve(2 * merged.size() + 4);
    uint32_t next_min = 0;
    for (const ByteChange& c : merged) {
      PutVarint(payload, c.offset - next_min);
      payload.push_back(c.value);
      next_min = static_cast<uint32_t>(c.offset) + 1;
    }
    if (v.scheme.delta_codec() == DeltaCodec::kDeltaCompress) {
      std::vector<uint8_t> lz = LzCompress(payload.data(), payload.size());
      std::vector<uint8_t> framed;
      framed.reserve(1 + std::min(lz.size(), payload.size()));
      if (lz.size() < payload.size()) {
        framed.push_back(1);  // method: LZ
        framed.insert(framed.end(), lz.begin(), lz.end());
      } else {
        framed.push_back(0);  // method: stored
        framed.insert(framed.end(), payload.begin(), payload.end());
      }
      payload = std::move(framed);
    }
    uint32_t total = kByteRecordHeader + static_cast<uint32_t>(payload.size());
    if (scan.end + total > page_size) {
      return Status::OutOfSpace("byte-codec delta area exhausted");
    }
    uint8_t* rec = cur + scan.end;
    rec[0] = kCtrlPresent;
    EncodeU16(rec + 1, static_cast<uint16_t>(payload.size()));
    EncodeU16(rec + 3, Crc16(payload.data(), payload.size()));
    std::memcpy(rec + kByteRecordHeader, payload.data(), payload.size());
    AppendPlan plan;
    plan.write_offset = scan.end;
    plan.write_len = total;
    plan.records = 1;
    return plan;
  }
  if (diff.meta.size() > v.scheme.v) {
    return Status::OutOfSpace("metadata changes exceed V");
  }
  uint32_t existing = CountDeltaRecords(cur, page_size);
  uint32_t avail = v.scheme.n - existing;
  uint32_t body = static_cast<uint32_t>(diff.body.size());
  uint32_t needed = body == 0 ? 1 : (body + v.scheme.m - 1) / v.scheme.m;
  if (needed > avail) {
    return Status::OutOfSpace("delta-record slots exhausted");
  }

  uint32_t first = v.delta_off + existing * v.record_bytes;
  size_t body_idx = 0;
  for (uint32_t k = 0; k < needed; k++) {
    uint8_t* rec = cur + first + k * v.record_bytes;
    // The buffer's delta slots must still be erased; fill explicitly so the
    // encoded bytes are exactly what write_delta programs.
    std::memset(rec, 0xFF, v.record_bytes);
    rec[0] = kCtrlPresent;
    for (uint32_t p = 0; p < v.scheme.m && body_idx < diff.body.size(); p++) {
      PutPair(rec + 1 + 3 * p, diff.body[body_idx++]);
    }
    if (k == needed - 1) {
      for (size_t j = 0; j < diff.meta.size(); j++) {
        PutPair(rec + 1 + 3 * v.scheme.m + 3 * static_cast<uint32_t>(j),
                diff.meta[j]);
      }
    }
  }

  AppendPlan plan;
  plan.write_offset = first;
  plan.write_len = needed * v.record_bytes;
  plan.records = needed;
  return plan;
}

}  // namespace ipa::storage
