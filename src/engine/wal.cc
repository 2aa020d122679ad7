#include "engine/wal.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/metrics.h"

namespace ipa::engine {

namespace {
// Serialized record:
//   u32 total_len | u8 type | u64 txn | u64 prev | u64 page | u16 slot |
//   u16 offset | u64 aux64 | u16 before_len | u16 after_len |
//   before bytes | after bytes | u32 crc (over everything before it)
constexpr size_t kFixedHeader = 4 + 1 + 8 + 8 + 8 + 2 + 2 + 8 + 2 + 2;
}  // namespace

Wal::~Wal() {
  metrics::PublishStats(stats_, kWalStatFields);
}

Lsn Wal::Append(const LogRecord& rec) {
  size_t total = kFixedHeader + rec.before.size() + rec.after.size() + 4;
  size_t at = buf_.size();
  buf_.resize(at + total);
  uint8_t* const start = buf_.data() + at;
  uint8_t* p = start;
  EncodeU32(p, static_cast<uint32_t>(total));
  p += 4;
  *p++ = static_cast<uint8_t>(rec.type);
  EncodeU64(p, rec.txn); p += 8;
  EncodeU64(p, rec.prev); p += 8;
  EncodeU64(p, rec.page.raw); p += 8;
  EncodeU16(p, rec.slot); p += 2;
  EncodeU16(p, rec.offset); p += 2;
  EncodeU64(p, rec.aux64); p += 8;
  EncodeU16(p, static_cast<uint16_t>(rec.before.size())); p += 2;
  EncodeU16(p, static_cast<uint16_t>(rec.after.size())); p += 2;
  // Empty payloads have a null data(); memcpy forbids that even for n=0.
  if (!rec.before.empty()) {
    std::memcpy(p, rec.before.data(), rec.before.size());
    p += rec.before.size();
  }
  if (!rec.after.empty()) {
    std::memcpy(p, rec.after.data(), rec.after.size());
    p += rec.after.size();
  }
  uint32_t crc = Crc32c(start, total - 4);
  EncodeU32(p, crc);

  Lsn lsn = end_lsn_;
  end_lsn_ += total;
  stats_.appends++;
  stats_.bytes_appended += total;
  return lsn;
}

void Wal::FlushTo(Lsn lsn) {
  if (lsn == kInvalidLsn) return;
  // Find the end of the record containing/starting at `lsn`.
  if (lsn >= end_lsn_) {
    durable_ = end_lsn_;
    MirrorDurable();
    return;
  }
  if (lsn < base_) return;  // already truncated => long durable
  uint32_t len = DecodeU32(&buf_[lsn - base_]);
  Lsn rec_end = lsn + len;
  if (rec_end > durable_) durable_ = rec_end;
  MirrorDurable();
}

void Wal::FlushAll() {
  durable_ = end_lsn_;
  MirrorDurable();
}

void Wal::BindLogDevice(ftl::PageDevice* device, ftl::Lba base_lba,
                        uint64_t capacity_pages) {
  log_dev_ = device;
  log_base_lba_ = base_lba;
  log_capacity_pages_ = capacity_pages;
  mirrored_ = durable_;
}

void Wal::MirrorDurable() {
  if (log_dev_ == nullptr || log_capacity_pages_ == 0 || durable_ <= mirrored_) {
    return;
  }
  const uint32_t ps = log_dev_->page_size();
  uint64_t first = mirrored_ / ps;
  uint64_t last = (durable_ - 1) / ps;
  std::vector<uint8_t> page(ps, 0);
  for (uint64_t p = first; p <= last; p++) {
    std::fill(page.begin(), page.end(), 0);
    Lsn pstart = static_cast<Lsn>(p) * ps;
    // Only durable bytes are mirrored; bytes below base_ were truncated
    // away (the ring has long overwritten them) and read as zero.
    Lsn from = std::max<Lsn>(pstart, base_);
    Lsn to = std::min<Lsn>(pstart + ps, durable_);
    if (to > from) {
      std::memcpy(page.data() + (from - pstart), &buf_[from - base_],
                  to - from);
    }
    // Best-effort: a failed mirror write must not fail the log force (the
    // in-memory log is the durability source of truth).
    (void)log_dev_->WriteTagged(log_base_lba_ + (p % log_capacity_pages_),
                                page.data(), /*sync=*/true,
                                ftl::StreamTag::kWal);
  }
  mirrored_ = durable_;
}

Result<LogRecord> Wal::Read(Lsn lsn) const {
  if (lsn < base_ || lsn >= end_lsn_) {
    return Status::InvalidArgument("LSN outside log window");
  }
  const uint8_t* p = &buf_[lsn - base_];
  uint32_t total = DecodeU32(p);
  if (total < kFixedHeader + 4 || lsn + total > end_lsn_) {
    return Status::Corruption("bad log record length");
  }
  uint32_t stored_crc = DecodeU32(p + total - 4);
  if (Crc32c(p, total - 4) != stored_crc) {
    return Status::Corruption("log record CRC mismatch");
  }
  LogRecord rec;
  const uint8_t* q = p + 4;
  rec.type = static_cast<LogType>(*q++);
  rec.txn = DecodeU64(q); q += 8;
  rec.prev = DecodeU64(q); q += 8;
  rec.page.raw = DecodeU64(q); q += 8;
  rec.slot = DecodeU16(q); q += 2;
  rec.offset = DecodeU16(q); q += 2;
  rec.aux64 = DecodeU64(q); q += 8;
  uint16_t blen = DecodeU16(q); q += 2;
  uint16_t alen = DecodeU16(q); q += 2;
  rec.before.assign(q, q + blen); q += blen;
  rec.after.assign(q, q + alen);
  return rec;
}

Result<Lsn> Wal::NextLsn(Lsn lsn) const {
  if (lsn < base_ || lsn >= end_lsn_) {
    return Status::InvalidArgument("LSN outside log window");
  }
  uint32_t total = DecodeU32(&buf_[lsn - base_]);
  return lsn + total;
}

Status Wal::TruncateTo(Lsn lsn) {
  if (lsn < base_) return Status::OK();
  if (lsn > durable_) {
    return Status::InvalidArgument("cannot truncate past the durable LSN");
  }
  stats_.bytes_truncated += lsn - base_;
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(lsn - base_));
  base_ = lsn;
  return Status::OK();
}

void Wal::DiscardUnflushed() {
  if (durable_ >= end_lsn_) return;
  buf_.resize(durable_ - base_);
  end_lsn_ = durable_;
}

}  // namespace ipa::engine
