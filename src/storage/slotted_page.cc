#include "storage/slotted_page.h"

#include <cstring>
#include <vector>

#include "common/bytes.h"

namespace ipa::storage {

void SlottedPage::Initialize(uint64_t page_id, uint32_t table_id,
                             const Scheme& scheme) {
  uint32_t delta = scheme.enabled() ? scheme.AreaBytes() : 0;
  uint32_t delta_off = page_size_ - delta;
  std::memset(mut_, 0, delta_off);
  std::memset(mut_ + delta_off, 0xFF, delta);
  EncodeU64(mut_ + kOffPageLsn, 0);
  EncodeU64(mut_ + kOffPageId, page_id);
  EncodeU16(mut_ + kOffSlotCount, 0);
  EncodeU16(mut_ + kOffFreeBegin, static_cast<uint16_t>(kPageHeaderSize));
  EncodeU16(mut_ + kOffFreeEnd, static_cast<uint16_t>(delta_off));
  EncodeU16(mut_ + kOffDeltaOff, static_cast<uint16_t>(delta_off));
  mut_[kOffN] = scheme.n;
  mut_[kOffM] = scheme.m;
  mut_[kOffV] = scheme.v;
  mut_[kOffFlags] = 0;
  EncodeU32(mut_ + kOffTableId, table_id);
  mut_[kOffCodec] = scheme.codec;
}

uint64_t ConstSlottedPage::page_lsn() const { return DecodeU64(data_ + kOffPageLsn); }
void SlottedPage::set_page_lsn(uint64_t lsn) { EncodeU64(mut_ + kOffPageLsn, lsn); }
uint64_t ConstSlottedPage::page_id() const { return DecodeU64(data_ + kOffPageId); }
uint32_t ConstSlottedPage::table_id() const { return DecodeU32(data_ + kOffTableId); }
uint16_t ConstSlottedPage::slot_count() const { return DecodeU16(data_ + kOffSlotCount); }
uint16_t ConstSlottedPage::free_begin() const { return DecodeU16(data_ + kOffFreeBegin); }
uint16_t ConstSlottedPage::free_end() const { return DecodeU16(data_ + kOffFreeEnd); }
uint16_t ConstSlottedPage::delta_off() const { return DecodeU16(data_ + kOffDeltaOff); }

Scheme ConstSlottedPage::scheme() const {
  Scheme s;
  s.n = data_[kOffN];
  s.m = data_[kOffM];
  s.v = data_[kOffV];
  // Legacy pages carry 0 here (the header's reserved bytes were zeroed),
  // which is DeltaCodec::kRaw; out-of-range values degrade to raw too so a
  // corrupt codec byte can't select an undefined decode path.
  s.codec = data_[kOffCodec] <= 2 ? data_[kOffCodec] : 0;
  return s;
}

uint32_t ConstSlottedPage::FreeSpace() const {
  uint16_t begin = free_begin();
  uint16_t end = free_end();
  return end > begin ? end - begin : 0;
}

bool ConstSlottedPage::HasRoomFor(uint32_t tuple_len) const {
  return FreeSpace() >= tuple_len + kSlotEntrySize;
}

uint32_t ConstSlottedPage::SlotEntryPos(SlotId slot) const {
  return delta_off() - kSlotEntrySize * (static_cast<uint32_t>(slot) + 1);
}

uint16_t ConstSlottedPage::SlotOffset(SlotId slot) const {
  return DecodeU16(data_ + SlotEntryPos(slot));
}

uint16_t ConstSlottedPage::SlotLen(SlotId slot) const {
  return DecodeU16(data_ + SlotEntryPos(slot) + 2);
}

void SlottedPage::SetSlot(SlotId slot, uint16_t offset, uint16_t len) {
  EncodeU16(mut_ + SlotEntryPos(slot), offset);
  EncodeU16(mut_ + SlotEntryPos(slot) + 2, len);
}

Result<SlotId> SlottedPage::Insert(std::span<const uint8_t> tuple) {
  if (tuple.size() >= kDeadSlotLen) {
    return Status::InvalidArgument("tuple too large");
  }
  if (!HasRoomFor(static_cast<uint32_t>(tuple.size()))) {
    return Status::OutOfSpace("page full");
  }
  uint16_t begin = free_begin();
  SlotId slot = slot_count();
  std::memcpy(mut_ + begin, tuple.data(), tuple.size());
  EncodeU16(mut_ + kOffSlotCount, static_cast<uint16_t>(slot + 1));
  EncodeU16(mut_ + kOffFreeEnd, static_cast<uint16_t>(free_end() - kSlotEntrySize));
  SetSlot(slot, begin, static_cast<uint16_t>(tuple.size()));
  EncodeU16(mut_ + kOffFreeBegin, static_cast<uint16_t>(begin + tuple.size()));
  return slot;
}

Result<std::span<const uint8_t>> ConstSlottedPage::Read(SlotId slot) const {
  if (slot >= slot_count()) return Status::NotFound("no such slot");
  uint16_t len = SlotLen(slot);
  if (len == kDeadSlotLen) return Status::NotFound("tuple deleted");
  return std::span<const uint8_t>(data_ + SlotOffset(slot), len);
}

Status SlottedPage::UpdateInPlace(SlotId slot, uint32_t offset,
                                  std::span<const uint8_t> bytes) {
  if (slot >= slot_count()) return Status::NotFound("no such slot");
  uint16_t len = SlotLen(slot);
  if (len == kDeadSlotLen) return Status::NotFound("tuple deleted");
  if (offset + bytes.size() > len) {
    return Status::InvalidArgument("update exceeds tuple bounds");
  }
  std::memcpy(mut_ + SlotOffset(slot) + offset, bytes.data(), bytes.size());
  return Status::OK();
}

Status SlottedPage::UpdateResize(SlotId slot, std::span<const uint8_t> tuple) {
  if (slot >= slot_count()) return Status::NotFound("no such slot");
  uint16_t old_len = SlotLen(slot);
  if (old_len == kDeadSlotLen) return Status::NotFound("tuple deleted");
  if (tuple.size() == old_len) {
    std::memcpy(mut_ + SlotOffset(slot), tuple.data(), tuple.size());
    return Status::OK();
  }
  if (tuple.size() < old_len) {
    // Shrink in place: rewrite prefix, adjust slot length (old tail dead).
    std::memcpy(mut_ + SlotOffset(slot), tuple.data(), tuple.size());
    SetSlot(slot, SlotOffset(slot), static_cast<uint16_t>(tuple.size()));
    return Status::OK();
  }
  if (FreeSpace() < tuple.size()) {
    // Reclaim dead space — including this tuple's own old bytes — before
    // giving up.
    std::vector<uint8_t> old(mut_ + SlotOffset(slot),
                             mut_ + SlotOffset(slot) + old_len);
    SetSlot(slot, SlotOffset(slot), kDeadSlotLen);
    Compact();
    if (FreeSpace() < tuple.size()) {
      // Restore the original tuple (space for it is guaranteed: compaction
      // freed at least its own bytes).
      Status s = Revive(slot, old);
      assert(s.ok());
      (void)s;
      return Status::OutOfSpace("no room to grow tuple");
    }
    return Revive(slot, tuple);
  }
  uint16_t begin = free_begin();
  std::memcpy(mut_ + begin, tuple.data(), tuple.size());
  SetSlot(slot, begin, static_cast<uint16_t>(tuple.size()));
  EncodeU16(mut_ + kOffFreeBegin, static_cast<uint16_t>(begin + tuple.size()));
  return Status::OK();
}

Status SlottedPage::Delete(SlotId slot) {
  if (slot >= slot_count()) return Status::NotFound("no such slot");
  if (SlotLen(slot) == kDeadSlotLen) return Status::NotFound("already deleted");
  SetSlot(slot, SlotOffset(slot), kDeadSlotLen);
  return Status::OK();
}

Status SlottedPage::Revive(SlotId slot, std::span<const uint8_t> tuple) {
  if (slot >= slot_count()) return Status::NotFound("no such slot");
  if (SlotLen(slot) != kDeadSlotLen) {
    return Status::InvalidArgument("slot is live");
  }
  if (FreeSpace() < tuple.size()) {
    Compact();
    if (FreeSpace() < tuple.size()) {
      return Status::OutOfSpace("no room to revive tuple");
    }
  }
  uint16_t begin = free_begin();
  std::memcpy(mut_ + begin, tuple.data(), tuple.size());
  SetSlot(slot, begin, static_cast<uint16_t>(tuple.size()));
  EncodeU16(mut_ + kOffFreeBegin, static_cast<uint16_t>(begin + tuple.size()));
  return Status::OK();
}

bool ConstSlottedPage::IsLive(SlotId slot) const {
  return slot < slot_count() && SlotLen(slot) != kDeadSlotLen;
}

void SlottedPage::Compact() {
  uint16_t n = slot_count();
  std::vector<std::pair<SlotId, std::vector<uint8_t>>> live;
  live.reserve(n);
  for (SlotId s = 0; s < n; s++) {
    if (!IsLive(s)) continue;
    const uint8_t* p = mut_ + SlotOffset(s);
    live.emplace_back(s, std::vector<uint8_t>(p, p + SlotLen(s)));
  }
  uint16_t cursor = kPageHeaderSize;
  for (auto& [slot, bytes] : live) {
    std::memcpy(mut_ + cursor, bytes.data(), bytes.size());
    SetSlot(slot, cursor, static_cast<uint16_t>(bytes.size()));
    cursor = static_cast<uint16_t>(cursor + bytes.size());
  }
  EncodeU16(mut_ + kOffFreeBegin, cursor);
}

void SlottedPage::ResetDeltaArea() {
  uint16_t off = delta_off();
  std::memset(mut_ + off, 0xFF, page_size_ - off);
}

bool ConstSlottedPage::IsMetadataOffset(uint32_t offset) const {
  if (offset < kPageHeaderSize) return true;
  return offset >= free_end() && offset < delta_off();
}

}  // namespace ipa::storage
