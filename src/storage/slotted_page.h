// SlottedPage: a non-owning view over a page buffer implementing the NSM
// slotted-page format of page_format.h. All tuple and header mutations go
// through this class so the change footprint on the page stays exactly what
// the paper's byte-diff analysis assumes. ConstSlottedPage is its read-only
// part, for pages the holder may not write (a buffer frame before
// BufferPool::WillModify()).

#pragma once

#include <cstdint>
#include <span>

#include "common/status.h"
#include "storage/page_format.h"

namespace ipa::storage {

using SlotId = uint16_t;

/// Read-only view of a page in this format.
class ConstSlottedPage {
 public:
  /// Wrap an existing buffer (does not take ownership, no validation).
  ConstSlottedPage(const uint8_t* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  // -- Header accessors -------------------------------------------------------
  uint64_t page_lsn() const;
  uint64_t page_id() const;
  uint32_t table_id() const;
  uint16_t slot_count() const;
  uint16_t free_begin() const;
  uint16_t free_end() const;
  uint16_t delta_off() const;
  Scheme scheme() const;

  /// Contiguous free bytes available for a new tuple of `len` bytes
  /// (accounts for the slot entry).
  uint32_t FreeSpace() const;
  bool HasRoomFor(uint32_t tuple_len) const;

  /// Read-only view of a live tuple.
  Result<std::span<const uint8_t>> Read(SlotId slot) const;

  bool IsLive(SlotId slot) const;

  /// Classify a page offset as metadata (header or slot array) per the
  /// paper's byte-level metadata tracking.
  bool IsMetadataOffset(uint32_t offset) const;

  const uint8_t* raw() const { return data_; }
  uint32_t page_size() const { return page_size_; }

 protected:
  uint32_t SlotEntryPos(SlotId slot) const;
  uint16_t SlotOffset(SlotId slot) const;
  uint16_t SlotLen(SlotId slot) const;

  const uint8_t* data_;
  uint32_t page_size_;
};

/// Writable view: ConstSlottedPage plus every mutation.
class SlottedPage : public ConstSlottedPage {
 public:
  /// Wrap an existing buffer (does not take ownership, no validation).
  SlottedPage(uint8_t* data, uint32_t page_size)
      : ConstSlottedPage(data, page_size), mut_(data) {}

  /// Format a fresh page: header initialized, body zeroed, delta area erased
  /// (0xFF) so it can be ISPP-appended on flash.
  void Initialize(uint64_t page_id, uint32_t table_id, const Scheme& scheme);

  void set_page_lsn(uint64_t lsn);

  // -- Tuple operations -------------------------------------------------------

  /// Insert a tuple; returns its slot id.
  Result<SlotId> Insert(std::span<const uint8_t> tuple);

  /// Overwrite `len` bytes at `offset` within the tuple (fixed-length
  /// in-place update — the IPA-friendly case).
  Status UpdateInPlace(SlotId slot, uint32_t offset, std::span<const uint8_t> bytes);

  /// Replace the whole tuple, possibly changing its length (relocates within
  /// the page). A grown tuple that does not fit even after compacting the
  /// page fails with OutOfSpace; the page stays compacted and keeps the old
  /// tuple, so a retry cannot succeed.
  Status UpdateResize(SlotId slot, std::span<const uint8_t> tuple);

  /// Mark-delete a tuple (slot survives; space reclaimed by Compact()).
  Status Delete(SlotId slot);

  /// Restore a dead slot with `tuple` (undo of a delete). Allocates fresh
  /// space in the page body (compacting if needed).
  Status Revive(SlotId slot, std::span<const uint8_t> tuple);

  /// Reclaim dead-tuple space by sliding live tuples together. Rewrites most
  /// of the body — callers should expect the next flush to go out-of-place.
  void Compact();

  // -- Delta area helpers -----------------------------------------------------

  /// Reset the delta-record area to erased (0xFF). Must precede every
  /// out-of-place write so the new physical page can absorb future appends.
  void ResetDeltaArea();

  uint8_t* raw() { return mut_; }
  using ConstSlottedPage::raw;

 private:
  void SetSlot(SlotId slot, uint16_t offset, uint16_t len);

  uint8_t* mut_;
};

}  // namespace ipa::storage
