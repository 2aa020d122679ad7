// The IPA write-path decision (Section 6.2, "The page is evicted and flushed
// to stable storage").
//
// When the buffer manager evicts a dirty page it consults PlanEviction with
// the page's *base image* (its content as it exists on flash, deltas applied)
// and the *current image*. The function byte-diffs the two, and either:
//
//   * kClean           — images identical, nothing to write;
//   * kInPlaceAppend   — the diff fits the remaining [NxM] budget: new
//                        delta-records are encoded into the current image's
//                        delta area and the returned AppendPlan describes the
//                        exact write_delta payload;
//   * kOutOfPlace      — budget exceeded (or no flash copy yet): the delta
//                        area of the current image is reset to erased so the
//                        fresh physical page can absorb future appends.

#pragma once

#include <cstdint>

#include "storage/delta_record.h"

namespace ipa::core {

enum class WritePath { kClean, kInPlaceAppend, kOutOfPlace };

const char* WritePathName(WritePath p);

struct EvictionDecision {
  WritePath path = WritePath::kClean;
  storage::AppendPlan plan;  ///< Valid when path == kInPlaceAppend.
  /// Diagnostics for update-size accounting: counts are exact only when
  /// PlanEviction ran with exact_diff (otherwise capped at the budget).
  uint32_t body_bytes_changed = 0;
  uint32_t meta_bytes_changed = 0;
};

/// Decide and prepare the flush of a dirty page.
///
/// `flash_copy_exists`       — false for newly allocated pages (IPA is never
///                             applicable to them).
/// `device_appends_allowed`  — whether the backing physical page can take one
///                             more write_delta (program budget, LSB/MSB,
///                             region mode); from NoFtl::DeltaWritePossible.
/// `exact_diff`              — compute the full diff even when it overflows
///                             the budget (needed when recording update-size
///                             distributions; slightly slower).
///
/// `scratch`                 — where the diff is collected; a PageDiff
///                             reused across flushes keeps its capacity, so
///                             the plan allocates nothing. Without one, a
///                             local PageDiff is used.
///
/// On kInPlaceAppend `cur`'s delta area gains the encoded records; on
/// kOutOfPlace `cur`'s delta area is reset to erased (0xFF).
EvictionDecision PlanEviction(const uint8_t* base, uint8_t* cur,
                              uint32_t page_size, bool flash_copy_exists,
                              bool device_appends_allowed,
                              bool exact_diff = false,
                              storage::PageDiff* scratch = nullptr);

}  // namespace ipa::core
