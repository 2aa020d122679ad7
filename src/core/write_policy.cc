#include "core/write_policy.h"

#include <cstring>

#include "storage/slotted_page.h"

namespace ipa::core {

const char* WritePathName(WritePath p) {
  switch (p) {
    case WritePath::kClean: return "clean";
    case WritePath::kInPlaceAppend: return "in-place-append";
    case WritePath::kOutOfPlace: return "out-of-place";
  }
  return "?";
}

EvictionDecision PlanEviction(const uint8_t* base, uint8_t* cur,
                              uint32_t page_size, bool flash_copy_exists,
                              bool device_appends_allowed, bool exact_diff,
                              storage::PageDiff* scratch) {
  // Fast path: a byte-identical page needs no SlottedPage view and no diff.
  // Frames are often redundantly marked dirty (e.g. aborted updates, eager
  // cleaner passes); memcmp bails on the first differing word otherwise.
  if (std::memcmp(base, cur, page_size) == 0) {
    EvictionDecision clean;
    clean.path = WritePath::kClean;
    return clean;
  }

  storage::SlottedPage view(cur, page_size);
  storage::Scheme scheme = view.scheme();

  uint32_t body_cap, meta_cap;
  if (exact_diff) {
    body_cap = meta_cap = page_size;
  } else if (scheme.enabled() && flash_copy_exists && device_appends_allowed) {
    body_cap = storage::DeltaBudgetRemaining(cur, page_size) + 1;
    // Raw codec: metadata pairs have their own V slots. Byte codecs pack
    // body and meta changes into one shared budget, so meta gets the same
    // cap (EncodeDeltaRecords does the exact combined fit check).
    meta_cap = scheme.delta_codec() == storage::DeltaCodec::kRaw
                   ? scheme.v + 1u
                   : body_cap;
  } else {
    // The decision is forced to out-of-place; a one-byte diff proves "dirty".
    body_cap = meta_cap = 1;
  }

  storage::PageDiff local;
  storage::PageDiff& diff = scratch ? *scratch : local;
  storage::DiffPages(base, cur, page_size, body_cap, meta_cap, &diff);
  EvictionDecision d;
  d.body_bytes_changed = static_cast<uint32_t>(diff.body.size());
  d.meta_bytes_changed = static_cast<uint32_t>(diff.meta.size());

  if (diff.Empty()) {
    d.path = WritePath::kClean;
    return d;
  }
  // An overflowed diff cannot fit the budget: EncodeDeltaRecords would only
  // refuse it.
  if (!diff.overflow && scheme.enabled() && flash_copy_exists &&
      device_appends_allowed) {
    auto plan = storage::EncodeDeltaRecords(cur, page_size, diff);
    if (plan.ok() && plan.value().write_len > 0) {
      d.path = WritePath::kInPlaceAppend;
      d.plan = plan.value();
      return d;
    }
  }
  d.path = WritePath::kOutOfPlace;
  view.ResetDeltaArea();
  return d;
}

}  // namespace ipa::core
