// Invariant oracles for the differential checker.
//
// Three oracle families, each independent of the code paths it audits:
//  * FlashShadow — ISPP monotonicity: between two observations of the same
//    physical page with no intervening erase, stored bits may only go 1 -> 0
//    (an out-of-band copy of the media catches any 0 -> 1 flip the device's
//    own validation missed). Valid only with ErrorModel rates at 0 — the
//    retention injector legitimately flips 0 -> 1.
//  * CheckCounterConservation — the PR-3 metric counters must balance across
//    layers: every device page program is attributable to exactly one FTL
//    cause, every buffer-pool delta flush is a host write_delta, and so on.
//  * AuditMappedDeltaAreas — the raw media image of every mapped page must
//    hold a well-formed contiguous prefix of delta records with an erased
//    tail (storage::AuditDeltaArea), i.e. no torn append survives recovery.
//
// The structural audits FlashArray::AuditState() and NoFtl::AuditRegion()
// complete the set; the differential fuzzer (check/fuzzer.cc) runs all of
// them.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/buffer_pool.h"
#include "flash/flash_array.h"
#include "ftl/noftl.h"

namespace ipa::check {

/// Out-of-band media shadow enforcing ISPP monotonicity across observations.
class FlashShadow {
 public:
  /// Compare the device's current media against the last observation and
  /// update the shadow. Pages whose block was erased in between are
  /// re-captured without comparison. Returns Corruption on any 0 -> 1
  /// transition in stored data or OOB bytes.
  Status ObserveAndCheck(const flash::FlashArray& dev);

 private:
  struct PageShadow {
    uint32_t erase_count = 0;
    std::vector<uint8_t> data;
    std::vector<uint8_t> oob;
  };
  std::unordered_map<uint64_t, PageShadow> pages_;
};

/// Cross-layer counter conservation for one engine stack driving one NoFTL
/// region exclusively (the checker's testbed shape). All counters are
/// per-instance (DeviceStats / RegionStats / BufferStats), so the check is
/// valid under parallel fuzz runs sharing the process-global metric registry.
Status CheckCounterConservation(const flash::DeviceStats& dev,
                                const ftl::RegionStats& reg,
                                const engine::BufferStats& pool);

/// Same conservation family for an engine stack driving one PageFtl
/// exclusively. A page-mapping FTL issues no delta programs, no refreshes
/// and no wear-level swaps, so every device page program is a host write or
/// a GC migration and every erase is GC's (including the lazy re-erases of
/// crash-surviving free blocks, which PageFtl books under gc_erases).
Status CheckPageFtlCounterConservation(const flash::DeviceStats& dev,
                                       const ftl::RegionStats& ftl,
                                       const engine::BufferStats& pool);

/// The same family over a registry snapshot, summed over every stack of the
/// process: every delta program is a host delta write, every erase a GC
/// erase or a wear-level swap, and page programs (which also count GC and
/// wear-level migrations) are at least the host page writes. Valid once
/// every stack that published into `snap` is destroyed; it checks that the
/// registry adds up what the owners publish.
Status CheckPublishedConservation(const metrics::Snapshot& snap);

/// Audit the raw media delta area of every mapped page of `region`.
/// Only meaningful when no torn write is pending recovery (after a completed
/// RecoverAfterPowerLoss, or during normal operation).
Status AuditMappedDeltaAreas(const flash::FlashArray& dev,
                             const ftl::NoFtl& noftl, ftl::RegionId region);

}  // namespace ipa::check
