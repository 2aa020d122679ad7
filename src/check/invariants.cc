#include "check/invariants.h"

#include <string>

#include "storage/delta_record.h"

namespace ipa::check {

Status FlashShadow::ObserveAndCheck(const flash::FlashArray& dev) {
  const auto& g = dev.geometry();
  uint64_t blocks = static_cast<uint64_t>(g.channels) * g.chips_per_channel *
                    g.blocks_per_chip;
  for (flash::Pbn pbn = 0; pbn < blocks; pbn++) {
    uint32_t erases = dev.EraseCount(pbn);
    for (uint32_t p = 0; p < g.pages_per_block; p++) {
      flash::Ppn ppn = pbn * g.pages_per_block + p;
      const flash::PageState& ps = dev.page_state(ppn);
      PageShadow& sh = pages_[ppn];
      bool comparable = sh.erase_count == erases;
      if (comparable) {
        // No erase since the last look: every stored bit may only have
        // dropped. A byte position absent before (erased, 0xFF) can take any
        // value; a byte present before must be a bit-subset now.
        for (size_t i = 0; i < sh.data.size() && i < ps.data.size(); i++) {
          if (ps.data[i] & static_cast<uint8_t>(~sh.data[i])) {
            return Status::Corruption(
                "ISPP violation: data bit 0->1 at block " +
                std::to_string(pbn) + " page " + std::to_string(p) +
                " byte " + std::to_string(i));
          }
        }
        for (size_t i = 0; i < sh.oob.size() && i < ps.oob.size(); i++) {
          if (ps.oob[i] & static_cast<uint8_t>(~sh.oob[i])) {
            return Status::Corruption(
                "ISPP violation: OOB bit 0->1 at block " + std::to_string(pbn) +
                " page " + std::to_string(p) + " byte " + std::to_string(i));
          }
        }
        if (!sh.data.empty() && ps.data.empty()) {
          return Status::Corruption("page lost its data without an erase: block " +
                                    std::to_string(pbn) + " page " +
                                    std::to_string(p));
        }
      }
      sh.erase_count = erases;
      // A byte copy, not a handle: a shared handle would see every change
      // the array made without copying first, so the check would pass.
      if (ps.data.empty()) {
        sh.data.clear();
      } else {
        sh.data.assign(ps.data.data(), ps.data.data() + ps.data.size());
      }
      sh.oob = ps.oob;
    }
  }
  return Status::OK();
}

namespace {

Status Mismatch(const char* what, uint64_t lhs, uint64_t rhs) {
  return Status::Corruption("counter conservation: " + std::string(what) +
                            " (" + std::to_string(lhs) +
                            " != " + std::to_string(rhs) + ")");
}

}  // namespace

Status CheckCounterConservation(const flash::DeviceStats& dev,
                                const ftl::RegionStats& reg,
                                const engine::BufferStats& pool) {
  // Every device page program has exactly one FTL-level cause.
  uint64_t causes = reg.host_page_writes + reg.gc_page_migrations +
                    reg.wear_level_migrations + reg.torn_pages_quarantined;
  if (dev.page_programs != causes) {
    return Mismatch("page programs vs host+gc+wear+quarantine causes",
                    dev.page_programs, causes);
  }
  if (dev.delta_programs != reg.host_delta_writes) {
    return Mismatch("delta programs vs host delta writes", dev.delta_programs,
                    reg.host_delta_writes);
  }
  if (dev.delta_bytes_programmed != reg.delta_bytes_written) {
    return Mismatch("delta bytes programmed vs written",
                    dev.delta_bytes_programmed, reg.delta_bytes_written);
  }
  uint64_t erase_causes = reg.gc_erases + reg.wear_level_swaps;
  if (dev.block_erases != erase_causes) {
    return Mismatch("block erases vs gc+wear causes", dev.block_erases,
                    erase_causes);
  }
  if (dev.page_refreshes != reg.scrub_refreshes) {
    return Mismatch("page refreshes vs scrub refreshes", dev.page_refreshes,
                    reg.scrub_refreshes);
  }
  // Every buffer-pool writeback is a host command of the matching kind.
  if (pool.ipa_flushes != reg.host_delta_writes) {
    return Mismatch("pool delta flushes vs host delta writes",
                    pool.ipa_flushes, reg.host_delta_writes);
  }
  if (pool.oop_flushes != reg.host_page_writes) {
    return Mismatch("pool page flushes vs host page writes", pool.oop_flushes,
                    reg.host_page_writes);
  }
  // Attempted flushes bound the completed ones (torn flushes complete no
  // write; clean-diff flushes touch no device).
  if (pool.flushes < pool.clean_diff_skips + pool.ipa_flushes + pool.oop_flushes) {
    return Mismatch("flush attempts vs completed flushes", pool.flushes,
                    pool.clean_diff_skips + pool.ipa_flushes + pool.oop_flushes);
  }
  return Status::OK();
}

Status CheckPageFtlCounterConservation(const flash::DeviceStats& dev,
                                       const ftl::RegionStats& ftl,
                                       const engine::BufferStats& pool) {
  // A page-mapping FTL programs pages for exactly two reasons: host
  // out-of-place writes and GC migrations. Torn programs complete no write
  // on either side of the equation.
  uint64_t causes = ftl.host_page_writes + ftl.gc_page_migrations;
  if (dev.page_programs != causes) {
    return Mismatch("page programs vs host+gc causes", dev.page_programs,
                    causes);
  }
  // write_delta is structurally impossible behind a cooked device.
  if (dev.delta_programs != 0 || ftl.host_delta_writes != 0) {
    return Mismatch("page-mapping FTL issued delta programs",
                    dev.delta_programs, ftl.host_delta_writes);
  }
  // Every erase is GC's: on-demand victim erases plus the lazy re-erases of
  // free blocks whose physical state a crash left unknown.
  if (dev.block_erases != ftl.gc_erases) {
    return Mismatch("block erases vs gc erases", dev.block_erases,
                    ftl.gc_erases);
  }
  if (dev.page_refreshes != 0) {
    return Mismatch("page-mapping FTL issued refreshes", dev.page_refreshes, 0);
  }
  // Every buffer-pool writeback falls back to a full-page host write.
  if (pool.ipa_flushes != 0) {
    return Mismatch("pool delta flushes behind a cooked device",
                    pool.ipa_flushes, 0);
  }
  if (pool.oop_flushes != ftl.host_page_writes) {
    return Mismatch("pool page flushes vs host page writes", pool.oop_flushes,
                    ftl.host_page_writes);
  }
  if (pool.flushes < pool.clean_diff_skips + pool.oop_flushes) {
    return Mismatch("flush attempts vs completed flushes", pool.flushes,
                    pool.clean_diff_skips + pool.oop_flushes);
  }
  return Status::OK();
}

Status CheckPublishedConservation(const metrics::Snapshot& snap) {
  const uint64_t delta_programs = snap.Counter("flash.delta_programs");
  const uint64_t host_deltas = snap.Counter("ftl.host_delta_writes");
  if (delta_programs != host_deltas) {
    return Mismatch("published delta programs vs host delta writes", delta_programs,
                    host_deltas);
  }
  const uint64_t erases = snap.Counter("flash.block_erases");
  const uint64_t erase_causes =
      snap.Counter("ftl.gc.erases") + snap.Counter("ftl.wear_level.swaps") +
      snap.Counter("pageftl.gc.erases") + snap.Counter("streamftl.gc.erases");
  if (erases != erase_causes) {
    return Mismatch("published block erases vs gc+wear causes", erases, erase_causes);
  }
  const uint64_t programs =
      snap.Counter("flash.page_programs.lsb") + snap.Counter("flash.page_programs.msb");
  const uint64_t host_pages = snap.Counter("ftl.host_page_writes") +
                              snap.Counter("pageftl.host_page_writes") +
                              snap.Counter("streamftl.host_page_writes");
  if (programs < host_pages) {
    return Mismatch("published page programs below host page writes", programs, host_pages);
  }
  return Status::OK();
}

Status AuditMappedDeltaAreas(const flash::FlashArray& dev,
                             const ftl::NoFtl& noftl, ftl::RegionId region) {
  const auto& g = dev.geometry();
  uint64_t logical = noftl.region_config(region).logical_pages;
  for (ftl::Lba lba = 0; lba < logical; lba++) {
    if (!noftl.IsMapped(region, lba)) continue;
    flash::Ppn ppn = noftl.PhysicalOf(region, lba);
    const flash::PageState& ps = dev.page_state(ppn);
    if (ps.data.empty()) continue;  // caught by NoFtl::AuditRegion
    Status s = storage::AuditDeltaArea(ps.data.data(), g.page_size);
    if (!s.ok()) {
      return Status::Corruption("lba " + std::to_string(lba) + " (ppn " +
                                std::to_string(ppn) + "): " + s.message());
    }
  }
  return Status::OK();
}

}  // namespace ipa::check
