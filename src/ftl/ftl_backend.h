// FtlBackend: the common contract of every flash-translation backend.
//
// The engine programs against PageDevice (page_device.h) — the data path.
// FtlBackend extends it with the management plane every backend shares:
// trim, the mount-time scan recovery runs before ARIES redo, a structural
// audit for the differential checker, and the statistics the evaluation
// tables are built from. Three backends implement it:
//
//  * NoFtl regions (noftl.h)     — DBMS-managed raw flash (Section 5); the
//    region device returned by NoFtl::region_device() is an FtlBackend;
//  * PageFtl (page_ftl.h)        — the paper's implicit "cooked device"
//    baseline, a page-mapping FTL whose GcPolicy selects greedy or
//    cost-benefit GC over one frontier per chip ("pageftl"), or one frontier
//    per StreamTag per chip with warm/cold GC ("streamftl");
//  * BlackboxSsd (blackbox_ssd.h) — a conventional SSD with the write_delta
//    interface extension (Section 7 / conclusions).
//
// Database::RecoverAfterPowerLoss() mounts every distinct FtlBackend bound
// to a tablespace, so crash recovery works identically across backends. See
// docs/FTL_BACKENDS.md for the full contract and per-backend semantics.

#pragma once

#include <cstdint>

#include "common/stats.h"
#include "ftl/page_device.h"

namespace ipa::ftl {

/// Logical page address within one backend (see page_device.h).
constexpr Lba kInvalidLba = ~0ull;

/// Per-backend I/O statistics; the raw material for the paper's tables.
/// Delta/scrub/wear fields stay zero on backends without those mechanisms
/// (PageFtl never appends in place; see docs/FTL_BACKENDS.md).
struct RegionStats {
  uint64_t host_reads = 0;         ///< read_page commands.
  uint64_t host_page_writes = 0;   ///< Out-of-place page writes.
  uint64_t host_delta_writes = 0;  ///< In-place appends (write_delta).
  uint64_t delta_bytes_written = 0;
  uint64_t delta_fallbacks = 0;    ///< write_delta rejected -> caller wrote page.
  uint64_t gc_page_migrations = 0;
  uint64_t gc_erases = 0;
  uint64_t ecc_corrected_bits = 0;
  uint64_t ecc_uncorrectable = 0;
  /// Torn-write detection (power loss mid-append, docs/CRASH_TESTING.md).
  /// PageFtl counts CRC-rejected map entries under torn_pages_quarantined:
  /// the torn page is neutralized at mount (left unmapped), not rewritten.
  uint64_t torn_delta_bytes_dropped = 0;  ///< Uncovered delta bytes scrubbed on read.
  uint64_t torn_pages_quarantined = 0;    ///< Pages neutralized by the mount scan.
  uint64_t scrub_refreshes = 0;         ///< Correct-and-Refresh reprograms.
  uint64_t wear_level_migrations = 0;   ///< Static wear-leveling page moves.
  uint64_t wear_level_swaps = 0;        ///< Cold-block/worn-block exchanges.
  uint64_t trims = 0;                   ///< Trims that dropped a mapping.
  /// Mount-scan totals (the sums of every MountScanReport).
  uint64_t mount_pages_scanned = 0;
  uint64_t mount_torn_bytes_dropped = 0;
  uint64_t mount_uncorrectable_pages = 0;
  LatencyStats read_latency;
  LatencyStats write_latency;        ///< Out-of-place page writes.
  LatencyStats delta_write_latency;  ///< write_delta appends.

  uint64_t HostWrites() const { return host_page_writes + host_delta_writes; }
  double MigrationsPerHostWrite() const {
    return HostWrites() == 0 ? 0.0
                             : static_cast<double>(gc_page_migrations) /
                                   static_cast<double>(HostWrites());
  }
  double ErasesPerHostWrite() const {
    return HostWrites() == 0 ? 0.0
                             : static_cast<double>(gc_erases) /
                                   static_cast<double>(HostWrites());
  }
  /// Share of host writes served as in-place appends, in percent.
  double IpaSharePercent() const {
    return HostWrites() == 0 ? 0.0
                             : 100.0 * static_cast<double>(host_delta_writes) /
                                   static_cast<double>(HostWrites());
  }
};

/// Every RegionStats counter and the metric name each backend publishes it
/// under when it discards its stats (docs/METRICS.md): `noftl` below "ftl.",
/// `pageftl` below "pageftl." or "streamftl."; nullptr where that backend
/// publishes none. Both also publish the derived "map_updates".
struct RegionStatField {
  uint64_t RegionStats::*field;
  const char* noftl;
  const char* pageftl;
};
inline constexpr RegionStatField kRegionStatFields[] = {
    {&RegionStats::host_reads, "host_reads", "host_reads"},
    {&RegionStats::host_page_writes, "host_page_writes", "host_page_writes"},
    {&RegionStats::host_delta_writes, "host_delta_writes", nullptr},
    {&RegionStats::delta_bytes_written, "delta_bytes_written", nullptr},
    {&RegionStats::delta_fallbacks, "delta_fallbacks", nullptr},
    {&RegionStats::gc_page_migrations, "gc.page_migrations", "gc.page_migrations"},
    {&RegionStats::gc_erases, "gc.erases", "gc.erases"},
    {&RegionStats::ecc_corrected_bits, nullptr, nullptr},
    {&RegionStats::ecc_uncorrectable, nullptr, nullptr},
    {&RegionStats::torn_delta_bytes_dropped, nullptr, nullptr},
    {&RegionStats::torn_pages_quarantined, "mount_scan.torn_pages_quarantined",
     "mount.torn_pages_quarantined"},
    {&RegionStats::scrub_refreshes, "scrub.refreshes", nullptr},
    {&RegionStats::wear_level_migrations, "wear_level.migrations", nullptr},
    {&RegionStats::wear_level_swaps, "wear_level.swaps", nullptr},
    {&RegionStats::trims, "trims", "trims"},
    {&RegionStats::mount_pages_scanned, "mount_scan.pages_scanned", "mount.pages_scanned"},
    {&RegionStats::mount_torn_bytes_dropped, "mount_scan.torn_bytes_dropped", nullptr},
    {&RegionStats::mount_uncorrectable_pages, "mount_scan.uncorrectable_pages", nullptr},
};

/// Field-wise sum of the counters of kRegionStatFields (latencies excluded).
inline void AccumulateStats(RegionStats& into, const RegionStats& from) {
  for (const RegionStatField& f : kRegionStatFields) into.*f.field += from.*f.field;
}

/// Result of a mount-time scan after power loss (FtlBackend::Mount).
struct MountScanReport {
  uint64_t pages_scanned = 0;
  uint64_t torn_pages_quarantined = 0;
  uint64_t torn_bytes_dropped = 0;
  uint64_t uncorrectable_pages = 0;
};

/// The pluggable backend contract: data path (PageDevice) + management
/// plane. All methods must keep the backend's structural invariants intact
/// across power loss — Audit() must pass after every host command and after
/// every completed Mount(), including ones interrupted mid-way.
class FtlBackend : public PageDevice {
 public:
  /// Stable identifier for tables / logs ("noftl", "pageftl", "streamftl",
  /// "blackbox").
  virtual const char* backend_name() const = 0;

  /// Drop the mapping of a logical page (e.g. file truncation). Backends
  /// whose mapping persists only via on-media metadata may resurrect a
  /// trimmed page at the next Mount() — trim is advisory across power loss.
  virtual Status Trim(Lba lba) = 0;

  /// Mount-time scan after a power loss: neutralize torn on-media state so
  /// engine-level (WAL) recovery never observes it. Called by
  /// Database::RecoverAfterPowerLoss() before ARIES redo.
  virtual Status Mount(MountScanReport* report = nullptr) = 0;

  /// Structural audit (differential-checker oracle). Returns Corruption
  /// describing the first violation.
  virtual Status Audit() const = 0;

  virtual const RegionStats& stats() const = 0;
  /// Publish stats() to the metrics registry, then zero it.
  virtual void ResetStats() = 0;
};

}  // namespace ipa::ftl
