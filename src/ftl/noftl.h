// NoFTL: DBMS-integrated management of raw flash (Section 5).
//
// Instead of hiding flash behind a black-box FTL, NoFTL gives the DBMS
// direct control over the device through *Regions*. A region owns a set of
// physical blocks, carries its own logical-page address space, mapping
// table, garbage collector and over-provisioning, and is configured with an
// IPA mode:
//
//   kOff     traditional out-of-place page writes only;
//   kSlc     write_delta allowed on every page (SLC flash);
//   kPSlc    MLC used in pseudo-SLC mode: only LSB pages are allocated
//            (half capacity, faster programs), write_delta on all of them;
//   kOddMlc  full MLC capacity; write_delta only on LSB pages, MSB-mapped
//            logical pages silently fall back to out-of-place writes.
//
// The host interface is the paper's Section 7 command set: read_page,
// write_page (always out-of-place), write_delta (in-place append via ISPP)
// and trim, plus statistics the evaluation tables are built from.
//
// ECC (Section 6.2, first alternative): when a region is created with
// `manage_ecc`, the FTL computes a SmartMedia-Hamming ECC over the page body
// on every out-of-place write (ECC_initial) and over every appended delta
// (ECC_delta_i), stores them in the page's OOB area via ISPP appends, and
// verifies/corrects on every read.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/stats.h"
#include "common/status.h"
#include "flash/flash_array.h"
#include "ftl/block_manager.h"
#include "ftl/ftl_backend.h"

namespace ipa::ftl {

/// IPA capability of a region (see file header).
enum class IpaMode { kOff, kSlc, kPSlc, kOddMlc };

/// CREATE REGION ... parameters (Figure 3).
struct RegionConfig {
  std::string name = "default";
  /// Host-visible capacity in logical pages.
  uint64_t logical_pages = 0;
  /// Fraction of extra physical space for out-of-place writes / GC headroom.
  double over_provisioning = 0.10;
  IpaMode ipa_mode = IpaMode::kOff;
  /// Byte offset where the delta-record area starts on every page of this
  /// region; ECC_initial covers [0, delta_area_offset). Use page_size when
  /// IPA is off.
  uint32_t delta_area_offset = 0;
  /// Chips this region may allocate from (MAX_CHIPS / MAX_CHANNELS in the
  /// DDL). Empty = all chips.
  std::vector<uint32_t> chips;
  /// Run the garbage collector when free blocks drop below this count.
  uint32_t gc_free_block_threshold = 3;
  /// Compute/verify DBMS-side ECC in the OOB area.
  bool manage_ecc = false;
};

// RegionStats and MountScanReport live in ftl_backend.h — they are shared by
// every backend (NoFtl regions, PageFtl, BlackboxSsd).

/// Handle to a created region.
using RegionId = uint32_t;

class NoFtl {
 public:
  /// The device must outlive the NoFtl instance.
  explicit NoFtl(flash::FlashArray* device);
  /// Publishes every region's stats to the metrics registry.
  ~NoFtl();
  // Region devices and GC hooks hold this instance's address, and a copy
  // would publish twice.
  NoFtl(const NoFtl&) = delete;
  NoFtl& operator=(const NoFtl&) = delete;

  /// Create a region; claims physical blocks from the device pool.
  Result<RegionId> CreateRegion(const RegionConfig& config);

  const RegionConfig& region_config(RegionId r) const { return regions_[r].config; }
  const RegionStats& region_stats(RegionId r) const { return regions_[r].stats; }
  /// Publish region `r`'s stats to the metrics registry, then zero them.
  void ResetStats(RegionId r);
  size_t region_count() const { return regions_.size(); }

  flash::FlashArray& device() { return *device_; }
  SimClock& clock() { return device_->clock(); }

  // -- Host command set (Section 7) ----------------------------------------

  /// Read a logical page into `out` (page_size bytes). Pages never written
  /// read as 0xFF. Runs ECC verify/correct when the region manages ECC.
  Status ReadPage(RegionId r, Lba lba, uint8_t* out);

  /// ReadPage into a shared image. Shares the stored image unless managed
  /// ECC must repair bits or torn delta bytes must be dropped; then it
  /// repairs a private copy taken from `pool`. An unmapped page reads as an
  /// all-0xFF image from `pool`.
  Status ReadImage(RegionId r, Lba lba, flash::PageImagePool& pool,
                   flash::PageImage* out);

  /// Out-of-place write of a full logical page: allocates a fresh physical
  /// page, programs it, invalidates the previous version, may trigger GC.
  /// `sync=false` models background (cleaner) writes that reserve device
  /// time without blocking the simulated host.
  Status WritePage(RegionId r, Lba lba, const uint8_t* data, bool sync = true);

  /// WritePage that programs `image` itself, without copying.
  Status WriteImage(RegionId r, Lba lba, flash::PageImage image, bool sync = true);

  /// write_delta(LBA, offset, delta_length, delta_bytes[]) — append a
  /// delta-record in place on the physical page currently holding `lba`.
  /// Returns NotSupported when the region/page cannot take the append (IPA
  /// off, MSB page in odd-MLC mode, program budget exhausted, ISPP
  /// violation, no free OOB ECC slot, or with managed ECC a delta longer
  /// than the 512 bytes one slot's ECC covers); the caller is expected to
  /// fall back to WritePage.
  Status WriteDelta(RegionId r, Lba lba, uint32_t offset, const uint8_t* bytes,
                    uint32_t len, bool sync = true);

  /// Whether write_delta can currently succeed on this logical page (mode,
  /// page type and remaining program budget). Lets the buffer manager decide
  /// the write path before serializing delta-records.
  bool DeltaWritePossible(RegionId r, Lba lba) const;

  /// Number of delta appends still available on the physical page currently
  /// backing `lba` (0 when IPA is impossible there).
  uint32_t DeltaAppendsRemaining(RegionId r, Lba lba) const;

  /// Drop the mapping of a logical page (e.g. file truncation).
  Status Trim(RegionId r, Lba lba);

  /// Mount-time scan after a power loss: read every mapped page, scrub
  /// delta-area bytes not covered by any OOB ECC slot (a torn write_delta
  /// programs data before its slot, so uncovered non-erased bytes are
  /// exactly the torn ones) and quarantine affected pages by rewriting the
  /// cleaned image out-of-place. Uncorrectable pages are counted and left
  /// for engine-level (WAL) recovery. No-op for regions without managed ECC.
  Status MountScan(RegionId r, MountScanReport* report = nullptr);

  // -- Maintenance (background) ----------------------------------------------

  /// Correct-and-Refresh scrub (paper Section 2.3): read every mapped page,
  /// ECC-correct it (regions with manage_ecc), and — when bits had leaked —
  /// re-program the corrected image onto the *same* physical page with ISPP,
  /// restoring cell charge without an erase. With `refresh_all` every page
  /// is refreshed even if currently clean (periodic-scrub mode for regions
  /// without managed ECC).
  Status ScrubRegion(RegionId r, bool refresh_all = false);

  /// Static wear leveling: when the erase-count spread across the region's
  /// blocks exceeds `max_spread`, migrate the content of the coldest
  /// (least-erased, data-bearing) block into the most-worn free block so
  /// future erases land on rested cells. One swap per call.
  Status WearLevelRegion(RegionId r, uint32_t max_spread = 8);

  /// Erase-count spread (max - min) across the region's blocks.
  uint32_t EraseSpread(RegionId r) const;

  /// Structural audit of a region (differential-checker oracle): the lba->ppn
  /// map and the reverse map must be mutually consistent, per-block valid
  /// counters must equal the reverse-map population, mapped pages must sit on
  /// programmed media inside their block's write frontier (on usable page
  /// indices for the region's IPA mode), the free list must exactly mirror
  /// the free flag, and — for regions with managed ECC — every non-erased
  /// delta-area byte of every mapped page must be covered by an OOB ECC slot.
  /// Returns Corruption describing the first violation. These invariants hold
  /// after every host command, maintenance call and completed recovery,
  /// including ones interrupted by a power loss.
  Status AuditRegion(RegionId r) const;

  /// True if the logical page has ever been written.
  bool IsMapped(RegionId r, Lba lba) const;

  /// Physical page currently backing `lba` (tests / introspection).
  flash::Ppn PhysicalOf(RegionId r, Lba lba) const;

  /// FtlBackend view of one region (what the engine programs against and
  /// what recovery mounts). The returned pointer is owned by the NoFtl and
  /// valid for its lifetime.
  FtlBackend* region_device(RegionId r);

 private:
  /// Adapts (NoFtl, RegionId) to the FtlBackend interface.
  class RegionDevice : public FtlBackend {
   public:
    RegionDevice(NoFtl* ftl, RegionId region) : ftl_(ftl), region_(region) {}
    Status ReadPage(Lba lba, uint8_t* out) override {
      return ftl_->ReadPage(region_, lba, out);
    }
    Status WritePage(Lba lba, const uint8_t* data, bool sync) override {
      return ftl_->WritePage(region_, lba, data, sync);
    }
    Status ReadImage(Lba lba, flash::PageImagePool& pool,
                     flash::PageImage* out) override {
      return ftl_->ReadImage(region_, lba, pool, out);
    }
    Status WriteImage(Lba lba, flash::PageImage image, bool sync, StreamTag) override {
      return ftl_->WriteImage(region_, lba, std::move(image), sync);
    }
    Status WriteDelta(Lba lba, uint32_t offset, const uint8_t* bytes,
                      uint32_t len, bool sync) override {
      return ftl_->WriteDelta(region_, lba, offset, bytes, len, sync);
    }
    bool DeltaWritePossible(Lba lba) const override {
      return ftl_->DeltaWritePossible(region_, lba);
    }
    bool IsMapped(Lba lba) const override {
      return ftl_->IsMapped(region_, lba);
    }
    uint32_t page_size() const override {
      return ftl_->device().geometry().page_size;
    }
    uint64_t capacity_pages() const override {
      return ftl_->region_config(region_).logical_pages;
    }
    const char* backend_name() const override { return "noftl"; }
    Status Trim(Lba lba) override { return ftl_->Trim(region_, lba); }
    Status Mount(MountScanReport* report) override {
      return ftl_->MountScan(region_, report);
    }
    Status Audit() const override { return ftl_->AuditRegion(region_); }
    const RegionStats& stats() const override {
      return ftl_->region_stats(region_);
    }
    void ResetStats() override { ftl_->ResetStats(region_); }

   private:
    NoFtl* ftl_;
    RegionId region_;
  };
  /// A region's block bookkeeping lives in its BlockManager (greedy GC;
  /// page stride 2 under pSLC on MLC, which uses LSB pages only).
  struct Region {
    RegionConfig config;
    BlockManager blocks;
    RegionStats stats;
    /// Managed-ECC scratch, sized at creation: one OOB image, the body's
    /// ECC_initial, and one byte per delta-area byte for the slot coverage.
    /// Per region, because partition workers drive their regions
    /// concurrently.
    std::vector<uint8_t> oob;
    std::vector<uint8_t> ecc;
    std::vector<uint8_t> covered;
  };

  /// GC copies carry the page's OOB (its ECC) along with the body.
  BlockManager::Hooks GcHooks(RegionId r);

  /// OOB layout helpers for managed ECC. VerifyEcc and
  /// ScrubUncoveredDeltaBytes read the page's OOB from `oob`, which the
  /// caller read once (reg.oob on the host read path). Both change `image`
  /// in place, copying it from `pool` first (MakeWritable) at the first
  /// byte they change, so a page that needs no repair stays shared and the
  /// stored image is never touched.
  Status WriteInitialEcc(Region& reg, flash::Ppn ppn, const uint8_t* data);
  Status AppendDeltaEcc(Region& reg, flash::Ppn ppn, uint32_t slot,
                        uint32_t offset, const uint8_t* bytes, uint32_t len);
  Status VerifyEcc(Region& reg, const uint8_t* oob, flash::PageImage* image,
                   flash::PageImagePool& pool);

  /// Reset delta-area bytes of `image` that no OOB slot covers back to 0xFF
  /// (media untouched); returns the number of bytes dropped.
  uint32_t ScrubUncoveredDeltaBytes(Region& reg, const uint8_t* oob,
                                    flash::PageImage* image,
                                    flash::PageImagePool& pool);

  flash::FlashArray* device_;
  std::vector<Region> regions_;
  std::deque<RegionDevice> region_devices_;  // stable addresses
  std::vector<std::deque<flash::Pbn>> device_free_;  // per-chip unclaimed blocks
};

}  // namespace ipa::ftl
