// PageFtl: a conventional page-mapping FTL — the paper's implicit baseline.
//
// The paper argues IPA-over-NoFTL against the "cooked device" status quo:
// a black-box FTL that maps every logical page independently, writes
// strictly out-of-place at a log-structured frontier, and pays write
// amplification through garbage collection. This class implements that
// baseline over the same FlashArray so bench_table12_backend_compare can
// measure the comparison instead of asserting it.
//
// Mechanics (Dayan & Bonnet's page-mapping FTL survey):
//  * in-RAM L2P map (lba -> ppn) plus a reverse map for GC;
//  * log-structured frontiers; writes round-robin across chips, and a new
//    frontier takes the least-worn free block on its chip;
//  * every program carries a 27-byte OOB reverse-map entry (layout below),
//    so Mount() can rebuild the whole L2P map from media with
//    latest-wins-by-sequence semantics after a power loss;
//  * configurable over-provisioning and the three GcPolicy values (table in
//    block_manager.h). The policy alone decides placement, victim choice,
//    the backend name and the metric prefix: "streamftl" under
//    kStreamWarmCold, "pageftl" otherwise.
//
// kStreamWarmCold follows "Enlightening Flash Storage to Stream Writes by
// Objects" and the warm/cold victim selection of Dayan & Bonnet:
//  * WriteTagged(lba, data, sync, tag) routes the write to its StreamTag's
//    frontier, so pages of similar update temperature share blocks. The
//    single-stream policies drop the tag.
//  * GC migrations go to a kGcRelocation frontier: data that survived one
//    collection is cold and never re-mixes with fresh host writes.
//  * Fan-out is gated by headroom: a stream opens a frontier on a new chip
//    only while free blocks exceed gc_free_block_threshold + kNumStreams;
//    below that each stream keeps one frontier, rotating chips as blocks
//    fill. When a stream finds no free block at all, the write spills into
//    another stream's open frontier (streamftl.stream_spills).
//  * T is the block's temperature: invalidations since it was opened over
//    the time since their mean instant, scaled by a fixed window. Warm
//    blocks, whose valid pages will likely die for free, are passed over.
// Untagged writes therefore do not turn kStreamWarmCold into either
// single-stream policy: the headroom gate and the temperature term remain.
//
// The map, the frontiers and GC belong to a BlockManager (block_manager.h),
// the same one under every NoFtl region. This class claims the first blocks
// of every chip and adds the OOB entry, the mount rebuild and the metrics.
//
// OOB reverse-map entry (little-endian), the same for every policy:
//   [0,2)   magic kOobMagic
//   [2,10)  lba
//   [10,18) sequence number (monotonic per FTL instance and across mounts)
//   [18,22) CRC32-C of the page body as written
//   [22]    StreamTag of the frontier that took the write (kUntagged under
//           the single-stream policies)
//   [23,27) CRC32-C of bytes [0,23) — rejects torn / erased entries
//
// write_delta is structurally impossible here — the FTL relocates pages on
// every write and its ECC covers whole pages — so WriteDelta returns
// NotSupported and DeltaWritePossible is always false. That asymmetry IS the
// measurement: see docs/FTL_BACKENDS.md.
//
// Crash semantics: RAM state dies with power; Mount() trusts only OOB
// entries whose entry CRC verifies, whose stream byte names a StreamTag, and
// whose data CRC matches the page body (a torn program that committed its
// OOB before its data is detected and quarantined). Blocks whose content
// survived are closed for writing until GC reclaims them; content-erased
// blocks are lazily re-erased before first use, because a torn program can
// leave invisible charge on erased-looking cells. Trim() only drops the RAM
// mapping — the OOB entry stays on media, so a trimmed page may resurrect at
// the next Mount() (trim is advisory across power loss, as the FtlBackend
// contract allows).

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/flash_array.h"
#include "ftl/block_manager.h"
#include "ftl/ftl_backend.h"

namespace ipa::ftl {

struct PageFtlConfig {
  std::string name = "pageftl";
  /// Host-visible capacity in logical pages.
  uint64_t logical_pages = 0;
  /// Fraction of extra physical space beyond logical capacity.
  double over_provisioning = 0.10;
  GcPolicy gc_policy = GcPolicy::kGreedy;
  /// Run the garbage collector when free blocks drop below this count.
  uint32_t gc_free_block_threshold = 3;
};

class PageFtl : public FtlBackend {
 public:
  /// Bytes of one OOB reverse-map entry (must fit the geometry's oob_size).
  static constexpr uint32_t kOobEntryBytes = 27;
  static constexpr uint16_t kOobMagic = 0x50F7;  // "PF"

  /// Claims physical blocks from the front of every chip. Fails when the
  /// device is too small for logical_pages * (1 + over_provisioning) plus GC
  /// headroom, or its OOB area cannot hold a reverse-map entry. The device
  /// must outlive the PageFtl and must not be shared with another FTL.
  static Result<std::unique_ptr<PageFtl>> Create(flash::FlashArray* device,
                                                 const PageFtlConfig& config);
  /// Publishes stats() and the per-stream counters to the metrics registry.
  ~PageFtl() override;
  // The block manager's GC hooks hold this instance's address, and a copy
  // would publish twice.
  PageFtl(const PageFtl&) = delete;
  PageFtl& operator=(const PageFtl&) = delete;

  // -- PageDevice -------------------------------------------------------------
  Status ReadPage(Lba lba, uint8_t* out) override;
  Status WritePage(Lba lba, const uint8_t* data, bool sync) override;
  Status WriteTagged(Lba lba, const uint8_t* data, bool sync,
                     StreamTag tag) override;
  /// Hands out the stored image without copying.
  Status ReadImage(Lba lba, flash::PageImagePool& pool, flash::PageImage* out) override;
  /// Programs `image` itself, without copying.
  Status WriteImage(Lba lba, flash::PageImage image, bool sync, StreamTag tag) override;
  Status WriteDelta(Lba lba, uint32_t offset, const uint8_t* bytes,
                    uint32_t len, bool sync) override;
  bool DeltaWritePossible(Lba lba) const override;
  bool IsMapped(Lba lba) const override;
  uint32_t page_size() const override { return device_->geometry().page_size; }
  uint64_t capacity_pages() const override { return config_.logical_pages; }

  // -- FtlBackend management plane --------------------------------------------
  /// "streamftl" under kStreamWarmCold, "pageftl" otherwise.
  const char* backend_name() const override;
  Status Trim(Lba lba) override;
  /// Discard all RAM state and rebuild the L2P map from the OOB reverse-map
  /// entries (latest wins by sequence number; data-CRC mismatches are
  /// quarantined). Idempotent; also legal on a freshly created FTL. Every
  /// frontier and every block temperature dies with power.
  Status Mount(MountScanReport* report = nullptr) override;
  Status Audit() const override;
  const RegionStats& stats() const override { return stats_; }
  void ResetStats() override;

  // -- Maintenance / introspection --------------------------------------------
  /// Run one GC pass unconditionally (fuzzer maintenance op). OK when no
  /// victim qualifies.
  Status CollectOnce();

  const PageFtlConfig& config() const { return config_; }
  flash::FlashArray& device() { return *device_; }
  SimClock& clock() { return device_->clock(); }
  /// Physical page currently backing `lba` (tests / introspection).
  flash::Ppn PhysicalOf(Lba lba) const;
  /// Stream whose frontier opened the block currently backing `lba`
  /// (kUntagged when unmapped or single-stream). Tests use this to prove
  /// segregation — e.g. that GC-migrated pages live in kGcRelocation blocks.
  StreamTag StreamOf(Lba lba) const;
  size_t free_block_count() const { return blocks_.free_block_count(); }
  /// Writes that had to borrow another stream's frontier under space
  /// pressure (this instance; always 0 for single-stream policies).
  uint64_t stream_spills() const { return stream_spills_; }
  /// Host writes per stream tag (this instance; all kUntagged for
  /// single-stream policies).
  uint64_t stream_writes(StreamTag tag) const {
    return stream_writes_[static_cast<uint8_t>(tag)];
  }

 private:
  PageFtl(flash::FlashArray* device, const PageFtlConfig& config,
          BlockManager::Config blocks, const std::vector<flash::Pbn>& pbns);

  bool per_stream() const {
    return config_.gc_policy == GcPolicy::kStreamWarmCold;
  }
  /// GC copies get a fresh OOB entry, and so a fresh sequence number.
  BlockManager::Hooks GcHooks();
  /// Add stats_ to the registry under backend_name() (docs/METRICS.md).
  void PublishStats() const;

  /// Program `image` to `ppn` with a fresh reverse-map OOB entry for `lba`.
  Status ProgramMapped(flash::Ppn ppn, Lba lba, StreamTag stream,
                       flash::PageImage image, flash::IoTiming* t, bool sync);
  /// Count a host read of `lba` and share its stored image into `out`; an
  /// unmapped page leaves `out` null.
  Status ReadStored(Lba lba, flash::PageImage* out);
  /// Decode + verify the entry CRC and stream byte; false for
  /// erased/torn/foreign OOB.
  bool DecodeOobEntry(const uint8_t* entry, Lba* lba, uint64_t* seq,
                      uint32_t* data_crc, StreamTag* stream) const;

  flash::FlashArray* device_;
  PageFtlConfig config_;
  BlockManager blocks_;
  uint64_t write_seq_ = 0;  ///< Monotonic, consumed per program attempt.
  uint64_t stream_spills_ = 0;
  std::array<uint64_t, kNumStreams> stream_writes_{};
  RegionStats stats_;
};

}  // namespace ipa::ftl
