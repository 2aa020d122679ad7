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
//  * configurable over-provisioning and three GC policies. The policy alone
//    decides placement, victim choice and the metric prefix:
//
//    | GcPolicy        | frontiers/chip | victim score           | name      |
//    |-----------------|----------------|------------------------|-----------|
//    | kGreedy         | 1              | most reclaimable pages | pageftl   |
//    | kCostBenefit    | 1              | (1-u)/(1+u) * age      | pageftl   |
//    | kStreamWarmCold | 1 per stream   | cost-benefit / (1 + T) | streamftl |
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

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/flash_array.h"
#include "ftl/ftl_backend.h"

namespace ipa::ftl {

/// GC policy; also selects single- vs per-stream placement (table above).
enum class GcPolicy {
  kGreedy,          ///< Most reclaimable (written-but-invalid) pages.
  kCostBenefit,     ///< max (1-u)/(1+u) * age; favors cold, mostly-invalid.
  kStreamWarmCold,  ///< Per-stream frontiers; cost-benefit / temperature.
};

const char* GcPolicyName(GcPolicy p);

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

  // -- PageDevice -------------------------------------------------------------
  Status ReadPage(Lba lba, uint8_t* out) override;
  Status WritePage(Lba lba, const uint8_t* data, bool sync) override;
  Status WriteTagged(Lba lba, const uint8_t* data, bool sync,
                     StreamTag tag) override;
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
  void ResetStats() override { stats_ = RegionStats{}; }

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
  size_t free_block_count() const { return free_blocks_.size(); }
  /// Writes that had to borrow another stream's frontier under space
  /// pressure (this instance; always 0 for single-stream policies).
  uint64_t stream_spills() const { return stream_spills_; }

 private:
  struct BlockInfo {
    flash::Pbn pbn = 0;
    uint32_t valid = 0;      ///< Valid (mapped) pages in this block.
    uint32_t next_page = 0;  ///< Write frontier (page index within block).
    bool is_free = true;
    bool is_active = false;
    /// A free block whose physical erase state is unknown (after Mount):
    /// erased lazily when promoted to active.
    bool needs_erase = false;
    /// Stream whose frontier opened this block (RAM-only; forensic).
    StreamTag stream = StreamTag::kUntagged;
    /// Last program into this block (victim-selection age); RAM-only.
    SimTime last_write = 0;
    /// Temperature inputs: invalidations since the block was (re)opened and
    /// the sum of their timestamps, so the age-weighted invalidation rate is
    /// inv_count / (now - mean invalidation time + 1). RAM-only.
    uint32_t inv_count = 0;
    uint64_t inv_time_sum = 0;
  };

  PageFtl(flash::FlashArray* device, const PageFtlConfig& config);

  bool per_stream() const {
    return config_.gc_policy == GcPolicy::kStreamWarmCold;
  }
  uint32_t num_streams() const { return per_stream() ? kNumStreams : 1; }

  Status ClaimBlocks();
  /// Allocate the next frontier page of `stream`, promoting (and lazily
  /// erasing) free blocks as needed. Host allocations keep one free block in
  /// reserve for GC migration headroom; under pressure a per-stream write
  /// spills into another stream's open frontier rather than failing.
  Status AllocatePage(StreamTag stream, flash::Ppn* ppn, uint32_t* block_idx,
                      bool for_gc);
  /// Promote the least-worn free block on `chip` to `stream`'s frontier;
  /// `*opened` is false when the chip has no eligible free block.
  Status OpenFrontier(StreamTag stream, uint32_t chip, bool for_gc,
                      bool* opened);
  /// Take the next page of the frontier block `slot`.
  void TakePage(int32_t slot, flash::Ppn* ppn, uint32_t* block_idx);
  Status RunGcIfNeeded();
  Status GarbageCollect();
  /// Victim block index for the configured policy; -1 when none qualifies.
  int PickVictim() const;
  void Invalidate(flash::Ppn ppn);
  uint32_t BlockIndexOf(flash::Ppn ppn) const;
  /// Index of (stream, chip) in `active_`.
  size_t Slot(StreamTag stream, uint32_t chip) const;

  /// Program `data` to `ppn` with a fresh reverse-map OOB entry for `lba`.
  Status ProgramMapped(flash::Ppn ppn, uint32_t block_idx, Lba lba,
                       StreamTag stream, const uint8_t* data,
                       flash::IoTiming* t, bool sync);
  /// Decode + verify the entry CRC and stream byte; false for
  /// erased/torn/foreign OOB.
  bool DecodeOobEntry(const uint8_t* entry, Lba* lba, uint64_t* seq,
                      uint32_t* data_crc, StreamTag* stream) const;

  flash::FlashArray* device_;
  PageFtlConfig config_;
  std::vector<BlockInfo> blocks_;      // all blocks owned by the FTL
  std::vector<uint32_t> free_blocks_;  // indices into `blocks_`
  /// Device pbn -> index into `blocks_`; UINT32_MAX for unowned blocks.
  std::vector<uint32_t> pbn_to_idx_;
  /// Active (frontier) block index per (stream, chip); -1 if none. Flat:
  /// stream * total_chips + chip, over num_streams() streams.
  std::vector<int32_t> active_;
  /// Round-robin chip cursor per stream (keeps chip parallelism per stream
  /// without coupling streams' placement).
  std::vector<uint32_t> rr_cursor_;
  std::vector<flash::Ppn> map_;  // lba -> ppn
  /// Reverse map: block_idx * pages_per_block + page -> lba.
  std::vector<Lba> rmap_;
  uint64_t write_seq_ = 0;  ///< Monotonic, consumed per program attempt.
  uint64_t stream_spills_ = 0;
  RegionStats stats_;
};

}  // namespace ipa::ftl
