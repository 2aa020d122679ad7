// BlockManager: the page-mapping block bookkeeping under every NoFtl region
// and every PageFtl.
//
// Both backends map each logical page independently, program strictly out
// of place at log-structured write frontiers, and reclaim space by
// migrating a victim block's valid pages and erasing it. The manager owns
// all of that:
//  * the L2P map, the reverse map (for GC) and the per-block valid counts;
//  * the free list;
//  * one write frontier per (stream, chip). A new frontier takes its chip's
//    least-worn free block; host writes leave the last free block to GC
//    migrations; a free block of unknown erase state (after a mount rebuild)
//    is erased lazily before first use;
//  * the GcPolicy victim score and the migrate-erase-release pass;
//  * the structural audit of all of the above.
//
// Owners keep only what differs between them (docs/FTL_BACKENDS.md):
//  * which blocks they claim, and in what order. Claim order fixes the block
//    indices, and with them the victim tie-breaks;
//  * what a page program or a GC copy writes to the OOB area (Hooks::copy);
//  * backend features: NoFtl's ECC, IPA, scrub, wear leveling and mount
//    scan; PageFtl's OOB mount rebuild.
//
// A pSLC region on MLC flash uses only LSB pages: with page_stride 2, a
// block's i-th usable page is its physical page 2i.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/flash_array.h"
#include "ftl/ftl_backend.h"

namespace ipa::ftl {

/// Victim score of a GC pass. kStreamWarmCold also gives every StreamTag its
/// own frontiers:
///
///   | GcPolicy        | frontiers/chip | victim score           |
///   |-----------------|----------------|------------------------|
///   | kGreedy         | 1              | most reclaimable pages |
///   | kCostBenefit    | 1              | (1-u)/(1+u) * age      |
///   | kStreamWarmCold | 1 per stream   | cost-benefit / (1 + T) |
enum class GcPolicy {
  kGreedy,          ///< Most reclaimable (written-but-invalid) pages.
  kCostBenefit,     ///< max (1-u)/(1+u) * age; favors cold, mostly-invalid.
  kStreamWarmCold,  ///< Per-stream frontiers; cost-benefit / temperature.
};

const char* GcPolicyName(GcPolicy p);

class BlockManager {
 public:
  /// One owned physical block.
  struct Block {
    flash::Pbn pbn = 0;
    uint32_t valid = 0;      ///< Valid (mapped) pages in this block.
    uint32_t next_page = 0;  ///< Write frontier, in usable pages.
    bool is_free = true;
    bool is_active = false;  ///< The frontier of some (stream, chip).
    /// A free block whose physical erase state is unknown (after a mount
    /// rebuild): erased lazily when it becomes a frontier.
    bool needs_erase = false;
    /// Stream whose frontier opened this block (RAM-only; forensic).
    StreamTag stream = StreamTag::kUntagged;
    /// Last program into this block (victim-selection age); RAM-only.
    SimTime last_write = 0;
    /// Temperature inputs: invalidations since the block was opened and the
    /// sum of their timestamps, so the age-weighted invalidation rate is
    /// inv_count / (now - mean invalidation time + 1). RAM-only.
    uint32_t inv_count = 0;
    uint64_t inv_time_sum = 0;
  };

  struct Config {
    /// Names the owner in OutOfSpace and audit messages ("region 'x'").
    std::string label;
    uint64_t logical_pages = 0;
    GcPolicy policy = GcPolicy::kGreedy;
    /// GC runs while fewer free blocks remain, and always while fewer than
    /// two do (host writes leave the last one to GC).
    uint32_t gc_free_block_threshold = 3;
    /// Physical pages per usable page: 2 when pSLC uses LSB pages only.
    uint32_t page_stride = 1;
    /// Chips written round-robin; frontiers are kept per listed position.
    std::vector<uint32_t> chips;
  };

  /// The owner's side of garbage collection.
  struct Hooks {
    /// Program the GC copy of `lba` at `to` and count the migration. `page`
    /// is the image read from `from`, moved by handle; `oob` is oob_size
    /// bytes of scratch.
    std::function<Status(Lba lba, flash::Ppn from, flash::Ppn to,
                         const flash::PageImage& page, uint8_t* oob)>
        copy;
    /// Count one erase: of a GC victim, or a lazy post-mount erase.
    std::function<void()> erased;
    /// Count one write that borrowed another stream's frontier (only under
    /// kStreamWarmCold).
    std::function<void()> spilled;
    /// Trace span name of one GC pass (metrics::ScopedSpan).
    const char* gc_trace = nullptr;
  };

  /// Owns `pbns`, in claim order: block index i is pbns[i].
  BlockManager(flash::FlashArray* device, Config config,
               const std::vector<flash::Pbn>& pbns, Hooks hooks);

  /// Blocks to claim for `logical_pages` at `over_provisioning` with
  /// `usable_pages` per block: the pages rounded up to blocks, plus the GC
  /// trigger level and one spare, and never fewer than two per chip plus the
  /// trigger level, so GC always has both victims and migration headroom.
  static uint64_t BlocksNeeded(uint64_t logical_pages, double over_provisioning,
                               uint32_t usable_pages,
                               uint32_t gc_free_block_threshold, uint64_t chips);

  // -- Map and blocks ----------------------------------------------------------
  /// Physical page backing `lba`; kInvalidPpn when unmapped or out of range.
  flash::Ppn PhysicalOf(Lba lba) const {
    return lba < map_.size() ? map_[lba] : flash::kInvalidPpn;
  }
  const std::vector<Block>& blocks() const { return blocks_; }
  size_t free_block_count() const { return free_.size(); }
  uint32_t usable_pages() const { return usable_; }
  /// Index of the owned block holding `ppn`; UINT32_MAX when not owned.
  uint32_t BlockIndexOf(flash::Ppn ppn) const;
  /// Physical page of block `b`'s i-th usable page, and the lba it holds
  /// (kInvalidLba when none).
  flash::Ppn PageOf(uint32_t b, uint32_t i) const {
    return blocks_[b].pbn * ppb_ + static_cast<flash::Ppn>(i) * config_.page_stride;
  }
  Lba LbaAt(uint32_t b, uint32_t i) const {
    return rmap_[static_cast<size_t>(b) * ppb_ + i * config_.page_stride];
  }

  // -- Write path --------------------------------------------------------------
  /// Take the next page of `stream`'s frontier, promoting (and lazily
  /// erasing) free blocks as needed. Host allocations (`for_gc` false) keep
  /// the last free block for GC. Under pressure a per-stream write spills
  /// into another stream's open frontier rather than failing.
  Status Allocate(StreamTag stream, bool for_gc, flash::Ppn* ppn);
  /// Point `lba` at the just-programmed `ppn`, invalidating its old page.
  void Map(Lba lba, flash::Ppn ppn);
  /// Drop `lba`'s mapping; false when it had none.
  bool Unmap(Lba lba);
  /// Move `lba`'s mapping to the just-programmed copy `to`. Unlike an
  /// overwrite, the move does not count toward the old block's temperature.
  void Relocate(Lba lba, flash::Ppn to);

  // -- Garbage collection ------------------------------------------------------
  /// GC passes until the free list is back at the trigger level, or no
  /// victim qualifies.
  Status CollectIfNeeded();
  /// One pass: migrate the best-scoring victim's valid pages through
  /// Hooks::copy, erase it and free it. NotFound when no victim qualifies.
  Status Collect();

  // -- Block moves outside GC (NoFtl wear leveling) -----------------------------
  /// Take free block `b` off the free list as a closed block whose frontier
  /// is `next_page`.
  void Claim(uint32_t b, uint32_t next_page);
  /// Erase block `b` and return it to the free list.
  Status EraseAndFree(uint32_t b);

  // -- Mount rebuild (PageFtl: RAM state dies with power) ----------------------
  /// Drop the maps, the free list, every frontier and every block's valid
  /// count and temperature.
  void Forget();
  /// Reopen block `b` after Forget(): closed (full frontier) if it holds
  /// content written by `stream`, else free and due a lazy erase.
  void Restore(uint32_t b, bool has_content, StreamTag stream);
  /// Map `lba` to `ppn`, found on media, after every block is restored.
  void Adopt(Lba lba, flash::Ppn ppn) { Place(lba, ppn); }

  /// Structural audit: the map and the reverse map mirror each other, valid
  /// counts equal the reverse-map population, mapped pages sit on programmed
  /// media on a usable page below their block's frontier, the free list
  /// mirrors the free flag exactly, free blocks are erased (unless due a lazy
  /// erase), and every frontier slot names an active block of its own stream
  /// on its own chip. Returns Corruption describing the first violation.
  Status Audit() const;

 private:
  size_t Slot(uint32_t stream, uint32_t pos) const {
    return static_cast<size_t>(stream) * config_.chips.size() + pos;
  }
  size_t RmapIndex(uint32_t b, flash::Ppn ppn) const {
    return static_cast<size_t>(b) * ppb_ + ppn % ppb_;
  }
  /// Make the least-worn free block on the chip at position `pos` the
  /// frontier of `stream`; leaves the slot at -1 when none is eligible.
  Status Open(uint32_t stream, uint32_t pos, bool for_gc);
  flash::Ppn Take(int32_t b);
  /// Victim block index for the policy; -1 when none qualifies.
  int PickVictim() const;
  void Invalidate(flash::Ppn ppn);
  /// Enter `lba` -> `ppn` in both maps; returns the block index.
  uint32_t Place(Lba lba, flash::Ppn ppn);

  flash::FlashArray* device_;
  Config config_;
  Hooks hooks_;
  const uint32_t ppb_;     ///< Physical pages per block.
  const uint32_t usable_;  ///< Usable pages per block.
  const uint32_t num_streams_;
  const StreamTag gc_stream_;  ///< Frontier that takes GC copies.
  std::vector<Block> blocks_;
  std::vector<uint32_t> free_;  ///< Indices into blocks_.
  /// Device pbn -> index into blocks_; UINT32_MAX for unowned blocks.
  std::vector<uint32_t> pbn_to_idx_;
  /// Frontier block per (stream, chip position); -1 if none. Flat: stream *
  /// chips.size() + position.
  std::vector<int32_t> active_;
  /// Round-robin chip cursor per stream (keeps chip parallelism per stream
  /// without coupling streams' placement).
  std::vector<uint32_t> rr_cursor_;
  std::vector<flash::Ppn> map_;  ///< lba -> ppn
  /// Reverse map: block index * pages per block + page -> lba.
  std::vector<Lba> rmap_;
};

}  // namespace ipa::ftl
