#include "ftl/block_manager.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace ipa::ftl {

namespace {
/// Time window (simulated us) over which a block's invalidation rate counts
/// as "warm" in victim selection. Fixed (not age-proportional) so the
/// penalty of long-past invalidations fades to nothing instead of
/// saturating.
constexpr double kTemperatureWindowUs = 10000.0;
}  // namespace

const char* GcPolicyName(GcPolicy p) {
  switch (p) {
    case GcPolicy::kGreedy: return "greedy";
    case GcPolicy::kCostBenefit: return "cost-benefit";
    case GcPolicy::kStreamWarmCold: return "stream-warm-cold";
  }
  return "?";
}

BlockManager::BlockManager(flash::FlashArray* device, Config config,
                           const std::vector<flash::Pbn>& pbns, Hooks hooks)
    : device_(device),
      config_(std::move(config)),
      hooks_(std::move(hooks)),
      ppb_(device->geometry().pages_per_block),
      usable_(ppb_ / config_.page_stride),
      num_streams_(config_.policy == GcPolicy::kStreamWarmCold ? kNumStreams : 1),
      gc_stream_(num_streams_ > 1 ? StreamTag::kGcRelocation : StreamTag::kUntagged) {
  blocks_.reserve(pbns.size());
  free_.reserve(pbns.size());
  for (flash::Pbn pbn : pbns) {
    free_.push_back(static_cast<uint32_t>(blocks_.size()));
    blocks_.push_back(Block{.pbn = pbn});
  }
  active_.assign(num_streams_ * config_.chips.size(), -1);
  rr_cursor_.assign(num_streams_, 0);
  map_.assign(config_.logical_pages, flash::kInvalidPpn);
  rmap_.assign(blocks_.size() * static_cast<size_t>(ppb_), kInvalidLba);
  pbn_to_idx_.assign(device_->geometry().total_blocks(), UINT32_MAX);
  for (uint32_t i = 0; i < blocks_.size(); i++) pbn_to_idx_[blocks_[i].pbn] = i;
}

uint64_t BlockManager::BlocksNeeded(uint64_t logical_pages, double over_provisioning,
                                    uint32_t usable_pages,
                                    uint32_t gc_free_block_threshold, uint64_t chips) {
  uint64_t physical_pages_needed = static_cast<uint64_t>(
      static_cast<double>(logical_pages) * (1.0 + over_provisioning));
  uint64_t blocks_needed = (physical_pages_needed + usable_pages - 1) / usable_pages +
                           gc_free_block_threshold + 1;
  return std::max<uint64_t>(blocks_needed, 2 * chips + gc_free_block_threshold);
}

uint32_t BlockManager::BlockIndexOf(flash::Ppn ppn) const {
  flash::Pbn pbn = ppn / ppb_;
  return pbn < pbn_to_idx_.size() ? pbn_to_idx_[pbn] : UINT32_MAX;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status BlockManager::Open(uint32_t stream, uint32_t pos, bool for_gc) {
  // The least-worn free block on the chip; ties keep the earliest listed.
  // A host allocation never takes the last free block: it stays reserved for
  // GC migrations.
  if (!for_gc && free_.size() <= 1) return Status::OK();
  const uint32_t chip = config_.chips[pos];
  const uint32_t blocks_per_chip = device_->geometry().blocks_per_chip;
  int best = -1;
  uint32_t best_wear = UINT32_MAX;
  for (size_t i = 0; i < free_.size(); i++) {
    flash::Pbn pbn = blocks_[free_[i]].pbn;
    if (pbn / blocks_per_chip != chip) continue;
    uint32_t wear = device_->EraseCount(pbn);
    if (wear < best_wear) {
      best_wear = wear;
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return Status::OK();
  uint32_t bi = free_[best];
  Block& blk = blocks_[bi];
  if (blk.needs_erase) {
    // Post-mount block of unknown physical state (a torn program can leave
    // charge on content-erased cells): erase before first use. A power loss
    // here leaves the block free, and the erase re-runs after the next
    // mount.
    IPA_RETURN_NOT_OK(device_->EraseBlock(blk.pbn, nullptr, false));
    blk.needs_erase = false;
    hooks_.erased();
  }
  free_.erase(free_.begin() + best);
  blk.is_free = false;
  blk.is_active = true;
  blk.next_page = 0;
  blk.stream = static_cast<StreamTag>(stream);
  blk.inv_count = 0;
  blk.inv_time_sum = 0;
  active_[Slot(stream, pos)] = static_cast<int32_t>(bi);
  return Status::OK();
}

flash::Ppn BlockManager::Take(int32_t b) {
  flash::Ppn ppn = PageOf(static_cast<uint32_t>(b), blocks_[b].next_page);
  blocks_[b].next_page++;
  return ppn;
}

Status BlockManager::Allocate(StreamTag stream, bool for_gc, flash::Ppn* ppn) {
  const uint32_t s = static_cast<uint32_t>(stream);
  const uint32_t chips = static_cast<uint32_t>(config_.chips.size());
  // Per-chip fan-out buys chip parallelism but pins one partially-filled
  // block per open frontier. With one frontier per chip that is the plain
  // page-mapping FTL. With one per stream per chip, fan out only while the
  // free pool comfortably exceeds the GC trigger plus one block per stream
  // — otherwise each stream keeps a single frontier (rotating chips as
  // blocks fill), so segregation never starves GC into high-utilization
  // victims.
  const bool fan_out =
      num_streams_ == 1 || free_.size() > config_.gc_free_block_threshold + kNumStreams;
  for (uint32_t attempt = 0; attempt < chips; attempt++) {
    uint32_t pos = rr_cursor_[s]++ % chips;
    int32_t& active = active_[Slot(s, pos)];
    if (active >= 0 && blocks_[active].next_page >= usable_) {
      blocks_[active].is_active = false;
      active = -1;
    }
    if (active < 0) {
      if (!fan_out) continue;  // reuse an open frontier on a later chip
      IPA_RETURN_NOT_OK(Open(s, pos, for_gc));
      if (active < 0) continue;  // no free block on this chip; try the next
    }
    *ppn = Take(active);
    return Status::OK();
  }
  if (!fan_out) {
    // No open frontier anywhere for this stream: open exactly one, on the
    // first chip (from the cursor) that still has a free block.
    for (uint32_t attempt = 0; attempt < chips; attempt++) {
      uint32_t pos = rr_cursor_[s]++ % chips;
      IPA_RETURN_NOT_OK(Open(s, pos, for_gc));
      if (active_[Slot(s, pos)] < 0) continue;
      *ppn = Take(active_[Slot(s, pos)]);
      return Status::OK();
    }
  }
  // Pressure spill: no free block anywhere for this stream's frontier, and
  // every frontier it already owns is full. Borrow any other stream's open
  // frontier (deterministic stream/chip scan order) so liveness matches the
  // single-stream policies at the same over-provisioning; segregation
  // degrades gracefully instead of the write failing.
  for (uint32_t s2 = 0; s2 < num_streams_; s2++) {
    if (s2 == s) continue;
    for (uint32_t pos = 0; pos < chips; pos++) {
      int32_t b = active_[Slot(s2, pos)];
      if (b < 0 || blocks_[b].next_page >= usable_) continue;
      *ppn = Take(b);
      hooks_.spilled();
      return Status::OK();
    }
  }
  return Status::OutOfSpace(config_.label + " has no free pages");
}

uint32_t BlockManager::Place(Lba lba, flash::Ppn ppn) {
  uint32_t b = BlockIndexOf(ppn);
  rmap_[RmapIndex(b, ppn)] = lba;
  blocks_[b].valid++;
  map_[lba] = ppn;
  return b;
}

void BlockManager::Invalidate(flash::Ppn ppn) {
  uint32_t b = BlockIndexOf(ppn);
  if (b == UINT32_MAX) return;
  size_t ridx = RmapIndex(b, ppn);
  if (rmap_[ridx] == kInvalidLba) return;
  rmap_[ridx] = kInvalidLba;
  Block& blk = blocks_[b];
  if (blk.valid > 0) blk.valid--;
  // Temperature input: when and how often this block loses valid pages.
  blk.inv_count++;
  blk.inv_time_sum += device_->clock().Now();
}

void BlockManager::Map(Lba lba, flash::Ppn ppn) {
  if (map_[lba] != flash::kInvalidPpn) Invalidate(map_[lba]);
  blocks_[Place(lba, ppn)].last_write = device_->clock().Now();
}

bool BlockManager::Unmap(Lba lba) {
  if (map_[lba] == flash::kInvalidPpn) return false;
  Invalidate(map_[lba]);
  map_[lba] = flash::kInvalidPpn;
  return true;
}

void BlockManager::Relocate(Lba lba, flash::Ppn to) {
  flash::Ppn from = map_[lba];
  uint32_t b = BlockIndexOf(from);
  rmap_[RmapIndex(b, from)] = kInvalidLba;
  blocks_[b].valid--;
  blocks_[Place(lba, to)].last_write = device_->clock().Now();
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

int BlockManager::PickVictim() const {
  int victim = -1;
  double best_score = 0.0;
  SimTime now = device_->clock().Now();
  for (uint32_t i = 0; i < blocks_.size(); i++) {
    const Block& b = blocks_[i];
    if (b.is_free || b.is_active) continue;
    // Partially written blocks qualify too: a small region's blocks can all
    // fill in lockstep.
    uint32_t reclaim = std::min(b.next_page, usable_) - b.valid;
    if (reclaim == 0) continue;  // erasing gains nothing
    double score = reclaim;
    if (config_.policy != GcPolicy::kGreedy) {
      // Cost-benefit (Dayan & Bonnet): utilization u weighs the migration
      // cost, age rewards cold blocks whose valid pages are unlikely to be
      // invalidated for free soon. +1 keeps brand-new blocks eligible.
      double u = static_cast<double>(b.valid) / usable_;
      double age = static_cast<double>(now - b.last_write) + 1.0;
      score = (1.0 - u) / (1.0 + u) * age;
    }
    if (num_streams_ > 1 && b.inv_count > 0) {
      // Warm/cold: divide by the block's temperature — its age-weighted
      // invalidation rate (invalidations per us, measured against the mean
      // invalidation instant) scaled by a fixed window. A warm block
      // (recent, frequent invalidations) scores low: its remaining valid
      // pages will likely self-invalidate for free, so GC waits. A cold
      // block's penalty fades as its invalidations recede into the past.
      double mean_inv = static_cast<double>(b.inv_time_sum) /
                        static_cast<double>(b.inv_count);
      double temperature = static_cast<double>(b.inv_count) /
                           (static_cast<double>(now) - mean_inv + 1.0);
      score /= 1.0 + temperature * kTemperatureWindowUs;
    }
    if (victim < 0 || score > best_score) {
      best_score = score;
      victim = static_cast<int>(i);
    }
  }
  return victim;
}

Status BlockManager::CollectIfNeeded() {
  // Host writes never take the last free block (Open): collecting only once
  // none is left would strand them, so collect while fewer than two are free
  // whatever the threshold.
  const size_t trigger = std::max<size_t>(config_.gc_free_block_threshold, 2);
  while (free_.size() < trigger) {
    Status s = Collect();
    if (!s.ok()) return s.IsNotFound() ? Status::OK() : s;
  }
  return Status::OK();
}

Status BlockManager::Collect() {
  metrics::ScopedSpan span(hooks_.gc_trace, &device_->clock());
  int victim = PickVictim();
  if (victim < 0) return Status::NotFound("no GC victim available");
  const auto& g = device_->geometry();
  // Migrate valid pages (device-internal I/O: no host transfer, async).
  // Per stream, survivors go to the GC-relocation frontier: data that
  // survived one collection is cold and never re-mixes with host writes.
  std::vector<uint8_t> oob(g.oob_size);
  flash::PageImage page;
  for (uint32_t i = 0; i < usable_; i++) {
    Lba lba = LbaAt(victim, i);
    if (lba == kInvalidLba) continue;
    flash::Ppn from = PageOf(victim, i);
    IPA_RETURN_NOT_OK(device_->ReadImage(from, &page, nullptr, false));
    flash::Ppn to = flash::kInvalidPpn;
    IPA_RETURN_NOT_OK(Allocate(gc_stream_, /*for_gc=*/true, &to));
    IPA_RETURN_NOT_OK(hooks_.copy(lba, from, to, page, oob.data()));
    Relocate(lba, to);
  }
  IPA_RETURN_NOT_OK(EraseAndFree(victim));
  hooks_.erased();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Block moves outside GC, and the mount rebuild
// ---------------------------------------------------------------------------

void BlockManager::Claim(uint32_t b, uint32_t next_page) {
  free_.erase(std::find(free_.begin(), free_.end(), b));
  blocks_[b].is_free = false;
  blocks_[b].next_page = next_page;
}

Status BlockManager::EraseAndFree(uint32_t b) {
  Block& blk = blocks_[b];
  IPA_RETURN_NOT_OK(device_->EraseBlock(blk.pbn, nullptr, false));
  blk.is_free = true;
  blk.next_page = 0;
  blk.valid = 0;
  blk.needs_erase = false;
  blk.stream = StreamTag::kUntagged;
  blk.inv_count = 0;
  blk.inv_time_sum = 0;
  free_.push_back(b);
  return Status::OK();
}

void BlockManager::Forget() {
  map_.assign(map_.size(), flash::kInvalidPpn);
  rmap_.assign(rmap_.size(), kInvalidLba);
  free_.clear();
  active_.assign(active_.size(), -1);
  SimTime now = device_->clock().Now();
  for (Block& blk : blocks_) {
    blk.is_active = false;
    blk.valid = 0;
    blk.last_write = now;
    blk.inv_count = 0;
    blk.inv_time_sum = 0;
  }
}

void BlockManager::Restore(uint32_t b, bool has_content, StreamTag stream) {
  Block& blk = blocks_[b];
  blk.is_free = !has_content;
  blk.needs_erase = !has_content;
  blk.next_page = has_content ? usable_ : 0;
  blk.stream = has_content ? stream : StreamTag::kUntagged;
  if (!has_content) free_.push_back(b);
}

// ---------------------------------------------------------------------------
// Audit (differential-checker oracle)
// ---------------------------------------------------------------------------

Status BlockManager::Audit() const {
  const auto& g = device_->geometry();
  auto fail = [&](const std::string& what) {
    return Status::Corruption(config_.label + " audit: " + what);
  };

  // Forward map: every mapped lba must land on programmed media inside a
  // non-free owned block, on a usable page below the block's write frontier,
  // with a matching reverse-map entry.
  for (Lba lba = 0; lba < map_.size(); lba++) {
    flash::Ppn ppn = map_[lba];
    if (ppn == flash::kInvalidPpn) continue;
    std::string at = "lba " + std::to_string(lba);
    uint32_t b = BlockIndexOf(ppn);
    if (b == UINT32_MAX) return fail(at + " maps outside the owned blocks");
    const Block& blk = blocks_[b];
    if (blk.is_free) return fail(at + " maps into a free block");
    uint32_t page = static_cast<uint32_t>(ppn % ppb_);
    if (page % config_.page_stride != 0 || page / config_.page_stride >= blk.next_page) {
      return fail(at + " maps beyond the write frontier or to an unusable page");
    }
    if (rmap_[RmapIndex(b, ppn)] != lba) {
      return fail(at + " has no matching reverse-map entry");
    }
    if (device_->page_state(ppn).IsErased()) return fail(at + " maps to erased media");
  }

  // Reverse map and per-block counters.
  for (uint32_t b = 0; b < blocks_.size(); b++) {
    const Block& blk = blocks_[b];
    std::string at = "block " + std::to_string(b);
    if (blk.next_page > usable_) return fail(at + " frontier beyond its usable pages");
    uint32_t rmap_valid = 0;
    for (uint32_t p = 0; p < ppb_; p++) {
      Lba lba = rmap_[static_cast<size_t>(b) * ppb_ + p];
      if (lba == kInvalidLba) continue;
      rmap_valid++;
      if (lba >= map_.size() || map_[lba] != blk.pbn * ppb_ + p) {
        return fail(at + " reverse-map entry is not mirrored in the map");
      }
    }
    if (rmap_valid != blk.valid) {
      return fail(at + " valid counter " + std::to_string(blk.valid) +
                  " != reverse-map population " + std::to_string(rmap_valid));
    }
    if (blk.is_free) {
      if (blk.valid != 0) return fail(at + " is free but holds valid pages");
      if (blk.next_page != 0) return fail(at + " is free with a nonzero frontier");
      if (blk.is_active) return fail(at + " is free and active");
      // Blocks awaiting their lazy post-mount erase may hold torn remnants.
      if (!blk.needs_erase) {
        for (uint32_t p = 0; p < ppb_; p++) {
          if (!device_->page_state(blk.pbn * ppb_ + p).IsErased()) {
            return fail(at + " is free but page " + std::to_string(p) +
                        " is programmed");
          }
        }
      }
    } else if (blk.needs_erase) {
      return fail(at + " is in use but still flagged for a lazy erase");
    }
  }

  // Free list <-> free flag, exactly.
  std::vector<bool> listed(blocks_.size(), false);
  for (uint32_t idx : free_) {
    if (idx >= blocks_.size()) return fail("free list entry out of range");
    if (listed[idx]) return fail("block listed twice in the free list");
    listed[idx] = true;
    if (!blocks_[idx].is_free) {
      return fail("free list references non-free block " + std::to_string(idx));
    }
  }
  for (uint32_t b = 0; b < blocks_.size(); b++) {
    if (blocks_[b].is_free && !listed[b]) {
      return fail("free block " + std::to_string(b) + " is missing from the free list");
    }
  }

  // Frontier table <-> active blocks: every slot names an active block of
  // its own stream on its own chip; every active block sits in exactly one
  // slot.
  std::vector<bool> active_listed(blocks_.size(), false);
  for (uint32_t s = 0; s < num_streams_; s++) {
    for (uint32_t pos = 0; pos < config_.chips.size(); pos++) {
      int32_t a = active_[Slot(s, pos)];
      if (a < 0) continue;
      if (static_cast<size_t>(a) >= blocks_.size()) {
        return fail("frontier table entry out of range");
      }
      std::string at = "block " + std::to_string(a);
      if (active_listed[a]) return fail(at + " is the frontier of two slots");
      active_listed[a] = true;
      const Block& blk = blocks_[a];
      if (!blk.is_active) return fail("frontier table references non-active " + at);
      if (blk.stream != static_cast<StreamTag>(s)) {
        return fail(at + " is the frontier of a stream it does not belong to");
      }
      if (blk.pbn / g.blocks_per_chip != config_.chips[pos]) {
        return fail(at + " is the frontier of the wrong chip");
      }
    }
  }
  for (uint32_t b = 0; b < blocks_.size(); b++) {
    if (blocks_[b].is_active && !active_listed[b]) {
      return fail("active block " + std::to_string(b) +
                  " is not registered in the frontier table");
    }
  }
  return Status::OK();
}

}  // namespace ipa::ftl
