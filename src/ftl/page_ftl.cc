#include "ftl/page_ftl.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "ftl/wear_aware.h"

namespace ipa::ftl {

namespace {
constexpr uint32_t kStreamOffset = 22;
constexpr uint32_t kEntryCrcOffset = 23;

/// Time window (simulated us) over which a block's invalidation rate counts
/// as "warm" in victim selection. Fixed (not age-proportional) so the
/// penalty of long-past invalidations fades to nothing instead of
/// saturating.
constexpr double kTemperatureWindowUs = 10000.0;

/// Process-wide counters, summed over every PageFtl instance of one metric
/// prefix (per-instance splits stay in RegionStats). The per-stream
/// counters exist only under the "streamftl" prefix.
struct FtlCounters {
  FtlCounters(const std::string& p, bool per_stream)
      : host_reads(p + ".host_reads"),
        host_page_writes(p + ".host_page_writes"),
        gc_page_migrations(p + ".gc.page_migrations"),
        gc_erases(p + ".gc.erases"),
        trims(p + ".trims"),
        map_updates(p + ".map_updates"),
        mount_pages_scanned(p + ".mount.pages_scanned"),
        mount_torn_quarantined(p + ".mount.torn_pages_quarantined"),
        read_latency(p + ".read_latency_us"),
        write_latency(p + ".write_latency_us") {
    if (!per_stream) return;
    stream_spills.emplace(p + ".stream_spills");
    for (uint32_t s = 0; s < kNumStreams; s++) {
      std::string tag = StreamTagName(static_cast<StreamTag>(s));
      std::replace(tag.begin(), tag.end(), '-', '_');
      stream_writes.emplace_back(p + ".writes." + tag);
    }
  }

  metrics::Counter host_reads;
  metrics::Counter host_page_writes;
  metrics::Counter gc_page_migrations;
  metrics::Counter gc_erases;
  metrics::Counter trims;
  metrics::Counter map_updates;
  metrics::Counter mount_pages_scanned;
  metrics::Counter mount_torn_quarantined;
  metrics::Histogram read_latency;
  metrics::Histogram write_latency;
  std::optional<metrics::Counter> stream_spills;
  std::vector<metrics::Counter> stream_writes;  ///< Indexed by StreamTag.
};

// Each prefix registers its metrics (and span sites) on first use, so a run
// that never touches one flavor exports none of its names.
FtlCounters& Counters(bool per_stream) {
  if (per_stream) {
    static FtlCounters streams("streamftl", true);
    return streams;
  }
  static FtlCounters single("pageftl", false);
  return single;
}

metrics::SpanSite& GcSpan(bool per_stream) {
  if (per_stream) {
    static metrics::SpanSite streams("streamftl.gc");
    return streams;
  }
  static metrics::SpanSite single("pageftl.gc");
  return single;
}

metrics::SpanSite& MountSpan(bool per_stream) {
  if (per_stream) {
    static metrics::SpanSite streams("streamftl.mount");
    return streams;
  }
  static metrics::SpanSite single("pageftl.mount");
  return single;
}
}  // namespace

const char* GcPolicyName(GcPolicy p) {
  switch (p) {
    case GcPolicy::kGreedy: return "greedy";
    case GcPolicy::kCostBenefit: return "cost-benefit";
    case GcPolicy::kStreamWarmCold: return "stream-warm-cold";
  }
  return "?";
}

PageFtl::PageFtl(flash::FlashArray* device, const PageFtlConfig& config)
    : device_(device), config_(config) {}

Result<std::unique_ptr<PageFtl>> PageFtl::Create(flash::FlashArray* device,
                                                 const PageFtlConfig& config) {
  const auto& g = device->geometry();
  if (config.logical_pages == 0) {
    return Status::InvalidArgument("page FTL needs logical_pages > 0");
  }
  if (g.oob_size < kOobEntryBytes) {
    return Status::InvalidArgument("OOB too small for a reverse-map entry");
  }
  if (config.gc_free_block_threshold == 0) {
    return Status::InvalidArgument("gc_free_block_threshold must be >= 1");
  }
  std::unique_ptr<PageFtl> ftl(new PageFtl(device, config));
  IPA_RETURN_NOT_OK(ftl->ClaimBlocks());
  return ftl;
}

const char* PageFtl::backend_name() const {
  return per_stream() ? "streamftl" : "pageftl";
}

Status PageFtl::ClaimBlocks() {
  const auto& g = device_->geometry();
  uint64_t physical_pages_needed = static_cast<uint64_t>(
      static_cast<double>(config_.logical_pages) *
      (1.0 + config_.over_provisioning));
  uint64_t blocks_needed =
      (physical_pages_needed + g.pages_per_block - 1) / g.pages_per_block +
      config_.gc_free_block_threshold + 1;
  // Small FTLs striped over many chips need enough blocks that GC always has
  // both victims and migration headroom. Per-stream frontiers need no extra
  // claim: under pressure a write spills into another stream's frontier
  // instead of pinning a block per stream.
  blocks_needed = std::max<uint64_t>(
      blocks_needed, 2ull * g.total_chips() + config_.gc_free_block_threshold);
  uint64_t per_chip = (blocks_needed + g.total_chips() - 1) / g.total_chips();
  if (per_chip > g.blocks_per_chip) {
    return Status::OutOfSpace("device too small for page FTL '" +
                              config_.name + "'");
  }

  // Claim the first `per_chip` blocks of every chip (the FTL owns the whole
  // logical address space; striping keeps chip parallelism).
  pbn_to_idx_.assign(g.total_blocks(), UINT32_MAX);
  for (uint32_t chip = 0; chip < g.total_chips(); chip++) {
    for (uint64_t b = 0; b < per_chip; b++) {
      BlockInfo bi;
      bi.pbn = static_cast<flash::Pbn>(chip) * g.blocks_per_chip + b;
      uint32_t idx = static_cast<uint32_t>(blocks_.size());
      pbn_to_idx_[bi.pbn] = idx;
      blocks_.push_back(bi);
      free_blocks_.push_back(idx);
    }
  }
  active_.assign(static_cast<size_t>(num_streams()) * g.total_chips(), -1);
  rr_cursor_.assign(num_streams(), 0);
  map_.assign(config_.logical_pages, flash::kInvalidPpn);
  rmap_.assign(blocks_.size() * static_cast<size_t>(g.pages_per_block),
               kInvalidLba);
  return Status::OK();
}

size_t PageFtl::Slot(StreamTag stream, uint32_t chip) const {
  return static_cast<size_t>(stream) * device_->geometry().total_chips() + chip;
}

uint32_t PageFtl::BlockIndexOf(flash::Ppn ppn) const {
  flash::Pbn pbn = flash::BlockOf(device_->geometry(), ppn);
  return pbn < pbn_to_idx_.size() ? pbn_to_idx_[pbn] : UINT32_MAX;
}

void PageFtl::Invalidate(flash::Ppn ppn) {
  const auto& g = device_->geometry();
  uint32_t bidx = BlockIndexOf(ppn);
  if (bidx == UINT32_MAX) return;
  uint32_t page = static_cast<uint32_t>(ppn % g.pages_per_block);
  size_t ridx = static_cast<size_t>(bidx) * g.pages_per_block + page;
  if (rmap_[ridx] != kInvalidLba) {
    rmap_[ridx] = kInvalidLba;
    BlockInfo& b = blocks_[bidx];
    if (b.valid > 0) b.valid--;
    // Temperature input: when and how often this block loses valid pages.
    b.inv_count++;
    b.inv_time_sum += device_->clock().Now();
  }
}

Status PageFtl::OpenFrontier(StreamTag stream, uint32_t chip, bool for_gc,
                             bool* opened) {
  *opened = false;
  int best = PromotableFreeBlock(*device_, blocks_, free_blocks_, chip, for_gc);
  if (best < 0) return Status::OK();
  uint32_t bi = free_blocks_[best];
  if (blocks_[bi].needs_erase) {
    // Post-mount block of unknown physical state (a torn program can leave
    // charge on content-erased cells): erase before first use. A power loss
    // here leaves the block free and the erase re-runs after the next
    // Mount().
    IPA_RETURN_NOT_OK(device_->EraseBlock(blocks_[bi].pbn, nullptr, false));
    blocks_[bi].needs_erase = false;
    stats_.gc_erases++;
    Counters(per_stream()).gc_erases.Inc();
  }
  free_blocks_.erase(free_blocks_.begin() + best);
  BlockInfo& blk = blocks_[bi];
  blk.is_free = false;
  blk.is_active = true;
  blk.next_page = 0;
  blk.stream = stream;
  blk.inv_count = 0;
  blk.inv_time_sum = 0;
  active_[Slot(stream, chip)] = static_cast<int32_t>(bi);
  *opened = true;
  return Status::OK();
}

void PageFtl::TakePage(int32_t slot, flash::Ppn* ppn, uint32_t* block_idx) {
  BlockInfo& blk = blocks_[slot];
  *ppn = blk.pbn * device_->geometry().pages_per_block + blk.next_page;
  blk.next_page++;
  *block_idx = static_cast<uint32_t>(slot);
}

Status PageFtl::AllocatePage(StreamTag stream, flash::Ppn* ppn,
                             uint32_t* block_idx, bool for_gc) {
  const auto& g = device_->geometry();
  uint32_t s = static_cast<uint32_t>(stream);
  // Per-chip fan-out buys chip parallelism but pins one partially-filled
  // block per open frontier. With one frontier per chip that is the plain
  // page-mapping FTL. With one per stream per chip, fan out only while the
  // free pool comfortably exceeds the GC trigger plus one block per stream
  // — otherwise each stream keeps a single frontier (rotating chips as
  // blocks fill), so segregation never starves GC into high-utilization
  // victims.
  bool fan_out = !per_stream() || free_blocks_.size() >
                                      config_.gc_free_block_threshold + kNumStreams;
  for (uint32_t attempt = 0; attempt < g.total_chips(); attempt++) {
    uint32_t chip = rr_cursor_[s] % g.total_chips();
    rr_cursor_[s]++;
    int32_t& active = active_[Slot(stream, chip)];
    if (active >= 0 && blocks_[active].next_page >= g.pages_per_block) {
      blocks_[active].is_active = false;
      active = -1;
    }
    if (active < 0) {
      if (!fan_out) continue;  // reuse an open frontier on a later chip
      bool opened;
      IPA_RETURN_NOT_OK(OpenFrontier(stream, chip, for_gc, &opened));
      if (!opened) continue;  // no free block on this chip; try the next chip
    }
    TakePage(active, ppn, block_idx);
    return Status::OK();
  }
  if (!fan_out) {
    // No open frontier anywhere for this stream: open exactly one, on the
    // first chip (from the cursor) that still has a free block.
    for (uint32_t attempt = 0; attempt < g.total_chips(); attempt++) {
      uint32_t chip = rr_cursor_[s] % g.total_chips();
      rr_cursor_[s]++;
      bool opened;
      IPA_RETURN_NOT_OK(OpenFrontier(stream, chip, for_gc, &opened));
      if (!opened) continue;
      TakePage(active_[Slot(stream, chip)], ppn, block_idx);
      return Status::OK();
    }
  }
  // Pressure spill: no free block anywhere for this stream's frontier, and
  // every frontier it already owns is full. Borrow any other stream's open
  // frontier (deterministic stream/chip scan order) so liveness matches the
  // single-stream policies at the same over-provisioning; segregation
  // degrades gracefully instead of the write failing.
  for (uint32_t s2 = 0; s2 < num_streams(); s2++) {
    if (s2 == s) continue;
    for (uint32_t chip = 0; chip < g.total_chips(); chip++) {
      int32_t slot = active_[Slot(static_cast<StreamTag>(s2), chip)];
      if (slot < 0 || blocks_[slot].next_page >= g.pages_per_block) continue;
      TakePage(slot, ppn, block_idx);
      stream_spills_++;
      Counters(per_stream()).stream_spills->Inc();
      return Status::OK();
    }
  }
  return Status::OutOfSpace("page FTL '" + config_.name +
                            "' has no free pages");
}

int PageFtl::PickVictim() const {
  const auto& g = device_->geometry();
  int victim = -1;
  double best_score = 0.0;
  SimTime now = device_->clock().Now();
  for (uint32_t i = 0; i < blocks_.size(); i++) {
    const BlockInfo& b = blocks_[i];
    if (b.is_free || b.is_active) continue;
    uint32_t written = std::min(b.next_page, g.pages_per_block);
    uint32_t reclaim = written - b.valid;
    if (reclaim == 0) continue;  // erasing gains nothing
    double score = reclaim;
    if (config_.gc_policy != GcPolicy::kGreedy) {
      // Cost-benefit (Dayan & Bonnet): utilization u weighs the migration
      // cost, age rewards cold blocks whose valid pages are unlikely to be
      // invalidated for free soon. +1 keeps brand-new blocks eligible.
      double u = static_cast<double>(b.valid) / g.pages_per_block;
      double age = static_cast<double>(now - b.last_write) + 1.0;
      score = (1.0 - u) / (1.0 + u) * age;
    }
    if (per_stream() && b.inv_count > 0) {
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

Status PageFtl::RunGcIfNeeded() {
  while (free_blocks_.size() < config_.gc_free_block_threshold) {
    Status s = GarbageCollect();
    if (!s.ok()) return s.IsNotFound() ? Status::OK() : s;
  }
  return Status::OK();
}

Status PageFtl::CollectOnce() {
  Status s = GarbageCollect();
  return s.IsNotFound() ? Status::OK() : s;
}

Status PageFtl::GarbageCollect() {
  metrics::ScopedSpan span(GcSpan(per_stream()), &device_->clock());
  const auto& g = device_->geometry();
  int victim = PickVictim();
  if (victim < 0) return Status::NotFound("no GC victim available");
  BlockInfo& vb = blocks_[victim];
  FtlCounters& m = Counters(per_stream());

  // Migrate valid pages (device-internal I/O: no host transfer, async). Per
  // stream, survivors go to the GC-relocation frontier. Migrated copies get
  // fresh sequence numbers, so a mount that sees both the old and the new
  // physical page resolves to the migrated one.
  StreamTag to = per_stream() ? StreamTag::kGcRelocation : StreamTag::kUntagged;
  std::vector<uint8_t> buf(g.page_size);
  for (uint32_t page = 0; page < g.pages_per_block; page++) {
    size_t ridx = static_cast<size_t>(victim) * g.pages_per_block + page;
    Lba lba = rmap_[ridx];
    if (lba == kInvalidLba) continue;
    flash::Ppn old_ppn = vb.pbn * g.pages_per_block + page;
    IPA_RETURN_NOT_OK(device_->ReadPage(old_ppn, buf.data(), nullptr, false));

    flash::Ppn new_ppn;
    uint32_t new_bidx;
    IPA_RETURN_NOT_OK(AllocatePage(to, &new_ppn, &new_bidx, /*for_gc=*/true));
    IPA_RETURN_NOT_OK(
        ProgramMapped(new_ppn, new_bidx, lba, to, buf.data(), nullptr, false));
    rmap_[ridx] = kInvalidLba;
    vb.valid--;
    size_t nidx = static_cast<size_t>(new_bidx) * g.pages_per_block +
                  (new_ppn % g.pages_per_block);
    rmap_[nidx] = lba;
    blocks_[new_bidx].valid++;
    map_[lba] = new_ppn;
    stats_.gc_page_migrations++;
    m.gc_page_migrations.Inc();
    m.map_updates.Inc();
  }

  IPA_RETURN_NOT_OK(device_->EraseBlock(vb.pbn, nullptr, false));
  vb.is_free = true;
  vb.next_page = 0;
  vb.valid = 0;
  vb.needs_erase = false;
  vb.stream = StreamTag::kUntagged;
  vb.inv_count = 0;
  vb.inv_time_sum = 0;
  free_blocks_.push_back(static_cast<uint32_t>(victim));
  stats_.gc_erases++;
  m.gc_erases.Inc();
  return Status::OK();
}

bool PageFtl::DecodeOobEntry(const uint8_t* entry, Lba* lba, uint64_t* seq,
                             uint32_t* data_crc, StreamTag* stream) const {
  if (DecodeU16(entry) != kOobMagic) return false;
  if (DecodeU32(entry + kEntryCrcOffset) != Crc32c(entry, kEntryCrcOffset)) {
    return false;
  }
  if (entry[kStreamOffset] >= kNumStreams) return false;
  *lba = DecodeU64(entry + 2);
  *seq = DecodeU64(entry + 10);
  *data_crc = DecodeU32(entry + 18);
  *stream = static_cast<StreamTag>(entry[kStreamOffset]);
  return true;
}

Status PageFtl::ProgramMapped(flash::Ppn ppn, uint32_t block_idx, Lba lba,
                              StreamTag stream, const uint8_t* data,
                              flash::IoTiming* t, bool sync) {
  const auto& g = device_->geometry();
  uint8_t entry[kOobEntryBytes];
  EncodeU16(entry, kOobMagic);
  EncodeU64(entry + 2, lba);
  // The sequence number is consumed even when the program tears: a retry
  // after recovery must outrank whatever the torn attempt left on media.
  EncodeU64(entry + 10, write_seq_++);
  EncodeU32(entry + 18, Crc32c(data, g.page_size));
  entry[kStreamOffset] = static_cast<uint8_t>(stream);
  EncodeU32(entry + kEntryCrcOffset, Crc32c(entry, kEntryCrcOffset));
  IPA_RETURN_NOT_OK(
      device_->ProgramPage(ppn, data, entry, kOobEntryBytes, t, sync));
  blocks_[block_idx].last_write = device_->clock().Now();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Host commands
// ---------------------------------------------------------------------------

Status PageFtl::ReadPage(Lba lba, uint8_t* out) {
  const auto& g = device_->geometry();
  if (lba >= map_.size()) return Status::InvalidArgument("lba out of range");
  stats_.host_reads++;
  flash::Ppn ppn = map_[lba];
  if (ppn == flash::kInvalidPpn) {
    std::memset(out, 0xFF, g.page_size);
    return Status::OK();
  }
  flash::IoTiming t;
  IPA_RETURN_NOT_OK(device_->ReadPage(ppn, out, &t, true));
  stats_.read_latency.Add(t.LatencyUs());
  FtlCounters& m = Counters(per_stream());
  m.host_reads.Inc();
  m.read_latency.Record(t.LatencyUs());
  return Status::OK();
}

Status PageFtl::WritePage(Lba lba, const uint8_t* data, bool sync) {
  return WriteTagged(lba, data, sync, StreamTag::kUntagged);
}

Status PageFtl::WriteTagged(Lba lba, const uint8_t* data, bool sync,
                            StreamTag tag) {
  const auto& g = device_->geometry();
  if (lba >= map_.size()) return Status::InvalidArgument("lba out of range");
  if (static_cast<uint8_t>(tag) >= kNumStreams) {
    return Status::InvalidArgument("unknown stream tag");
  }
  if (!per_stream()) tag = StreamTag::kUntagged;
  IPA_RETURN_NOT_OK(RunGcIfNeeded());

  flash::Ppn ppn;
  uint32_t bidx;
  IPA_RETURN_NOT_OK(AllocatePage(tag, &ppn, &bidx, /*for_gc=*/false));
  flash::IoTiming t;
  IPA_RETURN_NOT_OK(ProgramMapped(ppn, bidx, lba, tag, data, &t, sync));

  flash::Ppn old = map_[lba];
  if (old != flash::kInvalidPpn) Invalidate(old);
  map_[lba] = ppn;
  size_t ridx = static_cast<size_t>(bidx) * g.pages_per_block +
                (ppn % g.pages_per_block);
  rmap_[ridx] = lba;
  blocks_[bidx].valid++;

  stats_.host_page_writes++;
  stats_.write_latency.Add(t.LatencyUs());
  FtlCounters& m = Counters(per_stream());
  m.host_page_writes.Inc();
  if (per_stream()) m.stream_writes[static_cast<uint8_t>(tag)].Inc();
  m.map_updates.Inc();
  m.write_latency.Record(t.LatencyUs());
  return Status::OK();
}

Status PageFtl::WriteDelta(Lba, uint32_t, const uint8_t*, uint32_t, bool) {
  return Status::NotSupported(
      "page-mapping FTL relocates on every write; no in-place appends");
}

bool PageFtl::DeltaWritePossible(Lba) const { return false; }

bool PageFtl::IsMapped(Lba lba) const {
  return lba < map_.size() && map_[lba] != flash::kInvalidPpn;
}

flash::Ppn PageFtl::PhysicalOf(Lba lba) const {
  return lba < map_.size() ? map_[lba] : flash::kInvalidPpn;
}

StreamTag PageFtl::StreamOf(Lba lba) const {
  flash::Ppn ppn = PhysicalOf(lba);
  if (ppn == flash::kInvalidPpn) return StreamTag::kUntagged;
  uint32_t bidx = BlockIndexOf(ppn);
  return bidx == UINT32_MAX ? StreamTag::kUntagged : blocks_[bidx].stream;
}

Status PageFtl::Trim(Lba lba) {
  if (lba >= map_.size()) return Status::InvalidArgument("lba out of range");
  flash::Ppn old = map_[lba];
  if (old != flash::kInvalidPpn) {
    Invalidate(old);
    map_[lba] = flash::kInvalidPpn;
    FtlCounters& m = Counters(per_stream());
    m.trims.Inc();
    m.map_updates.Inc();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Mount: rebuild the L2P map from the on-media reverse map
// ---------------------------------------------------------------------------

Status PageFtl::Mount(MountScanReport* report) {
  metrics::ScopedSpan span(MountSpan(per_stream()), &device_->clock());
  const auto& g = device_->geometry();
  FtlCounters& m = Counters(per_stream());
  MountScanReport rep;

  // Discard all RAM mapping state; media is the only source of truth. Every
  // frontier and every temperature died with power.
  map_.assign(config_.logical_pages, flash::kInvalidPpn);
  rmap_.assign(rmap_.size(), kInvalidLba);
  free_blocks_.clear();
  active_.assign(active_.size(), -1);
  SimTime now = device_->clock().Now();

  // Latest-wins winner per lba, resolved by on-media sequence number.
  std::vector<uint64_t> win_seq(config_.logical_pages, 0);
  uint64_t max_seq = 0;
  std::vector<uint8_t> oob(g.oob_size);
  std::vector<uint8_t> buf(g.page_size);

  for (uint32_t b = 0; b < blocks_.size(); b++) {
    BlockInfo& blk = blocks_[b];
    bool has_content = false;
    StreamTag block_stream = StreamTag::kUntagged;
    uint64_t block_stream_seq = 0;
    for (uint32_t page = 0; page < g.pages_per_block; page++) {
      flash::Ppn ppn = blk.pbn * g.pages_per_block + page;
      rep.pages_scanned++;
      m.mount_pages_scanned.Inc();
      IPA_RETURN_NOT_OK(device_->ReadOob(ppn, oob.data(), kOobEntryBytes));

      Lba lba;
      uint64_t seq;
      uint32_t data_crc;
      StreamTag stream;
      if (DecodeOobEntry(oob.data(), &lba, &seq, &data_crc, &stream)) {
        has_content = true;
        // Forensic only: label the block with its latest writer's stream.
        if (seq >= block_stream_seq) {
          block_stream_seq = seq;
          block_stream = stream;
        }
        if (lba >= config_.logical_pages) continue;  // foreign/garbage entry
        // A torn program can commit the OOB entry before the data: the body
        // CRC is the arbiter. A mismatching page is stale garbage that GC
        // reclaims with its block; the mapping entry is simply not believed.
        IPA_RETURN_NOT_OK(device_->ReadPage(ppn, buf.data(), nullptr, false));
        if (Crc32c(buf.data(), g.page_size) != data_crc) {
          rep.torn_pages_quarantined++;
          stats_.torn_pages_quarantined++;
          m.mount_torn_quarantined.Inc();
          continue;
        }
        max_seq = std::max(max_seq, seq);
        if (map_[lba] != flash::kInvalidPpn && win_seq[lba] >= seq) continue;
        map_[lba] = ppn;
        win_seq[lba] = seq;
      } else {
        // No verifiable entry. The page may still hold torn content —
        // detectable by a non-erased OOB prefix or data byte.
        auto programmed = [](uint8_t x) { return x != 0xFF; };
        if (std::any_of(oob.begin(), oob.begin() + kOobEntryBytes, programmed)) {
          has_content = true;
        } else {
          IPA_RETURN_NOT_OK(device_->ReadPage(ppn, buf.data(), nullptr, false));
          if (std::any_of(buf.begin(), buf.end(), programmed)) has_content = true;
        }
      }
    }
    // Content-bearing blocks are closed for writing (full frontier) until GC
    // reclaims them; content-erased blocks may still carry charge from a
    // torn program, so they are re-erased lazily before first use.
    blk.is_active = false;
    blk.valid = 0;  // recomputed from the winners below
    blk.last_write = now;
    blk.inv_count = 0;
    blk.inv_time_sum = 0;
    if (has_content) {
      blk.is_free = false;
      blk.needs_erase = false;
      blk.next_page = g.pages_per_block;
      blk.stream = block_stream;
    } else {
      blk.is_free = true;
      blk.needs_erase = true;
      blk.next_page = 0;
      blk.stream = StreamTag::kUntagged;
      free_blocks_.push_back(b);
    }
  }

  for (Lba lba = 0; lba < map_.size(); lba++) {
    flash::Ppn ppn = map_[lba];
    if (ppn == flash::kInvalidPpn) continue;
    uint32_t bidx = BlockIndexOf(ppn);
    size_t ridx = static_cast<size_t>(bidx) * g.pages_per_block +
                  (ppn % g.pages_per_block);
    rmap_[ridx] = lba;
    blocks_[bidx].valid++;
  }
  write_seq_ = max_seq + 1;

  if (report) *report = rep;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Audit (differential-checker oracle)
// ---------------------------------------------------------------------------

Status PageFtl::Audit() const {
  const auto& g = device_->geometry();
  const uint32_t ppb = g.pages_per_block;
  auto fail = [&](const std::string& what) {
    return Status::Corruption("page FTL '" + config_.name + "' audit: " + what);
  };

  // Forward map: every mapped lba must land on programmed media inside a
  // non-free owned block, below the write frontier, with a matching
  // reverse-map entry and a verifiable OOB entry naming this lba.
  for (Lba lba = 0; lba < map_.size(); lba++) {
    flash::Ppn ppn = map_[lba];
    if (ppn == flash::kInvalidPpn) continue;
    std::string at = "lba " + std::to_string(lba);
    uint32_t bidx = BlockIndexOf(ppn);
    if (bidx == UINT32_MAX) return fail(at + " maps outside the FTL's blocks");
    const BlockInfo& blk = blocks_[bidx];
    if (blk.is_free) return fail(at + " maps into a free block");
    uint32_t page = static_cast<uint32_t>(ppn % ppb);
    if (page >= blk.next_page) {
      return fail(at + " maps beyond the write frontier");
    }
    if (rmap_[static_cast<size_t>(bidx) * ppb + page] != lba) {
      return fail(at + " has no matching reverse-map entry");
    }
    const flash::PageState& ps = device_->page_state(ppn);
    if (ps.IsErased()) return fail(at + " maps to erased media");
    if (ps.oob.size() < kOobEntryBytes) {
      return fail(at + " has no OOB reverse-map entry");
    }
    Lba oob_lba;
    uint64_t oob_seq;
    uint32_t data_crc;
    StreamTag oob_stream;
    if (!DecodeOobEntry(ps.oob.data(), &oob_lba, &oob_seq, &data_crc,
                        &oob_stream)) {
      return fail(at + " has a torn OOB reverse-map entry");
    }
    if (oob_lba != lba) {
      return fail(at + " OOB entry names lba " + std::to_string(oob_lba));
    }
    if (oob_seq >= write_seq_) {
      return fail(at + " OOB sequence number is ahead of the allocator");
    }
  }

  // Reverse map and per-block counters.
  for (uint32_t b = 0; b < blocks_.size(); b++) {
    const BlockInfo& blk = blocks_[b];
    std::string at = "block " + std::to_string(b);
    if (blk.next_page > ppb) return fail(at + " frontier beyond the block");
    uint32_t rmap_valid = 0;
    for (uint32_t p = 0; p < ppb; p++) {
      Lba lba = rmap_[static_cast<size_t>(b) * ppb + p];
      if (lba == kInvalidLba) continue;
      rmap_valid++;
      if (lba >= map_.size() || map_[lba] != blk.pbn * ppb + p) {
        return fail(at + " reverse-map entry is not mirrored in the map");
      }
    }
    if (rmap_valid != blk.valid) {
      return fail(at + " valid counter " + std::to_string(blk.valid) +
                  " != reverse-map population " + std::to_string(rmap_valid));
    }
    if (blk.is_free) {
      if (blk.valid != 0) return fail(at + " is free but holds valid pages");
      if (blk.next_page != 0) {
        return fail(at + " is free with a nonzero frontier");
      }
      if (blk.is_active) return fail(at + " is free and active");
      // Blocks awaiting their lazy post-mount erase may hold torn remnants.
      if (!blk.needs_erase) {
        for (uint32_t p = 0; p < ppb; p++) {
          if (!device_->page_state(blk.pbn * ppb + p).IsErased()) {
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
  for (uint32_t idx : free_blocks_) {
    if (idx >= blocks_.size()) return fail("free list entry out of range");
    if (listed[idx]) return fail("block listed twice in the free list");
    listed[idx] = true;
    if (!blocks_[idx].is_free) {
      return fail("free list references non-free block " + std::to_string(idx));
    }
  }
  for (uint32_t b = 0; b < blocks_.size(); b++) {
    if (blocks_[b].is_free && !listed[b]) {
      return fail("free block " + std::to_string(b) +
                  " is missing from the free list");
    }
  }

  // Frontier table <-> active blocks: every slot names an active block of
  // its own stream on its own chip; every active block sits in exactly one
  // slot.
  std::vector<bool> active_listed(blocks_.size(), false);
  for (uint32_t s = 0; s < num_streams(); s++) {
    for (uint32_t chip = 0; chip < g.total_chips(); chip++) {
      int32_t a = active_[Slot(static_cast<StreamTag>(s), chip)];
      if (a < 0) continue;
      if (static_cast<size_t>(a) >= blocks_.size()) {
        return fail("frontier table entry out of range");
      }
      if (active_listed[a]) {
        return fail("block " + std::to_string(a) +
                    " is the frontier of two streams");
      }
      active_listed[a] = true;
      const BlockInfo& blk = blocks_[a];
      if (!blk.is_active) {
        return fail("frontier table references non-active block " +
                    std::to_string(a));
      }
      if (blk.stream != static_cast<StreamTag>(s)) {
        return fail("block " + std::to_string(a) +
                    " is the frontier of a stream it does not belong to");
      }
      if (blk.pbn / g.blocks_per_chip != chip) {
        return fail("block " + std::to_string(a) +
                    " is the frontier of the wrong chip");
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
