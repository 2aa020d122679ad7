#include "ftl/page_ftl.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/metrics.h"

namespace ipa::ftl {

namespace {
constexpr uint32_t kStreamOffset = 22;
constexpr uint32_t kEntryCrcOffset = 23;

// Each prefix registers its span sites on first use, so a run that never
// touches one flavor exports none of its names.
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

PageFtl::PageFtl(flash::FlashArray* device, const PageFtlConfig& config,
                 BlockManager::Config blocks, const std::vector<flash::Pbn>& pbns)
    : device_(device),
      config_(config),
      blocks_(device, std::move(blocks), pbns, GcHooks()) {}

PageFtl::~PageFtl() {
  PublishStats();
  if (!per_stream()) return;
  metrics::Counter("streamftl.stream_spills").Add(stream_spills_);
  for (uint32_t s = 0; s < kNumStreams; s++) {
    std::string tag = StreamTagName(static_cast<StreamTag>(s));
    std::replace(tag.begin(), tag.end(), '-', '_');
    metrics::Counter("streamftl.writes." + tag).Add(stream_writes_[s]);
  }
}

void PageFtl::ResetStats() {
  PublishStats();
  stats_ = RegionStats{};
}

// Every mapping change is a host page write, a GC migration or a trim (a
// quarantined page is left unmapped), so map_updates is their sum.
void PageFtl::PublishStats() const {
  std::string p = std::string(backend_name()) + ".";
  for (const RegionStatField& f : kRegionStatFields) {
    if (f.pageftl) metrics::Counter(p + f.pageftl).Add(stats_.*f.field);
  }
  metrics::Counter(p + "map_updates")
      .Add(stats_.host_page_writes + stats_.gc_page_migrations + stats_.trims);
  metrics::PublishHistogram(p + "read_latency_us", stats_.read_latency);
  metrics::PublishHistogram(p + "write_latency_us", stats_.write_latency);
}

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
  // Per-stream frontiers need no extra claim: under pressure a write spills
  // into another stream's frontier instead of pinning a block per stream.
  uint64_t blocks_needed = BlockManager::BlocksNeeded(
      config.logical_pages, config.over_provisioning, g.pages_per_block,
      config.gc_free_block_threshold, g.total_chips());
  uint64_t per_chip = (blocks_needed + g.total_chips() - 1) / g.total_chips();
  if (per_chip > g.blocks_per_chip) {
    return Status::OutOfSpace("device too small for page FTL '" + config.name + "'");
  }

  // Claim the first `per_chip` blocks of every chip (the FTL owns the whole
  // logical address space; striping keeps chip parallelism).
  BlockManager::Config bc;
  bc.label = "page FTL '" + config.name + "'";
  bc.logical_pages = config.logical_pages;
  bc.policy = config.gc_policy;
  bc.gc_free_block_threshold = config.gc_free_block_threshold;
  std::vector<flash::Pbn> pbns;
  for (uint32_t chip = 0; chip < g.total_chips(); chip++) {
    bc.chips.push_back(chip);
    for (uint64_t b = 0; b < per_chip; b++) {
      pbns.push_back(static_cast<flash::Pbn>(chip) * g.blocks_per_chip + b);
    }
  }
  return std::unique_ptr<PageFtl>(new PageFtl(device, config, std::move(bc), pbns));
}

const char* PageFtl::backend_name() const {
  return per_stream() ? "streamftl" : "pageftl";
}

BlockManager::Hooks PageFtl::GcHooks() {
  BlockManager::Hooks h;
  // Per stream, survivors go to the GC-relocation frontier. Migrated copies
  // get fresh sequence numbers, so a mount that sees both the old and the
  // new physical page resolves to the migrated one.
  h.copy = [this](Lba lba, flash::Ppn, flash::Ppn to, const uint8_t* page, uint8_t*) {
    StreamTag stream = per_stream() ? StreamTag::kGcRelocation : StreamTag::kUntagged;
    IPA_RETURN_NOT_OK(ProgramMapped(to, lba, stream, page, nullptr, false));
    stats_.gc_page_migrations++;
    return Status::OK();
  };
  h.erased = [this] { stats_.gc_erases++; };
  h.spilled = [this] { stream_spills_++; };
  h.gc_span = [this]() -> metrics::SpanSite& { return GcSpan(per_stream()); };
  return h;
}

Status PageFtl::CollectOnce() {
  Status s = blocks_.Collect();
  return s.IsNotFound() ? Status::OK() : s;
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

Status PageFtl::ProgramMapped(flash::Ppn ppn, Lba lba, StreamTag stream,
                              const uint8_t* data, flash::IoTiming* t, bool sync) {
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
  return device_->ProgramPage(ppn, data, entry, kOobEntryBytes, t, sync);
}

// ---------------------------------------------------------------------------
// Host commands
// ---------------------------------------------------------------------------

Status PageFtl::ReadPage(Lba lba, uint8_t* out) {
  const auto& g = device_->geometry();
  if (lba >= config_.logical_pages) return Status::InvalidArgument("lba out of range");
  stats_.host_reads++;
  flash::Ppn ppn = blocks_.PhysicalOf(lba);
  if (ppn == flash::kInvalidPpn) {
    std::memset(out, 0xFF, g.page_size);
    return Status::OK();
  }
  flash::IoTiming t;
  IPA_RETURN_NOT_OK(device_->ReadPage(ppn, out, &t, true));
  stats_.read_latency.Add(t.LatencyUs());
  return Status::OK();
}

Status PageFtl::WritePage(Lba lba, const uint8_t* data, bool sync) {
  return WriteTagged(lba, data, sync, StreamTag::kUntagged);
}

Status PageFtl::WriteTagged(Lba lba, const uint8_t* data, bool sync,
                            StreamTag tag) {
  if (lba >= config_.logical_pages) return Status::InvalidArgument("lba out of range");
  if (static_cast<uint8_t>(tag) >= kNumStreams) {
    return Status::InvalidArgument("unknown stream tag");
  }
  if (!per_stream()) tag = StreamTag::kUntagged;
  IPA_RETURN_NOT_OK(blocks_.CollectIfNeeded());

  flash::Ppn ppn = flash::kInvalidPpn;
  IPA_RETURN_NOT_OK(blocks_.Allocate(tag, /*for_gc=*/false, &ppn));
  flash::IoTiming t;
  IPA_RETURN_NOT_OK(ProgramMapped(ppn, lba, tag, data, &t, sync));
  blocks_.Map(lba, ppn);

  stats_.host_page_writes++;
  stream_writes_[static_cast<uint8_t>(tag)]++;
  stats_.write_latency.Add(t.LatencyUs());
  return Status::OK();
}

Status PageFtl::WriteDelta(Lba, uint32_t, const uint8_t*, uint32_t, bool) {
  return Status::NotSupported(
      "page-mapping FTL relocates on every write; no in-place appends");
}

bool PageFtl::DeltaWritePossible(Lba) const { return false; }

bool PageFtl::IsMapped(Lba lba) const {
  return blocks_.PhysicalOf(lba) != flash::kInvalidPpn;
}

flash::Ppn PageFtl::PhysicalOf(Lba lba) const { return blocks_.PhysicalOf(lba); }

StreamTag PageFtl::StreamOf(Lba lba) const {
  flash::Ppn ppn = PhysicalOf(lba);
  if (ppn == flash::kInvalidPpn) return StreamTag::kUntagged;
  uint32_t bidx = blocks_.BlockIndexOf(ppn);
  return bidx == UINT32_MAX ? StreamTag::kUntagged : blocks_.blocks()[bidx].stream;
}

Status PageFtl::Trim(Lba lba) {
  if (lba >= config_.logical_pages) return Status::InvalidArgument("lba out of range");
  if (blocks_.Unmap(lba)) stats_.trims++;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Mount: rebuild the L2P map from the on-media reverse map
// ---------------------------------------------------------------------------

Status PageFtl::Mount(MountScanReport* report) {
  metrics::ScopedSpan span(MountSpan(per_stream()), &device_->clock());
  const auto& g = device_->geometry();
  MountScanReport rep;

  // Discard all RAM mapping state; media is the only source of truth. Every
  // frontier and every temperature died with power.
  blocks_.Forget();

  // Latest-wins winner per lba, resolved by on-media sequence number.
  std::vector<flash::Ppn> winner(config_.logical_pages, flash::kInvalidPpn);
  std::vector<uint64_t> win_seq(config_.logical_pages, 0);
  uint64_t max_seq = 0;
  std::vector<uint8_t> oob(g.oob_size);
  std::vector<uint8_t> buf(g.page_size);

  for (uint32_t b = 0; b < blocks_.blocks().size(); b++) {
    bool has_content = false;
    StreamTag block_stream = StreamTag::kUntagged;
    uint64_t block_stream_seq = 0;
    for (uint32_t page = 0; page < g.pages_per_block; page++) {
      flash::Ppn ppn = blocks_.PageOf(b, page);
      rep.pages_scanned++;
      stats_.mount_pages_scanned++;
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
          continue;
        }
        max_seq = std::max(max_seq, seq);
        if (winner[lba] != flash::kInvalidPpn && win_seq[lba] >= seq) continue;
        winner[lba] = ppn;
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
    blocks_.Restore(b, has_content, block_stream);
  }

  for (Lba lba = 0; lba < winner.size(); lba++) {
    if (winner[lba] != flash::kInvalidPpn) blocks_.Adopt(lba, winner[lba]);
  }
  write_seq_ = max_seq + 1;

  if (report) *report = rep;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Audit (differential-checker oracle)
// ---------------------------------------------------------------------------

Status PageFtl::Audit() const {
  IPA_RETURN_NOT_OK(blocks_.Audit());
  auto fail = [&](Lba lba, const std::string& what) {
    return Status::Corruption("page FTL '" + config_.name + "' audit: lba " +
                              std::to_string(lba) + what);
  };
  // Every mapped page carries a verifiable OOB entry naming its lba, older
  // than the allocator's next sequence number.
  for (Lba lba = 0; lba < config_.logical_pages; lba++) {
    flash::Ppn ppn = blocks_.PhysicalOf(lba);
    if (ppn == flash::kInvalidPpn) continue;
    const flash::PageState& ps = device_->page_state(ppn);
    if (ps.oob.size() < kOobEntryBytes) return fail(lba, " has no OOB reverse-map entry");
    Lba oob_lba;
    uint64_t oob_seq;
    uint32_t data_crc;
    StreamTag oob_stream;
    if (!DecodeOobEntry(ps.oob.data(), &oob_lba, &oob_seq, &data_crc, &oob_stream)) {
      return fail(lba, " has a torn OOB reverse-map entry");
    }
    if (oob_lba != lba) return fail(lba, " OOB entry names lba " + std::to_string(oob_lba));
    if (oob_seq >= write_seq_) {
      return fail(lba, " OOB sequence number is ahead of the allocator");
    }
  }
  return Status::OK();
}

}  // namespace ipa::ftl
