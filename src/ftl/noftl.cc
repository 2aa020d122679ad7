#include "ftl/noftl.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "flash/ecc.h"

namespace ipa::ftl {

namespace {
/// OOB slot entry for one appended delta: offset(2) + len(2) + ECC(6).
constexpr uint32_t kSlotBytes = 10;
constexpr uint32_t kSlotEccBytes = 6;  // covers deltas up to 512 bytes

/// Add one region's counters and latency histograms to the registry under
/// "ftl." Every mapping change is a host page write, a GC or wear-level
/// migration, a mount-scan quarantine or a trim, so map_updates is their sum.
void Publish(const RegionStats& s) {
  for (const RegionStatField& f : kRegionStatFields) {
    if (f.noftl) metrics::AddCounter(std::string("ftl.") + f.noftl, s.*f.field);
  }
  const uint64_t map_updates = s.host_page_writes + s.gc_page_migrations +
                               s.wear_level_migrations + s.torn_pages_quarantined + s.trims;
  metrics::AddCounter("ftl.map_updates", map_updates);
  metrics::PublishHistogram("ftl.read_latency_us", s.read_latency);
  metrics::PublishHistogram("ftl.write_latency_us", s.write_latency);
  metrics::PublishHistogram("ftl.delta_write_latency_us", s.delta_write_latency);
}

/// True for a slot whose offset/len no appended delta could have written:
/// empty, past the page end, or longer than the slot's ECC covers.
bool SlotIsDamaged(uint16_t offset, uint16_t len, const flash::Geometry& g) {
  return len == 0 || offset + len > g.page_size ||
         flash::EccRegionBytes(len) > kSlotEccBytes;
}

/// Sets to 1 in `covered` (indexed from `delta_off`, zeroed by the caller)
/// every delta-area byte that an OOB ECC slot in `oob` covers, up to the
/// first erased slot. False on a damaged slot; later slots stay unread.
bool CoverDeltaArea(const uint8_t* oob, const flash::Geometry& g, uint32_t delta_off,
                    uint8_t* covered) {
  uint32_t initial_bytes = static_cast<uint32_t>(flash::EccRegionBytes(delta_off));
  for (uint32_t base = initial_bytes; base + kSlotBytes <= g.oob_size; base += kSlotBytes) {
    uint16_t offset = DecodeU16(&oob[base]);
    uint16_t len = DecodeU16(&oob[base + 2]);
    if (offset == 0xFFFF && len == 0xFFFF) break;  // erased slot: no more deltas
    if (SlotIsDamaged(offset, len, g)) return false;
    for (uint32_t i = std::max(static_cast<uint32_t>(offset), delta_off);
         i < static_cast<uint32_t>(offset) + len; i++) {
      covered[i - delta_off] = 1;
    }
  }
  return true;
}
}  // namespace

NoFtl::NoFtl(flash::FlashArray* device) : device_(device) {
  const auto& g = device_->geometry();
  device_free_.resize(g.total_chips());
  for (flash::Pbn b = 0; b < g.total_blocks(); b++) {
    device_free_[b / g.blocks_per_chip].push_back(b);
  }
}

NoFtl::~NoFtl() {
  for (const Region& reg : regions_) Publish(reg.stats);
}

void NoFtl::ResetStats(RegionId r) {
  Publish(regions_[r].stats);
  regions_[r].stats = RegionStats{};
}

Result<RegionId> NoFtl::CreateRegion(const RegionConfig& config) {
  const auto& g = device_->geometry();
  if (config.logical_pages == 0) {
    return Status::InvalidArgument("region needs logical_pages > 0");
  }
  if (config.gc_free_block_threshold == 0) {
    // GC would never run, and the region would run out of space.
    return Status::InvalidArgument("gc_free_block_threshold must be >= 1");
  }
  if (config.ipa_mode != IpaMode::kOff) {
    if (config.delta_area_offset == 0 || config.delta_area_offset >= g.page_size) {
      return Status::InvalidArgument(
          "IPA region needs delta_area_offset in (0, page_size)");
    }
    if (config.ipa_mode == IpaMode::kSlc && g.cell_type != flash::CellType::kSlc &&
        g.cell_type != flash::CellType::kTlc3d) {
      return Status::InvalidArgument("IpaMode::kSlc requires SLC/3D flash");
    }
    if ((config.ipa_mode == IpaMode::kPSlc || config.ipa_mode == IpaMode::kOddMlc) &&
        g.cell_type != flash::CellType::kMlc) {
      return Status::InvalidArgument("pSLC/odd-MLC modes require MLC flash");
    }
  }
  if (config.manage_ecc) {
    uint32_t body = config.delta_area_offset ? config.delta_area_offset : g.page_size;
    uint32_t initial = static_cast<uint32_t>(flash::EccRegionBytes(body));
    if (initial + kSlotBytes > g.oob_size && config.ipa_mode != IpaMode::kOff) {
      return Status::InvalidArgument("OOB too small for managed ECC + delta slots");
    }
  }

  BlockManager::Config bc;
  bc.label = "region '" + config.name + "'";
  bc.logical_pages = config.logical_pages;
  bc.gc_free_block_threshold = config.gc_free_block_threshold;
  // pSLC on MLC uses LSB pages only: the even in-block indices.
  bc.page_stride =
      config.ipa_mode == IpaMode::kPSlc && g.cell_type == flash::CellType::kMlc ? 2 : 1;
  bc.chips = config.chips;
  if (bc.chips.empty()) {
    for (uint32_t c = 0; c < g.total_chips(); c++) bc.chips.push_back(c);
  }
  for (uint32_t c : bc.chips) {
    if (c >= g.total_chips()) return Status::InvalidArgument("chip id out of range");
  }
  uint64_t blocks_needed = BlockManager::BlocksNeeded(
      config.logical_pages, config.over_provisioning, g.pages_per_block / bc.page_stride,
      config.gc_free_block_threshold, bc.chips.size());

  // Claim blocks round-robin over the region's chips.
  std::vector<flash::Pbn> claimed;
  uint32_t cursor = 0;
  uint32_t empty_chips = 0;
  while (claimed.size() < blocks_needed && empty_chips < bc.chips.size()) {
    uint32_t chip = bc.chips[cursor % bc.chips.size()];
    cursor++;
    auto& pool = device_free_[chip];
    if (pool.empty()) {
      empty_chips++;
      continue;
    }
    empty_chips = 0;
    claimed.push_back(pool.front());
    pool.pop_front();
  }
  if (claimed.size() < blocks_needed) {
    // Return what we took.
    for (flash::Pbn b : claimed) device_free_[b / g.blocks_per_chip].push_back(b);
    return Status::OutOfSpace("not enough free device blocks for region '" +
                              config.name + "'");
  }

  RegionId id = static_cast<RegionId>(regions_.size());
  regions_.push_back(
      Region{config, BlockManager(device_, std::move(bc), claimed, GcHooks(id)), {}});
  if (config.manage_ecc) {
    Region& reg = regions_.back();
    uint32_t body = config.delta_area_offset ? config.delta_area_offset : g.page_size;
    reg.oob.resize(g.oob_size);
    reg.ecc.resize(flash::EccRegionBytes(body));
    if (config.ipa_mode != IpaMode::kOff) reg.covered.resize(g.page_size - body);
  }
  region_devices_.emplace_back(this, id);
  return id;
}

FtlBackend* NoFtl::region_device(RegionId r) { return &region_devices_[r]; }

BlockManager::Hooks NoFtl::GcHooks(RegionId r) {
  BlockManager::Hooks h;
  h.copy = [this, r](Lba, flash::Ppn from, flash::Ppn to, const flash::PageImage& page,
                     uint8_t* oob) {
    Region& reg = regions_[r];
    const auto& g = device_->geometry();
    const uint8_t* oob_src = nullptr;
    if (reg.config.manage_ecc) {
      IPA_RETURN_NOT_OK(device_->ReadOob(from, oob, g.oob_size));
      oob_src = oob;
    }
    IPA_RETURN_NOT_OK(device_->ProgramImage(to, page, oob_src, oob_src ? g.oob_size : 0,
                                            nullptr, false));
    reg.stats.gc_page_migrations++;
    return Status::OK();
  };
  h.erased = [this, r] { regions_[r].stats.gc_erases++; };
  h.gc_trace = "ftl.gc";
  return h;
}

// ---------------------------------------------------------------------------
// Maintenance: Correct-and-Refresh scrubbing + static wear leveling
// ---------------------------------------------------------------------------

Status NoFtl::ScrubRegion(RegionId r, bool refresh_all) {
  metrics::ScopedSpan span("ftl.scrub", &device_->clock());
  Region& reg = regions_[r];
  const auto& g = device_->geometry();
  flash::PageImage page;
  for (Lba lba = 0; lba < reg.config.logical_pages; lba++) {
    flash::Ppn ppn = reg.blocks.PhysicalOf(lba);
    if (ppn == flash::kInvalidPpn) continue;
    IPA_RETURN_NOT_OK(device_->ReadImage(ppn, &page, nullptr, false));
    bool corrected = false;
    if (reg.config.manage_ecc) {
      uint64_t before = reg.stats.ecc_corrected_bits;
      IPA_RETURN_NOT_OK(device_->ReadOob(ppn, reg.oob.data(), g.oob_size));
      Status s = VerifyEcc(reg, reg.oob.data(), &page, device_->image_pool());
      if (s.IsCorruption()) continue;  // beyond repair; GC/rewrite will fix
      IPA_RETURN_NOT_OK(s);
      corrected = reg.stats.ecc_corrected_bits > before;
    }
    if (corrected || refresh_all) {
      Status s = device_->RefreshPage(ppn, page.data(), nullptr, false);
      if (s.IsNotSupported()) continue;  // interference-cleared bit: skip
      IPA_RETURN_NOT_OK(s);
      reg.stats.scrub_refreshes++;
    }
  }
  return Status::OK();
}

uint32_t NoFtl::EraseSpread(RegionId r) const {
  uint32_t min = UINT32_MAX, max = 0;
  for (const BlockManager::Block& b : regions_[r].blocks.blocks()) {
    uint32_t e = device_->EraseCount(b.pbn);
    min = std::min(min, e);
    max = std::max(max, e);
  }
  return min == UINT32_MAX ? 0 : max - min;
}

Status NoFtl::WearLevelRegion(RegionId r, uint32_t max_spread) {
  metrics::ScopedSpan span("ftl.wear_level", &device_->clock());
  Region& reg = regions_[r];
  BlockManager& bm = reg.blocks;
  const auto& g = device_->geometry();
  if (EraseSpread(r) <= max_spread) return Status::OK();

  // Coldest data-bearing block and the most-worn free block.
  int cold = -1, worn_free = -1;
  uint32_t cold_erases = UINT32_MAX, worn_erases = 0;
  for (uint32_t i = 0; i < bm.blocks().size(); i++) {
    const BlockManager::Block& b = bm.blocks()[i];
    uint32_t e = device_->EraseCount(b.pbn);
    if (b.is_free) {
      if (e >= worn_erases) {
        worn_erases = e;
        worn_free = static_cast<int>(i);
      }
    } else if (!b.is_active && e < cold_erases) {
      cold_erases = e;
      cold = static_cast<int>(i);
    }
  }
  if (cold < 0 || worn_free < 0 || worn_erases <= cold_erases) {
    return Status::OK();  // nothing useful to swap
  }

  // Claim the worn block *before* programming into it, and transfer the
  // valid counters page by page. A power loss can interrupt the swap after
  // any program; bulk bookkeeping at the end used to leave programmed pages
  // inside a block still on the free list (so the allocator would hand it
  // out and fail) and a stale valid counter on the cold block — the
  // differential checker's region audit flags both.
  bm.Claim(worn_free, bm.blocks()[cold].next_page);
  // Move the cold block's valid pages to the same in-block positions of the
  // worn block (ascending order satisfies MLC in-order programming).
  flash::PageImage page;
  std::vector<uint8_t> oob(g.oob_size);
  for (uint32_t i = 0; i < bm.usable_pages(); i++) {
    Lba lba = bm.LbaAt(cold, i);
    if (lba == kInvalidLba) continue;
    flash::Ppn src = bm.PageOf(cold, i);
    flash::Ppn dst = bm.PageOf(worn_free, i);
    IPA_RETURN_NOT_OK(device_->ReadImage(src, &page, nullptr, false));
    IPA_RETURN_NOT_OK(device_->ReadOob(src, oob.data(), g.oob_size));
    const uint8_t* oob_src = reg.config.manage_ecc ? oob.data() : nullptr;
    IPA_RETURN_NOT_OK(device_->ProgramImage(dst, page, oob_src,
                                            oob_src ? g.oob_size : 0, nullptr,
                                            false));
    bm.Relocate(lba, dst);
    reg.stats.wear_level_migrations++;
  }
  IPA_RETURN_NOT_OK(bm.EraseAndFree(cold));
  reg.stats.wear_level_swaps++;
  return Status::OK();
}

Status NoFtl::AuditRegion(RegionId r) const {
  const Region& reg = regions_[r];
  const auto& g = device_->geometry();
  IPA_RETURN_NOT_OK(reg.blocks.Audit());
  auto fail = [&](Lba lba, const std::string& what) {
    return Status::Corruption("region '" + reg.config.name + "' audit: lba " +
                              std::to_string(lba) + what);
  };

  // OOB slot coverage (managed ECC): every legitimate delta-area byte was
  // appended under an OOB slot; uncovered non-erased bytes are torn remnants
  // that MountScan / the read path must have scrubbed away.
  uint32_t delta_off = reg.config.delta_area_offset;
  if (reg.config.manage_ecc && reg.config.ipa_mode != IpaMode::kOff &&
      delta_off > 0 && delta_off < g.page_size) {
    std::vector<uint8_t> covered(g.page_size - delta_off);
    for (Lba lba = 0; lba < reg.config.logical_pages; lba++) {
      flash::Ppn ppn = reg.blocks.PhysicalOf(lba);
      if (ppn == flash::kInvalidPpn) continue;
      const flash::PageState& ps = device_->page_state(ppn);
      if (ps.data.empty()) continue;  // flagged by the block audit
      std::fill(covered.begin(), covered.end(), 0);
      if (!ps.oob.empty() && !CoverDeltaArea(ps.oob.data(), g, delta_off, covered.data())) {
        return fail(lba, " has a damaged OOB slot");
      }
      for (uint32_t i = delta_off; i < g.page_size; i++) {
        if (ps.data[i] != 0xFF && !covered[i - delta_off]) {
          return fail(lba, " serves an uncovered delta byte at offset " +
                               std::to_string(i) + " (torn append not scrubbed)");
        }
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Managed ECC (OOB layout: [ECC_initial][slot 0][slot 1]...)
// ---------------------------------------------------------------------------

Status NoFtl::WriteInitialEcc(Region& reg, flash::Ppn ppn, const uint8_t* data) {
  const auto& g = device_->geometry();
  uint32_t body = reg.config.delta_area_offset ? reg.config.delta_area_offset
                                               : g.page_size;
  flash::EccEncodeRegion(data, body, reg.ecc.data());
  return device_->ProgramOob(ppn, 0, reg.ecc.data(), static_cast<uint32_t>(reg.ecc.size()));
}

Status NoFtl::AppendDeltaEcc(Region& reg, flash::Ppn ppn, uint32_t slot,
                             uint32_t offset, const uint8_t* bytes, uint32_t len) {
  const auto& g = device_->geometry();
  uint32_t body = reg.config.delta_area_offset ? reg.config.delta_area_offset
                                               : g.page_size;
  uint32_t base = static_cast<uint32_t>(flash::EccRegionBytes(body)) +
                  slot * kSlotBytes;
  if (base + kSlotBytes > g.oob_size) {
    return Status::OutOfSpace("no free OOB ECC slot");
  }
  if (flash::EccRegionBytes(len) > kSlotEccBytes) {
    return Status::InvalidArgument("delta longer than an OOB ECC slot covers");
  }
  uint8_t entry[kSlotBytes];
  EncodeU16(entry, static_cast<uint16_t>(offset));
  EncodeU16(entry + 2, static_cast<uint16_t>(len));
  std::memset(entry + 4, 0xFF, kSlotEccBytes);  // unused ECC bytes stay erased
  flash::EccEncodeRegion(bytes, len, entry + 4);
  return device_->ProgramOob(ppn, base, entry, kSlotBytes);
}

Status NoFtl::VerifyEcc(Region& reg, const uint8_t* oob, flash::PageImage* image,
                        flash::PageImagePool& pool) {
  const auto& g = device_->geometry();
  uint32_t body = reg.config.delta_area_offset ? reg.config.delta_area_offset
                                               : g.page_size;
  uint32_t initial_bytes = static_cast<uint32_t>(flash::EccRegionBytes(body));

  uint64_t corrected = 0;
  flash::EccResult r = flash::EccCheckRegion(image, pool, 0, body, oob, initial_bytes,
                                             &corrected);
  if (r == flash::EccResult::kUncorrectable) {
    reg.stats.ecc_uncorrectable++;
    return Status::Corruption("uncorrectable ECC error in page body");
  }
  // Verify every appended delta slot.
  for (uint32_t base = initial_bytes; base + kSlotBytes <= g.oob_size;
       base += kSlotBytes) {
    uint16_t offset = DecodeU16(&oob[base]);
    uint16_t len = DecodeU16(&oob[base + 2]);
    if (offset == 0xFFFF && len == 0xFFFF) break;  // erased slot: no more deltas
    if (SlotIsDamaged(offset, len, g)) {
      reg.stats.ecc_uncorrectable++;
      return Status::Corruption("damaged delta ECC slot");
    }
    flash::EccResult dr = flash::EccCheckRegion(
        image, pool, offset, len, &oob[base + 4], flash::EccRegionBytes(len), &corrected);
    if (dr == flash::EccResult::kUncorrectable) {
      reg.stats.ecc_uncorrectable++;
      return Status::Corruption("uncorrectable ECC error in delta record");
    }
  }
  reg.stats.ecc_corrected_bits += corrected;
  return Status::OK();
}

uint32_t NoFtl::ScrubUncoveredDeltaBytes(Region& reg, const uint8_t* oob,
                                         flash::PageImage* image,
                                         flash::PageImagePool& pool) {
  const auto& g = device_->geometry();
  if (!reg.config.manage_ecc || reg.config.ipa_mode == IpaMode::kOff) return 0;
  uint32_t delta_off = reg.config.delta_area_offset;
  if (delta_off == 0 || delta_off >= g.page_size) return 0;
  // Deliberate-bug gate for the differential checker: with the fault armed,
  // torn delta bytes are served to the host and survive MountScan
  // (tests/differential_test.cc proves the checker catches this).
  if (fault::Enabled(fault::Point::kSkipTornByteScrub)) return 0;

  // A delta's OOB slot is appended only after its payload landed completely,
  // so every legitimate non-erased delta-area byte is covered by some slot —
  // uncovered non-0xFF bytes are torn remnants of an interrupted append.
  uint8_t* covered = reg.covered.data();
  std::memset(covered, 0, reg.covered.size());
  CoverDeltaArea(oob, g, delta_off, covered);  // a damaged slot is VerifyEcc's to report
  const uint8_t* data = image->data();
  uint32_t dropped = 0;
  for (uint32_t i = delta_off; i < g.page_size; i++) {
    if (covered[i - delta_off] || data[i] == 0xFF) continue;
    uint8_t* scrub = image->MakeWritable(pool);  // copies at the first byte only
    scrub[i] = 0xFF;
    data = scrub;
    dropped++;
  }
  reg.stats.torn_delta_bytes_dropped += dropped;
  return dropped;
}

Status NoFtl::MountScan(RegionId r, MountScanReport* report) {
  metrics::ScopedSpan span("ftl.mount_scan", &device_->clock());
  Region& reg = regions_[r];
  const auto& g = device_->geometry();
  MountScanReport rep;
  if (reg.config.manage_ecc) {
    flash::PageImage page;
    uint8_t* oob = reg.oob.data();
    for (Lba lba = 0; lba < reg.config.logical_pages; lba++) {
      flash::Ppn ppn = reg.blocks.PhysicalOf(lba);
      if (ppn == flash::kInvalidPpn) continue;
      rep.pages_scanned++;
      reg.stats.mount_pages_scanned++;
      IPA_RETURN_NOT_OK(device_->ReadImage(ppn, &page, nullptr, false));
      IPA_RETURN_NOT_OK(device_->ReadOob(ppn, oob, g.oob_size));
      Status s = VerifyEcc(reg, oob, &page, device_->image_pool());
      if (s.IsCorruption()) {
        rep.uncorrectable_pages++;  // beyond DBMS-side repair; WAL redo rewrites
        reg.stats.mount_uncorrectable_pages++;
        continue;
      }
      IPA_RETURN_NOT_OK(s);
      uint32_t dropped = ScrubUncoveredDeltaBytes(reg, oob, &page, device_->image_pool());
      if (dropped == 0) continue;
      rep.torn_bytes_dropped += dropped;
      reg.stats.mount_torn_bytes_dropped += dropped;
      // Quarantine: the torn bytes sit in flash cells that already took
      // charge, so the page can never absorb a clean append there again.
      // Rewrite the scrubbed image (with its OOB, preserving valid delta
      // slots) onto a fresh page and invalidate the torn one for GC.
      flash::Ppn new_ppn = flash::kInvalidPpn;
      IPA_RETURN_NOT_OK(
          reg.blocks.Allocate(StreamTag::kUntagged, /*for_gc=*/true, &new_ppn));
      IPA_RETURN_NOT_OK(device_->ProgramImage(new_ppn, std::move(page), oob,
                                              g.oob_size, nullptr, false));
      reg.blocks.Map(lba, new_ppn);
      reg.stats.torn_pages_quarantined++;
      rep.torn_pages_quarantined++;
    }
  }
  if (report) *report = rep;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Host commands
// ---------------------------------------------------------------------------

Status NoFtl::ReadPage(RegionId r, Lba lba, uint8_t* out) {
  flash::PageImage image;
  IPA_RETURN_NOT_OK(ReadImage(r, lba, device_->image_pool(), &image));
  std::memcpy(out, image.data(), device_->geometry().page_size);
  return Status::OK();
}

Status NoFtl::ReadImage(RegionId r, Lba lba, flash::PageImagePool& pool,
                        flash::PageImage* out) {
  Region& reg = regions_[r];
  const auto& g = device_->geometry();
  if (lba >= reg.config.logical_pages) return Status::InvalidArgument("lba out of range");
  reg.stats.host_reads++;
  flash::Ppn ppn = reg.blocks.PhysicalOf(lba);
  if (ppn == flash::kInvalidPpn) {
    *out = pool.Take();
    std::memset(out->mutable_data(), 0xFF, g.page_size);
    return Status::OK();
  }
  flash::IoTiming t;
  IPA_RETURN_NOT_OK(device_->ReadImage(ppn, out, &t, true));
  reg.stats.read_latency.Add(t.LatencyUs());
  if (reg.config.manage_ecc) {
    const uint8_t* oob = reg.oob.data();
    IPA_RETURN_NOT_OK(device_->ReadOob(ppn, reg.oob.data(), g.oob_size));
    // Repairs go to a private copy, taken at the first byte that changes:
    // the stored image stays as it is on media.
    IPA_RETURN_NOT_OK(VerifyEcc(reg, oob, out, pool));
    // Never serve torn (power-loss-interrupted) delta bytes to the host.
    ScrubUncoveredDeltaBytes(reg, oob, out, pool);
  }
  return Status::OK();
}

Status NoFtl::WritePage(RegionId r, Lba lba, const uint8_t* data, bool sync) {
  return WriteImage(r, lba, device_->image_pool().Copy(data), sync);
}

Status NoFtl::WriteImage(RegionId r, Lba lba, flash::PageImage image, bool sync) {
  Region& reg = regions_[r];
  if (lba >= reg.config.logical_pages) return Status::InvalidArgument("lba out of range");
  IPA_RETURN_NOT_OK(reg.blocks.CollectIfNeeded());

  flash::Ppn ppn = flash::kInvalidPpn;
  IPA_RETURN_NOT_OK(reg.blocks.Allocate(StreamTag::kUntagged, /*for_gc=*/false, &ppn));
  flash::IoTiming t;
  const uint8_t* data = image.data();  // the programmed page keeps it alive
  IPA_RETURN_NOT_OK(device_->ProgramImage(ppn, std::move(image), nullptr, 0, &t, sync));
  if (reg.config.manage_ecc) {
    IPA_RETURN_NOT_OK(WriteInitialEcc(reg, ppn, data));
  }
  reg.blocks.Map(lba, ppn);

  reg.stats.host_page_writes++;
  reg.stats.write_latency.Add(t.LatencyUs());
  return Status::OK();
}

Status NoFtl::WriteDelta(RegionId r, Lba lba, uint32_t offset, const uint8_t* bytes,
                         uint32_t len, bool sync) {
  Region& reg = regions_[r];
  if (lba >= reg.config.logical_pages) return Status::InvalidArgument("lba out of range");
  if (reg.config.ipa_mode == IpaMode::kOff) {
    return Status::NotSupported("region has IPA disabled");
  }
  flash::Ppn ppn = reg.blocks.PhysicalOf(lba);
  if (ppn == flash::kInvalidPpn) {
    return Status::InvalidArgument("write_delta on unwritten logical page");
  }
  // A refused append is a fallback: the caller writes the page instead.
  auto fallback = [&](Status refusal) {
    reg.stats.delta_fallbacks++;
    return refusal;
  };
  const auto& g = device_->geometry();
  uint32_t page_in_block = static_cast<uint32_t>(ppn % g.pages_per_block);
  if (reg.config.ipa_mode == IpaMode::kOddMlc &&
      !flash::IsLsbPage(g, page_in_block)) {
    return fallback(Status::NotSupported("logical page resides on an MSB flash page"));
  }
  uint32_t slot = 0;
  if (reg.config.manage_ecc) {
    if (flash::EccRegionBytes(len) > kSlotEccBytes) {
      return fallback(Status::NotSupported("delta longer than an OOB ECC slot covers"));
    }
    // Find the first erased slot (survives GC migrations, which copy OOB).
    uint32_t body = reg.config.delta_area_offset;
    uint32_t initial_bytes = static_cast<uint32_t>(flash::EccRegionBytes(body));
    uint8_t* oob = reg.oob.data();
    IPA_RETURN_NOT_OK(device_->ReadOob(ppn, oob, g.oob_size));
    bool found = false;
    for (uint32_t base = initial_bytes; base + kSlotBytes <= g.oob_size;
         base += kSlotBytes, slot++) {
      if (DecodeU16(&oob[base]) == 0xFFFF && DecodeU16(&oob[base + 2]) == 0xFFFF) {
        found = true;
        break;
      }
    }
    if (!found) return fallback(Status::NotSupported("no free OOB ECC slot for delta"));
  }

  flash::IoTiming t;
  Status s = device_->ProgramDelta(ppn, offset, bytes, len, &t, sync);
  if (s.IsNotSupported()) return fallback(s);
  IPA_RETURN_NOT_OK(s);
  if (reg.config.manage_ecc) {
    IPA_RETURN_NOT_OK(AppendDeltaEcc(reg, ppn, slot, offset, bytes, len));
  }
  reg.stats.host_delta_writes++;
  reg.stats.delta_bytes_written += len;
  reg.stats.delta_write_latency.Add(t.LatencyUs());
  return Status::OK();
}

bool NoFtl::DeltaWritePossible(RegionId r, Lba lba) const {
  const Region& reg = regions_[r];
  if (reg.config.ipa_mode == IpaMode::kOff) return false;
  flash::Ppn ppn = reg.blocks.PhysicalOf(lba);
  if (ppn == flash::kInvalidPpn) return false;
  const auto& g = device_->geometry();
  uint32_t page_in_block = static_cast<uint32_t>(ppn % g.pages_per_block);
  if (reg.config.ipa_mode == IpaMode::kOddMlc &&
      !flash::IsLsbPage(g, page_in_block)) {
    return false;
  }
  const flash::PageState& ps = device_->page_state(ppn);
  return ps.program_count >= 1 && ps.program_count < g.max_programs_per_page;
}

uint32_t NoFtl::DeltaAppendsRemaining(RegionId r, Lba lba) const {
  if (!DeltaWritePossible(r, lba)) return 0;
  const auto& g = device_->geometry();
  const flash::PageState& ps = device_->page_state(PhysicalOf(r, lba));
  return g.max_programs_per_page - ps.program_count;
}

Status NoFtl::Trim(RegionId r, Lba lba) {
  Region& reg = regions_[r];
  if (lba >= reg.config.logical_pages) return Status::InvalidArgument("lba out of range");
  if (reg.blocks.Unmap(lba)) reg.stats.trims++;
  return Status::OK();
}

bool NoFtl::IsMapped(RegionId r, Lba lba) const {
  return PhysicalOf(r, lba) != flash::kInvalidPpn;
}

flash::Ppn NoFtl::PhysicalOf(RegionId r, Lba lba) const {
  return regions_[r].blocks.PhysicalOf(lba);
}

}  // namespace ipa::ftl
