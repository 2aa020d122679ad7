#include "ftl/blackbox_ssd.h"

namespace ipa::ftl {

BlackboxSsd::BlackboxSsd(const BlackboxSsdConfig& config) : config_(config) {
  flash::Geometry g;
  g.cell_type = config_.cell_type;
  g.page_size = config_.page_size;
  g.oob_size = 128;
  g.channels = 2;
  g.chips_per_channel = 4;
  g.pages_per_block = 64;
  g.max_programs_per_page =
      config_.cell_type == flash::CellType::kMlc ? 4 : 8;
  constexpr uint64_t kCapacitySlackBlocks = 8;  // spare blocks per chip
  uint64_t physical_pages = static_cast<uint64_t>(
      static_cast<double>(config_.logical_pages) *
      (1.0 + config_.over_provisioning) * 1.05);
  g.blocks_per_chip = static_cast<uint32_t>(
      physical_pages / g.pages_per_block / g.total_chips() +
      kCapacitySlackBlocks);
  dev_ = std::make_unique<flash::FlashArray>(g, flash::TimingFor(g.cell_type));
  ftl_ = std::make_unique<NoFtl>(dev_.get());

  // The internal region is formatted immediately for plain SSDs; devices
  // with the write_delta extension defer until the scheme hint arrives (the
  // controller's ECC layout depends on it).
  if (!config_.write_delta_extension) {
    RegionConfig rc;
    rc.name = "ssd-internal";
    rc.logical_pages = config_.logical_pages;
    rc.over_provisioning = config_.over_provisioning;
    rc.manage_ecc = true;  // controller-side ECC
    auto r = ftl_->CreateRegion(rc);
    region_ = r.ok() ? r.value() : 0;
    hint_set_ = true;  // nothing more to configure
  }
}

Status BlackboxSsd::SetSchemeHint(uint32_t delta_area_offset) {
  if (!config_.write_delta_extension) {
    return Status::NotSupported("device has no write_delta extension");
  }
  if (any_write_) {
    return Status::InvalidArgument(
        "scheme hint must precede all writes (ECC layout is format-time)");
  }
  if (hint_set_) {
    return Status::InvalidArgument("scheme hint already set");
  }
  if (delta_area_offset == 0 || delta_area_offset >= config_.page_size) {
    return Status::InvalidArgument("bad delta_area_offset");
  }
  RegionConfig rc;
  rc.name = "ssd-internal";
  rc.logical_pages = config_.logical_pages;
  rc.over_provisioning = config_.over_provisioning;
  rc.manage_ecc = true;  // controller splits ECC_initial / ECC_delta_i
  rc.ipa_mode = config_.cell_type == flash::CellType::kMlc ? IpaMode::kOddMlc
                                                           : IpaMode::kSlc;
  rc.delta_area_offset = delta_area_offset;
  IPA_ASSIGN_OR_RETURN(region_, ftl_->CreateRegion(rc));
  delta_area_offset_ = delta_area_offset;
  hint_set_ = true;
  return Status::OK();
}

void BlackboxSsd::InterfaceDelay(bool sync) {
  // Fixed per-command host-interface cost. Background (async) submissions
  // are pipelined by the host and amortize the link latency.
  if (sync) dev_->clock().Advance(config_.interface_latency_us);
}

Status BlackboxSsd::ReadPage(Lba lba, uint8_t* out) {
  if (!hint_set_) {
    return Status::InvalidArgument("device not formatted (scheme hint pending)");
  }
  InterfaceDelay(true);
  return ftl_->ReadPage(region_, lba, out);
}

Status BlackboxSsd::WritePage(Lba lba, const uint8_t* data, bool sync) {
  if (!hint_set_) {
    return Status::InvalidArgument("device not formatted (scheme hint pending)");
  }
  any_write_ = true;
  InterfaceDelay(sync);
  return ftl_->WritePage(region_, lba, data, sync);
}

Status BlackboxSsd::WriteDelta(Lba lba, uint32_t offset, const uint8_t* bytes,
                               uint32_t len, bool sync) {
  if (!config_.write_delta_extension) {
    return Status::NotSupported("device has no write_delta extension");
  }
  if (!hint_set_) {
    return Status::NotSupported("write_delta before scheme hint");
  }
  if (offset < delta_area_offset_) {
    // The controller protects the ECC_initial-covered body region.
    return Status::InvalidArgument("delta write into the ECC-covered body");
  }
  any_write_ = true;
  InterfaceDelay(sync);
  return ftl_->WriteDelta(region_, lba, offset, bytes, len, sync);
}

bool BlackboxSsd::DeltaWritePossible(Lba lba) const {
  if (!config_.write_delta_extension || !hint_set_) return false;
  return ftl_->DeltaWritePossible(region_, lba);
}

bool BlackboxSsd::IsMapped(Lba lba) const {
  return hint_set_ && ftl_->IsMapped(region_, lba);
}

Status BlackboxSsd::Trim(Lba lba) {
  if (!hint_set_) {
    return Status::InvalidArgument("device not formatted (scheme hint pending)");
  }
  InterfaceDelay(true);
  return ftl_->Trim(region_, lba);
}

Status BlackboxSsd::Mount(MountScanReport* report) {
  if (!hint_set_) {
    // A never-formatted device has nothing to scan.
    if (report) *report = MountScanReport{};
    return Status::OK();
  }
  InterfaceDelay(true);
  return ftl_->MountScan(region_, report);
}

}  // namespace ipa::ftl
