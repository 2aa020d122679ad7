// BlackboxSsd: a conventional SSD with the write_delta extension.
//
// The paper's conclusions: "IPA can be realized on traditional SSDs, by
// extending the block-device interface and the on-board controller
// functionality at the cost of lower performance compared to IPA under
// NoFTL." This class models exactly that deployment:
//
//  * the device owns its flash (chips, FTL, GC, over-provisioning) — the
//    host sees only a logical block space;
//  * every command crosses a host interface (SATA-class) that adds fixed
//    latency and serializes at the configured queue depth — the
//    "lower performance" part relative to NoFTL's direct access;
//  * ECC runs on the on-board controller (the *second* ECC alternative of
//    Section 6.2): the controller must be told the page's [NxM] layout via
//    a vendor-specific scheme-hint control command before write_delta is
//    accepted, so it can split ECC into ECC_initial + per-delta parts;
//  * the DBMS gets none of NoFTL's placement/region control; selective IPA
//    per object is impossible — the hint applies device-wide. The same
//    opacity rules out per-object write streams: the block interface
//    carries no StreamTag, so WAL/heap/index writes all land on the
//    device's internal frontiers interleaved. Stream segregation requires
//    either NoFTL regions or the host-visible stream-aware FTL
//    (ftl::PageFtl under GcPolicy::kStreamWarmCold, docs/FTL_BACKENDS.md).
//
// Internally the FTL is the same page-mapping machinery as a one-region
// NoFtl (an SSD *is* an FTL in a box); what differs is the interface.

#pragma once

#include <memory>

#include "ftl/ftl_backend.h"
#include "ftl/noftl.h"

namespace ipa::ftl {

struct BlackboxSsdConfig {
  /// Host-visible capacity in logical pages.
  uint64_t logical_pages = 0;
  uint32_t page_size = 4096;
  flash::CellType cell_type = flash::CellType::kSlc;
  double over_provisioning = 0.10;
  /// Fixed host-interface latency added to every command (SATA link +
  /// protocol + firmware dispatch), in simulated microseconds.
  uint64_t interface_latency_us = 25;
  /// Enable the write_delta command extension (off = a plain SSD).
  bool write_delta_extension = false;
};

class BlackboxSsd : public FtlBackend {
 public:
  explicit BlackboxSsd(const BlackboxSsdConfig& config);

  /// Vendor control command: tell the controller where the delta-record
  /// area begins on every page so the on-board ECC can cover the body and
  /// each appended delta separately. Must precede any WriteDelta; applies
  /// device-wide (no per-object regions on a black-box SSD, and likewise no
  /// per-object streams — WriteTagged's StreamTag is dropped at this
  /// interface; see ftl::GcPolicy::kStreamWarmCold for the stream-aware
  /// deployment). May only be issued while the device is empty (ECC layout
  /// is fixed at format time).
  Status SetSchemeHint(uint32_t delta_area_offset);

  // -- PageDevice -------------------------------------------------------------
  Status ReadPage(Lba lba, uint8_t* out) override;
  Status WritePage(Lba lba, const uint8_t* data, bool sync) override;
  Status WriteDelta(Lba lba, uint32_t offset, const uint8_t* bytes,
                    uint32_t len, bool sync) override;
  bool DeltaWritePossible(Lba lba) const override;
  bool IsMapped(Lba lba) const override;
  uint32_t page_size() const override { return config_.page_size; }
  uint64_t capacity_pages() const override { return config_.logical_pages; }

  // -- FtlBackend management plane (cross the host interface too) -------------
  const char* backend_name() const override { return "blackbox"; }
  Status Trim(Lba lba) override;
  Status Mount(MountScanReport* report = nullptr) override;
  Status Audit() const override { return ftl_->AuditRegion(region_); }

  // -- Introspection ------------------------------------------------------------
  const RegionStats& stats() const override { return ftl_->region_stats(region_); }
  void ResetStats() override { ftl_->ResetStats(region_); }
  flash::FlashArray& flash() { return *dev_; }
  SimClock& clock() { return dev_->clock(); }
  bool hint_set() const { return hint_set_; }

 private:
  /// Charge the host-interface cost of one command.
  void InterfaceDelay(bool sync);

  BlackboxSsdConfig config_;
  std::unique_ptr<flash::FlashArray> dev_;
  std::unique_ptr<NoFtl> ftl_;
  RegionId region_ = 0;
  bool hint_set_ = false;
  bool any_write_ = false;
  uint32_t delta_area_offset_ = 0;
};

}  // namespace ipa::ftl
