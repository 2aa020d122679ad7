// PageDevice: the storage interface the engine programs against.
//
// Implementations mirror the paper's deployment models plus one extension:
//  * NoFTL regions (Section 5)  — the DBMS controls raw flash directly;
//    NoFtl::region_device() adapts a region to this interface;
//  * BlackboxSsd (Section 7 / conclusions) — a conventional SSD whose
//    block-device interface is extended with the write_delta command and a
//    scheme-hint control command for on-controller ECC, "at the cost of
//    lower performance compared to IPA under NoFTL";
//  * PageFtl (src/ftl/page_ftl.h) — the cooked-device baselines
//    bench_table12_backend_compare measures the paper's system against.

#pragma once

#include <cstdint>

#include "common/status.h"
#include "flash/page_image.h"

namespace ipa::ftl {

using Lba = uint64_t;

/// Logical write stream of a page write (multi-stream SSD style): names the
/// engine object the page belongs to so a stream-aware device can segregate
/// data of different update temperatures onto separate write frontiers.
/// Purely advisory — a device may ignore it (the WriteTagged default does),
/// and ignoring it must be behavior-identical to WritePage.
enum class StreamTag : uint8_t {
  kUntagged = 0,        ///< No classification (legacy WritePage path).
  kWal = 1,             ///< Write-ahead-log appends (sequential, short-lived).
  kHeap = 2,            ///< Heap (table) page writeback.
  kIndex = 3,           ///< B+-tree node writeback.
  kDeltaWriteback = 4,  ///< Hot pages folded back after small-delta updates.
  kGcRelocation = 5,    ///< Device-internal GC migration copies (cold).
};

/// Number of distinct StreamTag values (frontier array bound).
inline constexpr uint32_t kNumStreams = 6;

inline const char* StreamTagName(StreamTag t) {
  switch (t) {
    case StreamTag::kUntagged: return "untagged";
    case StreamTag::kWal: return "wal";
    case StreamTag::kHeap: return "heap";
    case StreamTag::kIndex: return "index";
    case StreamTag::kDeltaWriteback: return "delta-writeback";
    case StreamTag::kGcRelocation: return "gc-relocation";
  }
  return "?";
}

class PageDevice {
 public:
  virtual ~PageDevice() = default;

  /// Read a logical page (page_size bytes; unwritten pages read as 0xFF).
  virtual Status ReadPage(Lba lba, uint8_t* out) = 0;

  /// Out-of-place write of a full logical page.
  virtual Status WritePage(Lba lba, const uint8_t* data, bool sync) = 0;

  /// WritePage with a stream hint. The default implementation drops the tag
  /// and delegates to WritePage, so NoFtl regions and BlackboxSsd stay
  /// bit-identical to the untagged path. PageFtl routes the write to the
  /// tag's log-structured frontier under GcPolicy::kStreamWarmCold and drops
  /// the tag under its single-stream policies.
  virtual Status WriteTagged(Lba lba, const uint8_t* data, bool sync,
                             StreamTag tag) {
    (void)tag;
    return WritePage(lba, data, sync);
  }

  /// ReadPage into a shared image. A device that stores page images hands
  /// out the stored one without copying; this default reads into an image
  /// taken from `pool`. Either way the caller must not change a shared
  /// image's bytes (flash::PageImage::MakeWritable copies first).
  virtual Status ReadImage(Lba lba, flash::PageImagePool& pool, flash::PageImage* out) {
    *out = pool.Take();
    return ReadPage(lba, out->mutable_data());
  }

  /// WriteTagged that hands `image` over: a device that stores page images
  /// keeps it without copying; this default writes its bytes through
  /// WriteTagged.
  virtual Status WriteImage(Lba lba, flash::PageImage image, bool sync, StreamTag tag) {
    return WriteTagged(lba, image.data(), sync, tag);
  }

  /// write_delta(LBA, offset, delta_length, delta_bytes[]). NotSupported
  /// when the device/page cannot take the append (caller falls back).
  virtual Status WriteDelta(Lba lba, uint32_t offset, const uint8_t* bytes,
                            uint32_t len, bool sync) = 0;

  /// Whether write_delta can currently succeed on this logical page.
  virtual bool DeltaWritePossible(Lba lba) const = 0;

  /// True if the logical page has ever been written.
  virtual bool IsMapped(Lba lba) const = 0;

  virtual uint32_t page_size() const = 0;

  /// Host-visible capacity in logical pages.
  virtual uint64_t capacity_pages() const = 0;
};

}  // namespace ipa::ftl
