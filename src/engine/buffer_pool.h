// Buffer pool with the IPA write path.
//
// Shore-MT policies reproduced here (Section 8.4):
//  * steal/no-force: dirty pages may be flushed before commit; commits do not
//    force data pages;
//  * eager page cleaning: once the dirty fraction crosses a threshold
//    (12.5% hardcoded in Shore-MT) a background cleaner flushes dirty pages
//    without evicting them (async device writes);
//  * the WAL rule: a dirty page flush first forces the log up to the PageLSN.
//
// On every dirty-page flush the pool consults core::PlanEviction, which
// byte-diffs the page against its base (flash) image and picks in-place
// append vs out-of-place write. On fetch, delta-records found on the page
// are applied before the page is handed out (Section 6.2 "The page is
// fetched into the DB buffer").
//
// Frames hold shared page images (flash::PageImage). A miss shares the
// device's image; readers see it through Frame::data(), which is const.
// WillModify() returns the only writable pointer: its first call after a
// fetch or an unpinned flush keeps the shared image as the diff base and
// copies it into a private working image. A dirty frame without a base (one
// dirtied without WillModify()) fails its flush with Internal rather than
// being diffed against a stale image. A miss copies only a page whose delta
// area holds records (they are applied to a private copy), and an unpinned
// out-of-place flush hands the working image to the device uncopied.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/write_policy.h"
#include "engine/types.h"
#include "flash/page_image.h"
#include "ftl/page_device.h"

namespace ipa::engine {

struct BufferConfig {
  uint32_t page_size = 4096;
  uint32_t frames = 1024;
  /// Dirty fraction that triggers the background cleaner (Shore-MT: 12.5%).
  /// Set to ~0.75 for the paper's "non-eager" eviction experiments.
  double dirty_flush_threshold = 0.125;
  /// Cleaner writes are asynchronous device requests (they occupy chips but
  /// do not block the simulated host).
  bool cleaner_async = true;
  /// Record per-table update-size distributions at flush time (costs an
  /// exact page diff per flush; needed for Table 1 / Figures 7-10).
  bool record_update_sizes = false;
  /// When set, fetch/evict events are appended here (see engine::IoEvent).
  std::vector<IoEvent>* io_trace = nullptr;
  /// Classifies a page into its write stream (heap vs index) for
  /// stream-aware devices (ftl::GcPolicy::kStreamWarmCold). Full-page
  /// writebacks carry the classifier's tag; the write_delta-rejected
  /// fallback always carries kDeltaWriteback (a hot small-update page folded
  /// back). When unset every write is kUntagged — byte-identical to the
  /// pre-stream write path on every backend.
  std::function<ftl::StreamTag(PageId)> stream_of;
};

struct BufferStats {
  uint64_t fetches = 0;       ///< Fix() calls.
  uint64_t hits = 0;          ///< Served from the pool.
  uint64_t misses = 0;        ///< Required a device read.
  uint64_t evictions = 0;
  uint64_t flushes = 0;          ///< Dirty flushes attempted.
  uint64_t clean_diff_skips = 0; ///< Dirty flag set but zero byte diff.
  uint64_t ipa_flushes = 0;      ///< Served by write_delta.
  uint64_t oop_flushes = 0;      ///< Full out-of-place page writes.
  uint64_t ipa_fallbacks = 0;    ///< write_delta rejected at device level.
  uint64_t cleaner_runs = 0;
  uint64_t delta_records_written = 0;
};

/// Every BufferStats counter and the metric it is published under
/// (docs/METRICS.md).
inline constexpr StatField<BufferStats> kBufferStatFields[] = {
    {&BufferStats::fetches, "bufferpool.fetches"},
    {&BufferStats::hits, "bufferpool.hits"},
    {&BufferStats::misses, "bufferpool.misses"},
    {&BufferStats::evictions, "bufferpool.evictions"},
    {&BufferStats::flushes, "bufferpool.flushes"},
    {&BufferStats::clean_diff_skips, "bufferpool.clean_diff_skips"},
    {&BufferStats::ipa_flushes, "bufferpool.writebacks.delta"},
    {&BufferStats::oop_flushes, "bufferpool.writebacks.full"},
    {&BufferStats::ipa_fallbacks, "bufferpool.writebacks.delta_fallbacks"},
    {&BufferStats::cleaner_runs, "bufferpool.cleaner_runs"},
    {&BufferStats::delta_records_written, "bufferpool.delta_records_written"},
};

/// Per-table update-size traces (net = tuple bytes, meta = header+slots,
/// gross = net+meta), sampled at each flush of a previously-written page.
struct UpdateSizeTrace {
  SampleDistribution net;
  SampleDistribution meta;
  SampleDistribution gross;
};

class BufferPool {
 public:
  struct Frame {
    PageId id;
    bool valid = false;
    bool dirty = false;
    uint32_t pins = 0;
    bool ref = false;           ///< Clock reference bit.
    Lsn rec_lsn = kInvalidLsn;  ///< LSN that first dirtied the frame.

    /// The page as the engine sees it. Write only through WillModify().
    /// The pointer is valid while the frame stays fixed, up to the next
    /// WillModify() on the frame: that call may move the page to a private
    /// copy, after which the image this pointer reads may be released and
    /// reused. Call data() again after any WillModify().
    const uint8_t* data() const { return cur_.data(); }

   private:
    friend class BufferPool;
    flash::PageImage cur_;  ///< Working image; shared until WillModify().
    /// Image as it exists on flash (deltas applied); null until the first
    /// WillModify() after a fetch or an unpinned flush.
    flash::PageImage base_;
  };

  /// `device_of` maps a tablespace id to the PageDevice backing it (a NoFTL
  /// region or a conventional SSD with the write_delta extension).
  BufferPool(BufferConfig config,
             std::function<ftl::PageDevice*(TablespaceId)> device_of,
             std::function<void(Lsn)> ensure_log_durable);
  /// Publishes stats() to the metrics registry.
  ~BufferPool();
  // A copy would publish twice.
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fix a page into the pool. With `for_format` the caller formats the
  /// whole page: on a miss the device read is skipped and the content starts
  /// zeroed; on a hit the frame keeps its resident bytes. Either way the
  /// frame is returned ready for writing, so WillModify() copies nothing.
  Result<Frame*> Fix(PageId id, bool for_format = false);

  /// Declare that the caller is about to change the fixed `frame` and get
  /// the only pointer it may write through. The first call after a fetch or
  /// an unpinned flush keeps the current image as the frame's base and
  /// copies it into a private working image; later calls copy nothing. A
  /// holder that keeps the frame fixed may keep writing through the pointer
  /// across flushes.
  uint8_t* WillModify(Frame* frame);

  /// Release a fix. `dirtied` marks the frame dirty; `rec_lsn` is the log
  /// record that dirtied it (ignored unless dirtied).
  void Unfix(Frame* frame, bool dirtied, Lsn rec_lsn = kInvalidLsn);

  /// Flush one frame (IPA decision path). Clears dirty on success. Fails
  /// with Internal, writing nothing, when the frame is dirty but has no base
  /// (it was dirtied without WillModify()).
  Status FlushFrame(Frame* frame, bool async);

  /// Flush every dirty frame. With `async` the writes are background
  /// device requests (checkpointer/cleaner semantics: they occupy chips but
  /// do not block the simulated host).
  Status FlushAll(bool async = false);

  /// Run the eager cleaner if the dirty fraction crossed the threshold.
  Status MaybeRunCleaner();

  /// Drop every frame without flushing (crash simulation).
  void DropAllNoFlush();

  /// Drop one page's frame without flushing (table drop). No-op if absent.
  void DropPageNoFlush(PageId id);

  const BufferStats& stats() const { return stats_; }
  /// Publish stats() to the metrics registry, then zero it.
  void ResetStats();
  const std::map<TableId, UpdateSizeTrace>& update_traces() const {
    return traces_;
  }
  std::map<TableId, UpdateSizeTrace>& mutable_update_traces() { return traces_; }

  uint32_t dirty_count() const { return dirty_count_; }
  const BufferConfig& config() const { return config_; }

  /// Lowest rec_lsn across dirty frames (log-truncation bound), or
  /// kInvalidLsn when none has one. Scans the frames.
  Lsn MinRecLsn() const;

 private:
  Result<Frame*> GetVictim();
  Status LoadFrame(Frame* frame, PageId id, bool for_format);
  /// Write the frame's working image out of place. An unfixed frame hands
  /// the image over; a fixed one writes a copy and keeps it as its base.
  Status WriteOutOfPlace(Frame* frame, ftl::PageDevice* dev, ftl::Lba lba, bool sync,
                         ftl::StreamTag tag);
  void RecordTrace(const Frame& frame, const core::EvictionDecision& d);

  BufferConfig config_;
  std::function<ftl::PageDevice*(TablespaceId)> device_of_;
  std::function<void(Lsn)> ensure_log_durable_;

  /// Home of the frames' private images and of the copies a device makes
  /// for them.
  flash::PageImagePool images_;
  flash::PageImage zero_;  ///< All zeros: the base of a frame fixed for format.
  std::vector<Frame> frames_;
  std::unordered_map<PageId, uint32_t> table_;  // page -> frame index
  /// The entry of the last evicted page, reused by the next miss's insert so
  /// a warm miss allocates no map node.
  std::unordered_map<PageId, uint32_t>::node_type spare_entry_;
  uint32_t clock_hand_ = 0;
  uint32_t dirty_count_ = 0;
  BufferStats stats_;
  std::map<TableId, UpdateSizeTrace> traces_;
  /// PlanEviction's change lists, kept across flushes so a flush allocates
  /// nothing.
  storage::PageDiff diff_scratch_;
};

}  // namespace ipa::engine
