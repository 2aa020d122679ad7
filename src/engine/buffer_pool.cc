#include "engine/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "common/metrics.h"
#include "storage/delta_record.h"
#include "storage/slotted_page.h"

namespace ipa::engine {

BufferPool::BufferPool(BufferConfig config,
                       std::function<ftl::PageDevice*(TablespaceId)> device_of,
                       std::function<void(Lsn)> ensure_log_durable)
    : config_(config),
      device_of_(std::move(device_of)),
      ensure_log_durable_(std::move(ensure_log_durable)),
      images_(config_.page_size),
      zero_(images_.Take()) {
  std::memset(zero_.mutable_data(), 0, config_.page_size);
  frames_.resize(config_.frames);
  table_.reserve(config_.frames * 2);
}

BufferPool::~BufferPool() {
  metrics::PublishStats(stats_, kBufferStatFields);
}

void BufferPool::ResetStats() {
  metrics::PublishStats(stats_, kBufferStatFields);
  stats_ = BufferStats{};
}

Result<BufferPool::Frame*> BufferPool::Fix(PageId id, bool for_format) {
  stats_.fetches++;
  auto it = table_.find(id);
  if (it != table_.end()) {
    Frame& f = frames_[it->second];
    f.pins++;
    f.ref = true;
    stats_.hits++;
    if (for_format) WillModify(&f);
    return &f;
  }
  stats_.misses++;
  IPA_ASSIGN_OR_RETURN(Frame * victim, GetVictim());
  IPA_RETURN_NOT_OK(LoadFrame(victim, id, for_format));
  victim->pins = 1;
  victim->ref = true;
  uint32_t index = static_cast<uint32_t>(victim - frames_.data());
  if (spare_entry_) {
    spare_entry_.key() = id;
    spare_entry_.mapped() = index;
    table_.insert(std::move(spare_entry_));
  } else {
    table_.emplace(id, index);
  }
  return victim;
}

uint8_t* BufferPool::WillModify(Frame* frame) {
  if (!frame->base_) frame->base_ = frame->cur_;
  return frame->cur_.MakeWritable(images_);
}

void BufferPool::Unfix(Frame* frame, bool dirtied, Lsn rec_lsn) {
  if (frame->pins > 0) frame->pins--;
  if (dirtied) {
    if (!frame->dirty) {
      frame->dirty = true;
      dirty_count_++;
    }
    if (frame->rec_lsn == kInvalidLsn) frame->rec_lsn = rec_lsn;
  }
}

Result<BufferPool::Frame*> BufferPool::GetVictim() {
  // Clock (second chance) over all frames; 2 full sweeps max.
  for (uint32_t step = 0; step < 2 * config_.frames; step++) {
    Frame& f = frames_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % config_.frames;
    if (f.pins > 0) continue;
    if (!f.valid) return &f;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    if (f.dirty) {
      IPA_RETURN_NOT_OK(FlushFrame(&f, /*async=*/false));
    }
    spare_entry_ = table_.extract(f.id);
    f.valid = false;
    stats_.evictions++;
    return &f;
  }
  return Status::Busy("all buffer frames pinned");
}

Status BufferPool::LoadFrame(Frame* frame, PageId id, bool for_format) {
  // The frame becomes valid only once loaded: a failed read leaves it
  // invalid and holding no image, so no stale copy outlives the error.
  frame->dirty = false;
  frame->rec_lsn = kInvalidLsn;
  frame->base_.reset();
  if (for_format) {
    frame->cur_ = images_.Take();
    std::memset(frame->cur_.mutable_data(), 0, config_.page_size);
    frame->base_ = zero_;
  } else {
    ftl::PageDevice* dev = device_of_(id.tablespace());
    Status s = dev->ReadImage(id.lba(), images_, &frame->cur_);
    if (!s.ok()) {
      frame->cur_.reset();
      return s;
    }
    if (config_.io_trace) {
      config_.io_trace->push_back(
          {IoEvent::Type::kFetch, id.raw, config_.page_size});
    }
    // Re-create the up-to-date version: apply any delta-records found on the
    // physical page (Section 6.2), to a private copy. WillModify() takes the
    // base image from this post-apply state, so a later flush diffs only the
    // changes made since.
    if (storage::HasDeltaRecords(frame->cur_.data(), config_.page_size)) {
      storage::ApplyDeltaRecords(frame->cur_.MakeWritable(images_), config_.page_size);
    }
  }
  frame->id = id;
  frame->valid = true;
  return Status::OK();
}

Status BufferPool::FlushFrame(Frame* frame, bool async) {
  if (!frame->dirty) return Status::OK();
  if (!frame->base_) {
    return Status::Internal("dirty frame was changed without WillModify");
  }
  stats_.flushes++;

  ftl::PageDevice* dev = device_of_(frame->id.tablespace());
  ftl::Lba lba = frame->id.lba();
  bool flash_exists = dev->IsMapped(lba);
  bool dev_ok = flash_exists && dev->DeltaWritePossible(lba);

  // WillModify() made the working image private; only a write that failed
  // after the device took the image can have shared it again.
  uint8_t* cur = frame->cur_.MakeWritable(images_);
  core::EvictionDecision d = core::PlanEviction(
      frame->base_.data(), cur, config_.page_size, flash_exists,
      dev_ok, config_.record_update_sizes, &diff_scratch_);
  if (config_.record_update_sizes && flash_exists) RecordTrace(*frame, d);

  switch (d.path) {
    case core::WritePath::kClean:
      stats_.clean_diff_skips++;
      break;
    case core::WritePath::kInPlaceAppend: {
      storage::SlottedPage view(cur, config_.page_size);
      ensure_log_durable_(view.page_lsn());
      // The base stays until the append succeeds: a refused or failed
      // append leaves the page dirty, and its retry must diff against it.
      Status s = dev->WriteDelta(lba, d.plan.write_offset, cur + d.plan.write_offset,
                                 d.plan.write_len, !async);
      if (s.IsNotSupported()) {
        // Device-level rejection (program budget, ISPP...): fall back to a
        // full out-of-place write with a reset delta area.
        stats_.ipa_fallbacks++;
        view.ResetDeltaArea();
        // A page that accumulated small deltas and is now folded back: the
        // delta-writeback stream, regardless of object classification.
        IPA_RETURN_NOT_OK(WriteOutOfPlace(frame, dev, lba, !async,
                                          ftl::StreamTag::kDeltaWriteback));
        stats_.oop_flushes++;
        if (config_.io_trace) {
          config_.io_trace->push_back(
              {IoEvent::Type::kEvictOop, frame->id.raw, config_.page_size});
        }
      } else {
        IPA_RETURN_NOT_OK(s);
        if (frame->pins > 0) frame->base_ = images_.Copy(cur);
        stats_.ipa_flushes++;
        stats_.delta_records_written += d.plan.records;
        if (config_.io_trace) {
          config_.io_trace->push_back(
              {IoEvent::Type::kEvictIpa, frame->id.raw, d.plan.write_len});
        }
      }
      break;
    }
    case core::WritePath::kOutOfPlace: {
      storage::SlottedPage view(cur, config_.page_size);
      ensure_log_durable_(view.page_lsn());
      // Stream classification for stream-aware devices; kUntagged without a
      // classifier keeps the legacy WritePage behavior bit-identical.
      ftl::StreamTag tag =
          config_.stream_of ? config_.stream_of(frame->id) : ftl::StreamTag::kUntagged;
      IPA_RETURN_NOT_OK(WriteOutOfPlace(frame, dev, lba, !async, tag));
      stats_.oop_flushes++;
      if (config_.io_trace) {
        config_.io_trace->push_back(
            {IoEvent::Type::kEvictOop, frame->id.raw, config_.page_size});
      }
      break;
    }
  }

  // A fixed frame's holder may change it again without another
  // WillModify(), so it keeps the image just written as its base (set
  // above); an unfixed frame takes its base from the working image at its
  // next WillModify().
  if (frame->pins == 0) frame->base_.reset();
  frame->dirty = false;
  frame->rec_lsn = kInvalidLsn;
  if (dirty_count_ > 0) dirty_count_--;
  return Status::OK();
}

Status BufferPool::WriteOutOfPlace(Frame* frame, ftl::PageDevice* dev, ftl::Lba lba,
                                   bool sync, ftl::StreamTag tag) {
  if (frame->pins == 0) {
    // Nobody can write through the working image before the next
    // WillModify(), which copies it: hand it over and keep sharing it.
    return dev->WriteImage(lba, frame->cur_, sync, tag);
  }
  // A fixed frame's holder may keep writing through its pointer: write a
  // copy, which becomes the frame's base.
  flash::PageImage copy = images_.Copy(frame->cur_.data());
  IPA_RETURN_NOT_OK(dev->WriteImage(lba, copy, sync, tag));
  frame->base_ = std::move(copy);
  return Status::OK();
}

void BufferPool::RecordTrace(const Frame& frame, const core::EvictionDecision& d) {
  storage::ConstSlottedPage view(frame.data(), config_.page_size);
  UpdateSizeTrace& t = traces_[view.table_id()];
  t.net.Add(d.body_bytes_changed);
  t.meta.Add(d.meta_bytes_changed);
  t.gross.Add(d.body_bytes_changed + d.meta_bytes_changed);
}

Status BufferPool::FlushAll(bool async) {
  for (auto& f : frames_) {
    if (f.valid && f.dirty) {
      IPA_RETURN_NOT_OK(FlushFrame(&f, async));
    }
  }
  return Status::OK();
}

Status BufferPool::MaybeRunCleaner() {
  double dirty_frac =
      static_cast<double>(dirty_count_) / static_cast<double>(config_.frames);
  if (dirty_frac < config_.dirty_flush_threshold) return Status::OK();
  stats_.cleaner_runs++;
  constexpr uint32_t kCleanerBatch = 32;  // dirty pages flushed per run
  // Clean (but do not evict) the next dirty unpinned frames in clock order —
  // an approximation of Shore-MT's background cleaner picking cold pages.
  uint32_t cleaned = 0;
  uint32_t hand = clock_hand_;
  for (uint32_t step = 0; step < config_.frames && cleaned < kCleanerBatch;
       step++) {
    Frame& f = frames_[hand];
    hand = (hand + 1) % config_.frames;
    if (!f.valid || !f.dirty || f.pins > 0) continue;
    IPA_RETURN_NOT_OK(FlushFrame(&f, config_.cleaner_async));
    cleaned++;
  }
  return Status::OK();
}

void BufferPool::DropAllNoFlush() {
  table_.clear();
  for (auto& f : frames_) {
    f.valid = false;
    f.dirty = false;
    f.pins = 0;
    f.rec_lsn = kInvalidLsn;
    f.cur_.reset();
    f.base_.reset();
  }
  dirty_count_ = 0;
  // The update-size traces feed the IPA advisor's N×M accounting. Frames
  // dirtied by in-flight appends die with the crash, so their sampled sizes
  // must too — a restarted instance profiles from scratch.
  traces_.clear();
}

void BufferPool::DropPageNoFlush(PageId id) {
  auto it = table_.find(id);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  if (f.dirty && dirty_count_ > 0) dirty_count_--;
  f.valid = false;
  f.dirty = false;
  f.pins = 0;
  f.rec_lsn = kInvalidLsn;
  f.cur_.reset();
  f.base_.reset();
  table_.erase(it);
}

Lsn BufferPool::MinRecLsn() const {
  // A frame holds a rec_lsn only while dirty, and kInvalidLsn is the largest
  // Lsn, so frames without one never win.
  Lsn min = kInvalidLsn;
  for (const Frame& f : frames_) min = std::min(min, f.rec_lsn);
  return min;
}

}  // namespace ipa::engine
