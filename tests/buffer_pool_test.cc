// Unit tests for the buffer pool: caching, eviction, pinning, the base-image
// contract (WillModify), the eager cleaner, and flush-path statistics.

#include <gtest/gtest.h>

#include <cstring>

#include "engine/buffer_pool.h"
#include "published.h"
#include "storage/slotted_page.h"
#include "workload/testbed.h"

namespace ipa::engine {
namespace {

/// A bare [NxM] SLC region of `logical_pages` on a 4x4-chip device of 32
/// blocks x 32 pages of 4 KiB.
workload::StackSpec RegionSpec(storage::Scheme scheme, uint64_t logical_pages) {
  workload::StackSpec spec;
  spec.geometry.blocks_per_chip = 32;
  spec.geometry.pages_per_block = 32;
  spec.regions.push_back({ftl::RegionConfig{.name = "t",
                                            .logical_pages = logical_pages,
                                            .ipa_mode = ftl::IpaMode::kSlc},
                          "",
                          scheme});
  return spec;
}

struct PoolFixture {
  static constexpr uint32_t kPageSize = 4096;
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  std::unique_ptr<workload::Stack> stack;
  std::unique_ptr<BufferPool> pool;

  explicit PoolFixture(uint32_t frames, double dirty_threshold = 0.5,
                       bool record_update_sizes = false)
      : stack(workload::Build(RegionSpec(scheme, 1024)).value()) {
    BufferConfig bc;
    bc.page_size = kPageSize;
    bc.frames = frames;
    bc.dirty_flush_threshold = dirty_threshold;
    bc.cleaner_async = false;
    bc.record_update_sizes = record_update_sizes;
    pool = std::make_unique<BufferPool>(
        bc, [this](TablespaceId) { return stack->backend; }, [](Lsn) {});
  }

  /// Create + flush a formatted page with one 64B tuple.
  void Seed(PageId id) {
    auto f = pool->Fix(id, /*for_format=*/true).value();
    storage::SlottedPage view(pool->WillModify(f), kPageSize);
    view.Initialize(id.raw, 1, scheme);
    std::vector<uint8_t> tuple(64, 0x11);
    (void)view.Insert(tuple);
    pool->Unfix(f, true);
    (void)pool->FlushAll();
  }
};

TEST(BufferPoolTest, HitAfterMiss) {
  PoolFixture fx(8);
  PageId p(0, 1);
  fx.Seed(p);
  fx.pool->DropAllNoFlush();
  auto f1 = fx.pool->Fix(p);
  ASSERT_TRUE(f1.ok());
  fx.pool->Unfix(f1.value(), false);
  uint64_t misses = fx.pool->stats().misses;
  auto f2 = fx.pool->Fix(p);
  ASSERT_TRUE(f2.ok());
  fx.pool->Unfix(f2.value(), false);
  EXPECT_EQ(fx.pool->stats().misses, misses);  // second fix was a hit
  EXPECT_GT(fx.pool->stats().hits, 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  PoolFixture fx(4);
  // Seed more pages than frames; touch each dirty.
  for (uint64_t i = 0; i < 8; i++) {
    PageId p(0, i);
    auto f = fx.pool->Fix(p, /*for_format=*/true).value();
    storage::SlottedPage view(fx.pool->WillModify(f), PoolFixture::kPageSize);
    view.Initialize(p.raw, 1, fx.scheme);
    fx.pool->Unfix(f, true);
  }
  EXPECT_GT(fx.pool->stats().evictions, 0u);
  // All 8 pages must be readable with their content intact.
  for (uint64_t i = 0; i < 8; i++) {
    auto f = fx.pool->Fix(PageId(0, i));
    ASSERT_TRUE(f.ok());
    storage::ConstSlottedPage view(f.value()->data(), PoolFixture::kPageSize);
    EXPECT_EQ(view.page_id(), PageId(0, i).raw);
    fx.pool->Unfix(f.value(), false);
  }
}

TEST(BufferPoolTest, PinnedFramesAreNotEvicted) {
  PoolFixture fx(2);
  auto a = fx.pool->Fix(PageId(0, 0), true);
  auto b = fx.pool->Fix(PageId(0, 1), true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Pool full of pinned frames: next fix must fail with Busy.
  auto c = fx.pool->Fix(PageId(0, 2), true);
  EXPECT_TRUE(c.status().IsBusy());
  fx.pool->Unfix(a.value(), false);
  auto d = fx.pool->Fix(PageId(0, 2), true);
  EXPECT_TRUE(d.ok());
}

TEST(BufferPoolTest, BaseImageDiffDrivesIpaPath) {
  PoolFixture fx(8);
  PageId p(0, 3);
  fx.Seed(p);
  fx.pool->DropAllNoFlush();
  fx.pool->ResetStats();  // drop the seeding flush from the counters

  // Fetch, small in-place change, flush -> must be an IPA append.
  auto f = fx.pool->Fix(p).value();
  storage::SlottedPage view(fx.pool->WillModify(f), PoolFixture::kPageSize);
  uint8_t v = 0x99;
  ASSERT_TRUE(view.UpdateInPlace(0, 5, {&v, 1}).ok());
  fx.pool->Unfix(f, true);
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  EXPECT_EQ(fx.pool->stats().ipa_flushes, 1u);
  EXPECT_EQ(fx.pool->stats().oop_flushes, 0u);

  // Refetch from flash: the delta must replay.
  fx.pool->DropAllNoFlush();
  auto f2 = fx.pool->Fix(p).value();
  storage::ConstSlottedPage view2(f2->data(), PoolFixture::kPageSize);
  auto tuple = view2.Read(0);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple.value()[5], 0x99);
  fx.pool->Unfix(f2, false);
}

TEST(BufferPoolTest, DirtyFlagWithNoDiffSkipsWrite) {
  uint64_t published = Published("bufferpool.clean_diff_skips");
  PoolFixture fx(8);
  PageId p(0, 4);
  fx.Seed(p);
  fx.pool->DropAllNoFlush();
  auto f = fx.pool->Fix(p).value();
  fx.pool->WillModify(f);
  fx.pool->Unfix(f, /*dirtied=*/true);  // marked dirty, nothing changed
  uint64_t writes_before = fx.stack->backend_stats().HostWrites();
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  EXPECT_EQ(fx.pool->stats().clean_diff_skips, 1u);
  EXPECT_EQ(fx.stack->backend_stats().HostWrites(), writes_before);
  fx.pool.reset();
  EXPECT_EQ(Published("bufferpool.clean_diff_skips") - published, 1u);
}

// Only WillModify() hands out a writable pointer, so a frame dirtied without
// it changed nothing; its flush still fails closed rather than diffing
// against a base it never took.
TEST(BufferPoolTest, ChangeWithoutWillModifyFailsFlushAndWritesNothing) {
  PoolFixture fx(8);
  PageId p(0, 5);
  fx.Seed(p);  // flushed while unfixed: the frame has no base
  for (bool refetch : {false, true}) {
    SCOPED_TRACE(refetch ? "after a fetch" : "after an unfixed flush");
    if (refetch) fx.pool->DropAllNoFlush();
    auto f = fx.pool->Fix(p).value();
    fx.pool->Unfix(f, true);
    uint64_t writes_before = fx.stack->backend_stats().HostWrites();
    uint64_t flushes_before = fx.pool->stats().flushes;
    Status s = fx.pool->FlushAll();
    EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
    EXPECT_EQ(fx.stack->backend_stats().HostWrites(), writes_before);
    EXPECT_EQ(fx.pool->stats().flushes, flushes_before);
    EXPECT_EQ(fx.pool->dirty_count(), 1u);
  }
}

TEST(BufferPoolTest, FlushOfFixedFrameKeepsItsBase) {
  PoolFixture fx(8, 0.5, /*record_update_sizes=*/true);
  PageId p(0, 6);
  fx.Seed(p);
  fx.pool->DropAllNoFlush();
  // Two fixes: the frame stays fixed across the first flush.
  auto f = fx.pool->Fix(p).value();
  ASSERT_EQ(fx.pool->Fix(p).value(), f);
  storage::SlottedPage view(fx.pool->WillModify(f), PoolFixture::kPageSize);
  uint8_t v = 0x31;
  ASSERT_TRUE(view.UpdateInPlace(0, 0, {&v, 1}).ok());
  fx.pool->Unfix(f, true);
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  // The holder changes one more byte without another WillModify: the flush
  // diffs against what the first flush wrote, so only that byte is new.
  v = 0x32;
  ASSERT_TRUE(view.UpdateInPlace(0, 1, {&v, 1}).ok());
  fx.pool->Unfix(f, true);
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  EXPECT_EQ(fx.pool->stats().ipa_flushes, 2u);
  const UpdateSizeTrace& t = fx.pool->update_traces().at(1);
  EXPECT_EQ(t.net.Points(), (std::vector<std::pair<uint32_t, uint64_t>>{{1, 2}}));

  fx.pool->DropAllNoFlush();
  auto f2 = fx.pool->Fix(p).value();
  auto tuple = storage::ConstSlottedPage(f2->data(), PoolFixture::kPageSize).Read(0);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple.value()[0], 0x31);
  EXPECT_EQ(tuple.value()[1], 0x32);
  fx.pool->Unfix(f2, false);
}

TEST(BufferPoolTest, FormatFixOfResidentFrameLeavesBaseValid) {
  PoolFixture fx(8);
  PageId p(0, 7);
  fx.Seed(p);  // resident, flushed while unfixed: base stale
  auto f = fx.pool->Fix(p, /*for_format=*/true).value();
  storage::SlottedPage view(fx.pool->WillModify(f), PoolFixture::kPageSize);
  view.Initialize(p.raw, 2, fx.scheme);
  fx.pool->Unfix(f, true);
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  EXPECT_EQ(fx.pool->dirty_count(), 0u);

  fx.pool->DropAllNoFlush();
  auto f2 = fx.pool->Fix(p).value();
  storage::ConstSlottedPage view2(f2->data(), PoolFixture::kPageSize);
  EXPECT_EQ(view2.table_id(), 2u);
  EXPECT_EQ(view2.slot_count(), 0u);
  fx.pool->Unfix(f2, false);
}

TEST(BufferPoolTest, CleanerRespectsThreshold) {
  PoolFixture fx(8, /*dirty_threshold=*/0.5);
  // 3 dirty out of 8 frames: below threshold -> no cleaning.
  for (uint64_t i = 0; i < 3; i++) {
    auto f = fx.pool->Fix(PageId(0, i), true).value();
    storage::SlottedPage view(fx.pool->WillModify(f), PoolFixture::kPageSize);
    view.Initialize(PageId(0, i).raw, 1, fx.scheme);
    fx.pool->Unfix(f, true);
  }
  ASSERT_TRUE(fx.pool->MaybeRunCleaner().ok());
  EXPECT_EQ(fx.pool->stats().cleaner_runs, 0u);
  EXPECT_EQ(fx.pool->dirty_count(), 3u);
  // Push past the threshold.
  for (uint64_t i = 3; i < 5; i++) {
    auto f = fx.pool->Fix(PageId(0, i), true).value();
    storage::SlottedPage view(fx.pool->WillModify(f), PoolFixture::kPageSize);
    view.Initialize(PageId(0, i).raw, 1, fx.scheme);
    fx.pool->Unfix(f, true);
  }
  ASSERT_TRUE(fx.pool->MaybeRunCleaner().ok());
  EXPECT_EQ(fx.pool->stats().cleaner_runs, 1u);
  EXPECT_LT(fx.pool->dirty_count(), 5u);
}

TEST(BufferPoolTest, MinRecLsnTracksOldestDirty) {
  // Format page `lba` in `fx`'s pool and unfix it dirtied at `rec_lsn`.
  auto dirty = [](PoolFixture& fx, uint64_t lba, Lsn rec_lsn) {
    auto f = fx.pool->Fix(PageId(0, lba), true).value();
    storage::SlottedPage(fx.pool->WillModify(f), PoolFixture::kPageSize)
        .Initialize(PageId(0, lba).raw, 1, fx.scheme);
    fx.pool->Unfix(f, true, rec_lsn);
  };
  PoolFixture fx(8);
  EXPECT_EQ(fx.pool->MinRecLsn(), kInvalidLsn);
  dirty(fx, 0, 100);
  dirty(fx, 1, 50);
  EXPECT_EQ(fx.pool->MinRecLsn(), 50u);
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  EXPECT_EQ(fx.pool->MinRecLsn(), kInvalidLsn);

  // A frame first dirtied without an LSN, as a B+-tree node is, counts from
  // the first LSN that dirties it again and keeps that one.
  dirty(fx, 2, kInvalidLsn);
  EXPECT_EQ(fx.pool->MinRecLsn(), kInvalidLsn);
  for (Lsn rec_lsn : {Lsn{70}, Lsn{90}}) {
    auto f = fx.pool->Fix(PageId(0, 2)).value();
    fx.pool->Unfix(f, true, rec_lsn);
  }
  EXPECT_EQ(fx.pool->MinRecLsn(), 70u);

  // Dropping a dirty page without a flush takes its LSN out of the bound.
  dirty(fx, 3, 40);
  EXPECT_EQ(fx.pool->MinRecLsn(), 40u);
  fx.pool->DropPageNoFlush(PageId(0, 3));
  EXPECT_EQ(fx.pool->MinRecLsn(), 70u);
  fx.pool->DropAllNoFlush();
  EXPECT_EQ(fx.pool->MinRecLsn(), kInvalidLsn);

  // A dirty victim that Fix flushes to make room leaves the bound too.
  PoolFixture one(1);
  dirty(one, 0, 30);
  EXPECT_EQ(one.pool->MinRecLsn(), 30u);
  auto f = one.pool->Fix(PageId(0, 1), true).value();
  EXPECT_EQ(one.pool->stats().evictions, 1u);
  EXPECT_EQ(one.pool->MinRecLsn(), kInvalidLsn);
  one.pool->Unfix(f, false);
}

/// Writes page 0 of `spec`'s region with one tuple, then flushes two
/// one-byte updates of it: the first appends in place, the second must go
/// out of place. The content must survive either way. Returns the pool's
/// stats; the pool and the stack are destroyed on return.
BufferStats FlushTwoSmallUpdates(const workload::StackSpec& spec, storage::Scheme scheme) {
  std::unique_ptr<workload::Stack> stack = workload::Build(spec).value();
  BufferConfig bc;
  bc.frames = 8;
  BufferPool pool(bc, [&](TablespaceId) { return stack->backend; }, [](Lsn) {});

  PageId p(0, 0);
  auto f = pool.Fix(p, true).value();
  storage::SlottedPage view(pool.WillModify(f), 4096);
  view.Initialize(p.raw, 1, scheme);
  std::vector<uint8_t> tuple(64, 0x11);
  (void)view.Insert(tuple);
  pool.Unfix(f, true);
  EXPECT_TRUE(pool.FlushAll().ok());  // initial out-of-place write

  for (int round = 0; round < 2; round++) {
    auto f2 = pool.Fix(p).value();
    storage::SlottedPage v2(pool.WillModify(f2), 4096);
    uint8_t val = static_cast<uint8_t>(0x20 + round);
    EXPECT_TRUE(v2.UpdateInPlace(0, static_cast<uint32_t>(round), {&val, 1}).ok());
    pool.Unfix(f2, true);
    EXPECT_TRUE(pool.FlushAll().ok());
  }
  EXPECT_EQ(pool.stats().ipa_flushes, 1u);
  EXPECT_EQ(pool.stats().oop_flushes, 2u);  // initial + fallback
  pool.DropAllNoFlush();
  auto f3 = pool.Fix(p).value();
  storage::ConstSlottedPage v3(f3->data(), 4096);
  auto t = v3.Read(0);
  EXPECT_TRUE(t.ok());
  if (t.ok()) {
    EXPECT_EQ(t.value()[0], 0x20);
    EXPECT_EQ(t.value()[1], 0x21);
  }
  pool.Unfix(f3, false);
  return pool.stats();
}

TEST(BufferPoolTest, FallbackWhenDeviceBudgetExhausted) {
  // Device allows initial program + 1 append only, so the pool plans the
  // second small-update flush out of place without asking the device.
  storage::Scheme scheme{.n = 3, .m = 4, .v = 12};
  workload::StackSpec spec = RegionSpec(scheme, 256);
  spec.geometry.max_programs_per_page = 2;
  EXPECT_EQ(FlushTwoSmallUpdates(spec, scheme).ipa_fallbacks, 0u);
}

TEST(BufferPoolTest, FallbackWhenDeviceRefusesAppend) {
  // A managed-ECC region whose 64-byte OOB area holds ECC_initial and one
  // 10-byte delta slot: the page still has program budget, so the pool
  // plans the second append, the device refuses it, and the flush falls
  // back to a full page write.
  storage::Scheme scheme{.n = 3, .m = 4, .v = 12};
  workload::StackSpec spec = RegionSpec(scheme, 256);
  spec.geometry.oob_size = 64;
  std::get<ftl::RegionConfig>(spec.regions[0].ftl).manage_ecc = true;
  uint64_t published = Published("bufferpool.writebacks.delta_fallbacks");
  EXPECT_EQ(FlushTwoSmallUpdates(spec, scheme).ipa_fallbacks, 1u);
  EXPECT_EQ(Published("bufferpool.writebacks.delta_fallbacks") - published, 1u);
}

/// Forwards to `inner`, failing only the first read of `lba`.
class FailFirstRead : public ftl::PageDevice {
 public:
  FailFirstRead(ftl::PageDevice* inner, ftl::Lba lba) : inner_(inner), lba_(lba) {}
  Status ReadPage(ftl::Lba lba, uint8_t* out) override {
    if (lba == lba_ && !failed_) {
      failed_ = true;
      return Status::Corruption("injected read failure");
    }
    return inner_->ReadPage(lba, out);
  }
  Status WritePage(ftl::Lba lba, const uint8_t* data, bool sync) override {
    return inner_->WritePage(lba, data, sync);
  }
  Status WriteDelta(ftl::Lba lba, uint32_t offset, const uint8_t* bytes, uint32_t len,
                    bool sync) override {
    return inner_->WriteDelta(lba, offset, bytes, len, sync);
  }
  bool DeltaWritePossible(ftl::Lba lba) const override {
    return inner_->DeltaWritePossible(lba);
  }
  bool IsMapped(ftl::Lba lba) const override { return inner_->IsMapped(lba); }
  uint32_t page_size() const override { return inner_->page_size(); }
  uint64_t capacity_pages() const override { return inner_->capacity_pages(); }

 private:
  ftl::PageDevice* inner_;
  ftl::Lba lba_;
  bool failed_ = false;
};

// Regression: a failed load used to leave its frame valid under the page id
// but outside the page table. Evicting it later dropped the table entry of
// the frame that did hold the page, and the next fix loaded a second, stale
// copy from flash.
TEST(BufferPoolTest, FailedLoadLeavesNoStaleFrame) {
  PoolFixture fx(8);
  const PageId x(0, 1), y(0, 2), z(0, 3);
  for (PageId p : {x, y, z}) fx.Seed(p);
  FailFirstRead dev(fx.stack->backend, x.lba());
  BufferConfig bc;
  bc.page_size = PoolFixture::kPageSize;
  bc.frames = 3;
  BufferPool pool(bc, [&](TablespaceId) { return &dev; }, [](Lsn) {});

  EXPECT_EQ(pool.Fix(x).status().code(), StatusCode::kCorruption);
  BufferPool::Frame* f = pool.Fix(x).value();
  storage::SlottedPage view(pool.WillModify(f), PoolFixture::kPageSize);
  uint8_t v = 0x4B;
  ASSERT_TRUE(view.UpdateInPlace(0, 0, {&v, 1}).ok());
  // X stays fixed while two other pages pass through the pool.
  for (PageId p : {y, z}) pool.Unfix(pool.Fix(p).value(), false);

  auto again = pool.Fix(x);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), f);
  auto tuple = storage::ConstSlottedPage(again.value()->data(), PoolFixture::kPageSize).Read(0);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple.value()[0], 0x4B);
  pool.Unfix(again.value(), false);
  pool.Unfix(f, true);
}

// Regression: a simulated crash (DropAllNoFlush) must also reset the
// update-size traces that feed the IPA advisor, or a restarted instance
// would keep profiling on samples from pages whose updates never survived.
TEST(BufferPoolTest, DropAllNoFlushResetsAdvisorTraces) {
  PoolFixture fx(8, 0.5, /*record_update_sizes=*/true);
  PageId p(0, 3);
  fx.Seed(p);

  // Dirty the already-mapped page and flush so a trace sample is recorded.
  auto f = fx.pool->Fix(p).value();
  storage::SlottedPage view(fx.pool->WillModify(f), PoolFixture::kPageSize);
  uint8_t val = 0x42;
  ASSERT_TRUE(view.UpdateInPlace(0, 0, {&val, 1}).ok());
  fx.pool->Unfix(f, true);
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  ASSERT_FALSE(fx.pool->update_traces().empty());

  fx.pool->DropAllNoFlush();
  EXPECT_TRUE(fx.pool->update_traces().empty());
}

}  // namespace
}  // namespace ipa::engine
