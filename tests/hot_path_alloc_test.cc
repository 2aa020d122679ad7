// Allocation counts on the engine's per-transaction paths: a counting global
// operator new shows that a warm lock table, a WAL append into a log buffer
// with capacity in place, NoFtl's managed-ECC reads, writes and delta
// appends, a buffer pool's miss-modify-flush cycle over a PageFtl, and
// flush planning with a reused diff allocate nothing, and that an update of
// a resident tuple allocates only its log record's images.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "core/write_policy.h"
#include "engine/buffer_pool.h"
#include "engine/database.h"
#include "engine/lock_manager.h"
#include "engine/wal.h"
#include "flash/flash_array.h"
#include "ftl/noftl.h"
#include "storage/slotted_page.h"
#include "workload/testbed.h"

namespace {
// Global operator new calls in this binary. The tests are single-threaded.
size_t g_news = 0;
}  // namespace

// Kept out of line: where gcc 12 inlines one side of a new/delete pair, its
// -Wmismatched-new-delete pairs the inlined malloc or free with the other.
[[gnu::noinline]] void* operator new(size_t n) {
  g_news++;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace ipa::engine {
namespace {

TEST(HotPathAllocTest, ColdLockTableAllocates) {
  // The counter sees the library's allocations: a cold table needs nodes.
  LockManager lm;
  size_t before = g_news;
  ASSERT_TRUE(lm.Acquire(1, 1, LockMode::kExclusive).ok());
  EXPECT_GT(g_news - before, 0u);
}

// Two open transactions: `a` share-locks a range that `b` also shares,
// upgrades its own shared locks and re-acquires its exclusive ones; `b`
// holds exclusive locks of its own. Both then release everything. (A
// conflict is left out: its Busy status allocates its message.)
void LockCycle(LockManager& lm, TxnId a, TxnId b) {
  for (uint64_t k = 0; k < 16; k++) {
    ASSERT_TRUE(lm.Acquire(a, k, LockMode::kShared).ok());
    ASSERT_TRUE(lm.Acquire(b, k, LockMode::kShared).ok());
  }
  for (uint64_t k = 16; k < 48; k++) {
    ASSERT_TRUE(lm.Acquire(a, k, k % 2 ? LockMode::kShared : LockMode::kExclusive).ok());
    ASSERT_TRUE(lm.Acquire(a, k, LockMode::kExclusive).ok());
    ASSERT_TRUE(lm.Acquire(b, k + 100, LockMode::kExclusive).ok());
  }
  EXPECT_EQ(lm.held_count(a), 48u);
  EXPECT_EQ(lm.held_count(b), 48u);
  lm.ReleaseAll(a);
  lm.ReleaseAll(b);
  EXPECT_EQ(lm.held_count(a), 0u);
}

TEST(HotPathAllocTest, WarmLockTableAllocatesNothing) {
  LockManager lm;
  LockCycle(lm, 1, 2);
  size_t before = g_news;
  LockCycle(lm, 3, 4);
  EXPECT_EQ(g_news - before, 0u);
}

TEST(HotPathAllocTest, WalAppendWithCapacityAllocatesNothing) {
  Wal wal;
  LogRecord rec{.type = LogType::kUpdate,
                .txn = 7,
                .page = PageId(1, 2),
                .before = std::vector<uint8_t>(40, 0xAB),
                .after = std::vector<uint8_t>(40, 0xCD)};
  for (int i = 0; i < 100; i++) wal.Append(rec);
  wal.FlushAll();
  ASSERT_TRUE(wal.TruncateTo(wal.end_lsn()).ok());  // keeps the capacity

  size_t before = g_news;
  Lsn first = wal.Append(rec);
  for (int i = 1; i < 100; i++) wal.Append(rec);
  EXPECT_EQ(g_news - before, 0u);

  Result<LogRecord> back = wal.Read(first);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().txn, 7u);
  EXPECT_EQ(back.value().before, rec.before);
  EXPECT_EQ(back.value().after, rec.after);
}

// Database::Update of a tuple that is resident and already X-locked by its
// open transaction: the log buffer has room after a checkpoint, so the only
// allocations left are the LogRecord's before and after images.
TEST(HotPathAllocTest, RepeatedUpdateAllocatesOnlyItsLogImages) {
  workload::StackSpec spec;
  spec.geometry = {.blocks_per_chip = 16, .pages_per_block = 16};
  spec.regions.push_back({ftl::RegionConfig{.name = "t",
                                            .logical_pages = 64,
                                            .ipa_mode = ftl::IpaMode::kSlc},
                          "ts",
                          {.n = 2, .m = 3, .v = 12},
                          {"t"}});
  spec.engine = {.buffer_pages = 16, .log_capacity_bytes = 1 << 20};
  auto stack = workload::Build(spec);
  ASSERT_TRUE(stack.ok());
  Database& db = *stack.value()->db;
  TableId table = stack.value()->parts[0].tables[0];

  TxnId setup = db.Begin();
  auto rid = db.Insert(setup, table, std::vector<uint8_t>(64, 0x11));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(db.Commit(setup).ok());
  ASSERT_TRUE(db.Checkpoint().ok());  // truncates the log, keeps its capacity

  TxnId txn = db.Begin();
  uint8_t patch[4] = {1, 2, 3, 4};
  ASSERT_TRUE(db.Update(txn, rid.value(), 0, patch).ok());
  size_t before = g_news;
  ASSERT_TRUE(db.Update(txn, rid.value(), 8, patch).ok());
  EXPECT_LE(g_news - before, 2u);
  ASSERT_TRUE(db.Commit(txn).ok());
}

// TPC-B's managed-ECC region: 4 KiB pages, a [2x4] v=12 delta area (two
// 49-byte records) and 128 OOB bytes. Warm: every flash page of the region
// has been programmed and erased before, so the array's image pool has the
// images those erases returned.
// The measured write follows one that ran the garbage collector, whose
// copy buffers are its own allocation.
TEST(HotPathAllocTest, WarmManagedEccRegionAllocatesNothing) {
  flash::Geometry g;
  g.channels = 1;
  g.chips_per_channel = 1;
  g.blocks_per_chip = 16;
  g.pages_per_block = 16;
  g.page_size = 4096;
  g.oob_size = 128;
  g.cell_type = flash::CellType::kSlc;
  g.max_programs_per_page = 8;
  constexpr uint32_t kDeltaOff = 4096 - 98;
  constexpr uint32_t kRecord = 49;
  flash::FlashArray dev(g, flash::TimingFor(g.cell_type));
  ftl::NoFtl ftl(&dev);
  auto region = ftl.CreateRegion({.name = "ecc",
                                  .logical_pages = 64,
                                  .ipa_mode = ftl::IpaMode::kSlc,
                                  .delta_area_offset = kDeltaOff,
                                  .manage_ecc = true});
  ASSERT_TRUE(region.ok());
  ftl::RegionId r = region.value();

  std::vector<uint8_t> page(g.page_size, 0xFF), out(g.page_size);
  std::vector<uint8_t> record(kRecord);
  for (uint32_t i = 0; i < kDeltaOff; i++) page[i] = static_cast<uint8_t>(i * 7);
  for (uint32_t i = 0; i < kRecord; i++) record[i] = static_cast<uint8_t>(0x5A - i);
  auto cycle = [&](ftl::Lba lba) {
    ASSERT_TRUE(ftl.WritePage(r, lba, page.data(), true).ok());
    ASSERT_TRUE(ftl.WriteDelta(r, lba, kDeltaOff, record.data(), kRecord, true).ok());
    ASSERT_TRUE(ftl.ReadPage(r, lba, out.data()).ok());
  };
  for (ftl::Lba lba = 0; ftl.region_stats(r).gc_erases < 8 * g.blocks_per_chip;
       lba = (lba + 1) % 64) {
    cycle(lba);
  }
  for (uint64_t erases = ftl.region_stats(r).gc_erases;
       ftl.region_stats(r).gc_erases == erases;) {
    ASSERT_TRUE(ftl.WritePage(r, 7, page.data(), true).ok());
  }

  uint64_t erases = ftl.region_stats(r).gc_erases;
  size_t before = g_news;
  cycle(9);
  EXPECT_EQ(g_news - before, 0u);
  EXPECT_EQ(ftl.region_stats(r).gc_erases, erases);  // the collector stayed idle
  EXPECT_EQ(std::memcmp(out.data(), page.data(), kDeltaOff), 0);
  EXPECT_EQ(std::memcmp(out.data() + kDeltaOff, record.data(), kRecord), 0);
}

// linkbench-streamftl's write path in miniature: a buffer pool over an
// 8 KiB kStreamWarmCold PageFtl, where every fix misses, is modified and
// later flushed out of place by the eviction it causes. Warm: the garbage
// collector has returned the pool's page copies to it, and has just run, so
// it stays idle through the measured cycle.
TEST(HotPathAllocTest, WarmPageFtlCycleAllocatesNothing) {
  constexpr uint32_t kPageSize = 8192;
  constexpr uint64_t kPages = 64;
  workload::StackSpec spec;
  spec.geometry = {.channels = 1,
                   .chips_per_channel = 2,
                   .blocks_per_chip = 16,
                   .pages_per_block = 16,
                   .page_size = kPageSize,
                   .oob_size = 64};
  spec.regions.push_back({ftl::PageFtlConfig{.name = "stream",
                                             .logical_pages = kPages,
                                             .gc_policy = ftl::GcPolicy::kStreamWarmCold},
                          "",
                          {}});
  auto stack = workload::Build(spec);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  ftl::FtlBackend* dev = stack.value()->backend;
  BufferConfig bc;
  bc.page_size = kPageSize;
  bc.frames = 8;
  BufferPool pool(bc, [&](TablespaceId) { return dev; }, [](Lsn) {});
  for (uint64_t lba = 0; lba < kPages; lba++) {
    auto f = pool.Fix(PageId(0, lba), /*for_format=*/true);
    ASSERT_TRUE(f.ok());
    storage::SlottedPage(pool.WillModify(f.value()), kPageSize).Initialize(lba, 1, {});
    pool.Unfix(f.value(), true);
  }

  uint64_t lba = 0;
  auto cycle = [&] {
    lba = (lba + 1) % kPages;
    auto f = pool.Fix(PageId(0, lba));
    ASSERT_TRUE(f.ok());
    pool.WillModify(f.value())[storage::kPageHeaderSize] ^= 1;
    pool.Unfix(f.value(), true);
  };
  while (dev->stats().gc_erases < 64) cycle();
  for (uint64_t erases = dev->stats().gc_erases; dev->stats().gc_erases == erases;) cycle();

  uint64_t erases = dev->stats().gc_erases;
  uint64_t misses = pool.stats().misses, writes = dev->stats().host_page_writes;
  size_t before = g_news;
  cycle();
  EXPECT_EQ(g_news - before, 0u);
  EXPECT_EQ(dev->stats().gc_erases, erases);  // the collector stayed idle
  EXPECT_EQ(pool.stats().misses, misses + 1);
  EXPECT_EQ(dev->stats().host_page_writes, writes + 1);
}

// PlanEviction with a PageDiff kept across flushes, as the buffer pool
// keeps one: once the diff's lists have grown, planning an in-place append
// and an out-of-place write allocates nothing.
TEST(HotPathAllocTest, PlanEvictionWithReusedDiffAllocatesNothing) {
  constexpr uint32_t kPageSize = 4096;
  std::vector<uint8_t> base(kPageSize);
  storage::SlottedPage view(base.data(), kPageSize);
  view.Initialize(1, 1, {.n = 2, .m = 4, .v = 12});
  std::vector<uint8_t> tuple(100, 0x20);
  while (view.HasRoomFor(100)) ASSERT_TRUE(view.Insert(tuple).ok());

  auto small = base;  // one tuple byte and the PageLSN
  storage::SlottedPage small_view(small.data(), kPageSize);
  uint8_t v = 0x42;
  ASSERT_TRUE(small_view.UpdateInPlace(3, 8, {&v, 1}).ok());
  small_view.set_page_lsn(7);
  auto large = base;  // a whole tuple: past the append budget
  storage::SlottedPage large_view(large.data(), kPageSize);
  std::vector<uint8_t> blob(100, 0xEE);
  ASSERT_TRUE(large_view.UpdateInPlace(5, 0, blob).ok());

  storage::PageDiff scratch;
  for (int round = 0; round < 2; round++) {
    auto append = small, rewrite = large;
    size_t before = g_news;
    core::EvictionDecision a =
        core::PlanEviction(base.data(), append.data(), kPageSize, true, true, false, &scratch);
    core::EvictionDecision o =
        core::PlanEviction(base.data(), rewrite.data(), kPageSize, true, true, false, &scratch);
    ASSERT_EQ(a.path, core::WritePath::kInPlaceAppend);
    ASSERT_EQ(o.path, core::WritePath::kOutOfPlace);
    if (round == 1) {
      EXPECT_EQ(g_news - before, 0u);
    }
  }
}

}  // namespace
}  // namespace ipa::engine
