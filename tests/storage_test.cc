// Unit + property tests for the slotted page and delta-record machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "storage/delta_record.h"
#include "storage/slotted_page.h"

namespace ipa::storage {
namespace {

constexpr uint32_t kPageSize = 4096;

std::vector<uint8_t> MakePage(Scheme s, uint64_t pid = 4711, uint32_t table = 1) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage page(buf.data(), kPageSize);
  page.Initialize(pid, table, s);
  return buf;
}

std::vector<uint8_t> Tuple(size_t n, uint8_t seed) {
  std::vector<uint8_t> t(n);
  for (size_t i = 0; i < n; i++) t[i] = static_cast<uint8_t>(seed + i);
  return t;
}

TEST(SchemeTest, PaperSizing) {
  // Section 6.1 example: [2x3] with V=12 -> record 46 bytes, area 92 bytes,
  // 2.2% of a 4KB page.
  Scheme s{.n = 2, .m = 3, .v = 12};
  EXPECT_EQ(s.RecordBytes(), 46u);
  EXPECT_EQ(s.AreaBytes(), 92u);
  EXPECT_NEAR(s.SpaceOverhead(4096), 0.0225, 0.001);
}

TEST(SlottedPageTest, InitializeLayout) {
  Scheme s{.n = 2, .m = 3, .v = 12};
  auto buf = MakePage(s);
  SlottedPage page(buf.data(), kPageSize);
  EXPECT_EQ(page.page_id(), 4711u);
  EXPECT_EQ(page.table_id(), 1u);
  EXPECT_EQ(page.slot_count(), 0u);
  EXPECT_EQ(page.delta_off(), kPageSize - 92);
  EXPECT_EQ(page.free_begin(), kPageHeaderSize);
  EXPECT_EQ(page.free_end(), page.delta_off());
  // Delta area erased.
  for (uint32_t i = page.delta_off(); i < kPageSize; i++) {
    ASSERT_EQ(buf[i], 0xFF);
  }
  Scheme got = page.scheme();
  EXPECT_EQ(got.n, 2);
  EXPECT_EQ(got.m, 3);
  EXPECT_EQ(got.v, 12);
}

TEST(SlottedPageTest, InsertReadRoundTrip) {
  auto buf = MakePage({});
  SlottedPage page(buf.data(), kPageSize);
  auto t1 = Tuple(50, 1);
  auto t2 = Tuple(80, 9);
  auto s1 = page.Insert(t1);
  auto s2 = page.Insert(t2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1.value(), 0);
  EXPECT_EQ(s2.value(), 1);
  auto r1 = page.Read(s1.value());
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(std::equal(r1.value().begin(), r1.value().end(), t1.begin()));
  auto r2 = page.Read(s2.value());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(std::equal(r2.value().begin(), r2.value().end(), t2.begin()));
}

TEST(SlottedPageTest, FillUntilFull) {
  auto buf = MakePage({});
  SlottedPage page(buf.data(), kPageSize);
  auto t = Tuple(100, 7);
  int inserted = 0;
  while (true) {
    auto s = page.Insert(t);
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsOutOfSpace());
      break;
    }
    inserted++;
  }
  // (4096 - 40) / 104 = 39 tuples fit.
  EXPECT_EQ(inserted, 39);
}

TEST(SlottedPageTest, UpdateInPlace) {
  auto buf = MakePage({});
  SlottedPage page(buf.data(), kPageSize);
  auto slot = page.Insert(Tuple(32, 0));
  ASSERT_TRUE(slot.ok());
  uint8_t patch[3] = {0xAA, 0xBB, 0xCC};
  ASSERT_TRUE(page.UpdateInPlace(slot.value(), 10, patch).ok());
  auto r = page.Read(slot.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[10], 0xAA);
  EXPECT_EQ(r.value()[12], 0xCC);
  EXPECT_EQ(r.value()[13], 13);  // untouched
  EXPECT_TRUE(page.UpdateInPlace(slot.value(), 30, patch).IsInvalidArgument());
}

TEST(SlottedPageTest, DeleteReviveCycle) {
  auto buf = MakePage({});
  SlottedPage page(buf.data(), kPageSize);
  auto t = Tuple(64, 3);
  auto slot = page.Insert(t);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page.Delete(slot.value()).ok());
  EXPECT_FALSE(page.IsLive(slot.value()));
  EXPECT_TRUE(page.Read(slot.value()).status().IsNotFound());
  ASSERT_TRUE(page.Revive(slot.value(), t).ok());
  EXPECT_TRUE(page.IsLive(slot.value()));
  auto r = page.Read(slot.value());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::equal(r.value().begin(), r.value().end(), t.begin()));
}

TEST(SlottedPageTest, UpdateResizeGrowAndCompact) {
  auto buf = MakePage({});
  SlottedPage page(buf.data(), kPageSize);
  // Fill the page nearly full, delete one, then grow another into the hole
  // after compaction.
  std::vector<SlotId> slots;
  while (page.HasRoomFor(100)) {
    auto s = page.Insert(Tuple(100, 1));
    ASSERT_TRUE(s.ok());
    slots.push_back(s.value());
  }
  ASSERT_GE(slots.size(), 3u);
  ASSERT_TRUE(page.Delete(slots[0]).ok());
  // UpdateResize compacts on its own: the first call reclaims the hole.
  ASSERT_TRUE(page.UpdateResize(slots[1], Tuple(150, 8)).ok());
  auto r = page.Read(slots[1]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 150u);
  // Other tuples survive compaction.
  auto r2 = page.Read(slots[2]);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(std::equal(r2.value().begin(), r2.value().end(), Tuple(100, 1).begin()));
}

TEST(SlottedPageTest, MetadataClassification) {
  Scheme s{.n = 2, .m = 3, .v = 12};
  auto buf = MakePage(s);
  SlottedPage page(buf.data(), kPageSize);
  (void)page.Insert(Tuple(16, 0));
  EXPECT_TRUE(page.IsMetadataOffset(0));                      // PageLSN
  EXPECT_TRUE(page.IsMetadataOffset(kPageHeaderSize - 1));
  EXPECT_FALSE(page.IsMetadataOffset(kPageHeaderSize));       // tuple data
  EXPECT_TRUE(page.IsMetadataOffset(page.free_end()));        // slot array
  EXPECT_FALSE(page.IsMetadataOffset(page.delta_off()));      // delta area
}

// ---------------------------------------------------------------------------
// Delta records
// ---------------------------------------------------------------------------

TEST(DeltaRecordTest, EmptyPageHasNoRecords) {
  Scheme s{.n = 2, .m = 3, .v = 12};
  auto buf = MakePage(s);
  EXPECT_EQ(CountDeltaRecords(buf.data(), kPageSize), 0u);
  EXPECT_EQ(DeltaBudgetRemaining(buf.data(), kPageSize), 6u);
}

TEST(DeltaRecordTest, EncodeApplyRoundTrip) {
  Scheme s{.n = 2, .m = 3, .v = 12};
  auto base = MakePage(s);
  {
    SlottedPage page(base.data(), kPageSize);
    ASSERT_TRUE(page.Insert(Tuple(32, 0)).ok());
  }
  auto cur = base;
  SlottedPage page(cur.data(), kPageSize);
  uint8_t patch[2] = {0x77, 0x88};
  ASSERT_TRUE(page.UpdateInPlace(0, 4, patch).ok());
  page.set_page_lsn(10);

  PageDiff diff = DiffPages(base.data(), cur.data(), kPageSize, 100, 100);
  EXPECT_EQ(diff.body.size(), 2u);
  EXPECT_EQ(diff.meta.size(), 1u);  // least-significant PageLSN byte

  auto plan = EncodeDeltaRecords(cur.data(), kPageSize, diff);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().records, 1u);
  EXPECT_EQ(plan.value().write_offset, page.delta_off());
  EXPECT_EQ(plan.value().write_len, s.RecordBytes());
  EXPECT_EQ(CountDeltaRecords(cur.data(), kPageSize), 1u);

  // Simulate the flash round trip: apply the records onto the base image.
  auto replay = base;
  std::memcpy(replay.data() + plan.value().write_offset,
              cur.data() + plan.value().write_offset, plan.value().write_len);
  ApplyDeltaRecords(replay.data(), kPageSize);
  EXPECT_EQ(replay, cur);
}

TEST(DeltaRecordTest, MultipleRecordsAcrossEvictions) {
  Scheme s{.n = 3, .m = 4, .v = 12};
  auto base = MakePage(s);
  {
    SlottedPage page(base.data(), kPageSize);
    ASSERT_TRUE(page.Insert(Tuple(64, 0)).ok());
  }
  auto cur = base;
  for (uint32_t round = 0; round < 3; round++) {
    SlottedPage page(cur.data(), kPageSize);
    uint8_t v = static_cast<uint8_t>(0xA0 + round);
    ASSERT_TRUE(page.UpdateInPlace(0, round, {&v, 1}).ok());
    page.set_page_lsn(round + 1);
    PageDiff diff = DiffPages(base.data(), cur.data(), kPageSize, 100, 100);
    auto plan = EncodeDeltaRecords(cur.data(), kPageSize, diff);
    ASSERT_TRUE(plan.ok()) << round;
    EXPECT_EQ(CountDeltaRecords(cur.data(), kPageSize), round + 1);
    // The flash image gets the appended bytes; base becomes current.
    std::memcpy(base.data() + plan.value().write_offset,
                cur.data() + plan.value().write_offset, plan.value().write_len);
    ApplyDeltaRecords(base.data(), kPageSize);
    ASSERT_EQ(base, cur) << round;
  }
  // Budget exhausted now.
  SlottedPage page(cur.data(), kPageSize);
  uint8_t v = 0xEE;
  ASSERT_TRUE(page.UpdateInPlace(0, 9, {&v, 1}).ok());
  PageDiff diff = DiffPages(base.data(), cur.data(), kPageSize, 100, 100);
  EXPECT_TRUE(EncodeDeltaRecords(cur.data(), kPageSize, diff).status().IsOutOfSpace());
}

TEST(DeltaRecordTest, BodyOverflowSplitsIntoMultipleRecords) {
  Scheme s{.n = 3, .m = 3, .v = 12};
  auto base = MakePage(s);
  {
    SlottedPage page(base.data(), kPageSize);
    ASSERT_TRUE(page.Insert(Tuple(64, 0)).ok());
  }
  auto cur = base;
  SlottedPage page(cur.data(), kPageSize);
  uint8_t patch[7] = {1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(page.UpdateInPlace(0, 0, patch).ok());
  PageDiff diff = DiffPages(base.data(), cur.data(), kPageSize, 100, 100);
  EXPECT_EQ(diff.body.size(), 7u);
  auto plan = EncodeDeltaRecords(cur.data(), kPageSize, diff);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().records, 3u);  // ceil(7/3)
  auto replay = base;
  std::memcpy(replay.data() + plan.value().write_offset,
              cur.data() + plan.value().write_offset, plan.value().write_len);
  ApplyDeltaRecords(replay.data(), kPageSize);
  EXPECT_EQ(replay, cur);
}

TEST(DeltaRecordTest, MetaOverflowForcesOutOfPlace) {
  Scheme s{.n = 2, .m = 10, .v = 2};
  auto base = MakePage(s);
  {
    SlottedPage page(base.data(), kPageSize);
    ASSERT_TRUE(page.Insert(Tuple(16, 0)).ok());
  }
  auto cur = base;
  SlottedPage page(cur.data(), kPageSize);
  page.set_page_lsn(0x0102030405060708ull);  // changes 8 metadata bytes > V=2
  PageDiff diff = DiffPages(base.data(), cur.data(), kPageSize, 100, 100);
  EXPECT_TRUE(EncodeDeltaRecords(cur.data(), kPageSize, diff).status().IsOutOfSpace());
}

TEST(DeltaRecordTest, DiffCapsSetOverflow) {
  auto base = MakePage({.n = 2, .m = 3, .v = 12});
  auto cur = base;
  SlottedPage page(cur.data(), kPageSize);
  ASSERT_TRUE(page.Insert(Tuple(200, 1)).ok());  // big change
  PageDiff diff = DiffPages(base.data(), cur.data(), kPageSize, 10, 10);
  EXPECT_TRUE(diff.overflow);
}

TEST(DeltaRecordTest, IsppCompatibleEncoding) {
  // The encoded record bytes, written over an erased (0xFF) area, must only
  // clear bits — verify new_bytes & 0xFF == new_bytes trivially holds and,
  // more importantly, that unused pair slots stay 0xFF (remain appendable).
  Scheme s{.n = 2, .m = 5, .v = 12};
  auto base = MakePage(s);
  {
    SlottedPage page(base.data(), kPageSize);
    ASSERT_TRUE(page.Insert(Tuple(16, 0)).ok());
  }
  auto cur = base;
  SlottedPage page(cur.data(), kPageSize);
  uint8_t v = 0x42;
  ASSERT_TRUE(page.UpdateInPlace(0, 3, {&v, 1}).ok());
  PageDiff diff = DiffPages(base.data(), cur.data(), kPageSize, 100, 100);
  auto plan = EncodeDeltaRecords(cur.data(), kPageSize, diff);
  ASSERT_TRUE(plan.ok());
  // Pairs 1..4 of the body section unused -> erased.
  const uint8_t* rec = cur.data() + plan.value().write_offset;
  for (int p = 1; p < 5; p++) {
    EXPECT_EQ(rec[1 + 3 * p + 1], 0xFF);
    EXPECT_EQ(rec[1 + 3 * p + 2], 0xFF);
  }
}

// Property test: random update batches survive the encode/flash/apply cycle.
class DeltaRoundTripSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DeltaRoundTripSweep, RandomUpdatesRoundTrip) {
  auto [n, m] = GetParam();
  Scheme s{.n = static_cast<uint8_t>(n), .m = static_cast<uint8_t>(m), .v = 14};
  Rng rng(n * 100 + m);
  auto base = MakePage(s);
  {
    SlottedPage page(base.data(), kPageSize);
    for (int i = 0; i < 8; i++) ASSERT_TRUE(page.Insert(Tuple(100, i)).ok());
  }
  auto cur = base;
  uint64_t lsn = 1;
  int appends = 0;
  for (int round = 0; round < 20; round++) {
    SlottedPage page(cur.data(), kPageSize);
    // 1-3 small updates to random tuples.
    int updates = 1 + static_cast<int>(rng.Uniform(3));
    for (int u = 0; u < updates; u++) {
      uint8_t v = static_cast<uint8_t>(rng.Next());
      uint32_t off = static_cast<uint32_t>(rng.Uniform(95));
      ASSERT_TRUE(
          page.UpdateInPlace(static_cast<SlotId>(rng.Uniform(8)), off, {&v, 1})
              .ok());
    }
    page.set_page_lsn(lsn++);
    PageDiff diff =
        DiffPages(base.data(), cur.data(), kPageSize, kPageSize, kPageSize);
    auto plan = EncodeDeltaRecords(cur.data(), kPageSize, diff);
    if (plan.ok()) {
      appends++;
      std::memcpy(base.data() + plan.value().write_offset,
                  cur.data() + plan.value().write_offset,
                  plan.value().write_len);
      ApplyDeltaRecords(base.data(), kPageSize);
      ASSERT_EQ(base, cur) << "round " << round;
    } else {
      // Out-of-place: delta area reset, base replaced wholesale.
      SlottedPage view(cur.data(), kPageSize);
      view.ResetDeltaArea();
      base = cur;
    }
  }
  EXPECT_GT(appends, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DeltaRoundTripSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(3, 4, 6, 10, 20)));

// The word loop DiffPages ran before it skipped equal chunks with AVX2,
// kept as the reference: 8 bytes at a time, and byte by byte in ascending
// offset order inside a differing word.
PageDiff WordLoopDiff(const uint8_t* base, const uint8_t* cur, uint32_t page_size,
                      uint32_t body_cap, uint32_t meta_cap) {
  SlottedPage view(const_cast<uint8_t*>(cur), page_size);
  uint32_t delta_off = view.delta_off();
  uint16_t meta_begin = view.free_end();
  PageDiff diff;
  auto record = [&](uint32_t i) {
    ByteChange c{static_cast<uint16_t>(i), cur[i]};
    bool is_meta = i < kPageHeaderSize || (i >= meta_begin && i < delta_off);
    std::vector<ByteChange>& list = is_meta ? diff.meta : diff.body;
    if (list.size() >= (is_meta ? meta_cap : body_cap)) {
      diff.overflow = true;
      return false;
    }
    list.push_back(c);
    return true;
  };
  uint32_t i = 0;
  const uint32_t word_end = delta_off & ~7u;
  for (; i < word_end; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, base + i, 8);
    std::memcpy(&b, cur + i, 8);
    if (a == b) continue;
    for (uint32_t k = i; k < i + 8; k++) {
      if (base[k] != cur[k] && !record(k)) return diff;
    }
  }
  for (; i < delta_off; i++) {
    if (base[i] != cur[i] && !record(i)) return diff;
  }
  return diff;
}

bool SameChanges(const std::vector<ByteChange>& a, const std::vector<ByteChange>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](ByteChange x, ByteChange y) {
                      return x.offset == y.offset && x.value == y.value;
                    });
}

// Both diff kernels, through every DiffPages entry point, against the word
// loop: 4 KiB and 8 KiB pages with and without a delta area, changes in the
// header (free_end included, which moves the body/meta boundary), the body,
// the slot array and the delta area, alone, in runs and dense, under every
// pair of caps from none to the exact diff. A reused PageDiff must come back
// the same as a fresh one.
TEST(DeltaRecordTest, DiffKernelsMatchWordLoop) {
  Rng rng(26);
  PageDiff reused;
  int overflows = 0;
  for (uint32_t page_size : {4096u, 8192u}) {
    const uint32_t caps[] = {0, 1, 2, 5, 13, 64, 255, page_size};
    for (Scheme scheme : {Scheme{}, Scheme{.n = 2, .m = 3, .v = 12},
                          Scheme{.n = 4, .m = 10, .v = 12}}) {
      std::vector<uint8_t> base(page_size);
      SlottedPage page(base.data(), page_size);
      page.Initialize(77, 3, scheme);
      while (page.HasRoomFor(90)) {
        ASSERT_TRUE(page.Insert(Tuple(40 + rng.Uniform(50), static_cast<uint8_t>(rng.Next())))
                        .ok());
      }
      const uint32_t delta_off = page.delta_off();
      const uint32_t free_end = page.free_end();
      for (int trial = 0; trial < 40; trial++) {
        auto cur = base;
        // Region bounds: header, body, slot array, delta area.
        const uint32_t bounds[][2] = {{0, kPageHeaderSize},
                                      {kPageHeaderSize, free_end},
                                      {free_end, delta_off},
                                      {delta_off, page_size}};
        int changes = trial % 8 == 7 ? static_cast<int>(page_size)
                                     : static_cast<int>(rng.Uniform(40));
        for (int c = 0; c < changes; c++) {
          const auto& r = bounds[rng.Uniform(4)];
          if (r[1] <= r[0]) continue;
          uint32_t at = r[0] + static_cast<uint32_t>(rng.Uniform(r[1] - r[0]));
          uint32_t run = rng.Chance(0.2) ? 1 + static_cast<uint32_t>(rng.Uniform(80)) : 1;
          for (uint32_t i = at; i < std::min(at + run, r[1]); i++) {
            cur[i] = static_cast<uint8_t>(rng.Next());
          }
        }
        // Keep the fields that place the delta area; move free_end within
        // the page body now and then.
        std::memcpy(cur.data() + kOffDeltaOff, base.data() + kOffDeltaOff, 2);
        std::memcpy(cur.data() + kOffFreeEnd, base.data() + kOffFreeEnd, 2);
        if (trial % 4 == 1) {
          EncodeU16(cur.data() + kOffFreeEnd,
                    static_cast<uint16_t>(kPageHeaderSize +
                                          rng.Uniform(delta_off - kPageHeaderSize + 1)));
        }
        for (uint32_t body_cap : caps) {
          for (uint32_t meta_cap : caps) {
            PageDiff want = WordLoopDiff(base.data(), cur.data(), page_size, body_cap, meta_cap);
            overflows += want.overflow;
            PageDiff fresh = DiffPages(base.data(), cur.data(), page_size, body_cap, meta_cap);
            PageDiff portable;
            DiffPagesPortable(base.data(), cur.data(), page_size, body_cap, meta_cap,
                              &portable);
            DiffPages(base.data(), cur.data(), page_size, body_cap, meta_cap, &reused);
            for (const PageDiff* got : {&fresh, &portable, &reused}) {
              ASSERT_TRUE(SameChanges(got->body, want.body) &&
                          SameChanges(got->meta, want.meta) &&
                          got->overflow == want.overflow)
                  << "page " << page_size << " scheme n=" << int{scheme.n}
                  << " trial " << trial << " caps " << body_cap << "/" << meta_cap
                  << " kernel " << (got == &fresh ? "DiffPages" : got == &portable
                                                                      ? "portable"
                                                                      : "reused");
            }
          }
        }
      }
    }
  }
  EXPECT_GT(overflows, 0);
}

}  // namespace
}  // namespace ipa::storage
