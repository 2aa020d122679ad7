// B+tree tests: ordered inserts, random inserts, splits, scans, removals.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "engine/btree.h"
#include "storage/delta_record.h"
#include "storage/slotted_page.h"
#include "workload/testbed.h"

namespace ipa::engine {
namespace {

struct TreeFixture {
  explicit TreeFixture(uint32_t buffer_pages = 256, uint64_t pages = 4096)
      : stack(workload::Build(Spec(buffer_pages, pages)).value()) {}

  static workload::StackSpec Spec(uint32_t buffer_pages, uint64_t pages) {
    workload::StackSpec spec;
    spec.geometry = {.channels = 2,
                     .chips_per_channel = 2,
                     .blocks_per_chip = 64,
                     .pages_per_block = 32};
    spec.regions.push_back({ftl::RegionConfig{.name = "idx",
                                              .logical_pages = pages,
                                              .ipa_mode = ftl::IpaMode::kSlc},
                            "idx",
                            {.n = 2, .m = 3, .v = 12}});
    spec.engine.buffer_pages = buffer_pages;
    spec.engine.log_capacity_bytes = 8 << 20;
    return spec;
  }

  std::unique_ptr<workload::Stack> stack;
  std::unique_ptr<Database>& db = stack->db;
  TablespaceId ts = stack->ts;
};

TEST(BtreeTest, EmptyLookupFails) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree.value().Lookup(42).status().IsNotFound());
}

TEST(BtreeTest, InsertLookupSmall) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(t.Insert(k, k * 10).ok());
  }
  for (uint64_t k = 0; k < 100; k++) {
    auto v = t.Lookup(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(v.value(), k * 10);
  }
  EXPECT_TRUE(t.Lookup(100).status().IsNotFound());
}

TEST(BtreeTest, OverwriteReplacesValue) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree.value().Insert(7, 1).ok());
  ASSERT_TRUE(tree.value().Insert(7, 2).ok());
  auto v = tree.value().Lookup(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 2u);
}

TEST(BtreeTest, SequentialInsertsForceSplitsAndStayOrdered) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  constexpr uint64_t kN = 5000;
  for (uint64_t k = 0; k < kN; k++) {
    ASSERT_TRUE(t.Insert(k, ~k).ok()) << k;
  }
  EXPECT_GT(t.height(), 1u);
  uint64_t prev = 0;
  uint64_t count = 0;
  ASSERT_TRUE(t.Scan(0, ~0ull, [&](uint64_t k, uint64_t v) {
                 EXPECT_EQ(v, ~k);
                 if (count > 0) {
                   EXPECT_GT(k, prev);
                 }
                 prev = k;
                 count++;
                 return true;
               }).ok());
  EXPECT_EQ(count, kN);
}

TEST(BtreeTest, RandomInsertsMatchReferenceMap) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  Rng rng(99);
  std::map<uint64_t, uint64_t> ref;
  for (int i = 0; i < 4000; i++) {
    uint64_t k = rng.Uniform(100000);
    uint64_t v = rng.Next();
    ref[k] = v;
    ASSERT_TRUE(t.Insert(k, v).ok()) << i;
  }
  for (const auto& [k, v] : ref) {
    auto got = t.Lookup(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(got.value(), v) << k;
  }
}

TEST(BtreeTest, RangeScanBounds) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  for (uint64_t k = 0; k < 1000; k += 2) {
    ASSERT_TRUE(t.Insert(k, k).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(t.Scan(100, 110, [&](uint64_t k, uint64_t) {
                 seen.push_back(k);
                 return true;
               }).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{100, 102, 104, 106, 108, 110}));
}

TEST(BtreeTest, RemoveThenLookupFails) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  for (uint64_t k = 0; k < 500; k++) ASSERT_TRUE(t.Insert(k, k).ok());
  for (uint64_t k = 0; k < 500; k += 3) ASSERT_TRUE(t.Remove(k).ok());
  for (uint64_t k = 0; k < 500; k++) {
    auto v = t.Lookup(k);
    if (k % 3 == 0) {
      EXPECT_TRUE(v.status().IsNotFound()) << k;
    } else {
      ASSERT_TRUE(v.ok()) << k;
    }
  }
  EXPECT_TRUE(t.Remove(0).IsNotFound());
}

TEST(BtreeTest, WorksUnderTinyBufferPool) {
  // Index larger than the pool: exercises fetch/evict of index pages and the
  // IPA write path on index nodes.
  TreeFixture f(/*buffer_pages=*/8);
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  for (uint64_t k = 0; k < 3000; k++) {
    ASSERT_TRUE(t.Insert(k * 7 % 3000, k).ok()) << k;
  }
  uint64_t count = 0;
  ASSERT_TRUE(t.Scan(0, ~0ull, [&](uint64_t, uint64_t) {
                 count++;
                 return true;
               }).ok());
  EXPECT_EQ(count, 3000u);
}

// A tablespace of three pages holds a root and two leaves. Once it is full,
// an insert whose split cannot get a page fails with OutOfSpace and changes
// no node, so the full leaf stays within its entry area: the 500 inserts
// after it fail the same way instead of moving entries over the node's delta
// area and then past its frame.
TEST(BtreeTest, FullTablespaceFailsSplitsWithoutOverflowingNodes) {
  constexpr uint64_t kPages = 3;
  TreeFixture f(/*buffer_pages=*/16, kPages);
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  uint64_t acked = 0;
  Status s;
  while ((s = t.Insert(acked, ~acked)).ok()) acked++;
  ASSERT_TRUE(s.IsOutOfSpace()) << s.ToString();
  EXPECT_EQ(t.height(), 2u);
  int refused = 0;
  for (uint64_t k = acked; k < acked + 500; k++) refused += t.Insert(k, ~k).IsOutOfSpace();
  EXPECT_EQ(refused, 500);
  for (uint64_t k = 0; k < acked; k++) {
    auto v = t.Lookup(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(v.value(), ~k);
  }
  EXPECT_TRUE(t.Lookup(acked).status().IsNotFound());
  // Nothing has been flushed yet, so every node's delta area is still erased.
  uint32_t page_size = f.db->config().page_size;
  for (uint64_t lba = 0; lba < kPages; lba++) {
    auto frame = f.db->buffer_pool().Fix(PageId(f.ts, lba));
    ASSERT_TRUE(frame.ok());
    const uint8_t* page = frame.value()->data();
    storage::ConstSlottedPage view(page, page_size);
    for (uint32_t i = view.delta_off(); i < page_size; i++) {
      ASSERT_EQ(page[i], 0xFF) << "page " << lba << " offset " << i;
    }
    f.db->buffer_pool().Unfix(frame.value(), false);
  }
}

// A leaf fetched from flash and then changed by an insert and a remove:
// the flash page keeps its bytes until the flush, and afterwards holds the
// frame's image (with any appended delta records applied).
TEST(BtreeTest, LeafChangesLeaveFlashImageUntilFlush) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  for (uint64_t k = 0; k < 20; k++) ASSERT_TRUE(t.Insert(k * 2, k).ok());
  ASSERT_EQ(t.height(), 1u);  // the root is the only leaf
  ASSERT_TRUE(f.db->buffer_pool().FlushAll().ok());
  f.db->buffer_pool().DropAllNoFlush();

  const uint32_t page_size = f.db->config().page_size;
  const PageId leaf(f.ts, 0);
  auto flash_bytes = [&] {
    flash::Ppn ppn = f.stack->noftl->PhysicalOf(f.stack->region, leaf.lba());
    const uint8_t* d = f.stack->dev->page_state(ppn).data.data();
    return std::vector<uint8_t>(d, d + page_size);
  };
  const std::vector<uint8_t> before = flash_bytes();
  ASSERT_TRUE(t.Insert(7, 70).ok());
  EXPECT_EQ(flash_bytes(), before) << "insert wrote into the flash image";
  ASSERT_TRUE(t.Remove(4).ok());
  EXPECT_EQ(flash_bytes(), before) << "remove wrote into the flash image";

  ASSERT_TRUE(f.db->buffer_pool().FlushAll().ok());
  std::vector<uint8_t> after = flash_bytes();
  storage::ApplyDeltaRecords(after.data(), page_size);
  auto frame = f.db->buffer_pool().Fix(leaf);
  ASSERT_TRUE(frame.ok());
  const uint8_t* cur = frame.value()->data();
  EXPECT_EQ(after, std::vector<uint8_t>(cur, cur + page_size));
  f.db->buffer_pool().Unfix(frame.value(), false);
  EXPECT_TRUE(t.Lookup(7).ok());
  EXPECT_TRUE(t.Lookup(4).status().IsNotFound());
}

// Mixed insert/overwrite/remove fuzz against a reference map, with interim
// range-scan verification.
class BtreeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BtreeFuzz, MixedOpsMatchReference) {
  TreeFixture f;
  auto tree = Btree::Create(f.db.get(), "t", f.ts);
  ASSERT_TRUE(tree.ok());
  Btree& t = tree.value();
  Rng rng(500 + GetParam());
  std::map<uint64_t, uint64_t> ref;

  for (int op = 0; op < 8000; op++) {
    double p = rng.NextDouble();
    uint64_t k = rng.Uniform(5000);
    if (p < 0.6) {
      uint64_t v = rng.Next();
      ASSERT_TRUE(t.Insert(k, v).ok());
      ref[k] = v;
    } else if (p < 0.85) {
      Status s = t.Remove(k);
      if (ref.erase(k) > 0) {
        ASSERT_TRUE(s.ok()) << k;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << k;
      }
    } else {
      auto got = t.Lookup(k);
      auto it = ref.find(k);
      if (it == ref.end()) {
        ASSERT_TRUE(got.status().IsNotFound()) << k;
      } else {
        ASSERT_TRUE(got.ok()) << k;
        ASSERT_EQ(got.value(), it->second) << k;
      }
    }
    if (op % 2000 == 1999) {
      // Full-scan equivalence.
      auto it = ref.begin();
      uint64_t seen = 0;
      ASSERT_TRUE(t.Scan(0, ~0ull, [&](uint64_t key, uint64_t value) {
                      EXPECT_NE(it, ref.end());
                      if (it == ref.end()) return false;
                      EXPECT_EQ(key, it->first);
                      EXPECT_EQ(value, it->second);
                      ++it;
                      seen++;
                      return true;
                    }).ok());
      ASSERT_EQ(seen, ref.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace ipa::engine
