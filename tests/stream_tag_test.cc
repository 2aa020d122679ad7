// Stream-tag plumbing: every engine writer site must present its expected
// StreamTag at the FtlBackend boundary (asserted via a recording fake
// PageDevice), and tag-oblivious backends must stay byte-identical to the
// pre-stream WritePage path.
//
// Writer sites covered: WAL ring mirror (kWal), heap-page writeback (kHeap),
// B+tree node writeback incl. splits (kIndex), and the write_delta-rejected
// fold-back (kDeltaWriteback). The fifth stream, kGcRelocation, originates
// below this boundary — see tests/stream_ftl_test.cc.

#include <cstring>
#include <memory>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "engine/btree.h"
#include "engine/database.h"
#include "engine/wal.h"
#include "flash/flash_array.h"
#include "ftl/noftl.h"
#include "ftl/page_device.h"
#include "ftl/page_ftl.h"
#include "workload/testbed.h"

namespace ipa::engine {
namespace {

/// PageDevice fake that records the (lba, tag) of every full-page write and
/// can be configured to advertise write_delta and then reject it — the exact
/// shape that drives the buffer pool's kDeltaWriteback fallback.
class RecordingDevice : public ftl::PageDevice {
 public:
  struct Write {
    ftl::Lba lba;
    ftl::StreamTag tag;
  };

  RecordingDevice(uint32_t page_size, uint64_t pages,
                  bool claim_delta_possible = false)
      : page_size_(page_size),
        claim_delta_(claim_delta_possible),
        store_(pages, std::vector<uint8_t>(page_size, 0xFF)),
        mapped_(pages, false) {}

  Status ReadPage(ftl::Lba lba, uint8_t* out) override {
    std::memcpy(out, store_[lba].data(), page_size_);
    return Status::OK();
  }
  Status WritePage(ftl::Lba lba, const uint8_t* data, bool sync) override {
    return WriteTagged(lba, data, sync, ftl::StreamTag::kUntagged);
  }
  Status WriteTagged(ftl::Lba lba, const uint8_t* data, bool,
                     ftl::StreamTag tag) override {
    std::memcpy(store_[lba].data(), data, page_size_);
    mapped_[lba] = true;
    writes.push_back({lba, tag});
    return Status::OK();
  }
  Status WriteDelta(ftl::Lba, uint32_t, const uint8_t*, uint32_t,
                    bool) override {
    delta_attempts++;
    return Status::NotSupported("recording fake rejects write_delta");
  }
  bool DeltaWritePossible(ftl::Lba lba) const override {
    return claim_delta_ && lba < mapped_.size() && mapped_[lba];
  }
  bool IsMapped(ftl::Lba lba) const override {
    return lba < mapped_.size() && mapped_[lba];
  }
  uint32_t page_size() const override { return page_size_; }
  uint64_t capacity_pages() const override { return store_.size(); }

  uint64_t CountTag(ftl::StreamTag tag) const {
    uint64_t n = 0;
    for (const Write& w : writes) {
      if (w.tag == tag) n++;
    }
    return n;
  }

  std::vector<Write> writes;
  uint64_t delta_attempts = 0;

 private:
  uint32_t page_size_;
  bool claim_delta_;
  std::vector<std::vector<uint8_t>> store_;
  std::vector<bool> mapped_;
};

EngineConfig SmallEngine() {
  EngineConfig ec;
  ec.page_size = 4096;
  ec.buffer_pages = 32;
  ec.log_capacity_bytes = 4ull << 20;
  return ec;
}

TEST(StreamTag, WalMirrorWritesCarryWalStream) {
  RecordingDevice dev(4096, 64);
  Wal wal(1ull << 20);
  wal.BindLogDevice(&dev, /*base_lba=*/0, /*capacity_pages=*/8);

  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.txn = 1;
  rec.after.assign(512, 0xAB);
  for (int i = 0; i < 40; i++) wal.Append(rec);
  wal.FlushAll();

  ASSERT_FALSE(dev.writes.empty()) << "log force mirrored nothing";
  for (const auto& w : dev.writes) {
    EXPECT_EQ(w.tag, ftl::StreamTag::kWal);
    EXPECT_LT(w.lba, 8u) << "mirror escaped its ring";
  }
}

TEST(StreamTag, HeapWritebackCarriesHeapStream) {
  RecordingDevice dev(4096, 256);
  Database db(nullptr, SmallEngine());
  auto ts = db.CreateTablespaceOn("t", &dev, {});
  ASSERT_TRUE(ts.ok()) << ts.status().ToString();
  auto table = db.CreateTable("heap", ts.value());
  ASSERT_TRUE(table.ok());

  TxnId txn = db.Begin();
  std::vector<uint8_t> tuple(64, 0x22);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db.Insert(txn, table.value(), tuple).ok());
  }
  ASSERT_TRUE(db.Commit(txn).ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  ASSERT_FALSE(dev.writes.empty());
  for (const auto& w : dev.writes) {
    EXPECT_EQ(w.tag, ftl::StreamTag::kHeap)
        << "lba " << w.lba << " tagged " << ftl::StreamTagName(w.tag);
  }
}

TEST(StreamTag, IndexWritebackAndSplitsCarryIndexStream) {
  RecordingDevice dev(4096, 512);
  Database db(nullptr, SmallEngine());
  auto ts = db.CreateTablespaceOn("t", &dev, {});
  ASSERT_TRUE(ts.ok());

  auto bt = Btree::Create(&db, "idx", ts.value());
  ASSERT_TRUE(bt.ok()) << bt.status().ToString();
  // Enough keys to split leaves (several node allocations via
  // AllocateIndexPage), so split-born pages are classified too.
  for (uint64_t k = 0; k < 600; k++) {
    ASSERT_TRUE(bt.value().Insert(k, k * 7 + 1).ok()) << "key " << k;
  }
  EXPECT_GT(db.table_page_count(bt.value().table()), 1u)
      << "no split happened; raise the key count";
  ASSERT_TRUE(db.Checkpoint().ok());

  ASSERT_FALSE(dev.writes.empty());
  for (const auto& w : dev.writes) {
    EXPECT_EQ(w.tag, ftl::StreamTag::kIndex)
        << "lba " << w.lba << " tagged " << ftl::StreamTagName(w.tag);
  }
}

TEST(StreamTag, DeltaRejectedFoldbackCarriesDeltaWritebackStream) {
  // The device advertises write_delta, so PlanEviction picks kInPlaceAppend
  // for a small update — then the device rejects it and the buffer pool must
  // fold the page back as a kDeltaWriteback-tagged full write.
  RecordingDevice dev(4096, 256, /*claim_delta_possible=*/true);
  Database db(nullptr, SmallEngine());
  storage::Scheme scheme{.n = 4, .m = 4, .v = 12};
  auto ts = db.CreateTablespaceOn("t", &dev, scheme);
  ASSERT_TRUE(ts.ok());
  auto table = db.CreateTable("heap", ts.value());
  ASSERT_TRUE(table.ok());

  TxnId txn = db.Begin();
  std::vector<uint8_t> tuple(64, 0x33);
  auto rid = db.Insert(txn, table.value(), tuple);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(db.Commit(txn).ok());
  ASSERT_TRUE(db.Checkpoint().ok());  // first flush: OOP, page now mapped
  ASSERT_EQ(dev.delta_attempts, 0u);

  txn = db.Begin();
  std::vector<uint8_t> patch = {0x44, 0x55};
  ASSERT_TRUE(db.Update(txn, rid.value(), 0, patch).ok());
  ASSERT_TRUE(db.Commit(txn).ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  EXPECT_GT(dev.delta_attempts, 0u)
      << "small update never reached write_delta; the fallback path is dead";
  EXPECT_EQ(dev.writes.back().tag, ftl::StreamTag::kDeltaWriteback);
  EXPECT_EQ(dev.writes.back().lba, rid.value().page.lba());
}

// Tag-oblivious backends: WriteTagged must be behavior-identical to
// WritePage — same physical placement, same counters, same read-back — no
// matter which tag is passed. This pins the pre-stream behavior of the
// legacy backends bit for bit.
/// The fuzz stacks' small shape over one bare region or page-mapping FTL.
std::unique_ptr<workload::Stack> BareStack(
    std::variant<ftl::RegionConfig, ftl::PageFtlConfig> ftl) {
  workload::StackSpec spec = workload::SmallSpec();
  spec.regions.push_back({std::move(ftl), "", {.n = 2, .m = 4, .v = 12}});
  return workload::Build(spec).value();
}

TEST(StreamTag, PageFtlIgnoresTagsBitIdentically) {
  ftl::PageFtlConfig pc{.name = "t", .logical_pages = 64};
  std::unique_ptr<workload::Stack> sa = BareStack(pc), sb = BareStack(pc);
  ftl::PageFtl* a = sa->pageftl.get();
  ftl::PageFtl* b = sb->pageftl.get();
  flash::FlashArray& dev_a = *sa->dev;
  flash::FlashArray& dev_b = *sb->dev;
  const flash::Geometry& g = dev_a.geometry();

  std::vector<uint8_t> img(g.page_size);
  for (uint64_t round = 0; round < 6; round++) {
    for (ftl::Lba lba = 0; lba < 16; lba++) {
      for (uint32_t i = 0; i < g.page_size; i++) {
        img[i] = static_cast<uint8_t>(round * 31 + lba * 7 + i);
      }
      ftl::StreamTag tag =
          static_cast<ftl::StreamTag>((round + lba) % ftl::kNumStreams);
      ASSERT_TRUE(a->WritePage(lba, img.data(), true).ok());
      ASSERT_TRUE(b->WriteTagged(lba, img.data(), true, tag).ok());
    }
  }
  std::vector<uint8_t> ra(g.page_size), rb(g.page_size);
  for (ftl::Lba lba = 0; lba < 16; lba++) {
    EXPECT_EQ(a->PhysicalOf(lba), b->PhysicalOf(lba))
        << "placement diverged at lba " << lba;
    ASSERT_TRUE(a->ReadPage(lba, ra.data()).ok());
    ASSERT_TRUE(b->ReadPage(lba, rb.data()).ok());
    EXPECT_EQ(ra, rb);
  }
  EXPECT_EQ(a->stats().host_page_writes,
            b->stats().host_page_writes);
  EXPECT_EQ(a->stats().gc_page_migrations,
            b->stats().gc_page_migrations);
  EXPECT_EQ(a->stats().gc_erases, b->stats().gc_erases);
  EXPECT_EQ(dev_a.stats().page_programs, dev_b.stats().page_programs);
  EXPECT_EQ(dev_a.stats().block_erases, dev_b.stats().block_erases);
}

TEST(StreamTag, NoFtlRegionIgnoresTagsBitIdentically) {
  ftl::RegionConfig rc{
      .name = "t", .logical_pages = 64, .ipa_mode = ftl::IpaMode::kSlc};
  std::unique_ptr<workload::Stack> sa = BareStack(rc), sb = BareStack(rc);
  ftl::PageDevice* a = sa->backend;
  ftl::PageDevice* b = sb->backend;
  flash::FlashArray& dev_a = *sa->dev;
  flash::FlashArray& dev_b = *sb->dev;
  const flash::Geometry& g = dev_a.geometry();

  std::vector<uint8_t> img(g.page_size);
  for (uint64_t round = 0; round < 4; round++) {
    for (ftl::Lba lba = 0; lba < 16; lba++) {
      for (uint32_t i = 0; i < g.page_size; i++) {
        img[i] = static_cast<uint8_t>(round * 17 + lba * 5 + i);
      }
      ftl::StreamTag tag =
          static_cast<ftl::StreamTag>((round + lba) % ftl::kNumStreams);
      ASSERT_TRUE(a->WritePage(lba, img.data(), true).ok());
      ASSERT_TRUE(b->WriteTagged(lba, img.data(), true, tag).ok());
    }
  }
  std::vector<uint8_t> ra(g.page_size), rb(g.page_size);
  for (ftl::Lba lba = 0; lba < 16; lba++) {
    ASSERT_TRUE(a->ReadPage(lba, ra.data()).ok());
    ASSERT_TRUE(b->ReadPage(lba, rb.data()).ok());
    EXPECT_EQ(ra, rb) << "lba " << lba;
  }
  EXPECT_EQ(dev_a.stats().page_programs, dev_b.stats().page_programs);
  EXPECT_EQ(dev_a.stats().block_erases, dev_b.stats().block_erases);
  EXPECT_EQ(dev_a.stats().delta_programs, dev_b.stats().delta_programs);
}

}  // namespace
}  // namespace ipa::engine
