// Tests for the conventional-SSD deployment (BlackboxSsd): the write_delta
// extension, the scheme-hint control command, controller-side ECC, and the
// engine running unchanged on top of the PageDevice interface.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "engine/database.h"
#include "ftl/blackbox_ssd.h"

namespace ipa::ftl {
namespace {

BlackboxSsdConfig BaseConfig(bool extension) {
  BlackboxSsdConfig c;
  c.logical_pages = 1024;
  c.page_size = 4096;
  c.write_delta_extension = extension;
  return c;
}

std::vector<uint8_t> PageOf(uint8_t fill, uint32_t delta_off) {
  std::vector<uint8_t> p(4096, fill);
  std::memset(p.data() + delta_off, 0xFF, 4096 - delta_off);
  return p;
}

TEST(BlackboxSsdTest, PlainSsdReadsAndWrites) {
  BlackboxSsd ssd(BaseConfig(false));
  std::vector<uint8_t> page(4096, 0x42);
  ASSERT_TRUE(ssd.WritePage(7, page.data(), true).ok());
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(ssd.ReadPage(7, buf.data()).ok());
  EXPECT_EQ(buf, page);
  EXPECT_TRUE(ssd.IsMapped(7));
  EXPECT_FALSE(ssd.IsMapped(8));
}

TEST(BlackboxSsdTest, PlainSsdRejectsWriteDelta) {
  BlackboxSsd ssd(BaseConfig(false));
  std::vector<uint8_t> page(4096, 0x42);
  ASSERT_TRUE(ssd.WritePage(0, page.data(), true).ok());
  uint8_t d[4] = {1, 2, 3, 4};
  EXPECT_TRUE(ssd.WriteDelta(0, 4000, d, 4, true).IsNotSupported());
  EXPECT_FALSE(ssd.DeltaWritePossible(0));
  EXPECT_TRUE(ssd.SetSchemeHint(4000).IsNotSupported());
}

TEST(BlackboxSsdTest, ExtensionRequiresHintBeforeUse) {
  BlackboxSsd ssd(BaseConfig(true));
  std::vector<uint8_t> page(4096, 0x42);
  // Unformatted: no I/O accepted.
  EXPECT_FALSE(ssd.WritePage(0, page.data(), true).ok());
  ASSERT_TRUE(ssd.SetSchemeHint(4004).ok());
  auto p = PageOf(0x42, 4004);
  EXPECT_TRUE(ssd.WritePage(0, p.data(), true).ok());
  // Hint cannot change after data exists.
  EXPECT_TRUE(ssd.SetSchemeHint(4004).IsInvalidArgument());
}

TEST(BlackboxSsdTest, WriteDeltaStaysInPlaceAndEccCovers) {
  BlackboxSsd ssd(BaseConfig(true));
  ASSERT_TRUE(ssd.SetSchemeHint(4004).ok());
  auto p = PageOf(0x11, 4004);
  ASSERT_TRUE(ssd.WritePage(3, p.data(), true).ok());
  uint64_t writes_before = ssd.stats().host_page_writes;

  uint8_t delta[6] = {9, 8, 7, 6, 5, 4};
  ASSERT_TRUE(ssd.WriteDelta(3, 4004, delta, 6, true).ok());
  EXPECT_EQ(ssd.stats().host_page_writes, writes_before);  // no new page
  EXPECT_EQ(ssd.stats().host_delta_writes, 1u);

  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(ssd.ReadPage(3, buf.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data() + 4004, delta, 6), 0);

  // The controller rejects body-region delta writes.
  EXPECT_TRUE(ssd.WriteDelta(3, 100, delta, 6, true).IsInvalidArgument());
}

TEST(BlackboxSsdTest, InterfaceLatencyCharged) {
  BlackboxSsdConfig c = BaseConfig(false);
  c.interface_latency_us = 100;
  BlackboxSsd ssd(c);
  std::vector<uint8_t> page(4096, 0x01);
  SimTime t0 = ssd.clock().Now();
  ASSERT_TRUE(ssd.WritePage(0, page.data(), true).ok());
  SimTime write_cost = ssd.clock().Now() - t0;
  EXPECT_GE(write_cost, 100u + 200u);  // interface + program time
}

TEST(BlackboxSsdTest, EngineRunsOnConventionalSsd) {
  // The whole engine over the SSD's PageDevice interface, IPA end to end.
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  BlackboxSsdConfig c = BaseConfig(true);
  c.logical_pages = 2048;
  BlackboxSsd ssd(c);
  ASSERT_TRUE(ssd.SetSchemeHint(4096 - scheme.AreaBytes()).ok());

  engine::EngineConfig ec;
  ec.buffer_pages = 32;
  engine::Database db(nullptr, ec);
  auto ts = db.CreateTablespaceOn("ssd", &ssd, scheme);
  ASSERT_TRUE(ts.ok());
  auto table = db.CreateTable("t", ts.value());
  ASSERT_TRUE(table.ok());

  engine::TxnId txn = db.Begin();
  std::vector<engine::Rid> rids;
  for (int i = 0; i < 50; i++) {
    std::vector<uint8_t> t(100, static_cast<uint8_t>(i));
    auto rid = db.Insert(txn, table.value(), t);
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_TRUE(db.Commit(txn).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  ssd.ResetStats();

  // Small updates -> write_delta on the SSD.
  for (int round = 0; round < 3; round++) {
    engine::TxnId u = db.Begin();
    uint8_t v = static_cast<uint8_t>(round);
    ASSERT_TRUE(db.Update(u, rids[static_cast<size_t>(round)], 0, {&v, 1}).ok());
    ASSERT_TRUE(db.Commit(u).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  EXPECT_GT(ssd.stats().host_delta_writes, 0u);

  // Data integrity after eviction.
  db.buffer_pool().DropAllNoFlush();
  engine::TxnId check = db.Begin();
  auto read = db.Read(check, rids[0]);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value()[0], 0x00);
  ASSERT_TRUE(db.Commit(check).ok());
}

}  // namespace
}  // namespace ipa::ftl
