// Tests for the maintenance extensions: Correct-and-Refresh scrubbing
// (paper Section 2.3) and static wear leveling.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ftl/noftl.h"

namespace ipa::ftl {
namespace {

flash::Geometry SmallSlc() {
  flash::Geometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 16;
  g.pages_per_block = 16;
  g.page_size = 512;
  g.oob_size = 64;
  g.max_programs_per_page = 4;
  return g;
}

std::vector<uint8_t> PageOf(uint8_t fill, uint32_t delta_off) {
  std::vector<uint8_t> p(512, fill);
  std::memset(p.data() + delta_off, 0xFF, 512 - delta_off);
  return p;
}

TEST(RefreshTest, DeviceRefreshRestoresLeakedCharge) {
  flash::Geometry g = SmallSlc();
  flash::FlashArray dev(g, flash::SlcTiming());
  std::vector<uint8_t> data(g.page_size, 0x00);
  ASSERT_TRUE(dev.ProgramPage(0, data.data()).ok());
  // Simulate a retention flip directly (0 -> 1).
  ASSERT_TRUE(dev.CorruptBits(0, 100, 0x08).ok());
  // Refresh with the corrected image: legal (clears the leaked bit).
  ASSERT_TRUE(dev.RefreshPage(0, data.data()).ok());
  std::vector<uint8_t> buf(g.page_size);
  ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf[100], 0x00);
  EXPECT_EQ(dev.stats().page_refreshes, 1u);
  // Refresh does not consume the append budget.
  EXPECT_EQ(dev.page_state(0).program_count, 1u);
}

TEST(RefreshTest, RefreshRejectsChargeDecrease) {
  flash::Geometry g = SmallSlc();
  flash::FlashArray dev(g, flash::SlcTiming());
  std::vector<uint8_t> data(g.page_size, 0x00);
  ASSERT_TRUE(dev.ProgramPage(0, data.data()).ok());
  std::vector<uint8_t> other(g.page_size, 0x01);  // needs 0 -> 1: illegal
  EXPECT_TRUE(dev.RefreshPage(0, other.data()).IsNotSupported());
  EXPECT_TRUE(dev.RefreshPage(1, data.data()).IsInvalidArgument());  // erased
}

TEST(ScrubTest, CorrectAndRefreshFixesStoredRetentionErrors) {
  flash::Geometry g = SmallSlc();
  flash::FlashArray dev(g, flash::SlcTiming());
  NoFtl ftl(&dev);
  RegionConfig rc;
  rc.name = "scrub";
  rc.logical_pages = 16;
  rc.ipa_mode = IpaMode::kSlc;
  rc.delta_area_offset = 416;
  rc.manage_ecc = true;
  auto r = ftl.CreateRegion(rc);
  ASSERT_TRUE(r.ok());

  auto page = PageOf(0x3C, rc.delta_area_offset);
  for (Lba lba = 0; lba < 8; lba++) {
    ASSERT_TRUE(ftl.WritePage(r.value(), lba, page.data()).ok());
  }
  // Deterministic aging: leak exactly one 0-bit per page (0 -> 1), within
  // the single-error correction capability of each 256B ECC segment.
  for (Lba lba = 0; lba < 8; lba++) {
    flash::Ppn ppn = ftl.PhysicalOf(r.value(), lba);
    ASSERT_TRUE(dev.CorruptBits(ppn, 100 + static_cast<uint32_t>(lba), 0x02).ok());
  }

  // Scrub: corrected pages are re-programmed in place.
  ASSERT_TRUE(ftl.ScrubRegion(r.value()).ok());
  EXPECT_EQ(ftl.region_stats(r.value()).scrub_refreshes, 8u);

  // After scrubbing, the *stored* images are clean again: direct device
  // reads (no ECC path) must match the original body.
  for (Lba lba = 0; lba < 8; lba++) {
    flash::Ppn ppn = ftl.PhysicalOf(r.value(), lba);
    const auto& ps = dev.page_state(ppn);
    for (uint32_t i = 0; i < rc.delta_area_offset; i++) {
      ASSERT_EQ(ps.data[i], 0x3C) << "lba " << lba << " byte " << i;
    }
  }
}

TEST(ScrubTest, RefreshAllWorksWithoutManagedEcc) {
  flash::Geometry g = SmallSlc();
  flash::FlashArray dev(g, flash::SlcTiming());
  NoFtl ftl(&dev);
  RegionConfig rc;
  rc.name = "plain";
  rc.logical_pages = 8;
  auto r = ftl.CreateRegion(rc);
  ASSERT_TRUE(r.ok());
  std::vector<uint8_t> page(512, 0x0F);
  ASSERT_TRUE(ftl.WritePage(r.value(), 0, page.data()).ok());
  ASSERT_TRUE(ftl.ScrubRegion(r.value(), /*refresh_all=*/true).ok());
  EXPECT_EQ(ftl.region_stats(r.value()).scrub_refreshes, 1u);
}

TEST(WearLevelTest, SwapReducesEraseSpread) {
  flash::Geometry g = SmallSlc();
  flash::FlashArray dev(g, flash::SlcTiming());
  NoFtl ftl(&dev);
  RegionConfig rc;
  rc.name = "wl";
  rc.logical_pages = 192;
  auto r = ftl.CreateRegion(rc);
  ASSERT_TRUE(r.ok());

  // Cold data: written once, never updated.
  std::vector<uint8_t> page(512, 0xCD);
  for (Lba lba = 100; lba < 140; lba++) {
    ASSERT_TRUE(ftl.WritePage(r.value(), lba, page.data()).ok());
  }
  // Hot churn on a few LBAs drives GC erases on the rest of the blocks.
  for (int round = 0; round < 200; round++) {
    for (Lba lba = 0; lba < 8; lba++) {
      page[0] = static_cast<uint8_t>(round);
      ASSERT_TRUE(ftl.WritePage(r.value(), lba, page.data()).ok());
    }
  }
  uint32_t spread_before = ftl.EraseSpread(r.value());
  ASSERT_GT(spread_before, 4u);

  // Repeated wear-leveling passes migrate cold data onto worn blocks.
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE(ftl.WearLevelRegion(r.value(), /*max_spread=*/2).ok());
  }
  EXPECT_GT(ftl.region_stats(r.value()).wear_level_swaps, 0u);
  EXPECT_GT(ftl.region_stats(r.value()).wear_level_migrations, 0u);

  // Data integrity after the swaps.
  std::vector<uint8_t> buf(512);
  for (Lba lba = 100; lba < 140; lba++) {
    ASSERT_TRUE(ftl.ReadPage(r.value(), lba, buf.data()).ok());
    EXPECT_EQ(buf[1], 0xCD) << lba;
  }
  // Churn again: erases now land on previously cold blocks too, keeping the
  // spread bounded relative to the no-WL run.
  for (int round = 0; round < 100; round++) {
    for (Lba lba = 0; lba < 8; lba++) {
      ASSERT_TRUE(ftl.WritePage(r.value(), lba, page.data()).ok());
    }
    if (round % 10 == 0) {
      ASSERT_TRUE(ftl.WearLevelRegion(r.value(), 2).ok());
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace ipa::ftl
