// Tests for the NoFTL layer: regions, mapping, write_delta, GC, modes, ECC.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "ftl/noftl.h"
#include "published.h"

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
  g.cell_type = flash::CellType::kSlc;
  g.max_programs_per_page = 4;
  return g;
}

flash::Geometry SmallMlc() {
  flash::Geometry g = SmallSlc();
  g.cell_type = flash::CellType::kMlc;
  return g;
}

std::vector<uint8_t> PageOf(uint32_t size, uint8_t fill, uint32_t delta_off) {
  std::vector<uint8_t> p(size, fill);
  std::memset(p.data() + delta_off, 0xFF, size - delta_off);
  return p;
}

struct Fixture {
  flash::FlashArray dev;
  NoFtl ftl;
  RegionId region = 0;
  uint32_t delta_off;

  explicit Fixture(flash::Geometry g, IpaMode mode = IpaMode::kSlc,
                   uint64_t logical_pages = 128, bool ecc = false)
      : dev(g, flash::TimingFor(g.cell_type)), ftl(&dev), delta_off(g.page_size - 96) {
    RegionConfig rc;
    rc.name = "test";
    rc.logical_pages = logical_pages;
    rc.ipa_mode = mode;
    rc.delta_area_offset = mode == IpaMode::kOff ? 0 : delta_off;
    rc.manage_ecc = ecc;
    auto r = ftl.CreateRegion(rc);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    region = r.value();
  }
};

TEST(NoFtlTest, UnwrittenPageReadsErased) {
  Fixture f(SmallSlc());
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(f.ftl.ReadPage(f.region, 5, buf.data()).ok());
  for (uint8_t b : buf) EXPECT_EQ(b, 0xFF);
  EXPECT_FALSE(f.ftl.IsMapped(f.region, 5));
}

TEST(NoFtlTest, WriteReadRoundTrip) {
  Fixture f(SmallSlc());
  auto page = PageOf(512, 0x42, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 7, page.data()).ok());
  EXPECT_TRUE(f.ftl.IsMapped(f.region, 7));
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(f.ftl.ReadPage(f.region, 7, buf.data()).ok());
  EXPECT_EQ(buf, page);
  EXPECT_EQ(f.ftl.region_stats(f.region).host_page_writes, 1u);
  EXPECT_EQ(f.ftl.region_stats(f.region).host_reads, 1u);
}

TEST(NoFtlTest, RewriteGoesOutOfPlace) {
  Fixture f(SmallSlc());
  auto page = PageOf(512, 0x11, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 3, page.data()).ok());
  flash::Ppn first = f.ftl.PhysicalOf(f.region, 3);
  page[100] = 0x22;
  ASSERT_TRUE(f.ftl.WritePage(f.region, 3, page.data()).ok());
  flash::Ppn second = f.ftl.PhysicalOf(f.region, 3);
  EXPECT_NE(first, second);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(f.ftl.ReadPage(f.region, 3, buf.data()).ok());
  EXPECT_EQ(buf[100], 0x22);
}

TEST(NoFtlTest, WriteDeltaStaysInPlace) {
  Fixture f(SmallSlc());
  auto page = PageOf(512, 0x00, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 3, page.data()).ok());
  flash::Ppn before = f.ftl.PhysicalOf(f.region, 3);

  uint8_t delta[6] = {1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(f.ftl.WriteDelta(f.region, 3, f.delta_off, delta, 6).ok());
  EXPECT_EQ(f.ftl.PhysicalOf(f.region, 3), before);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(f.ftl.ReadPage(f.region, 3, buf.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data() + f.delta_off, delta, 6), 0);
  EXPECT_EQ(f.ftl.region_stats(f.region).host_delta_writes, 1u);
  EXPECT_DOUBLE_EQ(f.ftl.region_stats(f.region).IpaSharePercent(), 50.0);
}

TEST(NoFtlTest, WriteDeltaRejectedWhenIpaOff) {
  Fixture f(SmallSlc(), IpaMode::kOff);
  auto page = PageOf(512, 0x00, 512);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 0, page.data()).ok());
  uint8_t d[2] = {1, 2};
  EXPECT_TRUE(f.ftl.WriteDelta(f.region, 0, 400, d, 2).IsNotSupported());
  EXPECT_FALSE(f.ftl.DeltaWritePossible(f.region, 0));
}

TEST(NoFtlTest, DeltaBudgetReflectsDeviceLimit) {
  auto g = SmallSlc();
  g.max_programs_per_page = 3;  // initial + 2 appends
  Fixture f(g);
  auto page = PageOf(512, 0x00, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 0, page.data()).ok());
  EXPECT_EQ(f.ftl.DeltaAppendsRemaining(f.region, 0), 2u);
  uint8_t d[1] = {0x01};
  ASSERT_TRUE(f.ftl.WriteDelta(f.region, 0, f.delta_off, d, 1).ok());
  ASSERT_TRUE(f.ftl.WriteDelta(f.region, 0, f.delta_off + 1, d, 1).ok());
  EXPECT_EQ(f.ftl.DeltaAppendsRemaining(f.region, 0), 0u);
  EXPECT_TRUE(
      f.ftl.WriteDelta(f.region, 0, f.delta_off + 2, d, 1).IsNotSupported());
}

TEST(NoFtlTest, GarbageCollectionReclaimsAndPreservesData) {
  auto g = SmallSlc();
  Fixture f(g, IpaMode::kSlc, /*logical_pages=*/256);
  // Hammer a small logical range so invalid pages accumulate.
  std::vector<uint8_t> buf(512);
  for (uint32_t round = 0; round < 40; round++) {
    for (ftl::Lba lba = 0; lba < 32; lba++) {
      auto page = PageOf(512, static_cast<uint8_t>(round ^ lba), f.delta_off);
      ASSERT_TRUE(f.ftl.WritePage(f.region, lba, page.data()).ok());
    }
  }
  const RegionStats& st = f.ftl.region_stats(f.region);
  EXPECT_GT(st.gc_erases, 0u);
  // All data still correct after GC migrations.
  for (ftl::Lba lba = 0; lba < 32; lba++) {
    ASSERT_TRUE(f.ftl.ReadPage(f.region, lba, buf.data()).ok());
    EXPECT_EQ(buf[0], static_cast<uint8_t>(39 ^ lba));
  }
}

TEST(NoFtlTest, DeltaSurvivesGcMigration) {
  auto g = SmallSlc();
  Fixture f(g, IpaMode::kSlc, 256);
  auto page = PageOf(512, 0x07, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 100, page.data()).ok());
  uint8_t delta[4] = {9, 8, 7, 6};
  ASSERT_TRUE(f.ftl.WriteDelta(f.region, 100, f.delta_off, delta, 4).ok());
  // Force GC by churning other LBAs.
  for (uint32_t round = 0; round < 60; round++) {
    for (ftl::Lba lba = 0; lba < 16; lba++) {
      auto p2 = PageOf(512, static_cast<uint8_t>(round), f.delta_off);
      ASSERT_TRUE(f.ftl.WritePage(f.region, lba, p2.data()).ok());
    }
  }
  ASSERT_GT(f.ftl.region_stats(f.region).gc_erases, 0u);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(f.ftl.ReadPage(f.region, 100, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x07);
  EXPECT_EQ(std::memcmp(buf.data() + f.delta_off, delta, 4), 0);
}

TEST(NoFtlTest, PSlcUsesOnlyLsbPages) {
  Fixture f(SmallMlc(), IpaMode::kPSlc, 64);
  const auto& g = f.dev.geometry();
  for (ftl::Lba lba = 0; lba < 40; lba++) {
    auto page = PageOf(512, static_cast<uint8_t>(lba), f.delta_off);
    ASSERT_TRUE(f.ftl.WritePage(f.region, lba, page.data()).ok());
    flash::Ppn ppn = f.ftl.PhysicalOf(f.region, lba);
    EXPECT_TRUE(flash::IsLsbPage(g, static_cast<uint32_t>(ppn % g.pages_per_block)))
        << "lba " << lba;
  }
  // Deltas work on every page in pSLC mode.
  uint8_t d[2] = {0x21, 0x43};
  ASSERT_TRUE(f.ftl.WriteDelta(f.region, 11, f.delta_off, d, 2).ok());
}

TEST(NoFtlTest, OddMlcFallsBackOnMsbPages) {
  uint64_t published = Published("ftl.delta_fallbacks");
  uint32_t lsb_ok = 0, msb_rejected = 0;
  {
    Fixture f(SmallMlc(), IpaMode::kOddMlc, 64);
    const auto& g = f.dev.geometry();
    uint8_t d[2] = {0x21, 0x43};
    for (ftl::Lba lba = 0; lba < 32; lba++) {
      auto page = PageOf(512, static_cast<uint8_t>(lba), f.delta_off);
      ASSERT_TRUE(f.ftl.WritePage(f.region, lba, page.data()).ok());
      flash::Ppn ppn = f.ftl.PhysicalOf(f.region, lba);
      bool lsb = flash::IsLsbPage(g, static_cast<uint32_t>(ppn % g.pages_per_block));
      Status s = f.ftl.WriteDelta(f.region, lba, f.delta_off, d, 2);
      if (lsb) {
        EXPECT_TRUE(s.ok()) << "lba " << lba;
        lsb_ok++;
      } else {
        EXPECT_TRUE(s.IsNotSupported()) << "lba " << lba;
        msb_rejected++;
      }
    }
    EXPECT_EQ(f.ftl.region_stats(f.region).delta_fallbacks, msb_rejected);
  }
  EXPECT_GT(lsb_ok, 0u);
  EXPECT_GT(msb_rejected, 0u);
  EXPECT_EQ(Published("ftl.delta_fallbacks") - published, msb_rejected);
}

TEST(NoFtlTest, ManagedEccDetectsAndFixesSingleBitErrors) {
  auto g = SmallSlc();
  flash::ErrorModel e;
  e.retention_flip_per_read = 0.8;
  flash::FlashArray dev(g, flash::SlcTiming(), e);
  NoFtl ftl(&dev);
  RegionConfig rc;
  rc.name = "ecc";
  rc.logical_pages = 32;
  rc.ipa_mode = IpaMode::kSlc;
  rc.delta_area_offset = g.page_size - 96;
  rc.manage_ecc = true;
  auto r = ftl.CreateRegion(rc);
  ASSERT_TRUE(r.ok());

  auto page = PageOf(512, 0x5C, rc.delta_area_offset);
  ASSERT_TRUE(ftl.WritePage(r.value(), 0, page.data()).ok());
  std::vector<uint8_t> buf(512);
  uint64_t corrected = 0;
  for (int i = 0; i < 40; i++) {
    Status s = ftl.ReadPage(r.value(), 0, buf.data());
    if (!s.ok()) break;  // accumulated >1 flip per segment: uncorrectable
    for (uint32_t j = 0; j < rc.delta_area_offset; j++) {
      ASSERT_EQ(buf[j], 0x5C) << "read " << i << " byte " << j;
    }
    corrected = ftl.region_stats(r.value()).ecc_corrected_bits;
  }
  EXPECT_GT(corrected, 0u);
}

TEST(NoFtlTest, ManagedEccCoversDeltas) {
  auto g = SmallSlc();
  Fixture f(g, IpaMode::kSlc, 32, /*ecc=*/true);
  auto page = PageOf(512, 0x33, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 0, page.data()).ok());
  uint8_t delta[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(f.ftl.WriteDelta(f.region, 0, f.delta_off, delta, 8).ok());
  // Corrupt one bit of the delta directly in the array.
  flash::Ppn ppn = f.ftl.PhysicalOf(f.region, 0);
  ASSERT_TRUE(f.dev.CorruptBits(ppn, f.delta_off + 3, 0x10).ok());
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(f.ftl.ReadPage(f.region, 0, buf.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data() + f.delta_off, delta, 8), 0);
  EXPECT_GE(f.ftl.region_stats(f.region).ecc_corrected_bits, 1u);
}

// A managed-ECC read shares the stored image when nothing needs repair. A
// flipped bit, in the body or in a delta, is repaired in a private copy:
// the host gets the written bytes and the stored page keeps the flip.
TEST(NoFtlTest, ReadImageSharesCleanPagesAndRepairsACopy) {
  Fixture f(SmallSlc(), IpaMode::kSlc, 32, /*ecc=*/true);
  auto page = PageOf(512, 0x33, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 0, page.data()).ok());
  uint8_t delta[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(f.ftl.WriteDelta(f.region, 0, f.delta_off, delta, 8).ok());
  std::memcpy(page.data() + f.delta_off, delta, 8);
  flash::Ppn ppn = f.ftl.PhysicalOf(f.region, 0);
  flash::PageImagePool pool(512);

  flash::PageImage clean;
  ASSERT_TRUE(f.ftl.ReadImage(f.region, 0, pool, &clean).ok());
  EXPECT_EQ(clean.data(), f.dev.page_state(ppn).data.data());

  for (uint32_t byte : {7u, f.delta_off + 3}) {
    SCOPED_TRACE(byte);
    ASSERT_TRUE(f.dev.CorruptBits(ppn, byte, 0x10).ok());
    flash::PageImage read;
    ASSERT_TRUE(f.ftl.ReadImage(f.region, 0, pool, &read).ok());
    const flash::PageImage& stored = f.dev.page_state(ppn).data;
    EXPECT_NE(read.data(), stored.data());
    EXPECT_EQ(std::vector<uint8_t>(read.data(), read.data() + 512), page);
    EXPECT_EQ(stored[byte], page[byte] ^ 0x10);
    EXPECT_EQ(clean[byte], page[byte]) << "the first read's image changed";
    ASSERT_TRUE(f.dev.CorruptBits(ppn, byte, 0x10).ok());  // flip it back
  }
  EXPECT_EQ(f.ftl.region_stats(f.region).ecc_corrected_bits, 2u);
}

TEST(NoFtlTest, TrimUnmapsAndFreesSpace) {
  Fixture f(SmallSlc());
  auto page = PageOf(512, 0x01, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 9, page.data()).ok());
  ASSERT_TRUE(f.ftl.Trim(f.region, 9).ok());
  EXPECT_FALSE(f.ftl.IsMapped(f.region, 9));
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(f.ftl.ReadPage(f.region, 9, buf.data()).ok());
  for (uint8_t b : buf) EXPECT_EQ(b, 0xFF);
}

TEST(NoFtlTest, MultipleRegionsAreIndependent) {
  auto g = SmallSlc();
  flash::FlashArray dev(g, flash::SlcTiming());
  NoFtl ftl(&dev);
  RegionConfig a{.name = "a", .logical_pages = 64};
  RegionConfig b{.name = "b",
                 .logical_pages = 64,
                 .ipa_mode = IpaMode::kSlc,
                 .delta_area_offset = 416};
  auto ra = ftl.CreateRegion(a);
  auto rb = ftl.CreateRegion(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());

  std::vector<uint8_t> pa(512, 0xA0), pb(512, 0xB0);
  std::memset(pb.data() + 416, 0xFF, 96);
  ASSERT_TRUE(ftl.WritePage(ra.value(), 0, pa.data()).ok());
  ASSERT_TRUE(ftl.WritePage(rb.value(), 0, pb.data()).ok());
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(ftl.ReadPage(ra.value(), 0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xA0);
  ASSERT_TRUE(ftl.ReadPage(rb.value(), 0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xB0);
  EXPECT_NE(flash::BlockOf(g, ftl.PhysicalOf(ra.value(), 0)),
            flash::BlockOf(g, ftl.PhysicalOf(rb.value(), 0)));
}

TEST(NoFtlTest, RegionCreationValidation) {
  auto g = SmallSlc();
  flash::FlashArray dev(g, flash::SlcTiming());
  NoFtl ftl(&dev);
  RegionConfig rc;
  rc.logical_pages = 0;
  EXPECT_FALSE(ftl.CreateRegion(rc).ok());
  rc.logical_pages = 64;
  rc.ipa_mode = IpaMode::kPSlc;  // requires MLC
  rc.delta_area_offset = 400;
  EXPECT_FALSE(ftl.CreateRegion(rc).ok());
  rc.ipa_mode = IpaMode::kSlc;
  rc.delta_area_offset = 0;  // required for IPA
  EXPECT_FALSE(ftl.CreateRegion(rc).ok());
  rc.logical_pages = 1u << 20;  // larger than the device
  rc.delta_area_offset = 400;
  EXPECT_TRUE(ftl.CreateRegion(rc).status().IsOutOfSpace());
  rc.logical_pages = 64;
  rc.gc_free_block_threshold = 0;  // GC would never run
  EXPECT_TRUE(ftl.CreateRegion(rc).status().IsInvalidArgument());
  rc.gc_free_block_threshold = 1;
  EXPECT_TRUE(ftl.CreateRegion(rc).ok());
}

// One OOB ECC slot holds the ECC of two 256-byte segments, so a managed-ECC
// region must refuse a longer delta (the caller falls back to a page write)
// instead of acknowledging an append whose ECC it truncates. Such a page
// used to read back with a phantom corrected bit, and once a second append
// filled the next slot, every read of it failed as uncorrectable.
TEST(NoFtlTest, ManagedEccRefusesDeltaLongerThanOneSlotCovers) {
  flash::Geometry g = SmallSlc();
  g.page_size = 2048;
  constexpr uint32_t kDeltaOff = 1024;
  flash::FlashArray dev(g, flash::SlcTiming());
  NoFtl ftl(&dev);
  RegionConfig rc;
  rc.logical_pages = 8;
  rc.ipa_mode = IpaMode::kSlc;
  rc.delta_area_offset = kDeltaOff;
  rc.manage_ecc = true;
  auto r = ftl.CreateRegion(rc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  RegionId region = r.value();

  std::vector<uint8_t> want = PageOf(g.page_size, 0x3C, kDeltaOff);
  ASSERT_TRUE(ftl.WritePage(region, 0, want.data()).ok());
  std::vector<uint8_t> long_delta(600, 0x5A);
  EXPECT_TRUE(ftl.WriteDelta(region, 0, kDeltaOff, long_delta.data(), 600).IsNotSupported());
  EXPECT_EQ(ftl.region_stats(region).delta_fallbacks, 1u);
  EXPECT_EQ(ftl.region_stats(region).host_delta_writes, 0u);

  // Appends up to 512 bytes still go in place and read back exactly.
  std::vector<uint8_t> small(8, 0x21);
  std::vector<uint8_t> full(512, 0x42);
  ASSERT_TRUE(ftl.WriteDelta(region, 0, kDeltaOff, small.data(), 8).ok());
  ASSERT_TRUE(ftl.WriteDelta(region, 0, kDeltaOff + 8, full.data(), 512).ok());
  std::copy(small.begin(), small.end(), want.begin() + kDeltaOff);
  std::copy(full.begin(), full.end(), want.begin() + kDeltaOff + 8);
  std::vector<uint8_t> out(g.page_size);
  ASSERT_TRUE(ftl.ReadPage(region, 0, out.data()).ok());
  EXPECT_EQ(out, want);
  EXPECT_EQ(ftl.region_stats(region).ecc_corrected_bits, 0u);
  EXPECT_TRUE(ftl.AuditRegion(region).ok());
}

// A slot's 6 ECC bytes cover at most 512 delta bytes, and WriteDelta refuses
// longer deltas, so a slot that claims more comes from a damaged OOB area.
// Checking its ECC would read past the end of the OOB area; the read path
// and the audit must report the slot as damaged instead.
TEST(NoFtlTest, ManagedEccRejectsSlotLongerThanItsEcc) {
  uint64_t published = Published("ftl.mount_scan.uncorrectable_pages");
  {
    // 4 KiB pages with a 128-byte OOB area and the delta area at byte 3998:
    // ECC_initial takes OOB bytes 0..47, and slots 0..7 take 48..127.
    flash::Geometry g = SmallSlc();
    g.page_size = 4096;
    g.oob_size = 128;
    g.max_programs_per_page = 8;
    constexpr uint32_t kDeltaOff = 3998;
    constexpr uint32_t kSlot7 = 48 + 7 * 10;
    flash::FlashArray dev(g, flash::SlcTiming());
    NoFtl ftl(&dev);
    RegionConfig rc;
    rc.logical_pages = 8;
    rc.ipa_mode = IpaMode::kSlc;
    rc.delta_area_offset = kDeltaOff;
    rc.manage_ecc = true;
    auto r = ftl.CreateRegion(rc);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    RegionId region = r.value();

    std::vector<uint8_t> page = PageOf(g.page_size, 0x6E, kDeltaOff);
    ASSERT_TRUE(ftl.WritePage(region, 0, page.data()).ok());
    for (uint32_t i = 0; i < 7; i++) {  // slots 0..6 cover the 98-byte delta area
      std::vector<uint8_t> delta(14, static_cast<uint8_t>(i));
      ASSERT_TRUE(ftl.WriteDelta(region, 0, kDeltaOff + 14 * i, delta.data(), 14).ok());
    }
    std::vector<uint8_t> out(g.page_size);
    ASSERT_TRUE(ftl.ReadPage(region, 0, out.data()).ok());
    ASSERT_TRUE(ftl.AuditRegion(region).ok());

    const uint8_t entry[4] = {0x00, 0x00, 0x58, 0x02};  // offset 0, len 600
    ASSERT_TRUE(dev.ProgramOob(ftl.PhysicalOf(region, 0), kSlot7, entry, 4).ok());
    Status s = ftl.ReadPage(region, 0, out.data());
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(s.message(), "damaged delta ECC slot");
    EXPECT_EQ(ftl.region_stats(region).ecc_uncorrectable, 1u);
    Status audit = ftl.AuditRegion(region);
    EXPECT_TRUE(audit.IsCorruption()) << audit.ToString();
    EXPECT_NE(audit.message().find("damaged OOB slot"), std::string::npos)
        << audit.ToString();
    // The mount scan leaves such a page to WAL redo, and counts it.
    MountScanReport rep;
    ASSERT_TRUE(ftl.MountScan(region, &rep).ok());
    EXPECT_EQ(rep.uncorrectable_pages, 1u);
    EXPECT_EQ(ftl.region_stats(region).mount_uncorrectable_pages, 1u);
  }
  EXPECT_EQ(Published("ftl.mount_scan.uncorrectable_pages") - published, 1u);
}

TEST(NoFtlTest, MountScanCleanRegionFindsNothing) {
  Fixture f(SmallSlc(), IpaMode::kSlc, 32, /*ecc=*/true);
  auto page = PageOf(512, 0x19, f.delta_off);
  ASSERT_TRUE(f.ftl.WritePage(f.region, 0, page.data()).ok());
  ASSERT_TRUE(f.ftl.WritePage(f.region, 1, page.data()).ok());
  uint8_t d[4] = {1, 2, 3, 4};
  ASSERT_TRUE(f.ftl.WriteDelta(f.region, 0, f.delta_off, d, 4).ok());

  MountScanReport rep;
  ASSERT_TRUE(f.ftl.MountScan(f.region, &rep).ok());
  EXPECT_EQ(rep.pages_scanned, 2u);
  EXPECT_EQ(rep.torn_pages_quarantined, 0u);
  EXPECT_EQ(rep.torn_bytes_dropped, 0u);
  EXPECT_EQ(rep.uncorrectable_pages, 0u);
}

TEST(NoFtlTest, MountScanQuarantinesTornDelta) {
  auto g = SmallSlc();
  bool exercised = false;
  for (uint64_t seed = 1; seed <= 8 && !exercised; seed++) {
    Fixture f(g, IpaMode::kSlc, 32, /*ecc=*/true);
    auto page = PageOf(512, 0x27, f.delta_off);
    ASSERT_TRUE(f.ftl.WritePage(f.region, 0, page.data()).ok());
    uint8_t clean[4] = {9, 8, 7, 6};
    ASSERT_TRUE(f.ftl.WriteDelta(f.region, 0, f.delta_off, clean, 4).ok());

    // Tear the next delta append mid-program.
    flash::PowerLossPolicy pol;
    pol.inject_at_op = 0;
    pol.seed = seed;
    f.dev.SetPowerLossPolicy(pol);
    std::vector<uint8_t> torn(16, 0x00);
    ASSERT_TRUE(f.ftl.WriteDelta(f.region, 0, f.delta_off + 8, torn.data(), 16)
                    .IsUnavailable());
    f.dev.PowerCycle();
    f.dev.SetPowerLossPolicy(flash::PowerLossPolicy{});

    // Host reads never see torn bytes, even before the mount scan: the torn
    // delta has no covering OOB ECC slot, so its bytes read back erased.
    std::vector<uint8_t> buf(512);
    ASSERT_TRUE(f.ftl.ReadPage(f.region, 0, buf.data()).ok());
    EXPECT_EQ(std::memcmp(buf.data() + f.delta_off, clean, 4), 0);
    for (uint32_t i = 8; i < 24; i++) {
      EXPECT_EQ(buf[f.delta_off + i], 0xFF) << "torn byte " << i << " served";
    }
    if (f.ftl.region_stats(f.region).torn_delta_bytes_dropped == 0) {
      continue;  // tear fired before any bit was programmed; try another seed
    }
    exercised = true;

    flash::Ppn before = f.ftl.PhysicalOf(f.region, 0);
    MountScanReport rep;
    ASSERT_TRUE(f.ftl.MountScan(f.region, &rep).ok());
    EXPECT_GT(rep.pages_scanned, 0u);
    EXPECT_EQ(rep.torn_pages_quarantined, 1u);
    EXPECT_GT(rep.torn_bytes_dropped, 0u);
    EXPECT_EQ(rep.uncorrectable_pages, 0u);
    EXPECT_NE(f.ftl.PhysicalOf(f.region, 0), before);
    EXPECT_EQ(f.ftl.region_stats(f.region).torn_pages_quarantined, 1u);

    // The quarantined copy is clean and accepts fresh appends again.
    ASSERT_TRUE(f.ftl.ReadPage(f.region, 0, buf.data()).ok());
    for (uint32_t j = 0; j < f.delta_off; j++) {
      ASSERT_EQ(buf[j], 0x27) << "body byte " << j;
    }
    EXPECT_EQ(std::memcmp(buf.data() + f.delta_off, clean, 4), 0);
    uint8_t again[4] = {1, 1, 2, 2};
    EXPECT_TRUE(f.ftl.WriteDelta(f.region, 0, f.delta_off + 8, again, 4).ok());

    MountScanReport rep2;
    ASSERT_TRUE(f.ftl.MountScan(f.region, &rep2).ok());
    EXPECT_EQ(rep2.torn_pages_quarantined, 0u);
    EXPECT_EQ(rep2.torn_bytes_dropped, 0u);
  }
  EXPECT_TRUE(exercised);
}

}  // namespace
}  // namespace ipa::ftl
