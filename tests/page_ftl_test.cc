// PageFtl-specific behavior beyond the FtlBackend conformance suite
// (tests/ftl_conformance_test.cc): log-structured relocation, GC policy
// bookkeeping, trim's advisory semantics across power loss, driver-instance
// replacement via Mount(), fail-closed decoding of invalid OOB entries, and
// per-device counter conservation. The per-stream policy has its own suite
// (tests/stream_ftl_test.cc).

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "flash/flash_array.h"
#include "flash/timing.h"
#include "ftl/page_ftl.h"

namespace ipa::ftl {
namespace {

flash::Geometry Geo() {
  flash::Geometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 48;
  g.pages_per_block = 16;
  g.page_size = 2048;
  g.oob_size = 128;
  return g;
}

std::vector<uint8_t> Pattern(uint64_t tag, uint32_t n) {
  std::vector<uint8_t> v(n);
  for (uint32_t i = 0; i < n; i++) {
    v[i] = static_cast<uint8_t>(tag * 13 + i * 3 + 1);
  }
  return v;
}

std::unique_ptr<PageFtl> Make(flash::FlashArray* dev, GcPolicy policy,
                              uint64_t logical = 64) {
  PageFtlConfig pc;
  pc.name = "test";
  pc.logical_pages = logical;
  pc.gc_policy = policy;
  auto r = PageFtl::Create(dev, pc);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(PageFtl, CreateRejectsBadConfigs) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  PageFtlConfig pc;
  pc.logical_pages = 0;
  EXPECT_TRUE(PageFtl::Create(&dev, pc).status().IsInvalidArgument());

  pc.logical_pages = 64;
  pc.gc_free_block_threshold = 0;
  EXPECT_TRUE(PageFtl::Create(&dev, pc).status().IsInvalidArgument());

  // Device whose OOB cannot hold a reverse-map entry.
  flash::Geometry small_oob = Geo();
  small_oob.oob_size = PageFtl::kOobEntryBytes - 1;
  flash::FlashArray dev2(small_oob, flash::SlcTiming());
  PageFtlConfig pc2;
  pc2.logical_pages = 64;
  EXPECT_TRUE(PageFtl::Create(&dev2, pc2).status().IsInvalidArgument());

  // Device too small for the logical capacity + over-provisioning.
  flash::Geometry tiny = Geo();
  tiny.channels = 1;
  tiny.chips_per_channel = 1;
  tiny.blocks_per_chip = 4;
  flash::FlashArray dev3(tiny, flash::SlcTiming());
  PageFtlConfig pc3;
  pc3.logical_pages = 4096;
  EXPECT_TRUE(PageFtl::Create(&dev3, pc3).status().IsOutOfSpace());
}

TEST(PageFtl, OverwritesRelocateLogStructured) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev, GcPolicy::kGreedy);
  std::vector<uint8_t> img = Pattern(1, Geo().page_size);

  ASSERT_TRUE(ftl->WritePage(0, img.data(), true).ok());
  flash::Ppn first = ftl->PhysicalOf(0);
  ASSERT_TRUE(ftl->WritePage(0, img.data(), true).ok());
  flash::Ppn second = ftl->PhysicalOf(0);
  EXPECT_NE(first, second) << "page-mapping FTL must write out-of-place";
  EXPECT_TRUE(ftl->Audit().ok());
}

TEST(PageFtl, CollectOnceReclaimsInvalidatedBlocks) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev, GcPolicy::kGreedy);
  std::vector<uint8_t> img = Pattern(2, Geo().page_size);

  // Fill several blocks with stale versions of one hot page. Writes
  // round-robin across the 4 chips, so closing a 16-page block on each chip
  // takes 64 writes; only closed (non-active) blocks are GC victims.
  for (int i = 0; i < 160; i++) {
    ASSERT_TRUE(ftl->WritePage(1, img.data(), true).ok());
  }
  size_t free_before = ftl->free_block_count();
  uint64_t erases_before = ftl->stats().gc_erases;
  ASSERT_TRUE(ftl->CollectOnce().ok());
  EXPECT_GT(ftl->stats().gc_erases, erases_before);
  EXPECT_GE(ftl->free_block_count(), free_before);
  EXPECT_TRUE(ftl->Audit().ok());

  std::vector<uint8_t> buf(Geo().page_size);
  ASSERT_TRUE(ftl->ReadPage(1, buf.data()).ok());
  EXPECT_EQ(buf, img);
}

TEST(PageFtl, BothPoliciesSurviveSustainedGcPressure) {
  for (GcPolicy policy : {GcPolicy::kGreedy, GcPolicy::kCostBenefit}) {
    flash::FlashArray dev(Geo(), flash::SlcTiming());
    auto ftl = Make(&dev, policy);
    // Cold pages written once land in the same blocks as hot-page versions,
    // so reclaiming those blocks forces GC to migrate live data.
    for (Lba lba = 12; lba < 32; lba++) {
      std::vector<uint8_t> img = Pattern(1000 + lba, Geo().page_size);
      ASSERT_TRUE(ftl->WritePage(lba, img.data(), true).ok());
    }
    uint64_t round = 0;
    for (; round < 100; round++) {
      for (Lba lba = 0; lba < 12; lba++) {
        std::vector<uint8_t> img = Pattern(round * 12 + lba, Geo().page_size);
        ASSERT_TRUE(ftl->WritePage(lba, img.data(), true).ok())
            << GcPolicyName(policy) << " round " << round;
      }
    }
    std::vector<uint8_t> buf(Geo().page_size);
    for (Lba lba = 0; lba < 12; lba++) {
      ASSERT_TRUE(ftl->ReadPage(lba, buf.data()).ok());
      EXPECT_EQ(buf, Pattern((round - 1) * 12 + lba, Geo().page_size));
    }
    for (Lba lba = 12; lba < 32; lba++) {
      ASSERT_TRUE(ftl->ReadPage(lba, buf.data()).ok());
      EXPECT_EQ(buf, Pattern(1000 + lba, Geo().page_size)) << "cold " << lba;
    }
    EXPECT_GT(ftl->stats().gc_page_migrations, 0u) << GcPolicyName(policy);
    EXPECT_TRUE(ftl->Audit().ok()) << GcPolicyName(policy);
  }
}

TEST(PageFtl, TrimIsAdvisoryAcrossPowerLoss) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev, GcPolicy::kCostBenefit);
  std::vector<uint8_t> img = Pattern(3, Geo().page_size);

  ASSERT_TRUE(ftl->WritePage(4, img.data(), true).ok());
  ASSERT_TRUE(ftl->Trim(4).ok());
  EXPECT_FALSE(ftl->IsMapped(4));

  // The OOB reverse-map entry is still on media: after a power cycle the
  // mount scan legitimately resurrects the mapping (trim is advisory across
  // power loss under the FtlBackend contract).
  dev.PowerCycle();
  ASSERT_TRUE(ftl->Mount().ok());
  EXPECT_TRUE(ftl->IsMapped(4));
  std::vector<uint8_t> buf(Geo().page_size);
  ASSERT_TRUE(ftl->ReadPage(4, buf.data()).ok());
  EXPECT_EQ(buf, img);
  EXPECT_TRUE(ftl->Audit().ok());
}

TEST(PageFtl, FreshDriverInstanceMountsExistingMedia) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  std::vector<std::vector<uint8_t>> want(8);
  {
    auto ftl = Make(&dev, GcPolicy::kGreedy);
    for (Lba lba = 0; lba < want.size(); lba++) {
      want[lba] = Pattern(50 + lba, Geo().page_size);
      ASSERT_TRUE(ftl->WritePage(lba, want[lba].data(), true).ok());
    }
  }
  // A brand-new driver instance (same config, same device — e.g. after a
  // host reboot) rebuilds everything from the OOB reverse map.
  auto reborn = Make(&dev, GcPolicy::kGreedy);
  ASSERT_TRUE(reborn->Mount().ok());
  std::vector<uint8_t> buf(Geo().page_size);
  for (Lba lba = 0; lba < want.size(); lba++) {
    EXPECT_TRUE(reborn->IsMapped(lba));
    ASSERT_TRUE(reborn->ReadPage(lba, buf.data()).ok());
    EXPECT_EQ(buf, want[lba]) << "lba " << lba;
  }
  EXPECT_TRUE(reborn->Audit().ok());
}

// OOB entries whose entry CRC verifies but whose content is invalid — a
// stream byte naming no StreamTag, or an lba beyond the logical space — must
// never become mappings. Under every policy, Mount() leaves those lbas
// unmapped, closes each block as content-bearing (no reuse before GC erases
// it) and passes Audit().
TEST(PageFtl, MountFailsClosedOnInvalidOobEntries) {
  const flash::Geometry g = Geo();
  const uint64_t logical = 64;
  std::vector<uint8_t> img = Pattern(9, g.page_size);
  for (GcPolicy policy :
       {GcPolicy::kGreedy, GcPolicy::kCostBenefit, GcPolicy::kStreamWarmCold}) {
    flash::FlashArray dev(g, flash::SlcTiming());
    auto ftl = Make(&dev, policy, logical);
    const size_t free_before = ftl->free_block_count();
    auto program = [&](flash::Ppn ppn, Lba lba, uint8_t stream) {
      uint8_t entry[PageFtl::kOobEntryBytes];
      EncodeU16(entry, PageFtl::kOobMagic);
      EncodeU64(entry + 2, lba);
      EncodeU64(entry + 10, /*seq=*/1);
      EncodeU32(entry + 18, Crc32c(img.data(), g.page_size));
      entry[22] = stream;
      EncodeU32(entry + 23, Crc32c(entry, 23));
      ASSERT_TRUE(
          dev.ProgramPage(ppn, img.data(), entry, sizeof(entry), nullptr, true)
              .ok());
    };
    // Blocks 0 and 1 (chip 0) belong to the FTL: it claims each chip's front.
    program(0, /*lba=*/5, /*stream=*/kNumStreams);
    program(g.pages_per_block, /*lba=*/logical, /*stream=*/0);

    ASSERT_TRUE(ftl->Mount().ok()) << GcPolicyName(policy);
    for (Lba lba = 0; lba < logical; lba++) {
      EXPECT_FALSE(ftl->IsMapped(lba)) << GcPolicyName(policy) << " lba " << lba;
    }
    EXPECT_EQ(ftl->free_block_count(), free_before - 2) << GcPolicyName(policy);
    EXPECT_TRUE(ftl->Audit().ok()) << GcPolicyName(policy);

    // The closed blocks never become frontiers.
    for (Lba lba = 0; lba < 8; lba++) {
      ASSERT_TRUE(ftl->WritePage(lba, img.data(), true).ok());
      EXPECT_GE(flash::BlockOf(g, ftl->PhysicalOf(lba)), 2u)
          << GcPolicyName(policy) << " lba " << lba;
    }
    EXPECT_TRUE(ftl->Audit().ok()) << GcPolicyName(policy);
  }
}

TEST(PageFtl, DeviceCountersBalanceFtlCauses) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev, GcPolicy::kGreedy);
  for (uint64_t round = 0; round < 60; round++) {
    for (Lba lba = 0; lba < 10; lba++) {
      std::vector<uint8_t> img = Pattern(round + lba, Geo().page_size);
      ASSERT_TRUE(ftl->WritePage(lba, img.data(), true).ok());
    }
  }
  const auto& ds = dev.stats();
  const auto& fs = ftl->stats();
  EXPECT_EQ(ds.page_programs, fs.host_page_writes + fs.gc_page_migrations);
  EXPECT_EQ(ds.block_erases, fs.gc_erases);
  EXPECT_EQ(ds.delta_programs, 0u);
  EXPECT_EQ(fs.host_page_writes, 600u);
}

TEST(PageFtl, PolicyNames) {
  EXPECT_STREQ(GcPolicyName(GcPolicy::kGreedy), "greedy");
  EXPECT_STREQ(GcPolicyName(GcPolicy::kCostBenefit), "cost-benefit");
  EXPECT_STREQ(GcPolicyName(GcPolicy::kStreamWarmCold), "stream-warm-cold");
}

}  // namespace
}  // namespace ipa::ftl
