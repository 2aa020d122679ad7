// Behavior of PageFtl under GcPolicy::kStreamWarmCold (the "streamftl"
// backend) beyond the FtlBackend conformance suite
// (tests/ftl_conformance_test.cc): per-stream frontier segregation, the
// GC-relocation restream, warm/cold victim selection, mount-time rebuild of
// stream labels, per-device counter conservation, and the counters and
// latency histograms it publishes at destruction.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flash/flash_array.h"
#include "flash/timing.h"
#include "ftl/page_ftl.h"
#include "published.h"

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

PageFtlConfig StreamConfig(uint64_t logical = 64) {
  PageFtlConfig sc;
  sc.name = "test";
  sc.logical_pages = logical;
  sc.gc_policy = GcPolicy::kStreamWarmCold;
  return sc;
}

std::unique_ptr<PageFtl> Make(flash::FlashArray* dev, uint64_t logical = 64) {
  auto r = PageFtl::Create(dev, StreamConfig(logical));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

uint32_t BlockIndex(const flash::Geometry& g, flash::Ppn ppn) {
  return static_cast<uint32_t>(ppn / g.pages_per_block);
}

TEST(StreamFtl, CreateRejectsBadConfigs) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  PageFtlConfig sc = StreamConfig(0);
  EXPECT_TRUE(PageFtl::Create(&dev, sc).status().IsInvalidArgument());

  sc.logical_pages = 64;
  sc.gc_free_block_threshold = 0;
  EXPECT_TRUE(PageFtl::Create(&dev, sc).status().IsInvalidArgument());

  // Device whose OOB cannot hold the reverse-map entry with its stream byte.
  flash::Geometry small_oob = Geo();
  small_oob.oob_size = PageFtl::kOobEntryBytes - 1;
  flash::FlashArray dev2(small_oob, flash::SlcTiming());
  EXPECT_TRUE(PageFtl::Create(&dev2, StreamConfig()).status().IsInvalidArgument());

  // Device too small for the logical capacity + over-provisioning.
  flash::Geometry tiny = Geo();
  tiny.channels = 1;
  tiny.chips_per_channel = 1;
  tiny.blocks_per_chip = 4;
  flash::FlashArray dev3(tiny, flash::SlcTiming());
  EXPECT_TRUE(PageFtl::Create(&dev3, StreamConfig(4096)).status().IsOutOfSpace());
}

TEST(StreamFtl, TaggedWritesSegregateByStream) {
  // The per-tag write counters, in StreamTag order.
  const std::vector<std::string> kWrites = {
      "streamftl.writes.untagged",
      "streamftl.writes.wal",
      "streamftl.writes.heap",
      "streamftl.writes.index",
      "streamftl.writes.delta_writeback",
      "streamftl.writes.gc_relocation",
  };
  std::vector<uint64_t> published;
  for (const std::string& name : kWrites) published.push_back(Published(name));

  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev, /*logical=*/256);
  std::vector<uint8_t> img = Pattern(1, Geo().page_size);

  // One write per stream: each must land on its own stream's frontier, and
  // (with ample free blocks) no two streams may share a block.
  std::vector<uint32_t> blocks;
  for (uint32_t s = 0; s < kNumStreams; s++) {
    StreamTag tag = static_cast<StreamTag>(s);
    ASSERT_TRUE(ftl->WriteTagged(s, img.data(), true, tag).ok());
    EXPECT_EQ(ftl->StreamOf(s), tag) << StreamTagName(tag);
    EXPECT_EQ(ftl->stream_writes(tag), 1u) << StreamTagName(tag);
    blocks.push_back(BlockIndex(Geo(), ftl->PhysicalOf(s)));
  }
  for (size_t i = 0; i < blocks.size(); i++) {
    for (size_t j = i + 1; j < blocks.size(); j++) {
      EXPECT_NE(blocks[i], blocks[j])
          << "streams " << i << " and " << j << " share a block";
    }
  }
  EXPECT_TRUE(ftl->Audit().ok());

  ftl.reset();
  for (uint32_t s = 0; s < kNumStreams; s++) {
    EXPECT_EQ(Published(kWrites[s]) - published[s], 1u) << kWrites[s];
  }
}

TEST(StreamFtl, UntaggedWritePageDegeneratesToUntaggedStream) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev);
  std::vector<uint8_t> img = Pattern(2, Geo().page_size);
  ASSERT_TRUE(ftl->WritePage(7, img.data(), true).ok());
  EXPECT_EQ(ftl->StreamOf(7), StreamTag::kUntagged);
}

TEST(StreamFtl, WriteDeltaStructurallyImpossible) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev);
  std::vector<uint8_t> img = Pattern(3, Geo().page_size);
  ASSERT_TRUE(ftl->WritePage(0, img.data(), true).ok());
  EXPECT_FALSE(ftl->DeltaWritePossible(0));
  EXPECT_TRUE(ftl->WriteDelta(0, 0, img.data(), 8, true).IsNotSupported());
}

TEST(StreamFtl, GcMigrationRestreamsSurvivorsAsGcRelocation) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev);
  // Cold pages written once share blocks with hot-page versions (same kHeap
  // stream), so reclaiming those blocks forces GC to migrate live data.
  for (Lba lba = 12; lba < 32; lba++) {
    std::vector<uint8_t> img = Pattern(1000 + lba, Geo().page_size);
    ASSERT_TRUE(
        ftl->WriteTagged(lba, img.data(), true, StreamTag::kHeap).ok());
  }
  uint64_t round = 0;
  for (; round < 100; round++) {
    for (Lba lba = 0; lba < 12; lba++) {
      std::vector<uint8_t> img = Pattern(round * 12 + lba, Geo().page_size);
      ASSERT_TRUE(ftl->WriteTagged(lba, img.data(), true, StreamTag::kHeap).ok())
          << "round " << round;
    }
  }
  EXPECT_GT(ftl->stats().gc_page_migrations, 0u);

  // Migrated survivors must carry the GC-relocation stream: cold data that
  // survived a collection never re-mixes with fresh host writes.
  uint32_t restreamed = 0;
  std::vector<uint8_t> buf(Geo().page_size);
  for (Lba lba = 12; lba < 32; lba++) {
    ASSERT_TRUE(ftl->ReadPage(lba, buf.data()).ok());
    EXPECT_EQ(buf, Pattern(1000 + lba, Geo().page_size)) << "cold " << lba;
    if (ftl->StreamOf(lba) == StreamTag::kGcRelocation) restreamed++;
  }
  EXPECT_GT(restreamed, 0u) << "no cold page landed in a kGcRelocation block";
  for (Lba lba = 0; lba < 12; lba++) {
    ASSERT_TRUE(ftl->ReadPage(lba, buf.data()).ok());
    EXPECT_EQ(buf, Pattern((round - 1) * 12 + lba, Geo().page_size));
  }
  EXPECT_TRUE(ftl->Audit().ok());
}

TEST(StreamFtl, WarmColdVictimSelectionPassesOverWarmBlocks) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev, /*logical=*/256);
  const uint32_t ps = Geo().page_size;
  auto write = [&](Lba lba, uint64_t tag) {
    std::vector<uint8_t> img = Pattern(tag, ps);
    ASSERT_TRUE(ftl->WriteTagged(lba, img.data(), true, StreamTag::kHeap).ok());
  };

  // Blocks W (lbas 0..63) are written BEFORE blocks C (lbas 64..127), so W is
  // strictly older — the classic cost-benefit age term favors W as victim.
  for (Lba lba = 0; lba < 64; lba++) write(lba, lba);
  for (Lba lba = 64; lba < 128; lba++) write(lba, lba);

  // Invalidate 12/16 of every C block long ago, then 12/16 of every W block
  // just now: same utilization, but W's invalidations are recent (warm) and
  // C's have receded into the past (cold).
  for (Lba lba = 64; lba < 112; lba++) write(lba, 500 + lba);
  ftl->clock().Advance(1'000'000'000);  // 1000s of simulated quiet time
  for (Lba lba = 0; lba < 48; lba++) write(lba, 900 + lba);

  // Pure cost-benefit would reclaim a W block (older age, equal u). The
  // temperature penalty must override that and pick a cold C block, so the
  // survivors that migrate come from lbas 112..127 — never 48..63.
  ASSERT_TRUE(ftl->CollectOnce().ok());
  ASSERT_GT(ftl->stats().gc_page_migrations, 0u);
  uint32_t cold_migrated = 0, warm_migrated = 0;
  for (Lba lba = 112; lba < 128; lba++) {
    if (ftl->StreamOf(lba) == StreamTag::kGcRelocation) cold_migrated++;
  }
  for (Lba lba = 48; lba < 64; lba++) {
    if (ftl->StreamOf(lba) == StreamTag::kGcRelocation) warm_migrated++;
  }
  EXPECT_GT(cold_migrated, 0u) << "victim was not a cold block";
  EXPECT_EQ(warm_migrated, 0u) << "GC reclaimed a warm block";
  EXPECT_TRUE(ftl->Audit().ok());
}

TEST(StreamFtl, FreshDriverInstanceMountsDataAndStreamLabels) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  std::vector<std::vector<uint8_t>> want(kNumStreams);
  {
    auto ftl = Make(&dev, /*logical=*/256);
    for (uint32_t s = 0; s < kNumStreams; s++) {
      want[s] = Pattern(50 + s, Geo().page_size);
      ASSERT_TRUE(ftl->WriteTagged(s, want[s].data(), true,
                                   static_cast<StreamTag>(s))
                      .ok());
    }
  }
  // A brand-new driver instance rebuilds the mapping from the OOB reverse
  // map, including each block's stream label (forensic: latest writer wins).
  auto reborn = Make(&dev, /*logical=*/256);
  ASSERT_TRUE(reborn->Mount().ok());
  std::vector<uint8_t> buf(Geo().page_size);
  for (uint32_t s = 0; s < kNumStreams; s++) {
    EXPECT_TRUE(reborn->IsMapped(s));
    ASSERT_TRUE(reborn->ReadPage(s, buf.data()).ok());
    EXPECT_EQ(buf, want[s]) << "stream " << s;
    EXPECT_EQ(reborn->StreamOf(s), static_cast<StreamTag>(s))
        << StreamTagName(static_cast<StreamTag>(s));
  }
  EXPECT_TRUE(reborn->Audit().ok());
}

TEST(StreamFtl, DeviceCountersBalanceFtlCauses) {
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  auto ftl = Make(&dev);
  for (uint64_t round = 0; round < 60; round++) {
    for (Lba lba = 0; lba < 10; lba++) {
      std::vector<uint8_t> img = Pattern(round + lba, Geo().page_size);
      StreamTag tag = static_cast<StreamTag>((round + lba) % kNumStreams);
      ASSERT_TRUE(ftl->WriteTagged(lba, img.data(), true, tag).ok());
    }
  }
  const auto& ds = dev.stats();
  const auto& fs = ftl->stats();
  EXPECT_EQ(ds.page_programs, fs.host_page_writes + fs.gc_page_migrations);
  EXPECT_EQ(ds.block_erases, fs.gc_erases);
  EXPECT_EQ(ds.delta_programs, 0u);
  EXPECT_EQ(fs.host_page_writes, 600u);
  EXPECT_TRUE(ftl->Audit().ok());
}

TEST(StreamFtl, SustainedMultiStreamPressureStaysLive) {
  uint64_t published = Published("streamftl.stream_spills");
  LatencyStats want_reads = PublishedHistogram("streamftl.read_latency_us");
  LatencyStats want_writes = PublishedHistogram("streamftl.write_latency_us");
  flash::FlashArray dev(Geo(), flash::SlcTiming());
  PageFtlConfig sc = StreamConfig(/*logical=*/128);
  sc.gc_free_block_threshold = 2;
  auto ftl = std::move(PageFtl::Create(&dev, sc)).value();
  // All 6 streams hammering a 128-page logical space, with GC holding back
  // only 2 free blocks: frontier fan-out must collapse under pressure and
  // writes must spill into other streams' frontiers, while every page stays
  // readable.
  for (uint64_t round = 0; round < 50; round++) {
    for (Lba lba = 0; lba < 128; lba++) {
      std::vector<uint8_t> img = Pattern(round * 128 + lba, Geo().page_size);
      StreamTag tag = static_cast<StreamTag>(lba % kNumStreams);
      ASSERT_TRUE(ftl->WriteTagged(lba, img.data(), true, tag).ok())
          << "round " << round << " lba " << lba;
    }
  }
  std::vector<uint8_t> buf(Geo().page_size);
  for (Lba lba = 0; lba < 128; lba++) {
    ASSERT_TRUE(ftl->ReadPage(lba, buf.data()).ok());
    EXPECT_EQ(buf, Pattern(49 * 128 + lba, Geo().page_size)) << "lba " << lba;
  }
  EXPECT_TRUE(ftl->Audit().ok());

  uint64_t spills = ftl->stream_spills();
  EXPECT_GT(spills, 0u);
  want_reads.Merge(ftl->stats().read_latency);
  want_writes.Merge(ftl->stats().write_latency);
  EXPECT_EQ(ftl->stats().read_latency.count(), 128u);
  EXPECT_EQ(ftl->stats().write_latency.count(), 50u * 128u);
  ftl.reset();
  EXPECT_EQ(Published("streamftl.stream_spills") - published, spills);
  EXPECT_EQ(Describe(PublishedHistogram("streamftl.read_latency_us")), Describe(want_reads));
  EXPECT_EQ(Describe(PublishedHistogram("streamftl.write_latency_us")), Describe(want_writes));
}

}  // namespace
}  // namespace ipa::ftl
