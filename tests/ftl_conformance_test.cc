// FtlBackend conformance suite: every backend (NoFTL region devices in SLC,
// pSLC and odd-MLC mode, PageFtl under each of its three GC policies) must
// honor the same host-visible contract — fresh pages read erased, writes
// round-trip, trim drops the mapping, out-of-range LBAs are rejected, data
// survives GC pressure (including power cuts at evenly spaced flash ops of a
// storm whose GC migrates valid pages, and the lowest GC trigger level) and
// power cycles, Mount() is
// idempotent, a torn write resolves to old-or-new, and Audit() holds after
// every step. Backend-specific behavior (write_delta availability) is probed
// through the capability API, never assumed. The stream-aware backend
// additionally proves torn-program old-or-new across every write frontier
// (one tagged write per stream before the tear).

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flash/flash_array.h"
#include "ftl/ftl_backend.h"
#include "ftl/noftl.h"
#include "ftl/page_ftl.h"
#include "published.h"
#include "storage/page_format.h"
#include "workload/testbed.h"

namespace ipa {
namespace {

enum class Kind {
  kNoFtlRegion,
  kPageFtlGreedy,
  kPageFtlCostBenefit,
  kStreamFtl,
  kNoFtlPSlc,    ///< MLC device, LSB pages only.
  kNoFtlOddMlc,  ///< MLC device, every page; appends on LSB pages only.
};

constexpr uint64_t kLogicalPages = 64;

/// The GC storm: after a fill of every logical page, rounds of overwrites of
/// the first kHot pages. Fill images use tag kFillTag + lba.
constexpr ftl::Lba kHot = 8;
constexpr uint64_t kFillTag = 1000;

bool IsNoFtl(Kind kind) {
  return kind == Kind::kNoFtlRegion || kind == Kind::kNoFtlPSlc ||
         kind == Kind::kNoFtlOddMlc;
}

/// One backend over its own private device: the fuzz stacks' geometry, with
/// no engine.
std::unique_ptr<workload::Stack> MakeStack(Kind kind, uint32_t gc_free_block_threshold = 3) {
  bool mlc = kind == Kind::kNoFtlPSlc || kind == Kind::kNoFtlOddMlc;
  workload::StackSpec spec =
      workload::SmallSpec(mlc ? flash::CellType::kMlc : flash::CellType::kSlc);
  workload::RegionSpec r;
  if (IsNoFtl(kind)) {
    r.ftl = ftl::RegionConfig{
        .name = "conformance",
        .logical_pages = kLogicalPages,
        .ipa_mode = kind == Kind::kNoFtlPSlc     ? ftl::IpaMode::kPSlc
                    : kind == Kind::kNoFtlOddMlc ? ftl::IpaMode::kOddMlc
                                                 : ftl::IpaMode::kSlc,
        .gc_free_block_threshold = gc_free_block_threshold,
        .manage_ecc = true};
    r.scheme = {.n = 2, .m = 4, .v = 12};
  } else {
    r.ftl = ftl::PageFtlConfig{
        .name = "conformance",
        .logical_pages = kLogicalPages,
        .gc_policy = kind == Kind::kPageFtlGreedy ? ftl::GcPolicy::kGreedy
                     : kind == Kind::kStreamFtl   ? ftl::GcPolicy::kStreamWarmCold
                                                  : ftl::GcPolicy::kCostBenefit,
        .gc_free_block_threshold = gc_free_block_threshold};
  }
  spec.regions.push_back(std::move(r));
  auto s = workload::Build(spec);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

// Host-writable prefix of a page image. An IPA region reserves the page tail
// for the delta area, which must leave the host as erased 0xFF bytes; a
// cooked page-mapping FTL exposes the full page.
uint32_t DataBytes(const workload::Stack& s) {
  return s.noftl ? s.noftl->region_config(s.region).delta_area_offset
                 : s.backend->page_size();
}

std::vector<uint8_t> Pattern(uint64_t tag, uint32_t n) {
  std::vector<uint8_t> v(n);
  for (uint32_t i = 0; i < n; i++) {
    v[i] = static_cast<uint8_t>(tag * 31 + i * 7 + 1);
  }
  return v;
}

// A full-page host image: deterministic pattern in the host-writable prefix,
// erased 0xFF in any reserved tail (the IPA delta area).
std::vector<uint8_t> ImageOf(const workload::Stack& s, uint64_t tag) {
  std::vector<uint8_t> v(s.backend->page_size(), 0xFF);
  std::vector<uint8_t> p = Pattern(tag, DataBytes(s));
  std::copy(p.begin(), p.end(), v.begin());
  return v;
}

// Writes the fill image of every logical page; `tag` receives the tags.
void Fill(workload::Stack& s, std::vector<uint64_t>* tag) {
  tag->assign(kLogicalPages, 0);
  for (ftl::Lba lba = 0; lba < kLogicalPages; lba++) {
    (*tag)[lba] = kFillTag + lba;
    std::vector<uint8_t> img = ImageOf(s, kFillTag + lba);
    ASSERT_TRUE(s.backend->WritePage(lba, img.data(), true).ok()) << "fill lba " << lba;
  }
}

// The storm's overwrites, in order: (lba, image tag) for `rounds` passes
// over the hot set.
std::vector<std::pair<ftl::Lba, uint64_t>> StormWrites(uint64_t rounds) {
  std::vector<std::pair<ftl::Lba, uint64_t>> w;
  for (uint64_t round = 0; round < rounds; round++) {
    for (ftl::Lba lba = 0; lba < kHot; lba++) w.emplace_back(lba, round * kHot + lba);
  }
  return w;
}

class FtlConformance : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    stack_ = MakeStack(GetParam());
    ASSERT_NE(stack_->backend, nullptr);
  }

  ftl::FtlBackend& b() { return *stack_->backend; }
  flash::FlashArray& dev() { return *stack_->dev; }
  uint32_t page_size() { return b().page_size(); }

  std::vector<uint8_t> Image(uint64_t tag) { return ImageOf(*stack_, tag); }

  std::unique_ptr<workload::Stack> stack_;
};

TEST_P(FtlConformance, FreshPagesReadErasedAndUnmapped) {
  std::vector<uint8_t> buf(page_size());
  for (ftl::Lba lba : {ftl::Lba{0}, ftl::Lba{7}, kLogicalPages - 1}) {
    EXPECT_FALSE(b().IsMapped(lba));
    ASSERT_TRUE(b().ReadPage(lba, buf.data()).ok());
    EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                            [](uint8_t x) { return x == 0xFF; }))
        << "lba " << lba;
  }
  EXPECT_TRUE(b().Audit().ok());
}

TEST_P(FtlConformance, WriteReadRoundtripAndOverwrite) {
  std::vector<uint8_t> a = Image(1);
  std::vector<uint8_t> c = Image(2);
  std::vector<uint8_t> buf(page_size());

  ASSERT_TRUE(b().WritePage(3, a.data(), true).ok());
  EXPECT_TRUE(b().IsMapped(3));
  ASSERT_TRUE(b().ReadPage(3, buf.data()).ok());
  EXPECT_EQ(buf, a);
  EXPECT_TRUE(b().Audit().ok());

  ASSERT_TRUE(b().WritePage(3, c.data(), true).ok());
  ASSERT_TRUE(b().ReadPage(3, buf.data()).ok());
  EXPECT_EQ(buf, c);
  EXPECT_TRUE(b().Audit().ok());
  EXPECT_EQ(b().stats().host_page_writes, 2u);
}

TEST_P(FtlConformance, OutOfRangeLbaRejected) {
  std::vector<uint8_t> buf(page_size(), 0);
  EXPECT_TRUE(b().ReadPage(kLogicalPages, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(b().WritePage(kLogicalPages, buf.data(), true).IsInvalidArgument());
  EXPECT_TRUE(b().Trim(kLogicalPages).IsInvalidArgument());
  EXPECT_FALSE(b().IsMapped(kLogicalPages));
  EXPECT_EQ(b().capacity_pages(), kLogicalPages);
}

TEST_P(FtlConformance, TrimDropsMappingAndReadsErased) {
  std::string trims = std::string(IsNoFtl(GetParam()) ? "ftl" : b().backend_name()) + ".trims";
  uint64_t published = Published(trims);
  std::vector<uint8_t> a = Image(3);
  std::vector<uint8_t> buf(page_size());
  ASSERT_TRUE(b().WritePage(5, a.data(), true).ok());
  ASSERT_TRUE(b().Trim(5).ok());
  EXPECT_FALSE(b().IsMapped(5));
  ASSERT_TRUE(b().ReadPage(5, buf.data()).ok());
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](uint8_t x) { return x == 0xFF; }));
  EXPECT_TRUE(b().Audit().ok());
  // Trimming an already-unmapped page is a no-op, not an error.
  EXPECT_TRUE(b().Trim(5).ok());
  EXPECT_EQ(b().stats().trims, 1u);
  stack_.reset();
  EXPECT_EQ(Published(trims) - published, 1u);
}

TEST_P(FtlConformance, DeltaGatingMatchesCapability) {
  std::vector<uint8_t> a = Image(4);
  ASSERT_TRUE(b().WritePage(2, a.data(), true).ok());

  // write_delta appends into the erased delta-area tail of the physical
  // page (ISPP 1->0), so the target offset is the first delta-area byte.
  uint32_t off = DataBytes(*stack_);
  std::vector<uint8_t> patch = Pattern(5, 4);
  if (b().DeltaWritePossible(2)) {
    // IPA-capable backend: the append must succeed and reads must serve the
    // appended bytes in place.
    ASSERT_TRUE(b().WriteDelta(2, off, patch.data(), 4, true).ok());
    std::vector<uint8_t> buf(page_size());
    ASSERT_TRUE(b().ReadPage(2, buf.data()).ok());
    std::copy(patch.begin(), patch.end(), a.begin() + off);
    EXPECT_EQ(buf, a);
    EXPECT_EQ(b().stats().host_delta_writes, 1u);
  } else {
    // Cooked device: write_delta is structurally impossible, and the failure
    // must be the advertised NotSupported (the buffer pool's fallback cue).
    EXPECT_TRUE(b().WriteDelta(2, off, patch.data(), 4, true).IsNotSupported());
    EXPECT_EQ(b().stats().host_delta_writes, 0u);
  }
  EXPECT_TRUE(b().Audit().ok());
}

TEST_P(FtlConformance, GcStormPreservesAllData) {
  // Fill every logical page, then hammer the hot set until GC must run and
  // migrate the cold fill; every logical page keeps serving its latest image
  // throughout.
  std::vector<uint64_t> tag;
  ASSERT_NO_FATAL_FAILURE(Fill(*stack_, &tag));
  for (auto [lba, t] : StormWrites(120)) {
    ASSERT_TRUE(b().WritePage(lba, Image(t).data(), true).ok())
        << "storm tag " << t << " lba " << lba;
    tag[lba] = t;
  }
  std::vector<uint8_t> buf(page_size());
  for (ftl::Lba lba = 0; lba < kLogicalPages; lba++) {
    ASSERT_TRUE(b().ReadPage(lba, buf.data()).ok());
    EXPECT_EQ(buf, Image(tag[lba])) << lba;
  }
  EXPECT_GT(b().stats().gc_erases, 0u) << "storm never triggered GC";
  EXPECT_GT(b().stats().gc_page_migrations, 0u)
      << "GC never migrated a valid page";
  EXPECT_TRUE(b().Audit().ok());
}

// Host writes leave the last free block to GC, so GC must start while one
// more is free even when gc_free_block_threshold is 1; otherwise the first
// time the device fills, host writes find no block and GC never runs.
TEST_P(FtlConformance, GcThresholdOfOneSurvivesSustainedOverwrites) {
  std::unique_ptr<workload::Stack> s = MakeStack(GetParam(), /*gc_free_block_threshold=*/1);
  std::vector<uint64_t> tag;
  ASSERT_NO_FATAL_FAILURE(Fill(*s, &tag));
  for (uint64_t round = 1; round < 40; round++) {
    for (ftl::Lba lba = 0; lba < kLogicalPages; lba++) {
      uint64_t t = round * kLogicalPages + lba;
      ASSERT_TRUE(s->backend->WritePage(lba, ImageOf(*s, t).data(), true).ok())
          << "round " << round << " lba " << lba;
      tag[lba] = t;
    }
  }
  std::vector<uint8_t> buf(s->backend->page_size());
  for (ftl::Lba lba = 0; lba < kLogicalPages; lba++) {
    ASSERT_TRUE(s->backend->ReadPage(lba, buf.data()).ok());
    EXPECT_EQ(buf, ImageOf(*s, tag[lba])) << lba;
  }
  EXPECT_GT(s->backend->stats().gc_erases, 0u);
  EXPECT_TRUE(s->backend->Audit().ok());
}

// Power-cut sweep over a shorter storm. A dry run counts the storm's
// mutating flash ops and marks the ones issued by GC passes that migrate
// valid pages. Then, at kPoints evenly spaced ops, a fresh stack is filled,
// power is cut at that op, and after a power cycle, Mount() and Audit() every
// page must read its last acknowledged image; the torn write's page may
// instead read its new image. The swept ops must include GC-migration ops,
// where a torn copy or erase meets live data.
TEST_P(FtlConformance, PowerCutSweepOverGcStorm) {
  constexpr uint64_t kRounds = 20;
  constexpr uint64_t kPoints = 25;  // per arm, evenly spaced over the storm
  const std::vector<std::pair<ftl::Lba, uint64_t>> storm = StormWrites(kRounds);

  std::vector<bool> migrating_op;
  {
    std::vector<uint64_t> tag;
    ASSERT_NO_FATAL_FAILURE(Fill(*stack_, &tag));
    dev().SetPowerLossPolicy(flash::PowerLossPolicy{});  // restart op count
    for (auto [lba, t] : storm) {
      uint64_t migrated = b().stats().gc_page_migrations;
      uint64_t first_op = dev().mutation_ops();
      ASSERT_TRUE(b().WritePage(lba, Image(t).data(), true).ok());
      // GC runs before the host program, which is the write's last op.
      bool migrating = b().stats().gc_page_migrations > migrated;
      migrating_op.resize(dev().mutation_ops(), false);
      for (uint64_t op = first_op; op + 1 < dev().mutation_ops(); op++) {
        migrating_op[op] = migrating;
      }
    }
  }

  const uint64_t stride = (migrating_op.size() + kPoints - 1) / kPoints;
  uint64_t points = 0, migrating_points = 0;
  std::vector<uint8_t> buf(page_size());
  for (uint64_t point = 0; point < migrating_op.size(); point += stride) {
    std::unique_ptr<workload::Stack> owned = MakeStack(GetParam());
    workload::Stack& s = *owned;
    std::vector<uint64_t> tag;
    ASSERT_NO_FATAL_FAILURE(Fill(s, &tag));
    flash::PowerLossPolicy policy;
    policy.inject_at_op = point;
    policy.seed = 0xC0FFEE + point;
    s.dev->SetPowerLossPolicy(policy);
    ftl::Lba torn = kLogicalPages;
    uint64_t torn_tag = 0;
    for (auto [lba, t] : storm) {
      if (!s.backend->WritePage(lba, ImageOf(s, t).data(), true).ok()) {
        torn = lba;
        torn_tag = t;
        break;
      }
      tag[lba] = t;
    }
    ASSERT_LT(torn, kLogicalPages) << "op " << point << ": power never died";
    points++;
    if (migrating_op[point]) migrating_points++;

    s.dev->PowerCycle();
    s.dev->SetPowerLossPolicy(flash::PowerLossPolicy{});
    ASSERT_TRUE(s.backend->Mount().ok()) << "op " << point;
    Status audit = s.backend->Audit();
    ASSERT_TRUE(audit.ok()) << "op " << point << ": " << audit.ToString();
    for (ftl::Lba lba = 0; lba < kLogicalPages; lba++) {
      ASSERT_TRUE(s.backend->ReadPage(lba, buf.data()).ok())
          << "op " << point << " lba " << lba;
      bool ok = buf == ImageOf(s, tag[lba]) ||
                (lba == torn && buf == ImageOf(s, torn_tag));
      EXPECT_TRUE(ok) << "op " << point << " lba " << lba
                      << ": neither the acknowledged nor the torn image";
    }
  }
  EXPECT_GT(points, 0u);
  EXPECT_GT(migrating_points, 0u)
      << "no swept op fell inside a GC pass that migrates valid pages";
}

TEST_P(FtlConformance, MountIsIdempotentAndPreservesAcrossPowerCycles) {
  std::vector<std::vector<uint8_t>> want(6);
  for (ftl::Lba lba = 0; lba < want.size(); lba++) {
    want[lba] = Image(100 + lba);
    ASSERT_TRUE(b().WritePage(lba, want[lba].data(), true).ok());
  }

  auto verify = [&] {
    std::vector<uint8_t> buf(page_size());
    for (ftl::Lba lba = 0; lba < want.size(); lba++) {
      ASSERT_TRUE(b().ReadPage(lba, buf.data()).ok());
      EXPECT_EQ(buf, want[lba]) << "lba " << lba;
    }
    EXPECT_TRUE(b().Audit().ok());
  };

  // Mount on a live, never-crashed backend is legal and changes nothing.
  ftl::MountScanReport rep;
  ASSERT_TRUE(b().Mount(&rep).ok());
  EXPECT_EQ(rep.torn_pages_quarantined, 0u);
  verify();

  // Clean power cycle: RAM state is rebuilt purely from media.
  dev().PowerCycle();
  ASSERT_TRUE(b().Mount().ok());
  verify();

  // Mount twice in a row — the second scan must agree with the first.
  ASSERT_TRUE(b().Mount().ok());
  verify();
}

TEST_P(FtlConformance, TornWriteResolvesToOldOrNewImage) {
  std::vector<uint8_t> oldimg = Image(7);
  std::vector<uint8_t> newimg = Image(8);
  ASSERT_TRUE(b().WritePage(9, oldimg.data(), true).ok());

  // Arm the power-loss policy: the very next mutating flash op tears.
  flash::PowerLossPolicy policy;
  policy.inject_at_op = 0;
  policy.seed = 0xC0FFEE;
  dev().SetPowerLossPolicy(policy);
  Status s = b().WritePage(9, newimg.data(), true);
  EXPECT_FALSE(s.ok());  // power died mid-program

  dev().PowerCycle();
  dev().SetPowerLossPolicy(flash::PowerLossPolicy{});
  ASSERT_TRUE(b().Mount().ok());
  EXPECT_TRUE(b().Audit().ok());

  std::vector<uint8_t> buf(page_size());
  ASSERT_TRUE(b().ReadPage(9, buf.data()).ok());
  EXPECT_TRUE(buf == oldimg || buf == newimg)
      << "torn write must resolve to exactly the old or the new image";
}

// Stream-aware extension of the torn-write check: populate one LBA per
// stream through WriteTagged (so every frontier is live), then tear an
// overwrite on each of them in turn. Every page must still resolve to
// exactly its old or its new image after mount, whichever frontier the torn
// program was heading for.
TEST_P(FtlConformance, TornTaggedWriteResolvesOldOrNewAcrossAllFrontiers) {
  if (GetParam() != Kind::kStreamFtl) {
    GTEST_SKIP() << "stream frontiers only exist on the stream-aware backend";
  }
  std::vector<std::vector<uint8_t>> oldimg(ftl::kNumStreams);
  for (uint32_t s = 0; s < ftl::kNumStreams; s++) {
    oldimg[s] = Image(20 + s);
    ASSERT_TRUE(b().WriteTagged(s, oldimg[s].data(), true,
                                static_cast<ftl::StreamTag>(s))
                    .ok());
  }
  ASSERT_TRUE(b().Audit().ok());

  for (uint32_t s = 0; s < ftl::kNumStreams; s++) {
    std::vector<uint8_t> newimg = Image(40 + s);
    flash::PowerLossPolicy policy;
    policy.inject_at_op = 0;
    policy.seed = 0xC0FFEE + s;
    dev().SetPowerLossPolicy(policy);
    Status st = b().WriteTagged(s, newimg.data(), true,
                                static_cast<ftl::StreamTag>(s));
    EXPECT_FALSE(st.ok()) << "stream " << s << ": power died mid-program";

    dev().PowerCycle();
    dev().SetPowerLossPolicy(flash::PowerLossPolicy{});
    ASSERT_TRUE(b().Mount().ok()) << "stream " << s;
    ASSERT_TRUE(b().Audit().ok()) << "stream " << s;

    std::vector<uint8_t> buf(page_size());
    ASSERT_TRUE(b().ReadPage(s, buf.data()).ok());
    EXPECT_TRUE(buf == oldimg[s] || buf == newimg)
        << "stream " << s
        << ": torn tagged write must resolve to the old or the new image";
    if (buf == newimg) oldimg[s] = newimg;  // survived: the new image is now current

    // The other streams' pages must be untouched by this tear.
    for (uint32_t o = 0; o < ftl::kNumStreams; o++) {
      if (o == s) continue;
      ASSERT_TRUE(b().ReadPage(o, buf.data()).ok());
      EXPECT_EQ(buf, oldimg[o]) << "bystander stream " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FtlConformance,
                         ::testing::Values(Kind::kNoFtlRegion,
                                           Kind::kPageFtlGreedy,
                                           Kind::kPageFtlCostBenefit,
                                           Kind::kStreamFtl, Kind::kNoFtlPSlc,
                                           Kind::kNoFtlOddMlc),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           switch (info.param) {
                             case Kind::kNoFtlRegion: return "NoFtlRegion";
                             case Kind::kPageFtlGreedy: return "PageFtlGreedy";
                             case Kind::kPageFtlCostBenefit:
                               return "PageFtlCostBenefit";
                             case Kind::kStreamFtl: return "StreamFtl";
                             case Kind::kNoFtlPSlc: return "NoFtlPSlc";
                             case Kind::kNoFtlOddMlc: return "NoFtlOddMlc";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace ipa
