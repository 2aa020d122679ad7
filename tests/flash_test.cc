// Unit tests for the NAND flash emulator: geometry, ISPP program semantics,
// write_delta, MLC page pairing, erase/wear, timing, and error injection.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "flash/flash_array.h"
#include "flash/submit_queue.h"
#include "published.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace ipa::flash {
namespace {

Geometry SmallSlc() {
  Geometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 8;
  g.pages_per_block = 16;
  g.page_size = 512;
  g.oob_size = 64;
  g.cell_type = CellType::kSlc;
  g.max_programs_per_page = 4;
  return g;
}

Geometry SmallMlc() {
  Geometry g = SmallSlc();
  g.cell_type = CellType::kMlc;
  return g;
}

std::vector<uint8_t> Pattern(uint32_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (uint32_t i = 0; i < n; i++) v[i] = static_cast<uint8_t>(seed + i * 7);
  return v;
}

TEST(GeometryTest, AddressRoundTrip) {
  Geometry g = SmallSlc();
  for (Ppn ppn : {Ppn{0}, Ppn{17}, Ppn{128}, g.total_pages() - 1}) {
    PageAddress a = FromPpn(g, ppn);
    EXPECT_EQ(ToPpn(g, a), ppn);
    EXPECT_LT(a.chip, g.total_chips());
    EXPECT_LT(a.block, g.blocks_per_chip);
    EXPECT_LT(a.page, g.pages_per_block);
  }
}

TEST(GeometryTest, CapacityMath) {
  Geometry g = SmallSlc();
  EXPECT_EQ(g.total_chips(), 4u);
  EXPECT_EQ(g.total_blocks(), 32u);
  EXPECT_EQ(g.total_pages(), 512u);
  EXPECT_EQ(g.capacity_bytes(), 512u * 512u);
}

TEST(GeometryTest, MlcPairing) {
  Geometry g = SmallMlc();
  EXPECT_TRUE(IsLsbPage(g, 0));
  EXPECT_FALSE(IsLsbPage(g, 1));
  EXPECT_TRUE(IsLsbPage(g, 2));
  EXPECT_EQ(MsbPartnerOf(g, 0), 3u);
  EXPECT_EQ(MsbPartnerOf(g, 2), 5u);
  EXPECT_EQ(WordlineOf(g, 0), 0u);
  EXPECT_EQ(WordlineOf(g, 2), 1u);
}

TEST(GeometryTest, SlcEveryPageIsLsb) {
  Geometry g = SmallSlc();
  for (uint32_t p = 0; p < g.pages_per_block; p++) {
    EXPECT_TRUE(IsLsbPage(g, p));
  }
}

TEST(FlashArrayTest, ErasedPageReadsAllOnes) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  std::vector<uint8_t> buf(g.page_size, 0);
  ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  for (uint8_t b : buf) EXPECT_EQ(b, 0xFF);
}

TEST(FlashArrayTest, ProgramReadRoundTrip) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  auto data = Pattern(g.page_size, 3);
  ASSERT_TRUE(dev.ProgramPage(7, data.data()).ok());
  std::vector<uint8_t> buf(g.page_size);
  ASSERT_TRUE(dev.ReadPage(7, buf.data()).ok());
  EXPECT_EQ(buf, data);
  EXPECT_EQ(dev.stats().page_programs, 1u);
  EXPECT_EQ(dev.stats().page_reads, 1u);
}

TEST(FlashArrayTest, IsppRejectsZeroToOne) {
  Geometry g = SmallSlc();
  uint64_t published = Published("flash.ispp_rejections");
  {
    FlashArray dev(g, SlcTiming());
    std::vector<uint8_t> zeros(g.page_size, 0x00);
    ASSERT_TRUE(dev.ProgramPage(0, zeros.data()).ok());
    std::vector<uint8_t> ones(g.page_size, 0x01);  // needs 0 -> 1: illegal
    Status s = dev.ProgramPage(0, ones.data());
    EXPECT_TRUE(s.IsNotSupported());
    EXPECT_EQ(dev.stats().ispp_rejections, 1u);
  }
  EXPECT_EQ(Published("flash.ispp_rejections") - published, 1u);
}

TEST(FlashArrayTest, IsppAllowsOneToZeroReprogram) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  std::vector<uint8_t> first(g.page_size, 0xF0);
  ASSERT_TRUE(dev.ProgramPage(0, first.data()).ok());
  std::vector<uint8_t> second(g.page_size, 0x30);  // clears more bits only
  EXPECT_TRUE(dev.ProgramPage(0, second.data()).ok());
  std::vector<uint8_t> buf(g.page_size);
  ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x30);
}

TEST(FlashArrayTest, WriteDeltaAppendsIntoErasedRange) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  std::vector<uint8_t> page(g.page_size, 0x00);
  std::memset(page.data() + 400, 0xFF, 112);  // delta area left erased
  ASSERT_TRUE(dev.ProgramPage(0, page.data()).ok());

  uint8_t delta[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(dev.ProgramDelta(0, 400, delta, 8).ok());
  std::vector<uint8_t> buf(g.page_size);
  ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data() + 400, delta, 8), 0);
  EXPECT_EQ(buf[399], 0x00);   // body untouched
  EXPECT_EQ(buf[408], 0xFF);   // rest of delta area still erased
  EXPECT_EQ(dev.stats().delta_programs, 1u);
  EXPECT_EQ(dev.stats().delta_bytes_programmed, 8u);
}

TEST(FlashArrayTest, WriteDeltaRejectsProgrammedRange) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  std::vector<uint8_t> page(g.page_size, 0x00);
  ASSERT_TRUE(dev.ProgramPage(0, page.data()).ok());
  uint8_t delta[4] = {0xAB, 0xCD, 0xEF, 0x01};
  Status s = dev.ProgramDelta(0, 100, delta, 4);
  EXPECT_TRUE(s.IsNotSupported());
}

TEST(FlashArrayTest, WriteDeltaRejectsErasedPage) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  uint8_t delta[4] = {1, 2, 3, 4};
  EXPECT_TRUE(dev.ProgramDelta(0, 0, delta, 4).IsInvalidArgument());
}

TEST(FlashArrayTest, ProgramBudgetEnforced) {
  Geometry g = SmallSlc();
  g.max_programs_per_page = 3;
  FlashArray dev(g, SlcTiming());
  std::vector<uint8_t> page(g.page_size, 0x00);
  std::memset(page.data() + 256, 0xFF, 256);
  ASSERT_TRUE(dev.ProgramPage(0, page.data()).ok());  // program #1
  uint8_t d[1] = {0x11};
  ASSERT_TRUE(dev.ProgramDelta(0, 256, d, 1).ok());   // #2
  ASSERT_TRUE(dev.ProgramDelta(0, 257, d, 1).ok());   // #3
  EXPECT_TRUE(dev.ProgramDelta(0, 258, d, 1).IsNotSupported());  // over budget
}

TEST(FlashArrayTest, MlcRejectsDeltaOnMsbPage) {
  Geometry g = SmallMlc();
  FlashArray dev(g, MlcTiming());
  std::vector<uint8_t> page(g.page_size, 0x00);
  std::memset(page.data() + 256, 0xFF, 256);
  ASSERT_TRUE(dev.ProgramPage(0, page.data()).ok());  // LSB page 0
  ASSERT_TRUE(dev.ProgramPage(1, page.data()).ok());  // MSB page 1
  uint8_t d[2] = {0x12, 0x34};
  EXPECT_TRUE(dev.ProgramDelta(0, 256, d, 2).ok());
  EXPECT_TRUE(dev.ProgramDelta(1, 256, d, 2).IsNotSupported());
}

TEST(FlashArrayTest, MlcRequiresInOrderInitialPrograms) {
  Geometry g = SmallMlc();
  FlashArray dev(g, MlcTiming());
  std::vector<uint8_t> page(g.page_size, 0x00);
  ASSERT_TRUE(dev.ProgramPage(5, page.data()).ok());
  EXPECT_TRUE(dev.ProgramPage(3, page.data()).IsNotSupported());
  EXPECT_TRUE(dev.ProgramPage(6, page.data()).ok());
}

TEST(FlashArrayTest, EraseResetsBlockAndCountsWear) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  std::vector<uint8_t> page = Pattern(g.page_size, 3);
  std::vector<uint8_t> oob(g.oob_size, 0x00);
  ASSERT_TRUE(dev.ProgramPage(0, page.data(), oob.data(), g.oob_size).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  std::vector<uint8_t> buf(g.page_size);
  ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  for (uint8_t b : buf) EXPECT_EQ(b, 0xFF);
  ASSERT_TRUE(dev.ReadOob(0, buf.data(), g.oob_size).ok());
  for (uint32_t i = 0; i < g.oob_size; i++) EXPECT_EQ(buf[i], 0xFF);
  EXPECT_TRUE(dev.page_state(0).data.empty());
  EXPECT_TRUE(dev.page_state(0).oob.empty());
  EXPECT_TRUE(dev.page_state(0).IsErased());
  EXPECT_TRUE(dev.AuditState().ok());
  EXPECT_EQ(dev.EraseCount(0), 1u);
  // Page is reprogrammable after erase and stores exactly the new bytes,
  // including the 1 bits the old image had cleared.
  std::vector<uint8_t> next = Pattern(g.page_size, 200);
  ASSERT_TRUE(dev.ProgramPage(0, next.data()).ok());
  ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, next);
  const flash::PageImage& stored = dev.page_state(0).data;
  EXPECT_EQ(std::vector<uint8_t>(stored.data(), stored.data() + stored.size()), next);
  EXPECT_TRUE(dev.page_state(0).oob.empty());
  EXPECT_TRUE(dev.AuditState().ok());
}

TEST(FlashArrayTest, OobFollowsIsppRules) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  std::vector<uint8_t> page(g.page_size, 0x00);
  ASSERT_TRUE(dev.ProgramPage(0, page.data()).ok());
  uint8_t ecc1[3] = {0x12, 0x34, 0x56};
  ASSERT_TRUE(dev.ProgramOob(0, 0, ecc1, 3).ok());
  uint8_t ecc2[3] = {0x78, 0x9A, 0xBC};
  ASSERT_TRUE(dev.ProgramOob(0, 3, ecc2, 3).ok());  // disjoint: fine
  EXPECT_TRUE(dev.ProgramOob(0, 0, ecc2, 3).IsNotSupported());  // overlap 0->1
  uint8_t out[6];
  ASSERT_TRUE(dev.ReadOob(0, out, 6).ok());
  EXPECT_EQ(std::memcmp(out, ecc1, 3), 0);
  EXPECT_EQ(std::memcmp(out + 3, ecc2, 3), 0);
}

TEST(FlashArrayTest, TimingAdvancesClockOnSyncOps) {
  Geometry g = SmallSlc();
  TimingModel t = SlcTiming();
  FlashArray dev(g, t);
  std::vector<uint8_t> page(g.page_size, 0x00);
  SimTime before = dev.clock().Now();
  IoTiming io;
  ASSERT_TRUE(dev.ProgramPage(0, page.data(), nullptr, 0, &io, true).ok());
  EXPECT_GT(dev.clock().Now(), before);
  EXPECT_GE(io.LatencyUs(), t.program_lsb_us);
}

TEST(FlashArrayTest, AsyncOpsQueueBehindButDontBlock) {
  Geometry g = SmallSlc();
  g.channels = 1;
  g.chips_per_channel = 1;
  TimingModel t = SlcTiming();
  FlashArray dev(g, t);
  std::vector<uint8_t> page(g.page_size, 0x00);
  // Async program: clock does not advance.
  SimTime t0 = dev.clock().Now();
  ASSERT_TRUE(dev.ProgramPage(0, page.data(), nullptr, 0, nullptr, false).ok());
  EXPECT_EQ(dev.clock().Now(), t0);
  // A following sync read on the same chip queues behind the program.
  std::vector<uint8_t> buf(g.page_size);
  IoTiming io;
  ASSERT_TRUE(dev.ReadPage(0, buf.data(), &io, true).ok());
  EXPECT_GE(io.LatencyUs(), t.program_lsb_us);  // waited for the program
}

TEST(FlashArrayTest, ChipParallelismReducesQueueing) {
  // Two sync reads on different chips should not serialize on the array op.
  Geometry g = SmallSlc();
  TimingModel t = SlcTiming();
  FlashArray dev1(g, t);
  std::vector<uint8_t> page(g.page_size, 0x00);
  std::vector<uint8_t> buf(g.page_size);

  // Saturate chip 0 with async reads, then read chip 1 (different channel).
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(dev1.ReadPage(0, buf.data(), nullptr, false).ok());
  }
  Ppn other_channel_ppn =
      ToPpn(g, {g.chips_per_channel /* chip 2 -> channel 1 */, 0, 0});
  IoTiming io;
  ASSERT_TRUE(dev1.ReadPage(other_channel_ppn, buf.data(), &io, true).ok());
  EXPECT_LT(io.LatencyUs(), 4 * t.read_us);
}

TEST(FlashArrayTest, RetentionErrorsInjectedAndCounted) {
  Geometry g = SmallSlc();
  ErrorModel e;
  e.retention_flip_per_read = 1.0;  // force a flip attempt per read
  FlashArray dev(g, SlcTiming(), e);
  std::vector<uint8_t> page(g.page_size, 0x00);
  ASSERT_TRUE(dev.ProgramPage(0, page.data()).ok());
  std::vector<uint8_t> buf(g.page_size);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  }
  EXPECT_GT(dev.stats().retention_flips, 0u);
  // Retention flips go 0 -> 1 (charge leaks away).
  uint64_t ones = 0;
  for (uint8_t b : buf) ones += static_cast<unsigned>(std::popcount(unsigned(b)));
  EXPECT_EQ(ones, dev.stats().retention_flips);
}

TEST(FlashArrayTest, InterferenceHitsOnlyErasedRegionsOfMsbNeighbors) {
  Geometry g = SmallMlc();
  ErrorModel e;
  e.interference_flip_per_delta = 1.0;
  uint64_t published = Published("flash.bit_errors.interference");
  uint64_t flips = 0;
  {
    FlashArray dev(g, MlcTiming(), e);
    // Program pages 0..7 in order: body 0x00, tail erased.
    std::vector<uint8_t> page(g.page_size, 0x00);
    std::memset(page.data() + 384, 0xFF, g.page_size - 384);
    for (uint32_t p = 0; p < 8; p++) {
      ASSERT_TRUE(dev.ProgramPage(p, page.data()).ok());
    }
    // Delta append on LSB page 2 (wordline 1); neighbors: MSB pages on WL0/WL2.
    uint8_t d[4] = {0, 0, 0, 0};
    ASSERT_TRUE(dev.ProgramDelta(2, 384, d, 4).ok());
    flips = dev.stats().interference_flips;
    EXPECT_GT(flips, 0u);
    // Verify no programmed body byte of any page was damaged.
    std::vector<uint8_t> buf(g.page_size);
    for (uint32_t p = 0; p < 8; p++) {
      ASSERT_TRUE(dev.ReadPage(p, buf.data()).ok());
      for (uint32_t i = 0; i < 384; i++) {
        ASSERT_EQ(buf[i], 0x00) << "page " << p << " body byte " << i;
      }
    }
  }
  EXPECT_EQ(Published("flash.bit_errors.interference") - published, flips);
}

// An image handed out by ReadImage is shared with the stored page, so every
// command that changes stored bytes in place must copy it first: the reader
// keeps the bytes it read.
TEST(FlashArrayTest, ReadImageSurvivesLaterChanges) {
  struct Case {
    const char* name;
    bool mlc;
    ErrorModel errors;
    Ppn read;  ///< Page whose image is read before the change.
    std::function<void(FlashArray&)> change;
  };
  // SLC: page 0 holds a zero body and an erased tail; MLC: pages 0..7 do.
  const std::vector<uint8_t> cleared(512, 0x00);
  const uint8_t delta[4] = {0x12, 0x34, 0x56, 0x78};
  auto tear_next = [](FlashArray& dev) {
    PowerLossPolicy p;
    p.inject_at_op = 0;
    dev.SetPowerLossPolicy(p);
  };
  const std::vector<Case> cases = {
      {"delta program", false, {}, 0,
       [&](FlashArray& d) { ASSERT_TRUE(d.ProgramDelta(0, 400, delta, 4).ok()); }},
      {"ISPP re-program", false, {}, 0,
       [&](FlashArray& d) { ASSERT_TRUE(d.ProgramPage(0, cleared.data()).ok()); }},
      {"refresh", false, {}, 0,
       [&](FlashArray& d) { ASSERT_TRUE(d.RefreshPage(0, cleared.data()).ok()); }},
      {"torn page program", false, {}, 0,
       [&](FlashArray& d) {
         tear_next(d);
         ASSERT_TRUE(d.ProgramPage(0, cleared.data()).IsUnavailable());
       }},
      {"torn delta program", false, {}, 0,
       [&](FlashArray& d) {
         tear_next(d);
         ASSERT_TRUE(d.ProgramDelta(0, 400, delta, 4).IsUnavailable());
       }},
      {"erase", false, {}, 0, [&](FlashArray& d) { ASSERT_TRUE(d.EraseBlock(0).ok()); }},
      {"torn erase", false, {}, 0,
       [&](FlashArray& d) {
         tear_next(d);
         ASSERT_TRUE(d.EraseBlock(0).IsUnavailable());
       }},
      {"retention flip", false, {.retention_flip_per_read = 1.0}, 0,
       [&](FlashArray& d) {
         std::vector<uint8_t> buf(512);
         for (int i = 0; i < 20; i++) ASSERT_TRUE(d.ReadPage(0, buf.data()).ok());
         ASSERT_GT(d.stats().retention_flips, 1u);
       }},
      {"interference flip", true, {.interference_flip_per_delta = 1.0}, 3,
       [&](FlashArray& d) {
         ASSERT_TRUE(d.ProgramDelta(2, 400, delta, 4).ok());
         ASSERT_GT(d.stats().interference_flips, 0u);
       }},
      {"corrupt bits", false, {}, 0,
       [&](FlashArray& d) { ASSERT_TRUE(d.CorruptBits(0, 7, 0x01).ok()); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Geometry g = c.mlc ? SmallMlc() : SmallSlc();
    FlashArray dev(g, c.mlc ? MlcTiming() : SlcTiming(), c.errors);
    std::vector<uint8_t> page(g.page_size, 0x00);
    std::memset(page.data() + 384, 0xFF, g.page_size - 384);
    for (Ppn p = 0; p < (c.mlc ? 8u : 1u); p++) {
      ASSERT_TRUE(dev.ProgramPage(p, page.data()).ok());
    }
    PageImage image;
    ASSERT_TRUE(dev.ReadImage(c.read, &image).ok());
    const std::vector<uint8_t> read(image.data(), image.data() + image.size());
    c.change(dev);
    EXPECT_EQ(std::vector<uint8_t>(image.data(), image.data() + image.size()), read);
    const PageState& ps = dev.page_state(c.read);
    EXPECT_TRUE(ps.data.empty() ||
                std::memcmp(ps.data.data(), read.data(), g.page_size) != 0)
        << "the change left the stored page as it was";
  }
}

// An image whose last handle goes returns to its pool, and the next Take()
// reuses its buffer. Under AddressSanitizer the bytes are poisoned while the
// buffer waits on the free list, so a read through a stale pointer fails.
TEST(PageImageTest, ReleasedImageReturnsPoisonedToItsPool) {
  PageImagePool pool(512);
  PageImage image = pool.Take();
  PageImage other = image;
  const uint8_t* stale = image.data();
  image.reset();
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_FALSE(__asan_address_is_poisoned(stale));  // `other` still holds it
#endif
  other.reset();
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_TRUE(__asan_address_is_poisoned(stale));
  EXPECT_TRUE(__asan_address_is_poisoned(stale + 511));
#endif
  PageImage again = pool.Take();
  EXPECT_EQ(again.data(), stale);
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_FALSE(__asan_address_is_poisoned(stale));
  EXPECT_FALSE(__asan_address_is_poisoned(stale + 511));
#endif
}

TEST(FlashArrayTest, InvalidAddressesRejected) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  std::vector<uint8_t> buf(g.page_size);
  EXPECT_TRUE(dev.ReadPage(g.total_pages(), buf.data()).IsInvalidArgument());
  EXPECT_TRUE(dev.EraseBlock(g.total_blocks()).IsInvalidArgument());
  uint8_t d[4] = {0};
  EXPECT_TRUE(dev.ProgramDelta(0, g.page_size - 2, d, 4).IsInvalidArgument());
}

TEST(PowerLossTest, DeviceStaysOffUntilPowerCycle) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  PowerLossPolicy pol;
  pol.inject_at_op = 0;  // first mutating op after policy install
  pol.seed = 7;
  dev.SetPowerLossPolicy(pol);

  auto data = Pattern(g.page_size, 1);
  ASSERT_TRUE(dev.ProgramPage(0, data.data()).IsUnavailable());
  EXPECT_FALSE(dev.powered_on());
  std::vector<uint8_t> buf(g.page_size);
  EXPECT_TRUE(dev.ReadPage(0, buf.data()).IsUnavailable());
  EXPECT_TRUE(dev.EraseBlock(0).IsUnavailable());
  EXPECT_EQ(dev.stats().power_loss_injections, 1u);
  EXPECT_EQ(dev.stats().torn_page_programs, 1u);

  dev.PowerCycle();
  EXPECT_TRUE(dev.powered_on());
  ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  // Torn program: bits are only ever cleared toward the target image, so
  // every 0-bit in the target is either still 1 (not yet programmed) or 0.
  for (uint32_t i = 0; i < g.page_size; i++) {
    EXPECT_EQ(buf[i] & data[i], data[i]) << "byte " << i;
  }
}

// Satellite property test: a delta torn by power loss leaves charged (0)
// cells behind; any later ProgramDelta that would need to set one of those
// bits back to 1 must be ISPP-rejected, never silently merged.
TEST(PowerLossTest, TornDeltaBlocksOverlappingRewrite) {
  constexpr uint32_t kDeltaOff = 400;
  constexpr uint32_t kDeltaLen = 16;
  bool saw_partial_tear = false;
  for (uint64_t seed = 1; seed <= 32; seed++) {
    Geometry g = SmallSlc();
    g.max_programs_per_page = 64;  // room for the per-byte probe writes
    FlashArray dev(g, SlcTiming());
    std::vector<uint8_t> page(g.page_size, 0x00);
    std::memset(page.data() + kDeltaOff, 0xFF, 112);  // erased delta area
    ASSERT_TRUE(dev.ProgramPage(0, page.data()).ok());

    PowerLossPolicy pol;
    pol.inject_at_op = 0;
    pol.seed = seed;
    dev.SetPowerLossPolicy(pol);
    std::vector<uint8_t> delta(kDeltaLen, 0x00);  // clears every bit it touches
    ASSERT_TRUE(
        dev.ProgramDelta(0, kDeltaOff, delta.data(), kDeltaLen).IsUnavailable());
    EXPECT_EQ(dev.stats().torn_delta_programs, 1u);

    dev.PowerCycle();
    dev.SetPowerLossPolicy(PowerLossPolicy{});  // no further injection

    std::vector<uint8_t> buf(g.page_size);
    ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
    EXPECT_EQ(buf[kDeltaOff - 1], 0x00);      // body untouched by the tear
    EXPECT_EQ(buf[kDeltaOff + kDeltaLen], 0xFF);  // beyond the delta untouched
    for (uint32_t i = 0; i < kDeltaLen; i++) {
      uint8_t rewrite = 0xFF;  // asks for every bit set
      Status s = dev.ProgramDelta(0, kDeltaOff + i, &rewrite, 1);
      if (buf[kDeltaOff + i] != 0xFF) {
        // The torn delta cleared bits here; re-raising them is impossible.
        EXPECT_TRUE(s.IsNotSupported()) << "seed " << seed << " byte " << i;
        saw_partial_tear = true;
      } else {
        EXPECT_TRUE(s.ok()) << "seed " << seed << " byte " << i;
      }
    }
  }
  // Across 32 seeds the tear point must land mid-delta at least once.
  EXPECT_TRUE(saw_partial_tear);
}

TEST(PowerLossTest, TornEraseLeavesGarbageUntilReErased) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  auto data = Pattern(g.page_size, 5);
  ASSERT_TRUE(dev.ProgramPage(0, data.data()).ok());

  PowerLossPolicy pol;
  pol.inject_at_op = 0;
  pol.seed = 11;
  dev.SetPowerLossPolicy(pol);
  ASSERT_TRUE(dev.EraseBlock(0).IsUnavailable());
  EXPECT_EQ(dev.stats().torn_erases, 1u);

  dev.PowerCycle();
  dev.SetPowerLossPolicy(PowerLossPolicy{});
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  std::vector<uint8_t> buf(g.page_size);
  ASSERT_TRUE(dev.ReadPage(0, buf.data()).ok());
  for (uint8_t b : buf) EXPECT_EQ(b, 0xFF);
  EXPECT_TRUE(dev.ProgramPage(0, data.data()).ok());
}

TEST(PowerLossTest, ProbabilisticInjectionFiresOnce) {
  Geometry g = SmallSlc();
  FlashArray dev(g, SlcTiming());
  PowerLossPolicy pol;
  pol.per_op_probability = 0.2;
  pol.seed = 99;
  dev.SetPowerLossPolicy(pol);
  std::vector<uint8_t> page(g.page_size, 0x00);
  bool fired = false;
  for (uint32_t p = 0; p < 100 && !fired; p++) {
    fired = dev.ProgramPage(p, page.data()).IsUnavailable();
  }
  EXPECT_TRUE(fired);
  EXPECT_EQ(dev.stats().power_loss_injections, 1u);
}

// -- Submission lanes (submit_queue.h) ---------------------------------------

TEST(FlashLaneTest, SubmissionOrderIndependent) {
  // Two lanes on chips 0 and 1 — the SAME channel, so the merged schedule
  // must arbitrate the bus. Submitting the identical per-lane sequences in
  // different cross-lane call orders must produce the same epoch time.
  Geometry g = SmallSlc();
  std::vector<uint8_t> pat = Pattern(g.page_size, 3);
  auto run = [&](bool interleaved) {
    FlashArray dev(g, SlcTiming());
    FlashLane* a = dev.CreateLane();
    FlashLane* b = dev.CreateLane();
    dev.BindLaneToChips(a, {0});
    dev.BindLaneToChips(b, {1});
    auto submit_a = [&](uint32_t p) {
      ASSERT_TRUE(dev.ProgramPage(ToPpn(g, {0, 0, p}), pat.data()).ok());
      a->clock().Advance(7);  // worker "CPU time" between commands
    };
    auto submit_b = [&](uint32_t p) {
      ASSERT_TRUE(dev.ProgramPage(ToPpn(g, {1, 0, p}), pat.data()).ok());
      b->clock().Advance(13);
    };
    if (interleaved) {
      for (uint32_t p = 0; p < 8; p++) {
        submit_a(p);
        submit_b(p);
      }
    } else {
      for (uint32_t p = 0; p < 8; p++) submit_a(p);
      for (uint32_t p = 0; p < 8; p++) submit_b(p);
    }
    SimTime epoch = dev.DrainLanes();
    EXPECT_EQ(dev.clock().Now(), epoch);
    EXPECT_EQ(a->clock().Now(), epoch);
    EXPECT_EQ(b->clock().Now(), epoch);
    return epoch;
  };
  SimTime interleaved = run(true);
  SimTime sequential = run(false);
  EXPECT_EQ(interleaved, sequential);
  EXPECT_GT(interleaved, 0u);
}

TEST(FlashLaneTest, LanesOverlapServiceTime) {
  // Two lanes on chips of different channels overlap on the simulated clock;
  // one synchronous submitter pays the full serial sum.
  Geometry g = SmallSlc();
  std::vector<uint8_t> pat = Pattern(g.page_size, 5);
  FlashArray serial(g, SlcTiming());
  for (uint32_t p = 0; p < 8; p++) {
    ASSERT_TRUE(serial.ProgramPage(ToPpn(g, {0, 0, p}), pat.data()).ok());
    ASSERT_TRUE(serial.ProgramPage(ToPpn(g, {2, 0, p}), pat.data()).ok());
  }
  SimTime serial_time = serial.clock().Now();

  FlashArray dev(g, SlcTiming());
  FlashLane* a = dev.CreateLane();
  FlashLane* b = dev.CreateLane();
  dev.BindLaneToChips(a, {0});
  dev.BindLaneToChips(b, {2});
  for (uint32_t p = 0; p < 8; p++) {
    ASSERT_TRUE(dev.ProgramPage(ToPpn(g, {0, 0, p}), pat.data()).ok());
    ASSERT_TRUE(dev.ProgramPage(ToPpn(g, {2, 0, p}), pat.data()).ok());
  }
  SimTime overlapped = dev.DrainLanes();
  EXPECT_LT(overlapped * 4, serial_time * 3);  // at least 25% faster
}

TEST(FlashLaneTest, AggregateStatsSumsLaneCounters) {
  Geometry g = SmallSlc();
  std::vector<uint8_t> pat = Pattern(g.page_size, 9);
  FlashArray dev(g, SlcTiming());
  FlashLane* a = dev.CreateLane();
  dev.BindLaneToChips(a, {0});
  ASSERT_TRUE(dev.ProgramPage(ToPpn(g, {0, 0, 0}), pat.data()).ok());
  ASSERT_TRUE(dev.ProgramPage(ToPpn(g, {1, 0, 0}), pat.data()).ok());
  EXPECT_EQ(a->stats().page_programs, 1u);       // chip 0 routed to the lane
  EXPECT_EQ(dev.stats().page_programs, 1u);      // chip 1 on the shared path
  EXPECT_EQ(dev.AggregateStats().page_programs, 2u);
  uint64_t published = Published("flash.page_programs.lsb");
  dev.ResetStats();  // publishes the lane's program with the device's
  EXPECT_EQ(Published("flash.page_programs.lsb") - published, 2u);
  EXPECT_EQ(a->stats().page_programs, 0u);
  EXPECT_EQ(dev.AggregateStats().page_programs, 0u);
}

}  // namespace
}  // namespace ipa::flash
