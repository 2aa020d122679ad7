// Unit + property tests for the SmartMedia-Hamming ECC.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "flash/ecc.h"

namespace ipa::flash {
namespace {

using Ecc = std::array<uint8_t, kEccBytesPerSegment>;

std::vector<uint8_t> RandomSegment(Rng& rng, size_t n) {
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

inline uint8_t Parity8(uint8_t b) {
  return static_cast<uint8_t>(std::popcount(static_cast<unsigned>(b)) & 1);
}

// The code as SmartMedia defines it, one byte and one bit at a time: six
// column parities per byte, and for each odd-parity byte one line-parity bit
// per address bit. A zero byte adds nothing, so after the first `len` bytes
// the state holds the code of a `len`-byte segment.
struct BitSerialEcc {
  uint16_t lp = 0;  // bit 2k = LP2k (address bit k == 0), bit 2k+1 = LP2k+1
  uint8_t cp = 0;   // bits 0..5 = CP0..CP5

  void Add(size_t i, uint8_t b) {
    if (Parity8(b)) {
      for (unsigned k = 0; k < 8; k++) {
        unsigned bit = ((i >> k) & 1) ? (2 * k + 1) : (2 * k);
        lp ^= static_cast<uint16_t>(1u << bit);
      }
    }
    cp ^= static_cast<uint8_t>(Parity8(b & 0x55) << 0);
    cp ^= static_cast<uint8_t>(Parity8(b & 0xAA) << 1);
    cp ^= static_cast<uint8_t>(Parity8(b & 0x33) << 2);
    cp ^= static_cast<uint8_t>(Parity8(b & 0xCC) << 3);
    cp ^= static_cast<uint8_t>(Parity8(b & 0x0F) << 4);
    cp ^= static_cast<uint8_t>(Parity8(b & 0xF0) << 5);
  }
  Ecc Code() const {
    return {static_cast<uint8_t>(lp & 0xFF), static_cast<uint8_t>(lp >> 8),
            static_cast<uint8_t>(cp | 0xC0)};
  }
};

// EccEncode must return the same bytes for every input.
Ecc ReferenceEncode(const uint8_t* data, size_t len) {
  BitSerialEcc ecc;
  for (size_t i = 0; i < kEccSegment; i++) ecc.Add(i, (i < len) ? data[i] : 0);
  return ecc.Code();
}

// The region check one segment at a time, as EccCheckRegion falls back to
// it: a segment without stored ECC ends the check as kUncorrectable.
EccResult CheckEachSegment(uint8_t* data, size_t len, const uint8_t* stored_ecc,
                           size_t stored_len, uint64_t* corrected_bits) {
  EccResult worst = EccResult::kClean;
  for (size_t off = 0, seg = 0; off < len; off += kEccSegment, seg++) {
    if ((seg + 1) * kEccBytesPerSegment > stored_len) return EccResult::kUncorrectable;
    Ecc stored;
    std::copy_n(stored_ecc + seg * kEccBytesPerSegment, kEccBytesPerSegment,
                stored.begin());
    EccResult r = EccCheckAndCorrect(data + off, std::min(kEccSegment, len - off), stored);
    if (r == EccResult::kCorrected) (*corrected_bits)++;
    worst = std::max(worst, r);
  }
  return worst;
}

TEST(EccTest, MatchesBitSerialReference) {
  Rng rng(3);
  std::vector<uint8_t> buf(kEccSegment + 8);
  for (size_t len = 0; len <= kEccSegment; len++) {
    for (size_t align = 0; align < 8; align++) {
      for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
      const uint8_t* seg = buf.data() + align;
      ASSERT_EQ(EccEncode(seg, len), ReferenceEncode(seg, len))
          << "len " << len << " align " << align;
    }
  }
}

// The on-flash ECC bytes, pinned: a self-consistent code with another bit
// layout would pass every other test here.
TEST(EccTest, KnownAnswers) {
  std::array<uint8_t, kEccSegment> seg{};
  seg[0] = 0x01;
  EXPECT_EQ(EccEncode(seg.data(), kEccSegment), (Ecc{0x55, 0x55, 0xD5}));
  seg[0] = 0x00;
  seg[255] = 0x80;
  EXPECT_EQ(EccEncode(seg.data(), kEccSegment), (Ecc{0xAA, 0xAA, 0xEA}));
  std::iota(seg.begin(), seg.begin() + 100, uint8_t{0});
  EXPECT_EQ(EccEncode(seg.data(), 100), (Ecc{0x0F, 0x00, 0xC0}));
  EXPECT_EQ(EccEncode(seg.data(), 0), (Ecc{0x00, 0x00, 0xC0}));
}

TEST(EccTest, CleanDataVerifies) {
  Rng rng(1);
  auto data = RandomSegment(rng, kEccSegment);
  auto ecc = EccEncode(data.data(), data.size());
  EXPECT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc), EccResult::kClean);
}

TEST(EccTest, ShortSegmentsSupported) {
  Rng rng(2);
  for (size_t len : {1u, 7u, 100u, 255u}) {
    auto data = RandomSegment(rng, len);
    auto ecc = EccEncode(data.data(), len);
    EXPECT_EQ(EccCheckAndCorrect(data.data(), len, ecc), EccResult::kClean);
  }
}

TEST(EccTest, DoubleBitErrorDetected) {
  Rng rng(4);
  auto data = RandomSegment(rng, kEccSegment);
  auto ecc = EccEncode(data.data(), data.size());
  data[10] ^= 0x01;
  data[200] ^= 0x80;
  EXPECT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc),
            EccResult::kUncorrectable);
}

// No bit of a short segment's zero padding can flip, so a syndrome that
// points there takes three or more flipped bits and must not be reported as
// a correction.
TEST(EccTest, SyndromeInPaddingIsUncorrectable) {
  Rng rng(8);
  auto data = RandomSegment(rng, 100);
  auto ecc = EccEncode(data.data(), data.size());
  data[8] ^= 0x01;
  data[32] ^= 0x01;
  data[64] ^= 0x01;  // decodes as bit 0 of byte 8 ^ 32 ^ 64 = 104
  auto read = data;
  EXPECT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc),
            EccResult::kUncorrectable);
  EXPECT_EQ(data, read);
  uint64_t corrected = 0;
  EXPECT_EQ(EccCheckRegion(data.data(), data.size(), ecc.data(), ecc.size(),
                           &corrected),
            EccResult::kUncorrectable);
  EXPECT_EQ(corrected, 0u);
}

TEST(EccTest, ErrorInEccBytesTolerated) {
  Rng rng(5);
  auto data = RandomSegment(rng, kEccSegment);
  auto ecc = EccEncode(data.data(), data.size());
  auto orig = data;
  ecc[1] ^= 0x10;  // single flipped bit inside the ECC itself
  EXPECT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc),
            EccResult::kCorrected);
  EXPECT_EQ(data, orig);  // data untouched
}

TEST(EccTest, RegionEncodesPerSegment) {
  Rng rng(6);
  auto data = RandomSegment(rng, 1000);
  EXPECT_EQ(EccRegionBytes(1000), 4 * kEccBytesPerSegment);
  auto ecc = EccEncodeRegion(data.data(), data.size());
  ASSERT_EQ(ecc.size(), EccRegionBytes(1000));
  uint64_t corrected = 0;
  EXPECT_EQ(EccCheckRegion(data.data(), data.size(), ecc.data(), ecc.size(),
                           &corrected),
            EccResult::kClean);
  EXPECT_EQ(corrected, 0u);
}

TEST(EccTest, RegionCorrectsOneErrorPerSegment) {
  Rng rng(7);
  auto data = RandomSegment(rng, 1024);
  auto orig = data;
  auto ecc = EccEncodeRegion(data.data(), data.size());
  data[100] ^= 0x04;   // segment 0
  data[300] ^= 0x40;   // segment 1
  data[900] ^= 0x01;   // segment 3
  uint64_t corrected = 0;
  EXPECT_EQ(EccCheckRegion(data.data(), data.size(), ecc.data(), ecc.size(),
                           &corrected),
            EccResult::kCorrected);
  EXPECT_EQ(corrected, 3u);
  EXPECT_EQ(data, orig);
}

// Every region length from 0 to 17 segments at start offsets 0..31, for the
// portable kernel and the dispatching one (the AVX2 kernel where the CPU has
// it): each writes exactly the bit-serial reference's bytes, and no byte
// past EccRegionBytes(len).
TEST(EccTest, RegionKernelsMatchBitSerialReference) {
  constexpr size_t kMaxLen = 17 * kEccSegment;
  Rng rng(9);
  std::vector<uint8_t> buf(kMaxLen + 32);
  std::vector<uint8_t> out(EccRegionBytes(kMaxLen) + 1);
  for (size_t align = 0; align < 32; align++) {
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    const uint8_t* data = buf.data() + align;
    std::vector<uint8_t> expected;  // the codes of the whole segments so far
    BitSerialEcc last;              // the segment in progress
    for (size_t len = 0; len <= kMaxLen; len++) {
      if (len > 0) last.Add((len - 1) % kEccSegment, data[len - 1]);
      if (len > 0 && len % kEccSegment == 0) {
        Ecc code = last.Code();
        expected.insert(expected.end(), code.begin(), code.end());
        last = BitSerialEcc{};
      }
      std::vector<uint8_t> want = expected;
      if (len % kEccSegment != 0) {
        Ecc code = last.Code();
        want.insert(want.end(), code.begin(), code.end());
      }
      ASSERT_EQ(want.size(), EccRegionBytes(len));
      for (auto kernel : {&EccEncodeRegionPortable,
                          static_cast<void (*)(const uint8_t*, size_t, uint8_t*)>(
                              &EccEncodeRegion)}) {
        std::fill(out.begin(), out.end(), 0x5A);
        kernel(data, len, out.data());
        ASSERT_TRUE(std::equal(want.begin(), want.end(), out.begin()))
            << "len " << len << " align " << align;
        ASSERT_EQ(out[want.size()], 0x5A) << "len " << len << " align " << align;
      }
    }
  }
}

// EccCheckRegion encodes the region at once and checks segment by segment
// only on a mismatch. Its result, correction count and repaired bytes must
// equal the per-segment check's with 0-3 flipped bits in the data or in the
// stored ECC, and with truncated stored ECC, on regions of up to three
// 64-segment runs.
TEST(EccTest, RegionCheckMatchesPerSegmentCheck) {
  Rng rng(10);
  for (int trial = 0; trial < 3000; trial++) {
    size_t len = rng.Uniform(trial % 10 == 0 ? 3 * 64 * kEccSegment : 4301);
    auto data = RandomSegment(rng, len);
    std::vector<uint8_t> ecc(EccRegionBytes(len));
    EccEncodeRegionPortable(data.data(), len, ecc.data());
    uint64_t flips = rng.Uniform(4);
    for (uint64_t f = 0; f < flips && len > 0; f++) {
      uint8_t bit = static_cast<uint8_t>(1u << rng.Uniform(8));
      if (rng.Chance(0.5)) {
        data[rng.Uniform(len)] ^= bit;
      } else {
        ecc[rng.Uniform(ecc.size())] ^= bit;
      }
    }
    size_t stored_len = ecc.size();
    if (stored_len > 0 && rng.Chance(0.2)) stored_len = rng.Uniform(stored_len);

    auto fast = data, slow = data;
    uint64_t fast_bits = 0, slow_bits = 0;
    EccResult want = CheckEachSegment(slow.data(), len, ecc.data(), stored_len, &slow_bits);
    ASSERT_EQ(EccCheckRegion(fast.data(), len, ecc.data(), stored_len, &fast_bits), want)
        << "trial " << trial;
    ASSERT_EQ(fast_bits, slow_bits) << "trial " << trial;
    ASSERT_EQ(fast, slow) << "trial " << trial;
  }
}

// Property sweep: every single-bit flip in a 256B segment is corrected, in
// eight random segments.
class EccSingleBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(EccSingleBitSweep, EverySingleBitErrorCorrected) {
  Rng rng(42 + GetParam());
  auto data = RandomSegment(rng, kEccSegment);
  const auto orig = data;
  auto ecc = EccEncode(data.data(), data.size());
  for (size_t bitpos = 0; bitpos < kEccSegment * 8; bitpos++) {
    data[bitpos / 8] ^= static_cast<uint8_t>(1u << (bitpos % 8));
    ASSERT_EQ(EccCheckAndCorrect(data.data(), data.size(), ecc),
              EccResult::kCorrected)
        << "bit " << bitpos;
    ASSERT_EQ(data, orig) << "bit " << bitpos;
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, EccSingleBitSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace ipa::flash
