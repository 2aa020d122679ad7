// Unit tests for src/common: Status/Result, RNG and distributions,
// statistics containers, CRC32 and formatting.

#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "common/stats.h"
#include "common/status.h"

namespace ipa {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::IoError("uncorrectable ECC");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(s.ToString(), "IoError: uncorrectable ECC");
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfSpace("x").IsOutOfSpace());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().ok());

  Result<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
  EXPECT_EQ(err.value_or(7), 7);
}

Status Helper(bool fail) {
  IPA_RETURN_NOT_OK(fail ? Status::Busy("locked") : Status::OK());
  return Status::OK();
}

Result<int> HelperAssign(bool fail) {
  IPA_ASSIGN_OR_RETURN(
      int v, fail ? Result<int>(Status::Busy("locked")) : Result<int>(5));
  return v * 2;
}

TEST(ResultTest, Macros) {
  EXPECT_TRUE(Helper(false).ok());
  EXPECT_TRUE(Helper(true).IsBusy());
  EXPECT_EQ(HelperAssign(false).value(), 10);
  EXPECT_TRUE(HelperAssign(true).status().IsBusy());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformRangeBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.UniformRange(-10, 10);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, 10);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceIsRoughlyCalibrated) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; i++) hits += rng.Chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(ZipfTest, SkewConcentratesOnLowIds) {
  Rng rng(7);
  ZipfianGenerator zipf(1000, 0.9);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; i++) {
    if (zipf.Next(rng) < 10) low++;
  }
  // The top-1% of items should get far more than 1% of accesses.
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(total), 0.15);
}

TEST(ZipfTest, StaysInRange) {
  Rng rng(8);
  ZipfianGenerator zipf(50, 0.8);
  for (int i = 0; i < 5000; i++) {
    EXPECT_LT(zipf.Next(rng), 51u);  // generator may emit n on rare rounding
  }
}

TEST(NuRandTest, BoundsAndNonUniformity) {
  Rng rng(9);
  NuRand nu(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 20000; i++) {
    int64_t v = nu.Gen(rng, 1023, 1, 3000);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 3000);
    seen.insert(v);
  }
  // NURand covers the range but with hot spots; most values appear.
  EXPECT_GT(seen.size(), 2000u);
}

TEST(DiscreteCdfTest, SamplesFollowWeights) {
  Rng rng(10);
  DiscreteCdf cdf({{10, 0.5}, {100, 0.9}, {1000, 1.0}});
  int tens = 0, hundreds = 0, thousands = 0;
  for (int i = 0; i < 10000; i++) {
    uint32_t v = cdf.Sample(rng);
    if (v == 10) tens++;
    else if (v == 100) hundreds++;
    else if (v == 1000) thousands++;
    else FAIL() << v;
  }
  EXPECT_NEAR(tens / 10000.0, 0.5, 0.05);
  EXPECT_NEAR(hundreds / 10000.0, 0.4, 0.05);
  EXPECT_NEAR(thousands / 10000.0, 0.1, 0.03);
}

TEST(LatencyStatsTest, MeanMaxPercentiles) {
  LatencyStats st;
  for (uint64_t v = 1; v <= 100; v++) st.Add(v);
  EXPECT_EQ(st.count(), 100u);
  EXPECT_DOUBLE_EQ(st.MeanMicros(), 50.5);
  EXPECT_EQ(st.MaxMicros(), 100u);
  EXPECT_EQ(st.PercentileMicros(50), 50u);
  EXPECT_EQ(st.PercentileMicros(99), 99u);
}

TEST(LatencyStatsTest, LogBucketsAboveOneMs) {
  LatencyStats st;
  st.Add(5000);    // 5ms
  st.Add(100000);  // 100ms
  EXPECT_EQ(st.count(), 2u);
  EXPECT_GE(st.PercentileMicros(99), 5000u);
}

TEST(LatencyStatsTest, MergeAddsUp) {
  LatencyStats a, b;
  a.Add(10);
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.MeanMicros(), 15.0);
}

TEST(SampleDistributionTest, CdfAndPercentiles) {
  SampleDistribution d;
  for (int i = 0; i < 60; i++) d.Add(4);
  for (int i = 0; i < 30; i++) d.Add(10);
  for (int i = 0; i < 10; i++) d.Add(100);
  EXPECT_EQ(d.total(), 100u);
  EXPECT_DOUBLE_EQ(d.CdfAt(3), 0.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(4), 0.6);
  EXPECT_DOUBLE_EQ(d.CdfAt(10), 0.9);
  EXPECT_DOUBLE_EQ(d.CdfAt(1000), 1.0);
  EXPECT_EQ(d.ValueAtPercentile(50), 4u);
  EXPECT_EQ(d.ValueAtPercentile(90), 10u);
  EXPECT_EQ(d.ValueAtPercentile(99), 100u);
  EXPECT_NEAR(d.Mean(), 0.6 * 4 + 0.3 * 10 + 0.1 * 100, 1e-9);
}

// CRC32-C one bit at a time, straight from the reflected polynomial.
uint32_t BitSerialCrc32c(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; i++) {
    crc ^= data[i];
    for (int k = 0; k < 8; k++) crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1)));
  }
  return ~crc;
}

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  const uint8_t data[] = "123456789";
  // CRC32-C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c(data, 9), 0xE3069283u);
  uint8_t tweaked[] = "123456780";
  EXPECT_NE(Crc32c(tweaked, 9), Crc32c(data, 9));
  EXPECT_EQ(Crc32c(data, 0), 0u);

  // RFC 3720 B.4: 32 zero bytes, 32 0xFF bytes, 00..1F and 1F..00.
  std::array<uint8_t, 32> zeros{}, ones{}, up{}, down{};
  ones.fill(0xFF);
  for (uint8_t i = 0; i < 32; i++) {
    up[i] = i;
    down[i] = static_cast<uint8_t>(31 - i);
  }
  const std::pair<const std::array<uint8_t, 32>*, uint32_t> vectors[] = {
      {&zeros, 0x8A9136AAu}, {&ones, 0x62A8AB43u}, {&up, 0x46DD794Eu}, {&down, 0x113FDB5Cu}};
  for (const auto& [bytes, want] : vectors) {
    EXPECT_EQ(Crc32c(bytes->data(), bytes->size()), want);
    EXPECT_EQ(Crc32cPortable(bytes->data(), bytes->size()), want);
    EXPECT_EQ(BitSerialCrc32c(bytes->data(), bytes->size(), 0), want);
  }
}

// Both kernels against the bit-serial reference: a word loop that is wrong
// only past some length, only in its tail bytes or only at some alignment
// fails here.
TEST(Crc32Test, MatchesBitSerialReference) {
  Rng rng(11);
  std::vector<uint8_t> buf(8192 + 8);
  std::vector<size_t> lengths(1101);
  std::iota(lengths.begin(), lengths.end(), size_t{0});
  lengths.push_back(4096);
  lengths.push_back(8192);
  for (size_t len : lengths) {
    for (size_t align = 0; align < 8; align++) {
      for (size_t i = 0; i < len + align; i++) buf[i] = static_cast<uint8_t>(rng.Next());
      const uint8_t* p = buf.data() + align;
      const auto seed = static_cast<uint32_t>(rng.Next());
      const uint32_t want = BitSerialCrc32c(p, len, seed);
      ASSERT_EQ(Crc32c(p, len, seed), want) << "len " << len << " align " << align;
      ASSERT_EQ(Crc32cPortable(p, len, seed), want) << "len " << len << " align " << align;
    }
  }
}

// Chaining from a previous result continues the CRC, for either kernel on
// either side of the split.
TEST(Crc32Test, ChainingEqualsConcatenation) {
  Rng rng(12);
  std::vector<uint8_t> buf(2048);
  for (int trial = 0; trial < 200; trial++) {
    const size_t len = rng.Uniform(buf.size() + 1);
    const size_t split = rng.Uniform(len + 1);
    for (size_t i = 0; i < len; i++) buf[i] = static_cast<uint8_t>(rng.Next());
    const uint8_t* a = buf.data();
    const uint8_t* b = buf.data() + split;
    const uint32_t whole = Crc32c(a, len);
    EXPECT_EQ(Crc32c(b, len - split, Crc32c(a, split)), whole) << len << "/" << split;
    EXPECT_EQ(Crc32cPortable(b, len - split, Crc32c(a, split)), whole);
    EXPECT_EQ(Crc32c(b, len - split, Crc32cPortable(a, split)), whole);
  }
}

TEST(FormatTest, Thousands) {
  EXPECT_EQ(FormatThousands(0), "0");
  EXPECT_EQ(FormatThousands(999), "999");
  EXPECT_EQ(FormatThousands(1000), "1 000");
  EXPECT_EQ(FormatThousands(1234567), "1 234 567");
}

TEST(RelPercentTest, Basics) {
  EXPECT_DOUBLE_EQ(RelPercent(100, 150), 50.0);
  EXPECT_DOUBLE_EQ(RelPercent(100, 50), -50.0);
  EXPECT_DOUBLE_EQ(RelPercent(0, 50), 0.0);
}

TEST(SimClockTest, MonotoneAdvance) {
  SimClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(10);
  EXPECT_EQ(clock.Now(), 10u);
  clock.AdvanceTo(5);  // no-op backwards
  EXPECT_EQ(clock.Now(), 10u);
  clock.AdvanceTo(25);
  EXPECT_EQ(clock.Now(), 25u);
  clock.Reset();
  EXPECT_EQ(clock.Now(), 0u);
}

}  // namespace
}  // namespace ipa
