// Tests for the delta-record byte codecs (docs/DELTA_COMPRESSION.md):
// varint/LZ primitives, the codec round-trip property over random base/diff
// pairs, fail-closed truncation at every byte of a torn record, the
// rejected_torn == quarantined_tails counter conservation law, mixed-codec
// tablespaces mounting and recovering in one engine, and bit-identical
// scan-mix fingerprints across IPA_JOBS settings.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "engine/database.h"
#include "storage/delta_codec.h"
#include "storage/delta_record.h"
#include "storage/slotted_page.h"
#include "workload/testbed.h"
#include "workload/tpch_lite.h"

namespace ipa::storage {
namespace {

constexpr uint32_t kPageSize = 4096;

std::vector<uint8_t> MakePage(Scheme s, uint64_t pid = 4711,
                              uint32_t table = 1) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage page(buf.data(), kPageSize);
  page.Initialize(pid, table, s);
  return buf;
}

Scheme SchemeFor(DeltaCodec codec) {
  Scheme s{.n = 2, .m = 4, .v = 12};
  s.codec = static_cast<uint8_t>(codec);
  return s;
}

/// Buffer-pool caps for DiffPages under `s` (mirrors core/write_policy.cc:
/// raw keeps the v+1 metadata slots, byte codecs share one budget pool).
void CapsFor(const Scheme& s, const uint8_t* page, uint32_t* body_cap,
             uint32_t* meta_cap) {
  *body_cap = DeltaBudgetRemaining(page, kPageSize);
  *meta_cap =
      s.delta_codec() == DeltaCodec::kRaw ? s.v + 1u : *body_cap;
}

uint64_t CounterNow(const char* name) {
  return metrics::Registry::Instance().TakeSnapshot().Counter(name);
}

TEST(DeltaCodecTest, VarintRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 2000; i++) {
    uint32_t v = static_cast<uint32_t>(rng.Next()) >> (rng.Next() % 32);
    std::vector<uint8_t> buf;
    PutVarint(buf, v);
    uint32_t pos = 0, got = 0;
    ASSERT_TRUE(GetVarint(buf.data(), static_cast<uint32_t>(buf.size()), &pos,
                          &got));
    EXPECT_EQ(got, v);
    EXPECT_EQ(pos, buf.size());
  }
  // Truncated varints fail, never read past the end.
  std::vector<uint8_t> big;
  PutVarint(big, 0xFFFFFFFFu);
  for (uint32_t cut = 0; cut < big.size(); cut++) {
    uint32_t pos = 0, got = 0;
    EXPECT_FALSE(GetVarint(big.data(), cut, &pos, &got));
  }
}

TEST(DeltaCodecTest, LzRoundTrip) {
  Rng rng(11);
  for (int round = 0; round < 200; round++) {
    size_t n = 1 + rng.Uniform(600);
    std::vector<uint8_t> in(n);
    if (round % 3 == 0) {
      for (auto& b : in) b = static_cast<uint8_t>(rng.Next());  // random
    } else if (round % 3 == 1) {
      for (size_t i = 0; i < n; i++) in[i] = static_cast<uint8_t>(i % 7);
    } else {
      std::memset(in.data(), 0x42, n);  // maximally compressible
    }
    std::vector<uint8_t> lz = LzCompress(in.data(), in.size());
    std::vector<uint8_t> out;
    ASSERT_TRUE(LzDecompress(lz.data(), static_cast<uint32_t>(lz.size()),
                             static_cast<uint32_t>(in.size()), out));
    EXPECT_EQ(out, in);
    // A cap below the true size must fail closed, not overflow.
    if (in.size() > 1) {
      std::vector<uint8_t> small;
      EXPECT_FALSE(LzDecompress(lz.data(), static_cast<uint32_t>(lz.size()),
                                static_cast<uint32_t>(in.size() - 1), small));
    }
  }
  // Runs compress; random data must never crash and must round-trip.
  std::vector<uint8_t> runs(500, 0);
  std::vector<uint8_t> lz = LzCompress(runs.data(), runs.size());
  EXPECT_LT(lz.size(), runs.size());
}

// The tentpole property: for every codec, encode a random diff, replay the
// delta area onto the base image, land exactly on the current image.
// Double-apply checks idempotency (byte codecs carry absolute values).
TEST(DeltaCodecTest, RoundTripPropertyAllCodecs) {
  for (DeltaCodec codec : {DeltaCodec::kRaw, DeltaCodec::kDelta,
                           DeltaCodec::kDeltaCompress}) {
    Scheme s = SchemeFor(codec);
    Rng rng(100 + static_cast<uint64_t>(codec));
    for (int round = 0; round < 120; round++) {
      auto base = MakePage(s);
      {
        SlottedPage page(base.data(), kPageSize);
        size_t len = 24 + rng.Uniform(72);
        std::vector<uint8_t> t(len);
        for (auto& b : t) b = static_cast<uint8_t>(rng.Next());
        ASSERT_TRUE(page.Insert(t).ok());
      }
      auto cur = base;
      SlottedPage page(cur.data(), kPageSize);
      uint32_t spans = 1 + static_cast<uint32_t>(rng.Uniform(3));
      for (uint32_t sp = 0; sp < spans; sp++) {
        uint8_t patch[4];
        uint32_t plen = 1 + static_cast<uint32_t>(rng.Uniform(4));
        for (uint32_t i = 0; i < plen; i++) {
          patch[i] = static_cast<uint8_t>(rng.Next());
        }
        uint32_t off = static_cast<uint32_t>(rng.Uniform(20));
        ASSERT_TRUE(
            page.UpdateInPlace(0, off, {patch, plen}).ok());
      }
      page.set_page_lsn(10 + round);

      uint32_t body_cap = 0, meta_cap = 0;
      CapsFor(s, cur.data(), &body_cap, &meta_cap);
      PageDiff diff =
          DiffPages(base.data(), cur.data(), kPageSize, body_cap, meta_cap);
      ASSERT_FALSE(diff.Empty());
      if (diff.overflow) continue;  // legitimately out-of-place

      auto plan = EncodeDeltaRecords(cur.data(), kPageSize, diff);
      if (!plan.ok()) {
        ASSERT_TRUE(plan.status().IsOutOfSpace());
        continue;
      }
      ASSERT_TRUE(AuditDeltaArea(cur.data(), kPageSize).ok());
      EXPECT_GE(CountDeltaRecords(cur.data(), kPageSize), 1u);

      auto replay = base;
      std::memcpy(replay.data() + plan.value().write_offset,
                  cur.data() + plan.value().write_offset,
                  plan.value().write_len);
      ApplyDeltaRecords(replay.data(), kPageSize);
      ASSERT_EQ(replay, cur) << "codec " << DeltaCodecName(codec) << " round "
                             << round;
      ApplyDeltaRecords(replay.data(), kPageSize);  // idempotent
      ASSERT_EQ(replay, cur);
    }
  }
}

/// Encode one byte-codec record and return (page, record start, record end).
void EncodeOneRecord(DeltaCodec codec, std::vector<uint8_t>* out,
                     uint32_t* start, uint32_t* end) {
  Scheme s = SchemeFor(codec);
  auto base = MakePage(s);
  {
    SlottedPage page(base.data(), kPageSize);
    ASSERT_TRUE(page.Insert(std::vector<uint8_t>(64, 0x5C)).ok());
  }
  auto cur = base;
  SlottedPage page(cur.data(), kPageSize);
  uint8_t patch[4] = {0x11, 0x22, 0x33, 0x44};
  ASSERT_TRUE(page.UpdateInPlace(0, 8, patch).ok());
  page.set_page_lsn(77);
  uint32_t body_cap = 0, meta_cap = 0;
  CapsFor(s, cur.data(), &body_cap, &meta_cap);
  PageDiff diff =
      DiffPages(base.data(), cur.data(), kPageSize, body_cap, meta_cap);
  auto plan = EncodeDeltaRecords(cur.data(), kPageSize, diff);
  ASSERT_TRUE(plan.ok());
  *out = cur;
  *start = plan.value().write_offset;
  *end = plan.value().write_offset + plan.value().write_len;
}

// Fail-closed: erase the record's tail from EVERY byte position (what a torn
// ISPP append leaves behind). The scan must reject the record — never apply
// a partial decode — and report a zero budget so nothing appends past the
// torn bytes.
TEST(DeltaCodecTest, TruncationAtEveryByteFailsClosed) {
  for (DeltaCodec codec : {DeltaCodec::kDelta, DeltaCodec::kDeltaCompress}) {
    std::vector<uint8_t> encoded;
    uint32_t start = 0, end = 0;
    EncodeOneRecord(codec, &encoded, &start, &end);
    ASSERT_GT(end, start);

    for (uint32_t cut = start + 1; cut < end; cut++) {
      auto torn = encoded;
      std::memset(torn.data() + cut, 0xFF, end - cut);
      EXPECT_EQ(CountDeltaRecords(torn.data(), kPageSize), 0u)
          << DeltaCodecName(codec) << " cut " << cut;
      EXPECT_EQ(DeltaBudgetRemaining(torn.data(), kPageSize), 0u);
      EXPECT_FALSE(AuditDeltaArea(torn.data(), kPageSize).ok());
      // Apply must not touch the page body.
      auto body_before =
          std::vector<uint8_t>(torn.begin(), torn.begin() + start);
      ApplyDeltaRecords(torn.data(), kPageSize);
      EXPECT_TRUE(std::equal(body_before.begin(), body_before.end(),
                             torn.begin()))
          << DeltaCodecName(codec) << " cut " << cut;
    }
  }
}

// The conservation law the fuzzer asserts globally: every torn rejection
// quarantines exactly one tail, so the two counters move in lockstep.
TEST(DeltaCodecTest, TornCountersConserve) {
  std::vector<uint8_t> encoded;
  uint32_t start = 0, end = 0;
  EncodeOneRecord(DeltaCodec::kDeltaCompress, &encoded, &start, &end);

  uint64_t rejected0 = CounterNow("storage.delta.rejected_torn");
  uint64_t quarantined0 = CounterNow("storage.delta.quarantined_tails");
  EXPECT_EQ(rejected0, quarantined0);

  auto torn = encoded;
  std::memset(torn.data() + start + 2, 0xFF, end - start - 2);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(CountDeltaRecords(torn.data(), kPageSize), 0u);
  }

  uint64_t rejected1 = CounterNow("storage.delta.rejected_torn");
  uint64_t quarantined1 = CounterNow("storage.delta.quarantined_tails");
  EXPECT_GT(rejected1, rejected0);
  EXPECT_EQ(rejected1 - rejected0, quarantined1 - quarantined0);
}

}  // namespace
}  // namespace ipa::storage

namespace ipa::engine {
namespace {

/// One engine over TWO NoFTL regions/tablespaces with different byte codecs
/// (the fuzzer's kDeltaCodec deployment, in miniature).
struct MixedDb {
  static workload::StackSpec Spec() {
    workload::StackSpec spec;
    spec.geometry = {.channels = 2,
                     .chips_per_channel = 2,
                     .blocks_per_chip = 48,
                     .pages_per_block = 32};
    spec.engine = {.buffer_pages = 8,  // tiny pool: every txn round trips through flash
                   .log_capacity_bytes = 1 << 20};
    const char* names[2] = {"delta", "compress"};
    storage::DeltaCodec codecs[2] = {storage::DeltaCodec::kDelta,
                                     storage::DeltaCodec::kDeltaCompress};
    for (int i = 0; i < 2; i++) {
      spec.regions.push_back(
          {ftl::RegionConfig{.name = names[i],
                             .logical_pages = 256,
                             .ipa_mode = ftl::IpaMode::kSlc,
                             .manage_ecc = true},
           names[i],
           {.n = 2, .m = 4, .v = 12, .codec = static_cast<uint8_t>(codecs[i])},
           {i == 0 ? "t0" : "t1"}});
    }
    return spec;
  }

  std::unique_ptr<workload::Stack> stack = workload::Build(Spec()).value();
  flash::FlashArray& dev = *stack->dev;
  ftl::NoFtl& noftl = *stack->noftl;
  std::unique_ptr<Database>& db = stack->db;
  TableId table[2] = {stack->parts[0].tables[0], stack->parts[1].tables[0]};
};

TEST(MixedCodecTest, TwoCodecTablespacesMountAndRecover) {
  MixedDb m;
  std::map<uint64_t, std::vector<uint8_t>> want[2];

  // Load + patch both tables; small in-place updates take the IPA path under
  // each table's own codec.
  for (int i = 0; i < 2; i++) {
    TxnId txn = m.db->Begin();
    std::vector<Rid> rids;
    for (int k = 0; k < 30; k++) {
      std::vector<uint8_t> t(80, static_cast<uint8_t>(16 * i + k));
      auto rid = m.db->Insert(txn, m.table[i], t);
      ASSERT_TRUE(rid.ok());
      rids.push_back(rid.value());
      want[i][rid.value().Pack()] = t;
    }
    ASSERT_TRUE(m.db->Commit(txn).ok());
    for (int round = 0; round < 6; round++) {
      TxnId utxn = m.db->Begin();
      for (size_t k = 0; k < rids.size(); k += 3) {
        uint8_t patch[3] = {static_cast<uint8_t>(round),
                            static_cast<uint8_t>(k), 0x7E};
        ASSERT_TRUE(m.db->Update(utxn, rids[k], 5, patch).ok());
        auto& bytes = want[i][rids[k].Pack()];
        std::memcpy(bytes.data() + 5, patch, 3);
      }
      ASSERT_TRUE(m.db->Commit(utxn).ok());
    }
  }
  // Both codecs must actually have appended deltas.
  EXPECT_GT(m.noftl.region_stats(0).host_delta_writes, 0u);
  EXPECT_GT(m.noftl.region_stats(1).host_delta_writes, 0u);

  // Crash, power-cycle, recover: ARIES redo + mount scans across BOTH
  // tablespaces; the codec byte rides in the page header and the WAL format
  // records, so each area decodes with its own codec.
  m.db->SimulateCrash();
  m.dev.PowerCycle();
  ASSERT_TRUE(m.db->RecoverAfterPowerLoss().ok());

  for (int i = 0; i < 2; i++) {
    std::map<uint64_t, std::vector<uint8_t>> got;
    ASSERT_TRUE(m.db->Scan(m.table[i],
                           [&](Rid rid, std::span<const uint8_t> t) {
                             got[rid.Pack()] = {t.begin(), t.end()};
                             return true;
                           })
                    .ok());
    EXPECT_EQ(got, want[i]) << "tablespace " << i;
  }
}

}  // namespace
}  // namespace ipa::engine

namespace ipa::workload {
namespace {

uint64_t RunScanMixOnce(uint64_t txns, uint64_t* scans) {
  TpchLiteConfig wc;
  wc.rows = 1200;
  TpchLite sizing(nullptr, wc, SingleTablespace(0));
  TestbedConfig tc;
  tc.db_pages = sizing.EstimatedPages(4096);
  tc.scheme = storage::Scheme{.n = 2, .m = 4, .v = 12};
  tc.scheme.codec = static_cast<uint8_t>(storage::DeltaCodec::kDeltaCompress);
  tc.buffer_fraction = 0.25;
  auto bed = MakeTestbed(tc);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  TpchLite wl(bed.value()->db.get(), wc, bed.value()->ts_map());
  EXPECT_TRUE(wl.Load().ok());
  EXPECT_TRUE(RunTransactions(wl, txns).ok());
  *scans = wl.scans_run();
  return wl.agg_fingerprint();
}

// The scan/analytics mix must be bit-identical whatever IPA_JOBS says: the
// workload itself is single-threaded and the env var only parallelizes sweep
// harnesses, so the aggregate fingerprint is a pure function of the seed.
TEST(ScanMixTest, DeterministicAcrossJobs) {
  uint64_t scans1 = 0, scans4 = 0;
  setenv("IPA_JOBS", "1", 1);
  uint64_t fp1 = RunScanMixOnce(400, &scans1);
  setenv("IPA_JOBS", "4", 1);
  uint64_t fp4 = RunScanMixOnce(400, &scans4);
  unsetenv("IPA_JOBS");
  EXPECT_EQ(fp1, fp4);
  EXPECT_EQ(scans1, scans4);
  EXPECT_GT(scans1, 0u);
  EXPECT_NE(fp1, 0u);
}

TEST(ScanMixTest, DatasetScaleEnvParses) {
  setenv("IPA_DATASET", "2.5", 1);
  EXPECT_DOUBLE_EQ(DatasetScale(), 2.5);
  unsetenv("IPA_DATASET");
  EXPECT_DOUBLE_EQ(DatasetScale(), 1.0);
}

}  // namespace
}  // namespace ipa::workload
