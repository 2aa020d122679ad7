// Tests for the serving layer above the sharded engine (src/net/): the KV
// service's autocommit and interactive-transaction paths, partition-home
// enforcement, admission control, the load generator's value bytes against
// a byte-at-a-time reference, its threaded-vs-sequential bit-identity
// contract, the latencies its phases publish, overload shedding, an oracle
// that rejects truncated values, and index rebuild after a mid-request power
// cut.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/random.h"
#include "net/admission.h"
#include "net/kv_service.h"
#include "net/loadgen.h"
#include "published.h"
#include "workload/testbed.h"

namespace ipa::net {
namespace {

struct Bed {
  std::unique_ptr<workload::ShardedTestbed> bed;
  std::unique_ptr<KvService> kv;
};

Bed MakeBed(uint32_t workers, bool threaded, double buffer_fraction = 0.5) {
  workload::ShardedTestbedConfig sc;
  sc.workers = workers;
  sc.threaded = threaded;
  sc.base.db_pages = 1024;
  sc.base.scheme = {.n = 2, .m = 4, .v = 12};
  sc.base.buffer_fraction = buffer_fraction;
  sc.group_commit_ops = 8;
  sc.group_commit_window_us = 1000;
  sc.log_force_us = 100;
  auto bed_or = workload::MakeShardedTestbed(sc);
  EXPECT_TRUE(bed_or.ok()) << bed_or.status().ToString();
  Bed out;
  out.bed = std::move(bed_or.value());
  std::vector<KvService::PartitionConfig> pcs;
  for (auto& p : out.bed->parts) pcs.push_back({p.db.get(), p.ts});
  auto kv_or = KvService::Create(pcs);
  EXPECT_TRUE(kv_or.ok()) << kv_or.status().ToString();
  out.kv = std::move(kv_or.value());
  return out;
}

TEST(KvService, AutocommitCrud) {
  Bed b = MakeBed(2, /*threaded=*/false);
  KvService& kv = *b.kv;
  uint64_t key = 17;
  uint32_t p = kv.PartitionOfKey(key);

  std::vector<uint8_t> got;
  EXPECT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kNotFound);

  std::vector<uint8_t> v1 = ValueBytes(key, 1, 64);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v1), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v1);

  // Same-size overwrite (the in-place update path).
  std::vector<uint8_t> v2 = ValueBytes(key, 2, 64);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v2), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v2);

  // Grow and shrink (resize / move path).
  std::vector<uint8_t> v3 = ValueBytes(key, 3, 700);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v3), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v3);
  std::vector<uint8_t> v4 = ValueBytes(key, 4, 16);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v4), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v4);

  ASSERT_EQ(kv.Delete(p, kAutoCommit, key), RStatus::kOk);
  EXPECT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kNotFound);
  EXPECT_EQ(kv.Delete(p, kAutoCommit, key), RStatus::kNotFound);
}

TEST(KvService, TxnCommitAndAbort) {
  Bed b = MakeBed(2, /*threaded=*/false);
  KvService& kv = *b.kv;
  uint64_t key = 99;
  uint32_t p = kv.PartitionOfKey(key);

  auto h_or = kv.Begin(key);
  ASSERT_TRUE(h_or.ok());
  uint64_t h = h_or.value();
  EXPECT_EQ(KvService::PartitionOfHandle(h), p);

  std::vector<uint8_t> v1 = ValueBytes(key, 1, 48);
  ASSERT_EQ(kv.Put(p, h, key, v1), RStatus::kOk);
  std::vector<uint8_t> got;
  ASSERT_EQ(kv.Get(p, h, key, &got), RStatus::kOk);  // own write visible
  EXPECT_EQ(got, v1);
  ASSERT_EQ(kv.Commit(h), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v1);

  // Abort rolls the write back.
  auto h2_or = kv.Begin(key);
  ASSERT_TRUE(h2_or.ok());
  uint64_t h2 = h2_or.value();
  ASSERT_EQ(kv.Put(p, h2, key, ValueBytes(key, 2, 48)), RStatus::kOk);
  ASSERT_EQ(kv.Abort(h2), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v1);
}

TEST(KvService, AbortRollsBackIndexDelete) {
  Bed b = MakeBed(2, /*threaded=*/false);
  KvService& kv = *b.kv;
  uint64_t key = 21;
  uint32_t p = kv.PartitionOfKey(key);
  std::vector<uint8_t> v1 = ValueBytes(key, 1, 64);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v1), RStatus::kOk);

  // BEGIN; DELETE k; ABORT — the committed tuple must stay reachable.
  auto h = kv.Begin(key);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(kv.Delete(p, h.value(), key), RStatus::kOk);
  std::vector<uint8_t> got;
  EXPECT_EQ(kv.Get(p, h.value(), key, &got), RStatus::kNotFound);  // own view
  EXPECT_EQ(kv.Delete(p, h.value(), key), RStatus::kNotFound);  // idempotent
  ASSERT_EQ(kv.Abort(h.value()), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v1);

  // The revived key is still a single index entry backed by a single live
  // tuple: an overwrite resolves to it, and the key count stays 1.
  std::vector<uint8_t> v2 = ValueBytes(key, 2, 64);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v2), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v2);
  auto n = kv.KeyCount(p);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
}

TEST(KvService, AbortRollsBackIndexInsert) {
  Bed b = MakeBed(2, /*threaded=*/false);
  KvService& kv = *b.kv;
  uint64_t key = 34;
  uint32_t p = kv.PartitionOfKey(key);

  // BEGIN; PUT new-k; ABORT — no dangling index entry to the dead slot.
  auto h = kv.Begin(key);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(kv.Put(p, h.value(), key, ValueBytes(key, 1, 48)), RStatus::kOk);
  ASSERT_EQ(kv.Abort(h.value()), RStatus::kOk);
  std::vector<uint8_t> got;
  EXPECT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kNotFound);
  auto n = kv.KeyCount(p);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);

  // A later autocommit PUT of the same key must succeed and be readable.
  std::vector<uint8_t> v2 = ValueBytes(key, 2, 48);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v2), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v2);
}

TEST(KvService, AbortRollsBackIndexMove) {
  Bed b = MakeBed(2, /*threaded=*/false);
  KvService& kv = *b.kv;
  uint64_t key = 55;
  uint32_t p = kv.PartitionOfKey(key);
  std::vector<uint8_t> v1 = ValueBytes(key, 1, 32);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v1), RStatus::kOk);

  // Grow the tuple far past its slot inside a transaction (resize/move
  // path re-points the index entry), then abort: the original value and
  // index entry must come back.
  auto h = kv.Begin(key);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(kv.Put(p, h.value(), key, ValueBytes(key, 2, 900)), RStatus::kOk);
  ASSERT_EQ(kv.Abort(h.value()), RStatus::kOk);
  std::vector<uint8_t> got;
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v1);
}

TEST(KvService, DeleteThenPutInTxn) {
  Bed b = MakeBed(2, /*threaded=*/false);
  KvService& kv = *b.kv;
  uint64_t key = 72;
  uint32_t p = kv.PartitionOfKey(key);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, ValueBytes(key, 1, 64)), RStatus::kOk);

  // DELETE then PUT of the same key inside one transaction, committed: the
  // new value wins and exactly one index entry remains.
  auto h = kv.Begin(key);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(kv.Delete(p, h.value(), key), RStatus::kOk);
  std::vector<uint8_t> v2 = ValueBytes(key, 2, 80);
  ASSERT_EQ(kv.Put(p, h.value(), key, v2), RStatus::kOk);
  std::vector<uint8_t> got;
  ASSERT_EQ(kv.Get(p, h.value(), key, &got), RStatus::kOk);
  EXPECT_EQ(got, v2);
  ASSERT_EQ(kv.Commit(h.value()), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v2);
  auto n = kv.KeyCount(p);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);

  // And the aborted variant rolls all of it back.
  auto h2 = kv.Begin(key);
  ASSERT_TRUE(h2.ok());
  ASSERT_EQ(kv.Delete(p, h2.value(), key), RStatus::kOk);
  ASSERT_EQ(kv.Put(p, h2.value(), key, ValueBytes(key, 3, 48)), RStatus::kOk);
  ASSERT_EQ(kv.Abort(h2.value()), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v2);
}

TEST(KvService, OpenTxnDeleteConflictsInsteadOfDuplicating) {
  Bed b = MakeBed(2, /*threaded=*/false);
  KvService& kv = *b.kv;
  uint64_t key = 90;
  uint32_t p = kv.PartitionOfKey(key);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, ValueBytes(key, 1, 64)), RStatus::kOk);

  // While a transaction holds a delete of k, a concurrent autocommit PUT of
  // k must conflict (the kept index entry routes it onto the locked slot)
  // rather than inserting a duplicate tuple.
  auto h = kv.Begin(key);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(kv.Delete(p, h.value(), key), RStatus::kOk);
  EXPECT_EQ(kv.Put(p, kAutoCommit, key, ValueBytes(key, 2, 64)),
            RStatus::kRetry);
  EXPECT_EQ(kv.Delete(p, kAutoCommit, key), RStatus::kRetry);
  ASSERT_EQ(kv.Commit(h.value()), RStatus::kOk);

  // After commit the key is gone and the retried PUT lands cleanly.
  std::vector<uint8_t> got;
  EXPECT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kNotFound);
  std::vector<uint8_t> v3 = ValueBytes(key, 3, 64);
  ASSERT_EQ(kv.Put(p, kAutoCommit, key, v3), RStatus::kOk);
  ASSERT_EQ(kv.Get(p, kAutoCommit, key, &got), RStatus::kOk);
  EXPECT_EQ(got, v3);
  auto n = kv.KeyCount(p);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
}

TEST(KvService, BadRequests) {
  Bed b = MakeBed(4, /*threaded=*/false);
  KvService& kv = *b.kv;
  uint64_t key = 3;
  uint32_t p = kv.PartitionOfKey(key);
  std::vector<uint8_t> got;

  // Unknown transaction handle.
  EXPECT_EQ(kv.Get(p, 0xDEAD, key, &got), RStatus::kBadRequest);
  EXPECT_EQ(kv.Put(p, 0xDEAD, key, ValueBytes(key, 1, 32)),
            RStatus::kBadRequest);
  EXPECT_EQ(kv.Delete(p, 0xDEAD, key), RStatus::kBadRequest);
  EXPECT_EQ(kv.Commit(0xDEAD), RStatus::kBadRequest);
  EXPECT_EQ(kv.Abort(0xDEAD), RStatus::kBadRequest);

  // A key homed on another partition must be refused inside a transaction —
  // honoring it would file the tuple under the wrong partition's index.
  uint64_t foreign = key;
  while (kv.PartitionOfKey(foreign) == p) foreign++;
  auto h_or = kv.Begin(key);
  ASSERT_TRUE(h_or.ok());
  uint64_t h = h_or.value();
  EXPECT_EQ(kv.Put(p, h, foreign, ValueBytes(foreign, 1, 32)),
            RStatus::kBadRequest);
  EXPECT_EQ(kv.Get(kv.PartitionOfKey(foreign), h, foreign, &got),
            RStatus::kBadRequest);
  ASSERT_EQ(kv.Commit(h), RStatus::kOk);

  // A handle is single-use once committed.
  EXPECT_EQ(kv.Commit(h), RStatus::kBadRequest);
}

TEST(Admission, BudgetAndHints) {
  AdmissionController ac(2, {.inflight_budget = 2, .base_retry_hint_us = 100});
  EXPECT_TRUE(ac.TryAdmit(0));
  EXPECT_TRUE(ac.TryAdmit(0));
  EXPECT_FALSE(ac.TryAdmit(0));  // budget exhausted on partition 0
  EXPECT_TRUE(ac.TryAdmit(1));   // partition 1 unaffected
  EXPECT_EQ(ac.depth(0), 2u);
  EXPECT_GE(ac.RetryHintUs(0), 100u);
  ac.Complete(0);
  EXPECT_TRUE(ac.TryAdmit(0));
  EXPECT_EQ(ac.admitted(), 4u);
  EXPECT_EQ(ac.shed(), 1u);
}

// The byte-at-a-time fill that ValueBytes once used, kept as its reference.
std::vector<uint8_t> ReferenceValueBytes(uint64_t key, uint64_t seq,
                                         uint32_t len) {
  if (len < 8) len = 8;
  std::vector<uint8_t> v;
  for (int i = 0; i < 8; ++i) v.push_back(static_cast<uint8_t>(seq >> (8 * i)));
  Rng fill((key + 1) * 0x9E3779B97F4A7C15ull ^ (seq + 1));
  while (v.size() < len) {
    uint64_t x = fill.Next();
    for (int i = 0; i < 8 && v.size() < len; ++i) {
      v.push_back(static_cast<uint8_t>(x >> (8 * i)));
    }
  }
  return v;
}

TEST(ValueBytes, MatchesByteAtATimeReference) {
  const uint64_t kEdges[] = {0, 1, 19999, UINT64_MAX};
  for (uint64_t key : kEdges) {
    for (uint64_t seq : kEdges) {
      for (uint32_t len = 0; len <= 1100; ++len) {
        ASSERT_EQ(ValueBytes(key, seq, len), ReferenceValueBytes(key, seq, len))
            << "key " << key << " seq " << seq << " len " << len;
      }
    }
  }
  // A length below 8 is clamped to 8, and bytes [0, 8) are the sequence
  // number, little-endian.
  const std::vector<uint8_t> seq_bytes = {0x08, 0x07, 0x06, 0x05,
                                          0x04, 0x03, 0x02, 0x01};
  for (uint32_t len = 0; len <= 8; ++len) {
    EXPECT_EQ(ValueBytes(3, 0x0102030405060708ull, len), seq_bytes) << len;
  }
  std::vector<uint8_t> v = ValueBytes(19999, 0x0102030405060708ull, 1100);
  EXPECT_EQ(std::vector<uint8_t>(v.begin(), v.begin() + 8), seq_bytes);
  // Pinned, so a change made to both ValueBytes and the reference still fails.
  EXPECT_EQ(Crc32c(v.data(), v.size()), 0xC2974A03u);
}

LoadgenConfig SmallLoad() {
  LoadgenConfig lc;
  lc.seed = 11;
  lc.clients = 16;
  lc.keys = 800;
  lc.value_min = 32;
  lc.value_max = 256;
  lc.inflight_budget = 16;
  return lc;
}

struct SimOut {
  PhaseResult closed, open;
};

SimOut RunSim(bool threaded) {
  Bed b = MakeBed(4, threaded);
  LoadgenConfig lc = SmallLoad();
  AdmissionController ac(4, {.inflight_budget = lc.inflight_budget,
                             .base_retry_hint_us = lc.base_retry_hint_us});
  ServeSim sim(b.bed->sharded.get(), b.kv.get(), &ac, lc);
  EXPECT_TRUE(sim.Preload().ok());
  auto closed = sim.RunClosedLoop("closed", 400);
  EXPECT_TRUE(closed.ok()) << closed.status().ToString();
  auto open = sim.RunOpenLoop("open", 20000.0, 50000);
  EXPECT_TRUE(open.ok()) << open.status().ToString();
  return {closed.value(), open.value()};
}

void ExpectSamePhase(const PhaseResult& a, const PhaseResult& c) {
  EXPECT_EQ(a.issued, c.issued);
  EXPECT_EQ(a.completed, c.completed);
  EXPECT_EQ(a.shed, c.shed);
  EXPECT_EQ(a.errors, c.errors);
  EXPECT_EQ(a.bytes_in, c.bytes_in);
  EXPECT_EQ(a.bytes_out, c.bytes_out);
  EXPECT_EQ(a.sim_us, c.sim_us);
  EXPECT_EQ(a.conn_drops, c.conn_drops);
  EXPECT_EQ(a.dropped_arrivals, c.dropped_arrivals);
  EXPECT_EQ(a.lat.count(), c.lat.count());
  EXPECT_EQ(a.lat.PercentileMicros(50), c.lat.PercentileMicros(50));
  EXPECT_EQ(a.lat.PercentileMicros(99), c.lat.PercentileMicros(99));
  EXPECT_EQ(a.lat.MaxMicros(), c.lat.MaxMicros());
}

TEST(ServeSim, ThreadedMatchesSequentialBitForBit) {
  SimOut threaded = RunSim(/*threaded=*/true);
  SimOut sequential = RunSim(/*threaded=*/false);
  ExpectSamePhase(threaded.closed, sequential.closed);
  ExpectSamePhase(threaded.open, sequential.open);
  EXPECT_GT(threaded.closed.completed, 0u);
  EXPECT_EQ(threaded.closed.errors, 0u);
  EXPECT_EQ(threaded.open.errors, 0u);
}

// Each phase publishes its whole PhaseResult::lat to serve.request_us once,
// however many rounds its closed loop ran.
TEST(ServeSim, PhasesPublishTheirLatencies) {
  LatencyStats want = PublishedHistogram("serve.request_us");
  SimOut out = RunSim(/*threaded=*/false);
  EXPECT_GT(out.closed.lat.count(), 0u);
  EXPECT_GT(out.open.lat.count(), 0u);
  want.Merge(out.closed.lat);
  want.Merge(out.open.lat);
  EXPECT_EQ(Describe(PublishedHistogram("serve.request_us")), Describe(want));
}

TEST(ServeSim, OverloadShedsWithoutErrors) {
  Bed b = MakeBed(4, /*threaded=*/false);
  LoadgenConfig lc = SmallLoad();
  lc.inflight_budget = 4;
  AdmissionController ac(4, {.inflight_budget = lc.inflight_budget,
                             .base_retry_hint_us = lc.base_retry_hint_us});
  ServeSim sim(b.bed->sharded.get(), b.kv.get(), &ac, lc);
  ASSERT_TRUE(sim.Preload().ok());
  // Far past any plausible capacity: admission control must shed, accepted
  // requests must still all succeed, and the oracle must stay silent.
  auto burst = sim.RunOpenLoop("burst", 500000.0, 20000);
  ASSERT_TRUE(burst.ok()) << burst.status().ToString();
  EXPECT_GT(burst.value().shed, 0u);
  EXPECT_GT(burst.value().completed, 0u);
  EXPECT_EQ(burst.value().errors, 0u);
  EXPECT_EQ(ac.shed(), burst.value().shed);
}

// Any prefix of a value of 8 bytes or more is itself ValueBytes of a shorter
// length, so an oracle that takes the length from the value it got passes a
// truncated value. The oracle must expect the length that was written.
TEST(ServeSim, OracleRejectsTruncatedValue) {
  Bed b = MakeBed(4, /*threaded=*/false);
  KvService& kv = *b.kv;
  LoadgenConfig lc = SmallLoad();
  lc.write_fraction = 0;
  AdmissionController ac(4, {.inflight_budget = lc.inflight_budget,
                             .base_retry_hint_us = lc.base_retry_hint_us});
  ServeSim sim(b.bed->sharded.get(), &kv, &ac, lc);
  ASSERT_TRUE(sim.Preload().ok());
  // Rewrite every key to the first half of its preloaded value (>= 16 bytes,
  // as value_min is 32).
  for (uint64_t k = 0; k < lc.keys; ++k) {
    uint32_t p = kv.PartitionOfKey(k);
    std::vector<uint8_t> v;
    ASSERT_EQ(kv.Get(p, kAutoCommit, k, &v), RStatus::kOk);
    v.resize(v.size() / 2);
    ASSERT_EQ(kv.Put(p, kAutoCommit, k, v), RStatus::kOk);
  }
  for (uint32_t p = 0; p < 4; ++p) kv.ForceLog(p);
  auto closed = sim.RunClosedLoop("closed", 400);
  ASSERT_FALSE(closed.ok()) << "the oracle passed " << closed.value().completed
                            << " GETs of truncated values";
  EXPECT_TRUE(closed.status().IsCorruption()) << closed.status().ToString();
}

TEST(Serve, PowerCutRecoveryRebuildsIndexes) {
  // Tiny buffer pool: updates must evict dirty pages to flash, giving the
  // power-loss policy real programs to land its cut on.
  Bed b = MakeBed(2, /*threaded=*/false, /*buffer_fraction=*/0.02);
  KvService& kv = *b.kv;
  const uint64_t kKeys = 300;
  // The value length each write sequence is written with: 64 for the
  // preload (seq 1), then 32 + (i * 37) % 600 for update i (seq 2 + i).
  auto len_of = [](uint64_t seq) {
    return seq == 1 ? 64u : static_cast<uint32_t>(32 + ((seq - 2) * 37) % 600);
  };
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(kv.Put(kv.PartitionOfKey(k), kAutoCommit, k,
                     ValueBytes(k, 1, len_of(1))),
              RStatus::kOk);
  }
  for (uint32_t p = 0; p < 2; ++p) kv.ForceLog(p);
  b.bed->sharded->EpochBarrier();
  ASSERT_TRUE(b.bed->sharded->Checkpoint().ok());
  b.bed->sharded->EpochBarrier();

  // Cut power mid-traffic, then run the recovery protocol.
  flash::PowerLossPolicy pol;
  pol.per_op_probability = 0.02;
  pol.seed = 0xC0FFEE;
  b.bed->dev->SetPowerLossPolicy(pol);
  bool cut = false;
  for (uint64_t i = 0; i < 20000 && !cut; ++i) {
    uint64_t k = i % kKeys;
    // Vary value sizes so updates exercise the resize/move paths and evict
    // dirty pages — pure same-size updates can ride the buffer pool forever.
    RStatus rs = kv.Put(kv.PartitionOfKey(k), kAutoCommit, k,
                        ValueBytes(k, 2 + i, len_of(2 + i)));
    if (rs == RStatus::kUnavailable) cut = true;
    else ASSERT_EQ(rs, RStatus::kOk);
  }
  ASSERT_TRUE(cut) << "power-loss policy never fired";

  b.bed->sharded->SimulateCrash();
  b.bed->dev->PowerCycle();
  b.bed->dev->SetPowerLossPolicy(flash::PowerLossPolicy{});
  ASSERT_TRUE(b.bed->sharded->RecoverAfterPowerLoss().ok());
  ASSERT_TRUE(kv.RebuildIndexes().ok());

  // Every preloaded key must still resolve through the rebuilt index (all
  // kKeys were forced and checkpointed before the cut).
  uint64_t indexed = 0;
  for (uint32_t p = 0; p < 2; ++p) {
    auto n = kv.KeyCount(p);
    ASSERT_TRUE(n.ok());
    indexed += n.value();
  }
  EXPECT_EQ(indexed, kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    std::vector<uint8_t> got;
    ASSERT_EQ(kv.Get(kv.PartitionOfKey(k), kAutoCommit, k, &got), RStatus::kOk)
        << "key " << k << " lost";
    ASSERT_GE(got.size(), 8u);
    // The whole value, its length included, must be what its sequence
    // number was written as.
    uint64_t seq = DecodeU64(got.data());
    EXPECT_EQ(got, ValueBytes(k, seq, len_of(seq))) << "key " << k;
  }
}

}  // namespace
}  // namespace ipa::net
