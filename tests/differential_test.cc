// Differential checker suite (docs/TESTING.md): the seed matrix the CI
// presets run, the determinism contract of the fuzz harness, known-answer
// anchors, proof that an injected bug is caught and shrunk to a handful of
// ops, and targeted recovery edge cases (double crash during recovery, a
// torn append in the last delta slot of a page, a torn wear-leveling swap).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bench/parallel_runner.h"
#include "check/fuzzer.h"
#include "check/invariants.h"
#include "check/shrinker.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/database.h"
#include "flash/flash_array.h"
#include "ftl/noftl.h"
#include "storage/delta_record.h"
#include "storage/page_format.h"
#include "workload/testbed.h"

namespace ipa::check {
namespace {

Op MkOp(Op::Kind k, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0,
        uint64_t seed = 0) {
  Op op;
  op.kind = k;
  op.a = a;
  op.b = b;
  op.c = c;
  op.seed = seed;
  return op;
}

// ---------------------------------------------------------------------------
// Seed matrix: every schedule x several seeds, run in parallel. This is the
// quick tier CI runs under the Release, ASan and TSan presets.
// ---------------------------------------------------------------------------

TEST(Differential, SeedMatrixAllSchedulesPass) {
  std::vector<FuzzConfig> configs;
  for (int s = 0; s < kNumSchedules; s++) {
    for (uint64_t seed = 1; seed <= 3; seed++) {
      FuzzConfig cfg;
      cfg.schedule = static_cast<Schedule>(s);
      cfg.seed = seed;
      cfg.ops = 160;
      configs.push_back(cfg);
    }
  }
  std::vector<FuzzResult> results(configs.size());
  bench::ParallelFor(configs.size(),
                     [&](size_t i) { results[i] = RunFuzz(configs[i]); });
  uint64_t crashes = 0;
  for (size_t i = 0; i < results.size(); i++) {
    EXPECT_TRUE(results[i].ok)
        << ReproLine(configs[i]) << "\n  op " << results[i].failed_op << ": "
        << results[i].error;
    crashes += results[i].crashes;
  }
  // The matrix must actually exercise power loss, not just clean runs.
  EXPECT_GT(crashes, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: a run is a pure function of (seed, ops, schedule) — identical
// across repeat invocations and worker counts.
// ---------------------------------------------------------------------------

TEST(Differential, DeterministicAcrossRunsAndJobCounts) {
  std::vector<FuzzConfig> configs;
  for (int s = 0; s < kNumSchedules; s++) {
    FuzzConfig cfg;
    cfg.schedule = static_cast<Schedule>(s);
    cfg.seed = 5;
    cfg.ops = 120;
    configs.push_back(cfg);
  }

  auto run_all = [&](unsigned jobs) {
    std::vector<FuzzResult> r(configs.size());
    bench::ParallelFor(configs.size(),
                       [&](size_t i) { r[i] = RunFuzz(configs[i]); }, jobs);
    return r;
  };
  std::vector<FuzzResult> serial = run_all(1);
  std::vector<FuzzResult> parallel = run_all(4);
  std::vector<FuzzResult> again = run_all(4);

  for (size_t i = 0; i < configs.size(); i++) {
    ASSERT_TRUE(serial[i].ok) << ReproLine(configs[i]) << ": " << serial[i].error;
    EXPECT_EQ(serial[i].fingerprint, parallel[i].fingerprint)
        << ReproLine(configs[i]);
    EXPECT_EQ(serial[i].fingerprint, again[i].fingerprint)
        << ReproLine(configs[i]);
    EXPECT_EQ(serial[i].commits, parallel[i].commits);
    EXPECT_EQ(serial[i].crashes, parallel[i].crashes);
    EXPECT_EQ(serial[i].torn_bytes, parallel[i].torn_bytes);
    EXPECT_EQ(serial[i].quarantined, parallel[i].quarantined);
  }
}

// ---------------------------------------------------------------------------
// Known-answer anchors: full-run fingerprints pinned to exact values. Any
// change to op generation, replay semantics, recovery behavior or the
// fingerprint itself shows up here first — update the constants only for a
// deliberate, understood change.
// ---------------------------------------------------------------------------

struct Anchor {
  Schedule schedule;
  uint64_t seed;
  uint64_t commits;
  uint64_t crashes;
  uint32_t fingerprint;
};

void ExpectAnchor(const Anchor& a) {
  FuzzConfig cfg;
  cfg.schedule = a.schedule;
  cfg.seed = a.seed;
  cfg.ops = 200;
  FuzzResult r = RunFuzz(cfg);
  ASSERT_TRUE(r.ok) << ReproLine(cfg) << ": " << r.error;
  EXPECT_EQ(r.commits, a.commits) << ReproLine(cfg);
  EXPECT_EQ(r.crashes, a.crashes) << ReproLine(cfg);
  EXPECT_EQ(r.fingerprint, a.fingerprint) << ReproLine(cfg);
}

TEST(Differential, KnownAnswerAnchorSlc) {
  ExpectAnchor({Schedule::kSlc, 7, 19, 2, 1276749568u});
}

TEST(Differential, KnownAnswerAnchorOddMlc) {
  ExpectAnchor({Schedule::kOddMlc, 11, 16, 3, 485282324u});
}

// The replication fingerprint additionally covers the replica's device and
// region counters plus the stream counters (frames emitted/applied, deltas,
// foldbacks, duplicates, gaps, snapshots, LWW skips).
TEST(Differential, KnownAnswerAnchorReplication) {
  ExpectAnchor({Schedule::kRepl, 5, 22, 3, 124965714u});
}

// The cooked-device schedules: page-mapping FTL under cost-benefit GC, and
// the stream-aware flavor (per-stream frontiers, warm/cold GC). Their
// fingerprints cover the FTL's host writes, GC migrations and quarantined
// pages, so any change to placement or victim choice moves them.
TEST(Differential, KnownAnswerAnchorPageFtl) {
  ExpectAnchor({Schedule::kPageFtl, 7, 21, 4, 1407263227u});
}

TEST(Differential, KnownAnswerAnchorStreamFtl) {
  ExpectAnchor({Schedule::kStreamFtl, 7, 16, 4, 3090587027u});
}

// The remaining schedules, one (schedule, seed) row each.
constexpr Anchor kAnchors[] = {
    {Schedule::kSlcNonEager, 7, 19, 0, 1004736371u},
    {Schedule::kPSlc, 7, 17, 3, 3628664052u},
    {Schedule::kSlcNoEcc, 7, 20, 0, 218040173u},
    {Schedule::kSharded, 7, 19, 2, 2601785030u},
    {Schedule::kDeltaCodec, 7, 16, 4, 1690360688u},
};

TEST(Differential, KnownAnswerAnchors) {
  for (const Anchor& a : kAnchors) ExpectAnchor(a);
}

// ---------------------------------------------------------------------------
// The checker catches real bugs: with the torn-append safety checks disabled
// through the fault-injection points, a seeded run must fail, the shrinker
// must cut the trace to a handful of ops, and the shrunk trace must pass
// again the moment the faults are off (the bug, not the harness, is at
// fault). One row per schedule whose sessions or crash protocol differ:
// one Database, sharded sessions, and a replica that can lose power too.
// ---------------------------------------------------------------------------

TEST(Differential, InjectedBugIsCaughtAndShrunk) {
  // Each (schedule, seed, ops) is known to hit a torn append with the
  // checks disabled.
  constexpr struct {
    Schedule schedule;
    uint64_t seed;
    uint64_t ops;
  } kRows[] = {
      {Schedule::kSlc, 2, 120},
      {Schedule::kSharded, 10, 250},
      {Schedule::kRepl, 1, 120},
  };
  for (const auto& row : kRows) {
    FuzzConfig cfg;
    cfg.schedule = row.schedule;
    cfg.seed = row.seed;
    cfg.ops = row.ops;
    SCOPED_TRACE(ReproLine(cfg));

    std::vector<Op> shrunk;
    {
      fault::ScopedFault f1(fault::Point::kSkipDeltaRecordValidation);
      fault::ScopedFault f2(fault::Point::kSkipTornByteScrub);

      FuzzResult r = RunFuzz(cfg);
      ASSERT_FALSE(r.ok) << "injected bug not caught";

      ShrinkResult sr = ShrinkTrace(cfg, GenerateOps(cfg));
      ASSERT_FALSE(sr.failure.ok);
      ASSERT_FALSE(sr.trace.empty());
      EXPECT_LE(sr.trace.size(), 25u)
          << "shrinker left too much noise:\n" << FormatTrace(sr.trace);
      shrunk = sr.trace;

      // The minimized trace still reproduces while the faults are armed.
      FuzzResult replay = ReplayTrace(cfg, shrunk);
      EXPECT_FALSE(replay.ok);
    }

    // Faults off: the same minimized trace passes — the harness flagged the
    // injected bug, not a phantom.
    FuzzResult clean = ReplayTrace(cfg, shrunk);
    EXPECT_TRUE(clean.ok) << clean.error;
  }
}

// ---------------------------------------------------------------------------
// Recovery edge: power loss *during* RecoverAfterPowerLoss (double crash).
// A power-cut op with b%4==0 re-arms the policy so the first mutating flash
// op of the subsequent recovery (typically the mount scan's quarantine
// rewrite) tears too. Every candidate seed must survive; at least one must
// actually exhibit the double crash with a quarantined page.
// ---------------------------------------------------------------------------

std::vector<Op> DoubleCrashTrace(uint64_t cut_seed) {
  std::vector<Op> t;
  for (uint64_t i = 0; i < 6; i++) {
    t.push_back(MkOp(Op::Kind::kInsert, i, 40, 0, 1000 + i));
  }
  t.push_back(MkOp(Op::Kind::kCommit));
  t.push_back(MkOp(Op::Kind::kCheckpoint));  // pages reach flash (mapped)
  t.push_back(MkOp(Op::Kind::kUpdate, 0, 3, 0, 77));  // 1-byte patch
  t.push_back(MkOp(Op::Kind::kCommit));
  // a=0: cut at the next mutating op; b=0: re-arm during recovery with
  // rearm delta 1+c%6 = 1 (the recovery's first mutating op tears too).
  t.push_back(MkOp(Op::Kind::kPowerCut, 0, 0, 0, cut_seed));
  t.push_back(MkOp(Op::Kind::kCheckpoint));  // the flush tears
  return t;
}

TEST(Differential, DoubleCrashDuringRecovery) {
  FuzzConfig cfg;
  cfg.schedule = Schedule::kSlc;

  bool double_crash_seen = false;
  for (uint64_t seed = 1; seed <= 32; seed++) {
    FuzzResult r = ReplayTrace(cfg, DoubleCrashTrace(seed));
    ASSERT_TRUE(r.ok) << "cut seed " << seed << ": op " << r.failed_op << ": "
                      << r.error;
    if (r.crashes >= 2 && r.quarantined >= 1) double_crash_seen = true;
  }
  EXPECT_TRUE(double_crash_seen)
      << "no candidate seed produced a crash during recovery with a "
         "quarantined page — the re-arm path is not being exercised";
}

// ---------------------------------------------------------------------------
// Recovery edge: the device is torn in the LAST delta slot of a page
// ([2x4] scheme: slot 1). The mount scan must quarantine the page, and ARIES
// redo must still replay the committed update the torn append was carrying.
// ---------------------------------------------------------------------------

/// The fuzzer's slc shape with 64 logical pages and one table "t".
std::unique_ptr<workload::Stack> DirectBed() {
  workload::StackSpec spec = workload::SmallSpec();
  spec.regions.push_back({ftl::RegionConfig{.name = "direct",
                                            .logical_pages = 64,
                                            .ipa_mode = ftl::IpaMode::kSlc,
                                            .manage_ecc = true},
                          "direct",
                          {.n = 2, .m = 4, .v = 12},
                          {"t"}});
  return workload::Build(spec).value();
}

TEST(Differential, TornLastDeltaSlotQuarantinedOnMount) {
  int visible_tears = 0;
  for (uint64_t seed = 1; seed <= 16; seed++) {
    std::unique_ptr<workload::Stack> stack = DirectBed();
    workload::Stack& bed = *stack;
    engine::TableId table = bed.parts[0].tables[0];
    std::vector<uint8_t> tuple(64);
    for (size_t i = 0; i < tuple.size(); i++) {
      tuple[i] = static_cast<uint8_t>(i * 7 + 1);
    }
    engine::TxnId txn = bed.db->Begin();
    auto rid = bed.db->Insert(txn, table, tuple);
    ASSERT_TRUE(rid.ok());
    ASSERT_TRUE(bed.db->Commit(txn).ok());
    ASSERT_TRUE(bed.db->Checkpoint().ok());  // initial out-of-place write

    // First small update -> delta slot 0 of 2.
    txn = bed.db->Begin();
    uint8_t b1 = 0xA1;
    ASSERT_TRUE(bed.db->Update(txn, rid.value(), 3, {&b1, 1}).ok());
    tuple[3] = b1;
    ASSERT_TRUE(bed.db->Commit(txn).ok());
    ASSERT_TRUE(bed.db->Checkpoint().ok());

    // Second committed update; the flush appends delta slot 1 — the page's
    // LAST slot — and power dies mid-program.
    txn = bed.db->Begin();
    uint8_t b2 = 0xB2;
    ASSERT_TRUE(bed.db->Update(txn, rid.value(), 5, {&b2, 1}).ok());
    tuple[5] = b2;
    ASSERT_TRUE(bed.db->Commit(txn).ok());

    flash::PowerLossPolicy p;
    p.inject_at_op = 0;
    p.seed = seed;
    bed.dev->SetPowerLossPolicy(p);
    Status cs = bed.db->Checkpoint();
    ASSERT_TRUE(cs.IsUnavailable()) << "seed " << seed << ": " << cs.ToString();

    bed.db->SimulateCrash();
    bed.dev->PowerCycle();
    bed.dev->SetPowerLossPolicy(flash::PowerLossPolicy{});

    // Raw media before the mount scan: a visible tear must fail the
    // delta-area audit (partial record / bytes past the last present slot).
    flash::Ppn ppn = bed.noftl->PhysicalOf(bed.region, rid.value().page.lba());
    Status audit = storage::AuditDeltaArea(bed.dev->page_state(ppn).data.data(),
                                           bed.dev->geometry().page_size);
    ftl::MountScanReport rep;
    ASSERT_TRUE(bed.noftl->MountScan(bed.region, &rep).ok());
    if (!audit.ok()) {
      visible_tears++;
      EXPECT_GE(rep.torn_pages_quarantined, 1u) << "seed " << seed;
      EXPECT_GT(rep.torn_bytes_dropped, 0u) << "seed " << seed;
    }

    ASSERT_TRUE(bed.db->RecoverAfterPowerLoss().ok()) << "seed " << seed;

    // Both committed updates must survive: slot 0 from media (or the
    // quarantined rewrite), slot 1 replayed from the WAL.
    size_t tuples = 0;
    std::vector<uint8_t> got;
    ASSERT_TRUE(bed.db
                    ->Scan(table,
                           [&](engine::Rid, std::span<const uint8_t> bytes) {
                             tuples++;
                             got.assign(bytes.begin(), bytes.end());
                             return true;
                           })
                    .ok());
    ASSERT_EQ(tuples, 1u) << "seed " << seed;
    EXPECT_EQ(got, tuple) << "seed " << seed;
  }
  // The sweep must hit the interesting shape, not just clean-cut crashes.
  EXPECT_GE(visible_tears, 1);
}

// ---------------------------------------------------------------------------
// Regression: a power loss mid wear-leveling swap must leave the region
// structurally sound. Before the WearLevelRegion fix the destination block
// stayed on the free list while pages were being programmed into it, so a
// torn swap left programmed pages inside a "free" block and stale valid
// counters — exactly what AuditRegion flags.
// ---------------------------------------------------------------------------

TEST(Differential, WearLevelSurvivesTornSwap) {
  workload::StackSpec spec = workload::SmallSpec();
  spec.regions.push_back({ftl::RegionConfig{.name = "wl",
                                            .logical_pages = 128,
                                            .over_provisioning = 0.5,
                                            .ipa_mode = ftl::IpaMode::kSlc,
                                            .manage_ecc = true},
                          "",
                          {.n = 2, .m = 4, .v = 12}});
  auto stack = workload::Build(spec);
  ASSERT_TRUE(stack.ok());
  flash::FlashArray& dev = *stack.value()->dev;
  ftl::NoFtl& noftl = *stack.value()->noftl;
  ftl::RegionId r = stack.value()->region;
  const flash::Geometry& g = dev.geometry();
  const ftl::RegionConfig& rc = noftl.region_config(r);

  // Host pages of an IPA region keep the delta area erased (0xFF) — only
  // WriteDelta may program bytes there.
  auto pattern = [&](uint64_t lba, uint64_t gen) {
    Rng rng(lba * 1315423911ull + gen);
    std::vector<uint8_t> page(g.page_size, 0xFF);
    for (uint32_t i = 0; i < rc.delta_area_offset; i++) {
      page[i] = static_cast<uint8_t>(rng.Next());
    }
    return page;
  };

  std::vector<std::vector<uint8_t>> expect(rc.logical_pages);
  for (uint64_t lba = 0; lba < rc.logical_pages; lba++) {
    expect[lba] = pattern(lba, 0);
    ASSERT_TRUE(noftl.WritePage(r, lba, expect[lba].data()).ok());
  }
  // Hammer a hot set so GC recycles blocks and the erase-count spread grows
  // while the cold majority pins low-erase blocks.
  for (uint64_t round = 1; round <= 200; round++) {
    for (uint64_t lba = 0; lba < 8; lba++) {
      expect[lba] = pattern(lba, round);
      ASSERT_TRUE(noftl.WritePage(r, lba, expect[lba].data()).ok());
    }
  }
  ASSERT_GT(noftl.EraseSpread(r), 2u);

  std::vector<uint8_t> buf(g.page_size);
  int torn_swaps = 0;
  for (uint64_t i = 0; i < 24; i++) {
    flash::PowerLossPolicy p;
    p.inject_at_op = i % 12;  // tear at varying depths into the swap
    p.seed = 9000 + i;
    dev.SetPowerLossPolicy(p);
    Status s = noftl.WearLevelRegion(r, 2);
    if (s.IsUnavailable()) {
      torn_swaps++;
      dev.PowerCycle();
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    dev.SetPowerLossPolicy(flash::PowerLossPolicy{});

    ASSERT_TRUE(noftl.AuditRegion(r).ok())
        << "after torn swap " << i << ": " << noftl.AuditRegion(r).ToString();
    for (uint64_t lba = 0; lba < rc.logical_pages; lba++) {
      ASSERT_TRUE(noftl.ReadPage(r, lba, buf.data()).ok()) << "lba " << lba;
      ASSERT_EQ(std::memcmp(buf.data(), expect[lba].data(), g.page_size), 0)
          << "lba " << lba << " after torn swap " << i;
    }
  }
  EXPECT_GE(torn_swaps, 3);
}

// ---------------------------------------------------------------------------
// Process-global counter conservation: across several serial runs the
// registry's flash-level counters must balance the FTL-level causes
// (CheckPublishedConservation, which ipa_fuzz also runs at exit).
// ---------------------------------------------------------------------------

TEST(Differential, ProcessGlobalCounterConservation) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    FuzzConfig cfg;
    cfg.schedule = seed == 3 ? Schedule::kOddMlc : Schedule::kSlc;
    cfg.seed = seed;
    cfg.ops = 150;
    FuzzResult r = RunFuzz(cfg);
    ASSERT_TRUE(r.ok) << ReproLine(cfg) << ": " << r.error;
  }
  metrics::Snapshot snap = metrics::Registry::Instance().TakeSnapshot();
  Status conserved = CheckPublishedConservation(snap);
  EXPECT_TRUE(conserved.ok()) << conserved.ToString();
  EXPECT_GT(snap.Counter("flash.delta_programs"), 0u);
}

}  // namespace
}  // namespace ipa::check
