// End-to-end transparency and determinism properties of IPA.
//
// The central correctness claim of the paper: "the rest of the database
// functionality is NOT impacted by IPA" (Section 6.2). These tests run the
// same seeded workloads with IPA enabled and disabled and require the
// *logical* database content to be byte-identical, while the physical write
// behavior differs (appends vs out-of-place writes). Plus: bit-for-bit
// determinism across runs, and IPA correctness under each flash mode.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/bytes.h"

#include "workload/testbed.h"
#include "workload/tpcb.h"
#include "workload/tatp.h"
#include "workload/linkbench.h"
#include "workload/tpcc.h"

namespace ipa::workload {
namespace {

// Logical content as a sorted multiset of tuples: physical placement (rids,
// page fill) legitimately differs between schemes because the delta area
// changes per-page capacity.
using Snapshot = std::multiset<std::vector<uint8_t>>;

Snapshot Dump(engine::Database& db, engine::TableId table) {
  Snapshot snap;
  EXPECT_TRUE(db.Scan(table, [&](engine::Rid, std::span<const uint8_t> t) {
                  snap.insert({t.begin(), t.end()});
                  return true;
                })
                  .ok());
  return snap;
}

struct TpcbRun {
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<Tpcb> wl;
  ftl::RegionStats stats;
};

TpcbRun RunTpcb(storage::Scheme scheme, Profile profile, uint64_t txns,
                uint64_t seed) {
  TpcbConfig wc;
  wc.accounts_per_branch = 2000;
  wc.seed = seed;
  Tpcb sizing(nullptr, wc, SingleTablespace(0));
  TestbedConfig tc;
  tc.profile = profile;
  tc.db_pages = sizing.EstimatedPages(4096);
  tc.scheme = scheme;
  tc.buffer_fraction = 0.25;
  TpcbRun run;
  auto bed = MakeTestbed(tc);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  run.bed = std::move(bed).value();
  run.wl = std::make_unique<Tpcb>(run.bed->db.get(), wc, run.bed->ts_map());
  EXPECT_TRUE(run.wl->Load().ok());
  for (uint64_t i = 0; i < txns; i++) {
    auto r = run.wl->RunTransaction();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_TRUE(run.bed->db->Checkpoint().ok());
  run.stats = run.bed->backend_stats();
  return run;
}

TEST(IpaTransparencyTest, LogicalContentIdenticalWithAndWithoutIpa) {
  auto with = RunTpcb({.n = 2, .m = 4, .v = 12}, Profile::kEmulatorSlc, 800, 7);
  auto without = RunTpcb({}, Profile::kEmulatorSlc, 800, 7);

  // Physical behavior must differ...
  EXPECT_GT(with.stats.host_delta_writes, 0u);
  EXPECT_EQ(without.stats.host_delta_writes, 0u);

  // ...but logical content must be byte-identical, table by table.
  for (engine::TableId t = 0; t < 4; t++) {
    Snapshot a = Dump(*with.bed->db, t);
    Snapshot b = Dump(*without.bed->db, t);
    ASSERT_EQ(a.size(), b.size()) << "table " << t;
    ASSERT_EQ(a, b) << "table " << t;
  }
}

TEST(IpaTransparencyTest, PSlcAndOddMlcProduceSameLogicalContent) {
  auto pslc = RunTpcb({.n = 2, .m = 4, .v = 12}, Profile::kOpenSsdPSlc, 500, 11);
  auto odd = RunTpcb({.n = 2, .m = 4, .v = 12}, Profile::kOpenSsdOddMlc, 500, 11);
  EXPECT_GT(pslc.stats.host_delta_writes, 0u);
  EXPECT_GT(odd.stats.host_delta_writes, 0u);
  // odd-MLC serves MSB-mapped pages out-of-place (the DeltaWritePossible
  // fast path), so its append share must be lower than pSLC's.
  EXPECT_LT(odd.stats.IpaSharePercent(), pslc.stats.IpaSharePercent());
  for (engine::TableId t = 0; t < 4; t++) {
    ASSERT_EQ(Dump(*pslc.bed->db, t), Dump(*odd.bed->db, t)) << "table " << t;
  }
}

TEST(IpaTransparencyTest, RunsAreDeterministic) {
  auto a = RunTpcb({.n = 2, .m = 4, .v = 12}, Profile::kEmulatorSlc, 400, 99);
  auto b = RunTpcb({.n = 2, .m = 4, .v = 12}, Profile::kEmulatorSlc, 400, 99);
  EXPECT_EQ(a.stats.host_reads, b.stats.host_reads);
  EXPECT_EQ(a.stats.host_page_writes, b.stats.host_page_writes);
  EXPECT_EQ(a.stats.host_delta_writes, b.stats.host_delta_writes);
  EXPECT_EQ(a.stats.gc_erases, b.stats.gc_erases);
  EXPECT_EQ(a.bed->noftl->clock().Now(), b.bed->noftl->clock().Now());
  for (engine::TableId t = 0; t < 4; t++) {
    ASSERT_EQ(Dump(*a.bed->db, t), Dump(*b.bed->db, t));
  }
}

TEST(IpaTransparencyTest, TpccInvariantDistrictOrderCounter) {
  // A domain-level consistency check: D_NEXT_O_ID - 1 equals the number of
  // orders created in that district, IPA on or off.
  for (bool ipa : {true, false}) {
    TpccConfig wc;
    wc.items = 1500;
    wc.customers_per_district = 40;
    wc.seed = 21;
    Tpcc sizing(nullptr, wc, SingleTablespace(0));
    TestbedConfig tc;
    tc.db_pages = sizing.EstimatedPages(4096);
    if (ipa) tc.scheme = {.n = 2, .m = 3, .v = 12};
    tc.buffer_fraction = 0.3;
    auto bed = MakeTestbed(tc);
    ASSERT_TRUE(bed.ok());
    Tpcc tpcc(bed.value()->db.get(), wc, bed.value()->ts_map());
    ASSERT_TRUE(tpcc.Load().ok());
    for (int i = 0; i < 600; i++) {
      ASSERT_TRUE(tpcc.RunTransaction().ok());
    }
    ASSERT_TRUE(bed.value()->db->Checkpoint().ok());
    bed.value()->db->buffer_pool().DropAllNoFlush();  // re-read from flash

    // Sum of (d_next_o_id - 1) over districts == rows in ORDER table.
    uint64_t next_sum = 0;
    // DISTRICT is the second-created table (WAREHOUSE=0, DISTRICT=1).
    ASSERT_TRUE(bed.value()->db->Scan(1, [&](engine::Rid,
                                             std::span<const uint8_t> t) {
                    next_sum += DecodeU32(t.data() + Tpcc::kDistNextOidOff) - 1;
                    return true;
                  }).ok());
    uint64_t orders = 0;
    // ORDER is table 4 (W,D,CUSTOMER,HISTORY,ORDER).
    ASSERT_TRUE(bed.value()->db->Scan(4, [&](engine::Rid,
                                             std::span<const uint8_t>) {
                    orders++;
                    return true;
                  }).ok());
    EXPECT_EQ(next_sum, orders) << "ipa=" << ipa;
  }
}

TEST(IpaTransparencyTest, WorkloadContinuesAfterCrashAndIndexRebuild) {
  // End-to-end restart story: crash mid-run, ARIES recovery restores heap
  // content, the workload rebuilds its non-logged indexes from heap scans,
  // and transactions continue with the TPC-B balance invariant intact.
  TpcbConfig wc;
  wc.accounts_per_branch = 1200;
  wc.seed = 31;
  Tpcb sizing(nullptr, wc, SingleTablespace(0));
  TestbedConfig tc;
  tc.db_pages = sizing.EstimatedPages(4096);
  tc.scheme = {.n = 2, .m = 4, .v = 12};
  tc.buffer_fraction = 0.3;
  auto bed = MakeTestbed(tc);
  ASSERT_TRUE(bed.ok());
  Tpcb tpcb(bed.value()->db.get(), wc, bed.value()->ts_map());
  ASSERT_TRUE(tpcb.Load().ok());
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(tpcb.RunTransaction().ok());
  }

  bed.value()->db->SimulateCrash();
  ASSERT_TRUE(bed.value()->db->Recover().ok());
  ASSERT_TRUE(tpcb.RebuildIndexes().ok());

  for (int i = 0; i < 200; i++) {
    auto r = tpcb.RunTransaction();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Balance conservation across crash + rebuild + continued execution.
  auto sum_balances = [&](engine::TableId t) {
    int64_t sum = 0;
    EXPECT_TRUE(bed.value()->db
                    ->Scan(t,
                           [&](engine::Rid, std::span<const uint8_t> tuple) {
                             sum += static_cast<int32_t>(DecodeU32(
                                 tuple.data() + Tpcb::kBalanceOffset));
                             return true;
                           })
                    .ok());
    return sum;
  };
  EXPECT_EQ(sum_balances(0), sum_balances(tpcb.account_table()));
}

// Every workload must survive crash -> recover -> index rebuild -> more
// transactions (the full restart story, per workload).
class RestartSweep : public ::testing::TestWithParam<int> {};

TEST_P(RestartSweep, CrashRecoverRebuildContinue) {
  int which = GetParam();
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<Workload> wl;
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  TestbedConfig tc;
  tc.scheme = scheme;
  tc.buffer_fraction = 0.35;
  // Index rebuild allocates a fresh copy of every index (old pages are
  // orphaned, see engine/btree.h) — give the tablespace room for it.
  tc.growth_headroom = 3.5;
  switch (which) {
    case 0: {
      TpccConfig wc;
      wc.items = 1200;
      wc.customers_per_district = 40;
      Tpcc sizing(nullptr, wc, SingleTablespace(0));
      tc.db_pages = sizing.EstimatedPages(4096);
      tc.scheme = {.n = 2, .m = 3, .v = 12};
      auto b = MakeTestbed(tc);
      ASSERT_TRUE(b.ok());
      bed = std::move(b).value();
      wl = std::make_unique<Tpcc>(bed->db.get(), wc, bed->ts_map());
      break;
    }
    case 1: {
      TatpConfig wc;
      wc.subscribers = 2500;
      Tatp sizing(nullptr, wc, SingleTablespace(0));
      tc.db_pages = sizing.EstimatedPages(4096);
      auto b = MakeTestbed(tc);
      ASSERT_TRUE(b.ok());
      bed = std::move(b).value();
      wl = std::make_unique<Tatp>(bed->db.get(), wc, bed->ts_map());
      break;
    }
    default: {
      LinkbenchConfig wc;
      wc.nodes = 2000;
      Linkbench sizing(nullptr, wc, SingleTablespace(0));
      tc.page_size = 8192;
      tc.scheme = {.n = 2, .m = 100, .v = 14};
      tc.db_pages = sizing.EstimatedPages(8192);
      auto b = MakeTestbed(tc);
      ASSERT_TRUE(b.ok());
      bed = std::move(b).value();
      wl = std::make_unique<Linkbench>(bed->db.get(), wc, bed->ts_map());
      break;
    }
  }
  ASSERT_TRUE(wl->Load().ok());
  for (int i = 0; i < 250; i++) {
    auto r = wl->RunTransaction();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  bed->db->SimulateCrash();
  ASSERT_TRUE(bed->db->Recover().ok());
  ASSERT_TRUE(wl->RebuildIndexes().ok());
  for (int i = 0; i < 250; i++) {
    auto r = wl->RunTransaction();
    ASSERT_TRUE(r.ok()) << "post-restart txn " << i << ": "
                        << r.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, RestartSweep, ::testing::Range(0, 3));

}  // namespace
}  // namespace ipa::workload
