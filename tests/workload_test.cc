// Integration tests: each workload loads and runs against the full stack
// (engine over NoFTL over the flash emulator), with and without IPA.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "workload/linkbench.h"
#include "workload/tatp.h"
#include "workload/testbed.h"
#include "workload/tpcb.h"
#include "workload/tpcc.h"

namespace ipa::workload {
namespace {

std::unique_ptr<Testbed> MakeBed(uint64_t db_pages, storage::Scheme scheme,
                                 uint32_t page_size = 4096,
                                 double buffer_fraction = 0.5) {
  TestbedConfig tc;
  tc.db_pages = db_pages;
  tc.scheme = scheme;
  tc.page_size = page_size;
  tc.buffer_fraction = buffer_fraction;
  auto bed = MakeTestbed(tc);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  return std::move(bed).value();
}

TEST(TpcbWorkloadTest, LoadAndRunWithIpa) {
  TpcbConfig wc;
  wc.accounts_per_branch = 3000;
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  Tpcb sizing(nullptr, wc, SingleTablespace(0));
  auto bed = MakeBed(sizing.EstimatedPages(4096), scheme);
  Tpcb tpcb(bed->db.get(), wc, bed->ts_map());
  ASSERT_TRUE(tpcb.Load().ok());
  ASSERT_TRUE(RunTransactions(tpcb, 300).ok());
  EXPECT_EQ(bed->db->txn_stats().aborts, 0u);
  EXPECT_GT(bed->db->txn_stats().commits, 300u);  // load batches + run
  // IPA must have served some flushes.
  ASSERT_TRUE(bed->db->Checkpoint().ok());
  EXPECT_GT(bed->db->buffer_pool().stats().ipa_flushes, 0u);
  EXPECT_GT(bed->backend_stats().host_delta_writes, 0u);
}

TEST(TpcbWorkloadTest, BalancesConserved) {
  // The sum of all account/teller/branch balance changes per transaction is
  // consistent: sum(accounts) == sum(branches) == sum(tellers).
  TpcbConfig wc;
  wc.accounts_per_branch = 1000;
  Tpcb sizing(nullptr, wc, SingleTablespace(0));
  auto bed = MakeBed(sizing.EstimatedPages(4096), {.n = 2, .m = 4, .v = 12});
  Tpcb tpcb(bed->db.get(), wc, bed->ts_map());
  ASSERT_TRUE(tpcb.Load().ok());
  ASSERT_TRUE(RunTransactions(tpcb, 200).ok());

  auto sum_balances = [&](engine::TableId t) {
    int64_t sum = 0;
    EXPECT_TRUE(bed->db
                    ->Scan(t,
                           [&](engine::Rid, std::span<const uint8_t> tuple) {
                             sum += static_cast<int32_t>(DecodeU32(
                                 tuple.data() + Tpcb::kBalanceOffset));
                             return true;
                           })
                    .ok());
    return sum;
  };
  // Table ids are assigned in creation order: BRANCH, TELLER, ACCOUNT.
  int64_t branches = sum_balances(0);
  int64_t tellers = sum_balances(1);
  int64_t accounts = sum_balances(tpcb.account_table());
  EXPECT_EQ(branches, tellers);
  EXPECT_EQ(branches, accounts);
}

TEST(TpccWorkloadTest, LoadAndRunMixedTransactions) {
  TpccConfig wc;
  wc.items = 2000;
  wc.customers_per_district = 60;
  storage::Scheme scheme{.n = 2, .m = 3, .v = 12};
  Tpcc sizing(nullptr, wc, SingleTablespace(0));
  auto bed = MakeBed(sizing.EstimatedPages(4096), scheme);
  Tpcc tpcc(bed->db.get(), wc, bed->ts_map());
  ASSERT_TRUE(tpcc.Load().ok());
  ASSERT_TRUE(RunTransactions(tpcc, 400).ok());
  ASSERT_TRUE(bed->db->Checkpoint().ok());
  EXPECT_GT(bed->db->buffer_pool().stats().ipa_flushes, 0u);
  // The 1% NewOrder rollbacks exercise Abort.
  EXPECT_GT(bed->db->txn_stats().commits, 300u);
}

TEST(TpccWorkloadTest, RunsWithoutIpaToo) {
  TpccConfig wc;
  wc.items = 1000;
  wc.customers_per_district = 30;
  Tpcc sizing(nullptr, wc, SingleTablespace(0));
  auto bed = MakeBed(sizing.EstimatedPages(4096), {});
  Tpcc tpcc(bed->db.get(), wc, bed->ts_map());
  ASSERT_TRUE(tpcc.Load().ok());
  ASSERT_TRUE(RunTransactions(tpcc, 200).ok());
  ASSERT_TRUE(bed->db->Checkpoint().ok());
  EXPECT_EQ(bed->db->buffer_pool().stats().ipa_flushes, 0u);
  EXPECT_EQ(bed->backend_stats().host_delta_writes, 0u);
  EXPECT_GT(bed->backend_stats().host_page_writes, 0u);
}

TEST(TatpWorkloadTest, LoadAndRunMix) {
  TatpConfig wc;
  wc.subscribers = 4000;
  Tatp sizing(nullptr, wc, SingleTablespace(0));
  auto bed = MakeBed(sizing.EstimatedPages(4096), {.n = 2, .m = 4, .v = 12});
  Tatp tatp(bed->db.get(), wc, bed->ts_map());
  ASSERT_TRUE(tatp.Load().ok());
  ASSERT_TRUE(RunTransactions(tatp, 500).ok());
  ASSERT_TRUE(bed->db->Checkpoint().ok());
  EXPECT_GT(bed->db->txn_stats().commits, 400u);
}

TEST(LinkbenchWorkloadTest, LoadAndRunMixOn8kPages) {
  LinkbenchConfig wc;
  wc.nodes = 3000;
  storage::Scheme scheme{.n = 2, .m = 100, .v = 14};
  Linkbench sizing(nullptr, wc, SingleTablespace(0));
  auto bed = MakeBed(sizing.EstimatedPages(8192), scheme, 8192);
  Linkbench lb(bed->db.get(), wc, bed->ts_map());
  ASSERT_TRUE(lb.Load().ok());
  ASSERT_TRUE(RunTransactions(lb, 500).ok());
  ASSERT_TRUE(bed->db->Checkpoint().ok());
  EXPECT_GT(bed->db->buffer_pool().stats().ipa_flushes, 0u);
}

TEST(TestbedTest, UpdateTracesFeedTheAdvisorPipeline) {
  TpcbConfig wc;
  wc.accounts_per_branch = 1500;
  Tpcb sizing(nullptr, wc, SingleTablespace(0));
  TestbedConfig tc;
  tc.db_pages = sizing.EstimatedPages(4096);
  tc.scheme = {.n = 2, .m = 4, .v = 12};
  tc.buffer_fraction = 0.25;  // force evictions
  tc.record_update_sizes = true;
  auto bed = MakeTestbed(tc);
  ASSERT_TRUE(bed.ok());
  Tpcb tpcb(bed.value()->db.get(), wc, bed.value()->ts_map());
  ASSERT_TRUE(tpcb.Load().ok());
  ASSERT_TRUE(RunTransactions(tpcb, 400).ok());
  ASSERT_TRUE(bed.value()->db->Checkpoint().ok());
  const auto& traces = bed.value()->db->buffer_pool().update_traces();
  auto it = traces.find(tpcb.account_table());
  ASSERT_NE(it, traces.end());
  EXPECT_GT(it->second.net.total(), 0u);
  // TPC-B: account updates change a 4-byte numeric; most flushes change
  // at most ~8 net bytes.
  EXPECT_LE(it->second.net.ValueAtPercentile(50), 8u);
}

TEST(TestbedTest, IoTraceRecordsEvents) {
  TpcbConfig wc;
  wc.accounts_per_branch = 1000;
  Tpcb sizing(nullptr, wc, SingleTablespace(0));
  TestbedConfig tc;
  tc.db_pages = sizing.EstimatedPages(4096);
  tc.scheme = {.n = 2, .m = 4, .v = 12};
  tc.buffer_fraction = 0.25;
  tc.min_buffer_pages = 8;  // force real fetch misses on this tiny DB
  tc.record_io_trace = true;
  auto bed = MakeTestbed(tc);
  ASSERT_TRUE(bed.ok());
  Tpcb tpcb(bed.value()->db.get(), wc, bed.value()->ts_map());
  ASSERT_TRUE(tpcb.Load().ok());
  bed.value()->db->ClearIoTrace();
  ASSERT_TRUE(RunTransactions(tpcb, 200).ok());
  ASSERT_TRUE(bed.value()->db->Checkpoint().ok());
  const auto& trace = bed.value()->db->io_trace();
  ASSERT_FALSE(trace.empty());
  uint64_t fetches = 0, updates = 0, evicts = 0;
  for (const auto& e : trace) {
    switch (e.type) {
      case engine::IoEvent::Type::kFetch: fetches++; break;
      case engine::IoEvent::Type::kUpdate: updates++; break;
      default: evicts++; break;
    }
  }
  EXPECT_GT(fetches, 0u);
  EXPECT_GT(updates, 0u);
  EXPECT_GT(evicts, 0u);
}

}  // namespace
}  // namespace ipa::workload
