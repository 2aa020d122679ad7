// Parameterized sweep: the whole stack must work at every supported page
// size (the paper notes DB page sizes have been growing for decades and IPA
// "benefits from the trend of increasing Flash page sizes").

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "workload/testbed.h"
#include "workload/tpcb.h"

namespace ipa::workload {
namespace {

class PageSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PageSizeSweep, TpcbEndToEnd) {
  uint32_t page_size = GetParam();
  TpcbConfig wc;
  wc.accounts_per_branch = 1500;
  Tpcb sizing(nullptr, wc, SingleTablespace(0));

  // Scale M mildly with the page (larger pages accumulate more updates).
  storage::Scheme scheme{.n = 2,
                         .m = static_cast<uint8_t>(4 + page_size / 4096),
                         .v = 12};
  TestbedConfig tc;
  tc.page_size = page_size;
  tc.db_pages = sizing.EstimatedPages(page_size) + 16;
  tc.scheme = scheme;
  tc.buffer_fraction = 0.3;
  auto bed = MakeTestbed(tc);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();

  Tpcb tpcb(bed.value()->db.get(), wc, bed.value()->ts_map());
  ASSERT_TRUE(tpcb.Load().ok());
  for (int i = 0; i < 300; i++) {
    auto r = tpcb.RunTransaction();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(bed.value()->db->Checkpoint().ok());
  EXPECT_GT(bed.value()->backend_stats().host_delta_writes, 0u)
      << "IPA must engage at page size " << page_size;

  // Content integrity through a full drop + refetch.
  bed.value()->db->buffer_pool().DropAllNoFlush();
  int64_t branches = 0, accounts = 0;
  auto sum = [&](engine::TableId t, int64_t* out) {
    ASSERT_TRUE(bed.value()->db->Scan(t, [&](engine::Rid,
                                             std::span<const uint8_t> row) {
                    *out += static_cast<int32_t>(
                        DecodeU32(row.data() + Tpcb::kBalanceOffset));
                    return true;
                  }).ok());
  };
  sum(0, &branches);
  sum(tpcb.account_table(), &accounts);
  EXPECT_EQ(branches, accounts);  // invariant holds at any page size
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageSizeSweep,
                         ::testing::Values(2048u, 4096u, 8192u, 16384u));

}  // namespace
}  // namespace ipa::workload
