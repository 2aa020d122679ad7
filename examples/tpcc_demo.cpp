// TPC-C demo: the paper's headline experiment in miniature.
//
// Runs the same TPC-C workload twice on identical emulated flash devices —
// once with traditional out-of-place page writes, once with the [2x3] IPA
// scheme — and prints the side-by-side reductions in GC work, erases and
// I/O latency (the Table 9 effect).
//
//   $ ./build/examples/tpcc_demo

#include <cstdio>

#include "workload/testbed.h"
#include "workload/tpcc.h"

using namespace ipa;
using namespace ipa::workload;

namespace {

struct Outcome {
  ftl::RegionStats region;
  double tps = 0;
};

Result<Outcome> RunOnce(storage::Scheme scheme, uint64_t txns) {
  TpccConfig wc;
  wc.items = 4000;
  wc.customers_per_district = 120;
  Tpcc sizing(nullptr, wc, SingleTablespace(0));

  TestbedConfig tc;
  tc.db_pages = sizing.EstimatedPages(4096);
  tc.scheme = scheme;
  tc.buffer_fraction = 0.20;
  IPA_ASSIGN_OR_RETURN(std::unique_ptr<Testbed> bed, MakeTestbed(tc));

  Tpcc tpcc(bed->db.get(), wc, bed->ts_map());
  IPA_RETURN_NOT_OK(tpcc.Load());
  IPA_RETURN_NOT_OK(bed->db->Checkpoint());
  bed->noftl->ResetStats(bed->region);
  bed->db->ResetTxnStats();

  SimTime t0 = bed->noftl->clock().Now();
  for (uint64_t i = 0; i < txns; i++) {
    auto r = tpcc.RunTransaction();
    IPA_RETURN_NOT_OK(r.status());
    bed->noftl->clock().Advance(400);  // per-txn CPU cost
  }
  SimTime span = bed->noftl->clock().Now() - t0;

  Outcome out;
  out.region = bed->backend_stats();
  out.tps = static_cast<double>(bed->db->txn_stats().commits) /
            (static_cast<double>(span) / 1e6);
  return out;
}

}  // namespace

int main() {
  const uint64_t kTxns = 5000;
  std::printf("TPC-C, 20%% buffer: traditional [0x0] vs IPA [2x3]...\n\n");

  auto base = RunOnce({}, kTxns);
  auto ipa_run = RunOnce({.n = 2, .m = 3, .v = 12}, kTxns);
  if (!base.ok() || !ipa_run.ok()) {
    std::fprintf(stderr, "run failed: %s %s\n",
                 base.status().ToString().c_str(),
                 ipa_run.status().ToString().c_str());
    return 1;
  }
  const auto& b = base.value();
  const auto& p = ipa_run.value();

  auto line = [](const char* name, double v0, double v1, const char* unit) {
    std::printf("  %-28s %12.2f -> %12.2f %-5s (%+.0f%%)\n", name, v0, v1, unit,
                v0 ? 100.0 * (v1 - v0) / v0 : 0.0);
  };
  std::printf("metric                        traditional          IPA [2x3]\n");
  line("in-place appends share", 0.0, p.region.IpaSharePercent(), "%");
  line("GC page migr. / host write", b.region.MigrationsPerHostWrite(),
       p.region.MigrationsPerHostWrite(), "");
  line("GC erases / host write", b.region.ErasesPerHostWrite(),
       p.region.ErasesPerHostWrite(), "");
  line("read latency", b.region.read_latency.MeanMillis(),
       p.region.read_latency.MeanMillis(), "ms");
  line("throughput", b.tps, p.tps, "tps");
  std::printf(
      "\nFewer out-of-place writes -> fewer invalid pages -> less GC -> the\n"
      "device erases less and answers reads faster (paper Tables 8/9).\n");
  return 0;
}
