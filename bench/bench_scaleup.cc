// Shared-nothing scale-up: aggregate throughput and write amplification of
// the partitioned engine at 1/2/4/8 workers on TPC-B and LinkBench
// (docs/SHARDING.md).
//
// Every worker owns a partition — its chips, FlashLane, WAL, buffer pool and
// indexes — and runs 1/N of the transaction stream; simulated time advances
// per worker between epoch barriers, so sync I/O waits of different workers
// overlap like independent hosts on one array. Total work (rows and
// transactions) is held constant across worker counts: the speedup column is
// the classic scale-up curve, gated in CI at the 1-vs-4 smoke arm.
//
// Output and metrics snapshots are bit-identical across runs and across
// sequential/threaded execution (--sequential switches the driver; simulated
// results do not change).
//
// Usage: bench_scaleup [--workers 1,2,4,8] [--min-speedup X] [--sequential]
//   --min-speedup fails the process (exit 1) when TPC-B's 4-worker speedup
//   falls short — CI's scale-up assertion.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/metrics.h"
#include "workload/linkbench.h"
#include "workload/tpcb.h"

namespace ipa::bench {
namespace {

struct ArmResult {
  uint32_t workers = 0;
  uint64_t commits = 0;
  uint64_t sim_us = 0;
  double tps = 0;
  double wa = 0;
  double ipa_share_pct = 0;
  uint64_t host_writes = 0;
};

std::unique_ptr<workload::Workload> MakePartWorkload(Wl w,
                                                     engine::Database* db,
                                                     workload::TablespaceMap ts,
                                                     double scale,
                                                     uint64_t seed) {
  if (w == Wl::kTpcb) {
    workload::TpcbConfig c;
    c.accounts_per_branch = static_cast<uint32_t>(60000 * scale);
    c.seed = seed;
    return std::make_unique<workload::Tpcb>(db, c, ts);
  }
  workload::LinkbenchConfig c;
  c.nodes = static_cast<uint64_t>(20000 * scale);
  c.seed = seed;
  return std::make_unique<workload::Linkbench>(db, c, ts);
}

Result<ArmResult> RunArm(Wl wl, uint32_t workers, bool threaded) {
  double scale = workload::BenchScale();
  double part_scale = scale / workers;  // total rows constant across arms

  // Sizing pass: one partition's footprint, times the partition count.
  auto sizing =
      MakePartWorkload(wl, nullptr, workload::SingleTablespace(0), part_scale, 1);
  uint64_t db_pages = sizing->EstimatedPages(4096) * workers;

  workload::ShardedTestbedConfig sc;
  sc.workers = workers;
  sc.threaded = threaded;
  sc.base.db_pages = db_pages;
  sc.base.scheme = wl == Wl::kTpcb
                       ? storage::Scheme{.n = 2, .m = 4, .v = 12}
                       : storage::Scheme{.n = 2, .m = 100, .v = 12};
  sc.base.buffer_fraction = 0.5;
  sc.base.record_update_sizes = true;
  // Group commit: batch up to 8 commits / 1ms per worker so the per-commit
  // log force (100us) amortizes — the satellite the WAL sharding pays for.
  sc.group_commit_ops = 8;
  sc.group_commit_window_us = 1000;
  sc.log_force_us = 100;
  IPA_ASSIGN_OR_RETURN(std::unique_ptr<workload::ShardedTestbed> bed,
                       MakeShardedTestbed(sc));

  // Per-partition workload instances: derived seeds, each confined to its
  // worker. Loads run on the workers too (they are partition-local work).
  std::vector<std::unique_ptr<workload::Workload>> wls;
  std::vector<Status> status(workers, Status::OK());
  for (uint32_t p = 0; p < workers; ++p) {
    wls.push_back(MakePartWorkload(wl, bed->parts[p].db.get(),
                                   workload::SingleTablespace(bed->parts[p].ts),
                                   part_scale, 42 + 7919 * p));
    workload::Workload* w = wls.back().get();
    Status* st = &status[p];
    bed->sharded->Submit(p, [w, st] { *st = w->Load(); });
  }
  bed->sharded->EpochBarrier();
  for (const Status& st : status) IPA_RETURN_NOT_OK(st);
  // Settle to a steady on-flash state, then measure from a clean slate.
  IPA_RETURN_NOT_OK(bed->sharded->Checkpoint());
  SimTime t0 = bed->sharded->EpochBarrier();
  for (uint32_t p = 0; p < workers; ++p) {
    bed->noftl->ResetStats(bed->parts[p].region);
    bed->parts[p].db->buffer_pool().ResetStats();
    bed->parts[p].db->buffer_pool().mutable_update_traces().clear();
    bed->parts[p].db->ResetTxnStats();
  }

  uint64_t total_txns = DefaultTxns(wl);
  uint64_t per_worker = total_txns / workers;
  uint32_t cpu = DefaultCpuUs(wl);
  for (uint32_t p = 0; p < workers; ++p) {
    workload::Workload* w = wls[p].get();
    engine::Database* db = bed->parts[p].db.get();
    Status* st = &status[p];
    bed->sharded->Submit(p, [w, db, st, per_worker, cpu] {
      for (uint64_t i = 0; i < per_worker; ++i) {
        auto r = w->RunTransaction();
        if (!r.ok()) {
          *st = r.status();
          return;
        }
        db->sim_clock().Advance(cpu);
      }
      *st = db->buffer_pool().FlushAll();
    });
  }
  SimTime t1 = bed->sharded->EpochBarrier();
  for (const Status& st : status) IPA_RETURN_NOT_OK(st);

  ArmResult out;
  out.workers = workers;
  out.sim_us = t1 - t0;
  uint64_t gross = 0, net = 0;
  for (uint32_t p = 0; p < workers; ++p) {
    const ftl::RegionStats& rs = bed->region_stats(p);
    out.commits += bed->parts[p].db->txn_stats().commits;
    out.host_writes += rs.HostWrites();
    gross += rs.host_page_writes * 4096 + rs.delta_bytes_written;
    for (const auto& [table, trace] :
         bed->parts[p].db->buffer_pool().update_traces()) {
      for (const auto& [v, c] : trace.gross.Points()) {
        net += static_cast<uint64_t>(v) * c;
      }
    }
    out.ipa_share_pct += rs.IpaSharePercent() / workers;
  }
  out.tps = out.sim_us == 0 ? 0.0
                            : static_cast<double>(out.commits) /
                                  (static_cast<double>(out.sim_us) / 1e6);
  out.wa = net == 0 ? 0.0
                    : static_cast<double>(gross) / static_cast<double>(net);
  return out;
}

int Main(int argc, char** argv) {
  std::vector<uint32_t> workers = {1, 2, 4, 8};
  double min_speedup = 0.0;
  bool threaded = true;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) != 0) return nullptr;
      if (arg.size() > n && arg[n] == '=') return arg.c_str() + n + 1;
      if (arg.size() == n && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--workers")) {
      workers.clear();
      for (const char* s = v; *s;) {
        workers.push_back(static_cast<uint32_t>(std::strtoul(s, nullptr, 10)));
        s = std::strchr(s, ',');
        if (!s) break;
        s++;
      }
    } else if (const char* v = value("--min-speedup")) {
      min_speedup = std::atof(v);
    } else if (arg == "--sequential") {
      threaded = false;
    }
  }

  WarnIfDebugBuild();
  std::printf(
      "Scale-up: shared-nothing partitioned engine on one 16-chip SLC\n"
      "emulator array; total rows and transactions held constant per\n"
      "workload while the worker count grows (docs/SHARDING.md).\n\n");

  double tpcb_speedup_at4 = 0.0;
  for (Wl wl : {Wl::kTpcb, Wl::kLinkbench}) {
    TablePrinter table({"workers", "commits", "sim s", "agg tps", "speedup",
                        "WA", "IPA %", "host writes"});
    double base_tps = 0.0;
    for (uint32_t w : workers) {
      auto r = RunArm(wl, w, threaded);
      if (!r.ok()) {
        std::fprintf(stderr, "bench_scaleup: %s w=%u: %s\n", WlName(wl), w,
                     r.status().ToString().c_str());
        return 1;
      }
      const ArmResult& a = r.value();
      if (base_tps == 0.0) base_tps = a.tps;
      double speedup = base_tps == 0.0 ? 0.0 : a.tps / base_tps;
      if (wl == Wl::kTpcb && w == 4) tpcb_speedup_at4 = speedup;
      table.AddRow({std::to_string(a.workers), std::to_string(a.commits),
                    Fmt(static_cast<double>(a.sim_us) / 1e6),
                    Fmt(a.tps, 0), Fmt(speedup) + "x", Fmt(a.wa),
                    Fmt(a.ipa_share_pct, 1), std::to_string(a.host_writes)});
      std::string prefix = std::string("scaleup.") +
                           (wl == Wl::kTpcb ? "tpcb" : "linkbench") + ".w" +
                           std::to_string(w);
      metrics::SetGauge(prefix + ".tps", static_cast<int64_t>(a.tps));
      metrics::SetGauge(prefix + ".commits", static_cast<int64_t>(a.commits));
      metrics::SetGauge(prefix + ".sim_us", static_cast<int64_t>(a.sim_us));
      metrics::SetGauge(prefix + ".speedup_x100", static_cast<int64_t>(speedup * 100));
      metrics::SetGauge(prefix + ".wa_x100", static_cast<int64_t>(a.wa * 100));
    }
    std::printf("%s:\n", WlName(wl));
    table.Print();
    std::printf("\n");
  }

  if (min_speedup > 0.0 && tpcb_speedup_at4 < min_speedup) {
    std::fprintf(stderr,
                 "bench_scaleup: TPC-B speedup at 4 workers is %.2fx, "
                 "below the required %.2fx\n",
                 tpcb_speedup_at4, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ipa::bench

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);
  return ipa::bench::Main(argc, argv);
}
