// ipa_ctl: command-line front end to the IPA stack.
//
//   ipa_ctl run    [--workload tpcb|tpcc|tatp|linkbench] [--scheme NxM]
//                  [--buffer F] [--txns N] [--profile emulator|pslc|oddmlc]
//                  [--page-size B] [--non-eager]
//       Run a workload and print the full statistics block.
//
//   ipa_ctl advise [--workload ...] [--txns N] [--goal perf|longevity|space]
//       Profile the workload's update sizes and print per-object [NxM]
//       advice (Section 8.4).
//
//   ipa_ctl wear   [--workload ...] [--txns N] [--scheme NxM]
//       Run, then print the per-block erase-count histogram and spread.
//
//   ipa_ctl cdf    [--workload ...] [--txns N] [--gross]
//       Print the update-size CDF (the Figures 7-10 data series).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/harness.h"
#include "common/metrics.h"
#include "core/advisor.h"
#include "workload/testbed.h"

namespace ipa {
namespace {

using bench::Fmt;
using bench::RunConfig;
using bench::RunWorkload;
using bench::TablePrinter;
using bench::Wl;

struct Args {
  std::string command;
  Wl workload = Wl::kTpcb;
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  bool scheme_given = false;
  double buffer = 0.5;
  uint64_t txns = 0;
  uint32_t page_size = 4096;
  workload::Profile profile = workload::Profile::kEmulatorSlc;
  bool eager = true;
  bool gross = false;
  core::AdvisorGoal goal = core::AdvisorGoal::kPerformance;
};

int Usage() {
  std::fprintf(stderr,
               "usage: ipa_ctl <run|advise|wear|cdf> [options]\n"
               "  --workload tpcb|tpcc|tatp|linkbench   (default tpcb)\n"
               "  --scheme NxM | off                    (default 2x4)\n"
               "  --buffer FRACTION                     (default 0.5)\n"
               "  --txns N                              (default per workload)\n"
               "  --page-size BYTES                     (default 4096)\n"
               "  --profile emulator|pslc|oddmlc        (default emulator)\n"
               "  --goal perf|longevity|space           (advise only)\n"
               "  --non-eager | --gross\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* out) {
  if (argc < 2) return false;
  out->command = argv[1];
  for (int i = 2; i < argc; i++) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      std::string w = next();
      if (w == "tpcb") out->workload = Wl::kTpcb;
      else if (w == "tpcc") out->workload = Wl::kTpcc;
      else if (w == "tatp") out->workload = Wl::kTatp;
      else if (w == "linkbench") out->workload = Wl::kLinkbench;
      else return false;
      if (out->workload == Wl::kLinkbench && out->page_size == 4096) {
        out->page_size = 8192;
      }
    } else if (a == "--scheme") {
      std::string s = next();
      if (s == "off" || s == "0x0") {
        out->scheme = {};
      } else {
        unsigned n = 0, m = 0;
        if (std::sscanf(s.c_str(), "%ux%u", &n, &m) != 2 || n > 8 || m > 200) {
          return false;
        }
        out->scheme.n = static_cast<uint8_t>(n);
        out->scheme.m = static_cast<uint8_t>(m);
      }
      out->scheme_given = true;
    } else if (a == "--buffer") {
      out->buffer = std::atof(next());
    } else if (a == "--txns") {
      out->txns = static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--page-size") {
      out->page_size = static_cast<uint32_t>(std::atoi(next()));
    } else if (a == "--profile") {
      std::string p = next();
      if (p == "emulator") out->profile = workload::Profile::kEmulatorSlc;
      else if (p == "pslc") out->profile = workload::Profile::kOpenSsdPSlc;
      else if (p == "oddmlc") out->profile = workload::Profile::kOpenSsdOddMlc;
      else return false;
    } else if (a == "--goal") {
      std::string g = next();
      if (g == "perf") out->goal = core::AdvisorGoal::kPerformance;
      else if (g == "longevity") out->goal = core::AdvisorGoal::kLongevity;
      else if (g == "space") out->goal = core::AdvisorGoal::kSpace;
      else return false;
    } else if (a == "--non-eager") {
      out->eager = false;
    } else if (a == "--gross") {
      out->gross = true;
    } else if (a == "--metrics-json") {
      next();  // consumed by metrics::InitFromArgs before Main runs
    } else if (a.rfind("--metrics-json=", 0) == 0) {
      // handled by metrics::InitFromArgs
    } else {
      return false;
    }
  }
  return true;
}

RunConfig ToRunConfig(const Args& args, bool record_sizes) {
  RunConfig rc;
  rc.workload = args.workload;
  rc.scheme = args.scheme;
  rc.buffer_fraction = args.buffer;
  rc.page_size = args.page_size;
  rc.profile = args.profile;
  rc.eager = args.eager;
  rc.txns = args.txns ? args.txns : bench::DefaultTxns(args.workload);
  rc.record_update_sizes = record_sizes;
  return rc;
}

int CmdRun(const Args& args) {
  auto r = RunWorkload(ToRunConfig(args, false));
  if (!r.ok()) {
    std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  const auto& v = r.value();
  std::printf("%s, scheme [%ux%u], buffer %.0f%%\n", bench::WlName(args.workload),
              args.scheme.n, args.scheme.m, 100 * args.buffer);
  TablePrinter t({"Metric", "Value"});
  t.AddRow({"commits", FormatThousands(v.commits)});
  t.AddRow({"throughput [tps]", Fmt(v.throughput_tps, 0)});
  t.AddRow({"host reads", FormatThousands(v.host_reads)});
  t.AddRow({"host page writes", FormatThousands(v.host_page_writes)});
  t.AddRow({"host delta writes (IPA)", FormatThousands(v.host_delta_writes)});
  t.AddRow({"IPA share [%]", Fmt(v.ipa_share_pct, 1)});
  t.AddRow({"GC page migrations", FormatThousands(v.gc_migrations)});
  t.AddRow({"GC erases", FormatThousands(v.gc_erases)});
  t.AddRow({"erases / host write", Fmt(v.erases_per_host_write, 4)});
  t.AddRow({"read latency [ms]", Fmt(v.read_latency_ms, 3)});
  t.AddRow({"write latency [ms]", Fmt(v.write_latency_ms, 3)});
  t.AddRow({"txn latency [ms]", Fmt(v.txn_latency_ms, 3)});
  t.AddRow({"delta-area space overhead [%]", Fmt(v.space_overhead_pct, 2)});
  t.Print();
  return 0;
}

int CmdAdvise(const Args& args) {
  auto r = RunWorkload(ToRunConfig(args, true));
  if (!r.ok()) {
    std::fprintf(stderr, "profiling run failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  flash::CellType cell = args.profile == workload::Profile::kEmulatorSlc
                             ? flash::CellType::kSlc
                             : flash::CellType::kMlc;
  std::printf("Advisor (%s flash, goal %s):\n\n", flash::CellTypeName(cell),
              core::AdvisorGoalName(args.goal));
  TablePrinter t({"Object", "Scheme", "V", "est. IPA share [%]",
                  "space [%]"});
  for (const auto& [name, trace] : r.value().traces_by_name) {
    if (trace.net.total() < 50) continue;
    core::ObjectProfile profile;
    profile.name = name;
    profile.net_update_sizes = trace.net;
    profile.meta_update_sizes = trace.meta;
    core::Advice a = core::Recommend(profile, cell, args.page_size, args.goal);
    std::string scheme = "[";
    scheme += std::to_string(a.scheme.n) + "x" + std::to_string(a.scheme.m) + "]";
    t.AddRow({name, scheme, std::to_string(a.scheme.v),
              Fmt(100 * a.expected_ipa_fraction, 0),
              Fmt(100 * a.space_overhead, 1)});
  }
  t.Print();
  return 0;
}

int CmdWear(const Args& args) {
  // A direct run so we keep access to the device for the wear histogram.
  auto rc = ToRunConfig(args, false);
  // Reuse the harness for the run itself, then re-run compactly with a
  // testbed we own. Simplest: own testbed here.
  workload::TestbedConfig tc;
  tc.page_size = rc.page_size;
  tc.scheme = rc.scheme;
  tc.profile = rc.profile;
  tc.buffer_fraction = rc.buffer_fraction;
  tc.db_pages = 4096;
  auto bed = workload::MakeTestbed(tc);
  if (!bed.ok()) return 1;
  // Synthetic churn (uniform random page rewrites) to exercise wear.
  Rng rng(1);
  std::vector<uint8_t> page(rc.page_size, 0);
  storage::SlottedPage view(page.data(), rc.page_size);
  view.Initialize(1, 1, rc.scheme);
  uint64_t writes = rc.txns;
  for (uint64_t i = 0; i < writes; i++) {
    view.set_page_lsn(i);
    (void)bed.value()->noftl->WritePage(bed.value()->region,
                                        rng.Uniform(4096), page.data());
  }
  auto& dev = *bed.value()->dev;
  const auto& g = dev.geometry();
  // Histogram of erase counts.
  std::map<uint32_t, uint32_t> hist;
  uint32_t min = UINT32_MAX, max = 0;
  for (flash::Pbn b = 0; b < g.total_blocks(); b++) {
    uint32_t e = dev.EraseCount(b);
    hist[e]++;
    min = std::min(min, e);
    max = std::max(max, e);
  }
  std::printf("wear after %llu page writes over %llu blocks:\n",
              static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(g.total_blocks()));
  for (const auto& [erases, blocks] : hist) {
    std::printf("  %4u erases: %4u blocks  ", erases, blocks);
    for (uint32_t i = 0; i < std::min(blocks / 2 + 1, 60u); i++) {
      std::printf("#");
    }
    std::printf("\n");
  }
  std::printf("spread: min %u, max %u (device max %u)\n", min, max,
              dev.MaxEraseCount());
  return 0;
}

int CmdCdf(const Args& args) {
  auto r = RunWorkload(ToRunConfig(args, true));
  if (!r.ok()) {
    std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  SampleDistribution agg;
  for (const auto& [table, trace] : r.value().traces) {
    agg.Merge(args.gross ? trace.gross : trace.net);
  }
  std::printf("update-size CDF, %s (%s data, %llu samples):\n",
              bench::WlName(args.workload), args.gross ? "gross" : "net",
              static_cast<unsigned long long>(agg.total()));
  for (uint32_t bytes :
       {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 24u, 32u, 48u, 64u, 96u, 128u,
        192u, 256u}) {
    double pct = agg.PercentileOf(bytes);
    std::printf("  <= %4u B: %5.1f%%  ", bytes, pct);
    for (int i = 0; i < static_cast<int>(pct / 2); i++) std::printf("#");
    std::printf("\n");
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.command == "run") return CmdRun(args);
  if (args.command == "advise") return CmdAdvise(args);
  if (args.command == "wear") return CmdWear(args);
  if (args.command == "cdf") return CmdCdf(args);
  return Usage();
}

}  // namespace
}  // namespace ipa

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);
  return ipa::Main(argc, argv);
}
