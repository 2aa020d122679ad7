// Command-line driver for the power-loss crash sweep (docs/CRASH_TESTING.md).
//
// Runs the record-and-replay sweep from bench/crash_sweep.h and prints a
// summary plus every failing point. Exit status is 1 when any injection point
// fails verification and 2 on a usage or harness error.
//
// Knobs: --txns N --accounts N --points N (0 = every point) --seed N
//        --backend noftl|pageftl-greedy|pageftl-cb|streamftl (FTL stack under test)
//        --codec raw|delta|delta+compress (NoFTL delta-record codec; puts
//          variable-length compressed appends under the injector)
//        --jobs N (0 = IPA_JOBS / hardware) --json PATH --metrics-json PATH
// IPA_SCALE scales --txns.
//
// --repl sweeps the replicated pair instead: power cuts at every apply-side
// flash op on the REPLICA plus a torn-delivery + primary power-cut drill at
// every shipment boundary, each point verified for byte-exact
// primary/replica convergence. Its defaults are --txns 120 --accounts 64;
// --backend and --codec are ignored (the pair runs on the NoFtl stack).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/crash_sweep.h"
#include "common/metrics.h"

namespace {

using ipa::bench::CrashSweepReport;

uint64_t ArgU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

const char* ArgStr(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

unsigned long long U(uint64_t v) { return static_cast<unsigned long long>(v); }

bool WriteJson(const char* path, const CrashSweepReport& rep) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"%s\": %llu,\n", rep.repl ? "apply_ops" : "total_ops",
               U(rep.total_ops));
  if (rep.repl) std::fprintf(f, "  \"shipments\": %llu,\n", U(rep.shipments));
  std::fprintf(f, "  \"points\": %zu,\n", rep.points.size());
  std::fprintf(f, "  \"%s\": %llu,\n", rep.repl ? "fired" : "crashes",
               U(rep.crashes));
  std::fprintf(f, "  \"failures\": %llu,\n", U(rep.failures));
  std::fprintf(f, "  \"fingerprint\": %u\n", rep.Fingerprint());
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

void PrintSummary(const CrashSweepReport& rep) {
  uint64_t torn_bytes = 0, quarantined = 0;
  for (const auto& p : rep.points) {
    torn_bytes += p.torn_bytes;
    quarantined += p.quarantined;
    if (!p.ok) {
      std::fprintf(stderr, "FAIL @%s %llu: %s\n",
                   p.shipment ? "shipment" : rep.repl ? "apply-op" : "op",
                   U(p.inject_at), p.error.c_str());
    }
  }
  if (rep.repl) {
    std::printf(
        "repl crash sweep: %zu points (%llu replica apply ops + %llu "
        "shipment boundaries)\n",
        rep.points.size(), U(rep.total_ops), U(rep.shipments));
    std::printf("  drills fired       %llu\n", U(rep.crashes));
  } else {
    std::printf(
        "crash sweep: %zu injection points over %llu mutating flash ops\n",
        rep.points.size(), U(rep.total_ops));
    std::printf("  crashes fired      %llu\n", U(rep.crashes));
    std::printf("  torn bytes dropped %llu (pages quarantined %llu)\n",
                U(torn_bytes), U(quarantined));
  }
  std::printf("  failures           %llu\n", U(rep.failures));
  std::printf("  fingerprint        %u\n", rep.Fingerprint());
}

}  // namespace

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);
  ipa::bench::CrashSweepConfig cfg;
  cfg.repl = HasFlag(argc, argv, "--repl");
  if (cfg.repl) {  // the replicated pair's smaller default workload
    cfg.txns = 120;
    cfg.accounts = 64;
  }
  cfg.txns = ArgU64(argc, argv, "--txns", cfg.txns);
  cfg.accounts = static_cast<uint32_t>(ArgU64(argc, argv, "--accounts", cfg.accounts));
  cfg.max_points = ArgU64(argc, argv, "--points", cfg.max_points);
  cfg.seed = ArgU64(argc, argv, "--seed", cfg.seed);
  cfg.jobs = static_cast<unsigned>(ArgU64(argc, argv, "--jobs", 0));
  if (const char* b = ArgStr(argc, argv, "--backend")) {
    if (std::strcmp(b, "noftl") == 0) {
      cfg.backend = ipa::workload::Backend::kNoFtl;
    } else if (std::strcmp(b, "pageftl-greedy") == 0) {
      cfg.backend = ipa::workload::Backend::kPageFtlGreedy;
    } else if (std::strcmp(b, "pageftl-cb") == 0) {
      cfg.backend = ipa::workload::Backend::kPageFtlCostBenefit;
    } else if (std::strcmp(b, "streamftl") == 0) {
      cfg.backend = ipa::workload::Backend::kStreamFtl;
    } else {
      std::fprintf(stderr, "crash_sweep: unknown backend '%s'\n", b);
      return 2;
    }
  }
  if (const char* c = ArgStr(argc, argv, "--codec")) {
    if (!ipa::storage::ParseDeltaCodec(c, &cfg.codec)) {
      std::fprintf(stderr, "crash_sweep: unknown codec '%s'\n", c);
      return 2;
    }
  }

  auto result = ipa::bench::RunCrashSweep(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "crash_sweep%s: %s\n", cfg.repl ? " --repl" : "",
                 result.status().ToString().c_str());
    return 2;
  }
  const CrashSweepReport& rep = result.value();
  PrintSummary(rep);

  // Expose the sweep outcome in the metrics snapshot so the CI perf gate can
  // diff it against a checked-in baseline alongside the flash/FTL counters.
  const std::string prefix = rep.repl ? "crash_sweep.repl." : "crash_sweep.";
  ipa::metrics::SetGauge(prefix + "fingerprint", rep.Fingerprint());
  ipa::metrics::SetGauge(prefix + "points", static_cast<int64_t>(rep.points.size()));
  ipa::metrics::SetGauge(prefix + "failures", static_cast<int64_t>(rep.failures));

  if (const char* path = ArgStr(argc, argv, "--json")) {
    if (!WriteJson(path, rep)) {
      std::fprintf(stderr, "crash_sweep: cannot write %s\n", path);
      return 2;
    }
  }
  return rep.failures == 0 ? 0 : 1;
}
