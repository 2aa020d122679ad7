// Command-line driver for the deterministic differential fuzz harness
// (src/check/fuzzer.h, docs/TESTING.md).
//
// Runs N seeds per schedule in parallel; each run replays a seeded op trace
// against a private engine stack and the in-memory reference model, checking
// the invariant oracles throughout. Output (including the combined
// fingerprint) is bit-identical across repeat invocations and IPA_JOBS
// values. Failures print a repro line; with --shrink a minimized trace too.
//
// Knobs: --schedule NAME|all  testbed flavor (slc, slc-noneager, pslc,
//                             oddmlc, slc-noecc, pageftl, sharded,
//                             streamftl, replication, deltacodec;
//                             default all)
//        --seed S             first seed (default 1)
//        --seeds N            seeds per schedule (default 1)
//        --ops K              ops per trace (default 200)
//        --deep-check N       deep-oracle cadence (default 25)
//        --jobs N             workers (0 = IPA_JOBS / hardware)
//        --shrink 0|1         minimize failing traces (default 1)
//        --repro-out PATH     append repro lines + shrunk traces (CI artifact)
//        --time-budget SEC    keep fuzzing fresh seeds until the wall-clock
//                             budget expires (long-fuzz mode; output then
//                             depends on machine speed, so the determinism
//                             contract is waived)
//        --metrics-json PATH  metrics snapshot (common/metrics.h)
//
// Exit status: 0 all runs passed, 1 failures found, 2 configuration error.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/parallel_runner.h"
#include "check/fuzzer.h"
#include "check/invariants.h"
#include "check/shrinker.h"
#include "common/crc32.h"
#include "common/metrics.h"

namespace {

using ipa::check::FuzzConfig;
using ipa::check::FuzzResult;
using ipa::check::Schedule;

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

struct Batch {
  std::vector<FuzzConfig> configs;
  std::vector<FuzzResult> results;
};

void RunBatch(Batch& batch, unsigned jobs) {
  batch.results.resize(batch.configs.size());
  ipa::bench::ParallelFor(
      batch.configs.size(),
      [&](size_t i) { batch.results[i] = ipa::check::RunFuzz(batch.configs[i]); },
      jobs);
}

}  // namespace

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);

  std::vector<Schedule> schedules;
  const char* sched_arg = ArgStr(argc, argv, "--schedule");
  if (sched_arg == nullptr || std::strcmp(sched_arg, "all") == 0) {
    for (int i = 0; i < ipa::check::kNumSchedules; i++) {
      schedules.push_back(static_cast<Schedule>(i));
    }
  } else {
    Schedule s;
    if (!ipa::check::ParseSchedule(sched_arg, &s)) {
      std::fprintf(stderr, "ipa_fuzz: unknown schedule '%s'\n", sched_arg);
      return 2;
    }
    schedules.push_back(s);
  }

  uint64_t base_seed = ArgU64(argc, argv, "--seed", 1);
  uint64_t seeds = ArgU64(argc, argv, "--seeds", 1);
  uint64_t ops = ArgU64(argc, argv, "--ops", 200);
  uint32_t deep = static_cast<uint32_t>(ArgU64(argc, argv, "--deep-check", 25));
  unsigned jobs = static_cast<unsigned>(ArgU64(argc, argv, "--jobs", 0));
  bool shrink = ArgU64(argc, argv, "--shrink", 1) != 0;
  const char* repro_path = ArgStr(argc, argv, "--repro-out");
  uint64_t budget_sec = ArgU64(argc, argv, "--time-budget", 0);
  if (ops == 0 || seeds == 0) {
    std::fprintf(stderr, "ipa_fuzz: --ops and --seeds must be positive\n");
    return 2;
  }

  std::FILE* repro_file = nullptr;
  if (repro_path != nullptr) {
    repro_file = std::fopen(repro_path, "a");
    if (repro_file == nullptr) {
      std::fprintf(stderr, "ipa_fuzz: cannot open %s\n", repro_path);
      return 2;
    }
  }

  auto start = std::chrono::steady_clock::now();
  auto budget_left = [&]() {
    if (budget_sec == 0) return false;  // single batch
    auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return static_cast<uint64_t>(elapsed) < budget_sec;
  };

  uint64_t runs = 0, failures = 0, commits = 0, crashes = 0;
  uint64_t torn_bytes = 0, quarantined = 0;
  uint32_t combined = 0;
  uint64_t next_seed = base_seed;
  bool first_batch = true;

  while (first_batch || budget_left()) {
    first_batch = false;
    Batch batch;
    for (uint64_t s = 0; s < seeds; s++) {
      for (Schedule sched : schedules) {
        FuzzConfig cfg;
        cfg.seed = next_seed + s;
        cfg.ops = ops;
        cfg.schedule = sched;
        cfg.deep_check_every = deep;
        batch.configs.push_back(cfg);
      }
    }
    next_seed += seeds;
    RunBatch(batch, jobs);

    for (size_t i = 0; i < batch.results.size(); i++) {
      const FuzzConfig& cfg = batch.configs[i];
      const FuzzResult& r = batch.results[i];
      runs++;
      commits += r.commits;
      crashes += r.crashes;
      torn_bytes += r.torn_bytes;
      quarantined += r.quarantined;
      uint8_t fp[4];
      std::memcpy(fp, &r.fingerprint, 4);
      combined = ipa::Crc32c(fp, 4, combined);
      if (r.ok) continue;

      failures++;
      std::string repro = ipa::check::ReproLine(cfg);
      std::fprintf(stderr, "FAIL %s\n  op %zu: %s\n", repro.c_str(),
                   r.failed_op, r.error.c_str());
      if (repro_file != nullptr) {
        std::fprintf(repro_file, "%s\n# %s\n", repro.c_str(), r.error.c_str());
      }
      if (shrink) {
        auto shrunk =
            ipa::check::ShrinkTrace(cfg, ipa::check::GenerateOps(cfg));
        std::fprintf(stderr,
                     "  shrunk to %zu ops (%llu replays): %s\n",
                     shrunk.trace.size(),
                     static_cast<unsigned long long>(shrunk.replays),
                     shrunk.failure.error.c_str());
        std::string dump = ipa::check::FormatTrace(shrunk.trace);
        std::fprintf(stderr, "%s", dump.c_str());
        if (repro_file != nullptr) {
          std::fprintf(repro_file, "# shrunk trace (%zu ops):\n%s",
                       shrunk.trace.size(), dump.c_str());
        }
      }
    }
  }
  if (repro_file != nullptr) std::fclose(repro_file);

  // Registry-level conservation: this process ran nothing but fuzz testbeds,
  // so the process-global flash/FTL counters must balance too.
  ipa::Status conserved =
      ipa::check::CheckPublishedConservation(ipa::metrics::Registry::Instance().TakeSnapshot());
  if (!conserved.ok()) {
    std::fprintf(stderr, "FAIL process-global %s\n", conserved.ToString().c_str());
    failures++;
  }

  std::printf("ipa_fuzz: %llu runs (%zu schedules x %llu+ seeds, %llu ops)\n",
              static_cast<unsigned long long>(runs), schedules.size(),
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(ops));
  std::printf("  commits     %llu\n", static_cast<unsigned long long>(commits));
  std::printf("  crashes     %llu\n", static_cast<unsigned long long>(crashes));
  std::printf("  torn bytes  %llu (pages quarantined %llu)\n",
              static_cast<unsigned long long>(torn_bytes),
              static_cast<unsigned long long>(quarantined));
  std::printf("  failures    %llu\n", static_cast<unsigned long long>(failures));
  std::printf("  fingerprint %u\n", combined);

  ipa::metrics::SetGauge("fuzz.runs", static_cast<int64_t>(runs));
  ipa::metrics::SetGauge("fuzz.failures", static_cast<int64_t>(failures));
  ipa::metrics::SetGauge("fuzz.fingerprint", combined);

  return failures == 0 ? 0 : 1;
}
