// Deterministic differential fuzz harness.
//
// A run is fully determined by (seed, op count, schedule): the op trace is
// generated up front from the seed, then replayed against the schedule's
// private simulated stack (flash array, FTL regions, one Database or a
// ShardedDatabase) and the pure reference model
// (check/model_db.h) in lock-step. After every step the cheap oracles run
// (counter conservation); every deep_check_every steps — and after every
// recovery — the deep oracles run too (scan equivalence, flash/region
// structural audits, media delta-area audit, ISPP shadow).
//
// Power loss is part of the op mix: a kPowerCut op arms the device's
// PowerLossPolicy, some later flash mutation tears mid-way, every engine call
// starts failing Unavailable, and the harness runs the full crash protocol
// (SimulateCrash -> PowerCycle -> RecoverAfterPowerLoss, with optional re-cut
// *during* recovery for double-crash coverage) before verifying the surviving
// state against the model's committed view.
//
// Ops carry raw operands interpreted against the current model state (key
// selection by rank among live keys), so a shrunk subsequence of a trace is
// still a meaningful trace — the property the shrinker (check/shrinker.h)
// relies on.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ipa::check {

/// Testbed flavors of the seed matrix (paper-relevant IPA deployments).
enum class Schedule : uint8_t {
  kSlc,          ///< SLC region, managed ECC, eager cleaning (the default).
  kSlcNonEager,  ///< Same, with Shore-MT "non-eager" thresholds.
  kPSlc,         ///< MLC device driven in pSLC mode (LSB pages only).
  kOddMlc,       ///< MLC device, appends on LSB pages, fallback on MSB.
  kSlcNoEcc,     ///< No managed ECC: crash consistency is not promised
                 ///< (Section 6.2), so this schedule runs without power cuts.
  kPageFtl,      ///< Conventional page-mapping FTL (cost-benefit GC) instead
                 ///< of a NoFTL region: no write_delta, OOB reverse-map
                 ///< mounts, GC/mount ops torn by power cuts.
  kSharded,      ///< Two-partition shared-nothing engine (ShardedDatabase,
                 ///< sequential driver): fast-path single-partition txns,
                 ///< cross-partition txns on the locking path, power cuts,
                 ///< per-partition WAL recovery. Oracles run against the
                 ///< union of both partitions (stats summed per layer).
  kStreamFtl,    ///< Stream-aware page-mapping FTL (per-stream frontiers,
                 ///< warm/cold GC): tagged writes, OOB reverse-map mounts
                 ///< carrying the stream byte, GC/mount ops torn by power
                 ///< cuts, counter conservation across all frontiers.
  kRepl,         ///< Primary + replica pair bridged by the delta-changeset
                 ///< stream (src/repl): DML runs on the primary, kShip ops
                 ///< deliver frames to the replica, power cuts hit EITHER
                 ///< node (with optional re-cut during that node's
                 ///< recovery), chain gaps heal via snapshot catch-up, and
                 ///< kReplSync drains the stream and demands byte-identical
                 ///< logical convergence with the model's committed view.
  kDeltaCodec,   ///< Mixed-codec delta areas (docs/DELTA_COMPRESSION.md):
                 ///< ONE engine over TWO NoFTL regions/tablespaces, t0 in
                 ///< one codec and t1 in the other (kDelta vs
                 ///< kDeltaCompress, swapped by seed parity), managed ECC,
                 ///< power cuts on — torn compressed records must
                 ///< quarantine, never decode as garbage. Scrub/wear-level
                 ///< ops alternate regions; oracles sum both regions and
                 ///< deep-audit each delta area.
};
constexpr int kNumSchedules = 10;

const char* ScheduleName(Schedule s);
bool ParseSchedule(const std::string& name, Schedule* out);

/// One generated operation. Operands a/b/c and the payload seed are raw
/// 64-bit draws; their interpretation (key rank, sizes, offsets) happens at
/// execution time against the current model state.
struct Op {
  enum class Kind : uint8_t {
    kInsert,
    kUpdate,        ///< Fixed-size in-place byte patch (the IPA-friendly op).
    kUpdateResize,  ///< Whole-tuple replacement, possibly relocating.
    kDelete,
    kRead,          ///< Point lookup, verified against the model inline.
    kCommit,
    kAbort,
    kScanCheck,     ///< Full-table scan equivalence against the model view.
    kCheckpoint,
    kScrub,         ///< Correct-and-Refresh maintenance pass.
    kWearLevel,     ///< Static wear-leveling swap attempt.
    kPowerCut,      ///< Arm the device power-loss policy (kRepl: either node).
    kShip,          ///< kRepl only: deliver the oldest in-flight frame.
    kReplSync,      ///< kRepl only: drain the stream, check convergence.
  };
  Kind kind = Kind::kInsert;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t seed = 0;  ///< Payload RNG seed for this op.
};

struct FuzzConfig {
  uint64_t seed = 1;
  uint64_t ops = 200;
  Schedule schedule = Schedule::kSlc;
  /// Run the deep oracles every this many ops (and always after recovery
  /// and at the end of the run).
  uint32_t deep_check_every = 25;
};

struct FuzzResult {
  bool ok = true;
  std::string error;       ///< First divergence / invariant violation.
  size_t failed_op = 0;    ///< Trace index of the failing op (when !ok).
  uint64_t commits = 0;
  uint64_t crashes = 0;    ///< Power losses survived (incl. double-crashes).
  uint64_t torn_bytes = 0;       ///< Torn delta bytes dropped by recovery.
  uint64_t quarantined = 0;      ///< Pages quarantined by mount scans.
  uint32_t fingerprint = 0;      ///< CRC over final committed state + stats.
};

/// Generate the full op trace for a config (pure function of seed/ops/schedule).
std::vector<Op> GenerateOps(const FuzzConfig& config);

/// Replay an explicit trace (the shrinker's entry point). `config` supplies
/// the schedule and check cadence; its seed/ops fields are ignored.
FuzzResult ReplayTrace(const FuzzConfig& config, const std::vector<Op>& trace);

/// GenerateOps + ReplayTrace.
FuzzResult RunFuzz(const FuzzConfig& config);

/// Human/parse-friendly one-liners.
std::string FormatOp(const Op& op);
/// The repro line printed on failure, e.g.
///   ipa_fuzz --schedule slc --seed 42 --ops 200 --deep-check 25
std::string ReproLine(const FuzzConfig& config);

}  // namespace ipa::check
