// Deterministic power-loss crash sweep (docs/CRASH_TESTING.md).
//
// Record-and-replay fault injection in the style of ALICE/OptFS crash
// testing: run a TPC-B-style workload once to record how many mutating flash
// operations (ProgramPage / ProgramDelta / EraseBlock) it issues, then
// re-execute the identical workload once per operation index with a power
// loss injected at exactly that operation. The sweep has two modes.
//
// Single node (the default): after each crash the stack is power-cycled and
// restarted (mount-time torn-write scan + ARIES recovery), and the surviving
// database is checked against a reference model: committed transactions must
// survive byte-exactly, uncommitted ones must vanish, and no torn delta may
// ever be served to a reader.
//
// Replicated (`repl`): the workload runs on a primary that ships its queued
// changeset frames to a replica after every commit and abort. The trace run
// counts the REPLICA's mutating flash ops and the primary's shipments, and
// the point list covers both:
//   - a replica point cuts the replica's power at that apply-side op; the
//     half-applied frame must roll back at recovery and re-apply cleanly;
//   - a shipment point first delivers that frame torn (it must be rejected
//     with no state change), then cuts the PRIMARY's power at the boundary;
//     the frames lost in flight heal through snapshot catch-up.
// Every replicated point ends with the primary equal to the reference and
// the replica's logical content equal to the primary's.
//
// Every sweep point builds its own fully private simulated stacks, so points
// execute concurrently (ParallelFor) with bit-identical results at any
// IPA_JOBS setting.
//
// The stack and the TPC-B driver are public: the replication benches and
// tools/ipa_repl run on the same stack.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "repl/node.h"
#include "workload/testbed.h"

namespace ipa::bench {

struct CrashSweepConfig {
  uint64_t txns = 200;       ///< TPC-B transactions after the load phase.
  uint32_t accounts = 96;    ///< Account tuples loaded up front (at least 1).
  uint64_t seed = 42;        ///< Workload RNG + torn-state shape seed.
  uint64_t max_points = 0;   ///< Cap on injection points (0 = every point).
  unsigned jobs = 0;         ///< Worker threads (0 = Jobs()).
  bool scale_with_env = true;  ///< Apply IPA_SCALE to `txns`.
  /// FTL stack under test. Page-FTL backends tear GC migrations, lazy block
  /// erases and OOB reverse-map programs instead of delta appends.
  workload::Backend backend = workload::Backend::kNoFtl;
  /// Delta-record codec for the NoFTL scheme (docs/DELTA_COMPRESSION.md):
  /// byte codecs put multi-byte variable-length records under the injector,
  /// so torn COMPRESSED appends hit the quarantine path. Ignored by page-FTL
  /// backends (no delta area behind a cooked device).
  storage::DeltaCodec codec = storage::DeltaCodec::kRaw;
  /// Sweep the primary→replica pair instead of one node. Both nodes run the
  /// NoFTL stack with the raw codec; `backend` and `codec` are ignored.
  bool repl = false;
};

/// Outcome of one injection point.
struct CrashSweepPoint {
  /// Replicated sweeps: a shipment drill rather than a replica power cut.
  bool shipment = false;
  /// Mutating-op index the loss was armed for (the replica's, when
  /// replicated), or the shipment ordinal of a shipment drill.
  uint64_t inject_at = 0;
  bool crashed = false;     ///< The power cut fired / the drill engaged.
  bool ok = false;          ///< Post-recovery verification passed.
  uint64_t commits = 0;     ///< Transactions committed (by the primary).
  uint64_t torn_bytes = 0;  ///< Single node: torn delta bytes dropped.
  uint64_t quarantined = 0; ///< Single node: pages the mount scan rewrote.
  uint64_t frames = 0;      ///< Replicated: frames the replica accepted.
  std::string error;        ///< First failure (empty when ok).
};

struct CrashSweepReport {
  bool repl = false;        ///< A replicated sweep.
  /// Mutating flash ops of the swept stack in the crash-free run (the
  /// replica's, when replicated).
  uint64_t total_ops = 0;
  uint64_t shipments = 0;   ///< Replicated: frames shipped, crash-free run.
  uint64_t crashes = 0;     ///< Points whose cut or drill actually engaged.
  uint64_t failures = 0;    ///< Points failing verification.
  std::vector<CrashSweepPoint> points;  ///< In point order.

  /// CRC32C over every point's outcome fields in point order — identical
  /// across worker counts iff the sweep is deterministic. Each mode hashes
  /// only its own fields.
  uint32_t Fingerprint() const;
};

/// Run the sweep: one crash-free trace run, then one replay per injection
/// point. Returns a non-OK status only for harness-level errors (e.g. the
/// trace run itself failing, or no accounts); per-point verification
/// failures are reported in the point list and `failures`.
Result<CrashSweepReport> RunCrashSweep(const CrashSweepConfig& config);

// ---------------------------------------------------------------------------
// The sweep's stack and workload, shared with the replication benches.
// ---------------------------------------------------------------------------

/// The sweep's stack: the oracles' small stack (workload::SmallSpec) with an
/// account and a history table, in a tablespace on a [2x4] v=12 SLC NoFTL
/// region with managed ECC and `codec`, or on a page-mapping FTL.
workload::StackSpec SweepSpec(
    workload::Backend backend = workload::Backend::kNoFtl,
    storage::DeltaCodec codec = storage::DeltaCodec::kRaw);

/// Positions of the account and history tables in the sweep stack's
/// `parts[0].tables`.
inline constexpr size_t kAccountTable = 0;
inline constexpr size_t kHistoryTable = 1;

/// One node of a sweep or replication run: a stack and, when replicated,
/// the ReplNode over its two tables. The node is declared after the stack,
/// so it detaches its hooks before the Database dies.
struct SweepNode {
  std::unique_ptr<workload::Stack> stack;
  std::unique_ptr<repl::ReplNode> repl;
};

/// Build(SweepSpec()) into `out` and attach its ReplNode under `config`.
Status BuildReplicated(const repl::ReplConfig& config, SweepNode* out);

// TPC-B-style rows: fixed-size account tuples whose balance field takes the
// per-transaction 4-byte in-place updates (the IPA-friendly write pattern),
// plus append-only history tuples.
inline constexpr uint32_t kAccountBytes = 100;
inline constexpr uint32_t kBalanceOffset = 12;
inline constexpr uint32_t kHistoryBytes = 20;

/// Initial bytes of account `id`.
std::vector<uint8_t> AccountTuple(uint32_t id);

/// Committed database content: rid.Pack() -> tuple bytes (both tables share
/// the tablespace, so packed rids are unique across them).
using Reference = std::map<uint64_t, std::vector<uint8_t>>;

/// Where the TPC-B driver stands when it calls its hook.
struct TpcbStep {
  bool load = false;       ///< A load-phase batch just committed.
  uint64_t txn = 0;        ///< Transaction-phase index.
  bool committed = false;  ///< Transaction phase: committed, not aborted.
};
using TpcbHook = std::function<Status(const TpcbStep&)>;

struct TpcbOutcome {
  Reference committed;   ///< What a correct database must serve.
  uint64_t commits = 0;  ///< Load batches plus transactions committed.
  bool crashed = false;  ///< The run ended in a power loss.
};

/// The deterministic TPC-B-style workload: `accounts` accounts loaded in
/// batches of 8, then `txns` transactions of 3 balance updates and 1 history
/// insert, about 10% of them aborted, with a checkpoint every 16. `hook`
/// (optional) runs after every commit or abort, before that checkpoint; its
/// errors end the run. The run stops at the first power loss.
///
/// Commit protocol vs power loss: the commit record is forced to the (RAM-
/// modeled, write-atomic) log *before* Commit() issues any cleaner /
/// checkpoint flash I/O, so a Commit() that returns Unavailable is already
/// durable — the reference promotes it. A loss inside any other operation
/// leaves the transaction uncommitted and the reference unchanged.
Result<TpcbOutcome> RunTpcb(workload::Stack& stack, uint32_t accounts,
                            uint64_t txns, uint64_t seed,
                            const TpcbHook& hook = {});

}  // namespace ipa::bench
