// Replication node: change capture (shipper) + idempotent crash-atomic apply
// (applier) over one engine::Database. See docs/REPLICATION.md.
//
// A ReplNode attaches to a Database and a set of replicated tables. On a
// *writable* node (a primary, or a replica after Promote) the engine's commit
// hook turns every durable commit into an outbound changeset frame; abort
// records ship as boundary marks so the per-writer LSN chain stays contiguous.
// On any node, ApplyFrame() ingests a frame with exactly-once effect:
//
//   - Tuples are identified by origin identity (origin writer, origin rid).
//     The applier keeps a durable origin→local rid map plus a per-key LWW
//     (version, writer) pair, and a version vector of the highest LSN applied
//     per writer.
//   - Each frame applies as ONE local transaction that also rewrites the
//     node's meta row (version vector) and the affected map rows. The
//     replica's own WAL makes the apply crash-atomic: a power loss mid-apply
//     rolls the whole frame back at recovery, and re-shipping it is safe.
//   - Duplicates (frame LSN <= vv entry) are skipped; a gap in the LSN chain
//     (or a shipper that restarted and lost its chain) reports kNeedCatchup,
//     answered with BuildSnapshot()/ApplySnapshot() + tail replay.
//
// Volatile state (outbound queue, in-memory maps) is rebuilt after a crash by
// RecoverReplState(), which scans the meta/map tables the apply transactions
// maintain — nothing about replication needs its own recovery protocol.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "repl/changeset.h"

namespace ipa::repl {

struct ReplConfig {
  WriterId writer = 1;
  /// Writable nodes capture their commits as outbound frames. A replica
  /// starts read-only and becomes writable via Promote().
  bool writable = false;
  /// Multi-writer mode (the two-primary drill): ship every update as a full
  /// tuple image so concurrent LWW merge never has to apply a byte patch
  /// against a tuple another writer deleted. Single-writer streams keep the
  /// compact delta encoding.
  bool full_images = false;
  /// LZ-compress op bytes on the wire (changeset.h). Off by default: the
  /// replication fuzz fingerprints and bench baselines are byte-exact over
  /// the uncompressed stream; bench_delta_compression measures the
  /// compressed one. Receivers accept either form regardless.
  bool compress_wire = false;
};

/// Per-instance counters (process-global metrics mirror these under repl.*).
struct ReplStats {
  uint64_t frames_emitted = 0;
  uint64_t bytes_emitted = 0;
  uint64_t delta_ops = 0;       ///< Ops shipped as IPA-budget byte patches.
  uint64_t full_ops = 0;        ///< Ops shipped as full tuple images.
  uint64_t foldbacks = 0;       ///< Updates exceeding the budget, folded back.
  uint64_t abort_marks = 0;
  uint64_t frames_applied = 0;
  uint64_t ops_applied = 0;
  uint64_t duplicates = 0;      ///< Frames skipped by the version vector.
  uint64_t torn_rejected = 0;   ///< CRC-bad shipments rejected, state unchanged.
  uint64_t gap_rejected = 0;    ///< Frames needing catch-up.
  uint64_t lww_skips = 0;       ///< Ops losing the (version, writer) race.
  uint64_t missing_skips = 0;   ///< Patches for tuples no longer present.
  uint64_t snapshots_built = 0;
  uint64_t snapshots_applied = 0;
  uint64_t snapshot_items = 0;
  uint64_t promotions = 0;
};

/// Every ReplStats counter and the metric it is published under
/// (docs/METRICS.md).
inline constexpr StatField<ReplStats> kReplStatFields[] = {
    {&ReplStats::frames_emitted, "repl.ship.frames"},
    {&ReplStats::bytes_emitted, "repl.ship.bytes"},
    {&ReplStats::delta_ops, "repl.ship.delta_ops"},
    {&ReplStats::full_ops, "repl.ship.full_ops"},
    {&ReplStats::foldbacks, "repl.ship.foldbacks"},
    {&ReplStats::abort_marks, "repl.ship.abort_marks"},
    {&ReplStats::frames_applied, "repl.apply.frames"},
    {&ReplStats::ops_applied, "repl.apply.ops"},
    {&ReplStats::duplicates, "repl.apply.duplicates"},
    {&ReplStats::torn_rejected, "repl.apply.rejected_torn"},
    {&ReplStats::gap_rejected, "repl.apply.gaps"},
    {&ReplStats::lww_skips, "repl.apply.lww_skips"},
    {&ReplStats::missing_skips, nullptr},
    {&ReplStats::snapshots_built, "repl.snapshot.built"},
    {&ReplStats::snapshots_applied, "repl.snapshot.applied"},
    {&ReplStats::snapshot_items, "repl.snapshot.items"},
    {&ReplStats::promotions, "repl.promotions"},
};

class ReplNode {
 public:
  /// A tuple's origin identity: (origin writer, rid on that writer).
  using LogicalKey = std::pair<WriterId, uint64_t>;
  using LogicalMap = std::map<LogicalKey, std::vector<uint8_t>>;

  /// Attach to `db`, replicating `tables` (all in tablespace `ts`). Creates
  /// the node's __repl_meta / __repl_map tables in `ts` and durably writes
  /// the initial meta row. Installs the commit/abort hooks; the node must
  /// outlive neither — destroy it before the Database.
  static Result<std::unique_ptr<ReplNode>> Attach(
      engine::Database* db, engine::TablespaceId ts,
      std::vector<engine::TableId> tables, ReplConfig cfg);
  /// Uninstalls the hooks and publishes stats() to the metrics registry.
  ~ReplNode();

  // The hooks hold this instance's address, and a copy would publish twice.
  ReplNode(const ReplNode&) = delete;
  ReplNode& operator=(const ReplNode&) = delete;

  // -- Shipper side -----------------------------------------------------------

  size_t outbound_frames() const { return outbound_.size(); }
  /// Pop the oldest outbound frame (encoded). Empty vector when none.
  std::vector<uint8_t> PopOutbound();

  /// Full-state catch-up stream for a replica: kSnapshotBegin, one
  /// kSnapshotItem per live tuple, kSnapshotEnd (with this node's version
  /// vector). Requires a quiescent engine (no open transactions).
  Result<std::vector<std::vector<uint8_t>>> BuildSnapshot();

  // -- Applier side -----------------------------------------------------------

  enum class Apply {
    kApplied,       ///< Frame applied (or applied as all-LWW-skips).
    kDuplicate,     ///< Already covered by the version vector; no-op.
    kEcho,          ///< Own frame looped back; no-op.
    kNeedCatchup,   ///< LSN-chain gap or restarted shipper; run catch-up.
    kRejectedTorn,  ///< CRC/parse failure; no state change.
  };

  /// Ingest one changeset/abort frame. Crash-atomic and idempotent. Engine
  /// errors (e.g. Unavailable on power loss) roll the frame back and
  /// propagate; the same frame can be re-applied after recovery.
  Result<Apply> ApplyFrame(std::span<const uint8_t> wire);

  /// Ingest a BuildSnapshot() stream as one transaction: LWW-upsert every
  /// item, delete local tuples the snapshot no longer contains (unless a
  /// newer-than-snapshot op produced them), merge the version vector.
  /// Not allowed on a writable node.
  Status ApplySnapshot(const std::vector<std::vector<uint8_t>>& frames);

  /// Failover: apply the queued frames that are still contiguous (a gap
  /// means those transactions died with the primary), then serve writes.
  /// Future commits version above everything seen so far.
  Status Promote(const std::vector<std::vector<uint8_t>>& pending);

  // -- Crash protocol ---------------------------------------------------------

  /// Rebuild all volatile replication state from the meta/map tables after
  /// the Database recovered (RecoverAfterPowerLoss/Recover). Clears the
  /// outbound queue and forgets the emit chain (the next frame ships with
  /// prev_lsn = kUnknownLsn, pushing receivers into catch-up).
  Status RecoverReplState();

  // -- Introspection ----------------------------------------------------------

  /// Logical content: origin identity -> tuple bytes, across all replicated
  /// tables. Two converged nodes have byte-identical logical maps.
  Status ScanLogical(LogicalMap* out) const;

  const VersionVector& version_vector() const { return vv_; }
  const ReplStats& stats() const { return stats_; }
  WriterId writer() const { return cfg_.writer; }
  bool writable() const { return cfg_.writable; }
  uint64_t last_emitted_lsn() const { return last_emitted_; }

 private:
  ReplNode(engine::Database* db, engine::TablespaceId ts,
           std::vector<engine::TableId> tables, ReplConfig cfg)
      : db_(db), ts_(ts), tables_(std::move(tables)), cfg_(cfg) {}

  static constexpr uint64_t kNoRid = ~0ull;

  /// Per-logical-key applier state. `local_rid == kNoRid` is a tombstone.
  struct Entry {
    uint64_t local_rid = kNoRid;
    uint64_t version = 0;
    WriterId vwriter = 0;
    uint64_t map_rid = kNoRid;  ///< Rid of the persisted map row.
  };
  using Staged = std::map<LogicalKey, Entry>;

  Status Bootstrap();  ///< Create meta/map tables + initial meta row.
  void OnCommit(const engine::Database::CommitEvent& ev);
  void OnAbort(engine::TxnId txn, engine::Lsn abort_lsn);

  LogicalKey KeyOfLocal(uint64_t local_rid) const;
  const Entry* Find(const Staged& staged, const LogicalKey& key) const;
  /// True iff `op` loses the (version, writer) LWW race against `e`.
  static bool LwwSkips(const Entry& e, const ChangeOp& op);

  /// Apply one op inside `txn`, staging the entry change. Engine errors
  /// propagate (the caller aborts the transaction).
  Status ApplyOp(engine::TxnId txn, const ChangeOp& op, Staged* staged);
  /// Write-through of one staged entry's map row inside `txn`.
  Status PersistMapRow(engine::TxnId txn, const LogicalKey& key, Entry* e);
  /// Rewrite the meta row (version vector) inside `txn`.
  Status PersistMeta(engine::TxnId txn, const VersionVector& vv);
  /// Commit the apply transaction; treats OutOfSpace as success (the commit
  /// record is durable before maintenance runs). On success merges `staged`
  /// and adopts `vv`.
  Status CommitApply(engine::TxnId txn, Staged&& staged, VersionVector&& vv);
  /// Best-effort rollback of a failed apply transaction.
  Status AbortApply(engine::TxnId txn, const Status& cause);
  void MergeStaged(Staged&& staged);

  std::vector<uint8_t> EncodeMetaRow(const VersionVector& vv) const;

  engine::Database* db_;
  engine::TablespaceId ts_;
  std::vector<engine::TableId> tables_;
  ReplConfig cfg_;
  uint32_t ipa_budget_ = 0;  ///< Max patch bytes shipped as kDelta.

  engine::TableId meta_table_ = 0;
  engine::TableId map_table_ = 0;
  uint64_t meta_rid_ = kNoRid;

  VersionVector vv_;
  std::map<LogicalKey, Entry> entries_;
  std::unordered_map<uint64_t, LogicalKey> local_to_key_;  ///< Non-identity only.

  std::vector<std::vector<uint8_t>> outbound_;
  uint64_t last_emitted_ = 0;          ///< kUnknownLsn after a restart.
  uint64_t version_floor_ = 0;         ///< Promote(): Lamport bump for versions.
  bool suppress_capture_ = false;      ///< Set during apply/internal txns.

  ReplStats stats_;
};

}  // namespace ipa::repl
