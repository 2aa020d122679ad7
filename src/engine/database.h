// Database: the engine facade tying together WAL, buffer pool, lock manager,
// heap storage and recovery over NoFTL regions — a compact ARIES-style
// storage engine reproducing the Shore-MT policies the paper's evaluation
// depends on (steal/no-force, eager page cleaning, eager log reclamation).
//
// DDL model (Figure 3): the caller creates NoFTL regions on the device,
// binds them to tablespaces (each with its page [NxM] scheme), and creates
// tables inside tablespaces. IPA thereby applies selectively per DB object.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "engine/buffer_pool.h"
#include "engine/lock_manager.h"
#include "engine/types.h"
#include "engine/wal.h"
#include "ftl/noftl.h"
#include "storage/page_format.h"
#include "storage/slotted_page.h"

namespace ipa::engine {

struct EngineConfig {
  uint32_t page_size = 4096;
  uint32_t buffer_pages = 1024;
  /// Dirty-page fraction that triggers the background cleaner
  /// (Shore-MT default 12.5%; the paper's "non-eager" runs use 75%).
  double dirty_flush_threshold = 0.125;
  /// Log-space fraction that triggers a checkpoint + truncation
  /// (Shore-MT reclaims at 25-50% consumption; "non-eager" runs use ~1.0).
  double log_reclaim_threshold = 0.375;
  uint64_t log_capacity_bytes = 16ull << 20;
  /// Record per-table update-size distributions (Table 1 / Figures 7-10).
  bool record_update_sizes = false;
  /// Record the logical I/O event trace (fetch/update/evict) consumed by the
  /// IPL-vs-IPA comparison (Section 8.3).
  bool record_io_trace = false;
  /// Group commit (docs/SHARDING.md): defer the commit-time log force until
  /// this many commits are pending, or until the oldest pending commit is
  /// older than `group_commit_window_us` on the simulated clock. The
  /// defaults force every commit — today's behavior, bit for bit. Deferred
  /// commits are lost by a crash until the next force runs (real group
  /// commit semantics; ForceLog() closes the batch).
  uint32_t group_commit_ops = 1;
  uint64_t group_commit_window_us = 0;
  /// Simulated latency of one log force. The historical model forces for
  /// free (the log lives on its own fast volume); a non-zero value gives
  /// group commit something to amortize.
  uint64_t log_force_us = 0;
};

struct TxnStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;              ///< Workload aborts only.
  uint64_t recovery_rollbacks = 0;  ///< Losers rolled back by Recover().
  LatencyStats txn_latency;  ///< Simulated txn duration begin->commit.
};

/// Every TxnStats counter and the metric it is published under
/// (docs/METRICS.md).
inline constexpr StatField<TxnStats> kTxnStatFields[] = {
    {&TxnStats::commits, "db.commits"},
    {&TxnStats::aborts, "db.aborts"},
    {&TxnStats::recovery_rollbacks, "db.recovery_rollbacks"},
};

class Database {
 public:
  /// `ftl` may be null when every tablespace is bound through
  /// CreateTablespaceOn (e.g. conventional-SSD deployments); `clock` then
  /// provides simulated time for transaction latencies (owned if null).
  Database(ftl::NoFtl* ftl, EngineConfig config, SimClock* clock = nullptr);
  /// Publishes txn_stats() and checkpoints_taken() to the metrics registry.
  ~Database();
  // The buffer pool and the hooks hold this instance's address, and a copy
  // would publish twice.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- DDL --------------------------------------------------------------------

  /// Bind an existing NoFTL region to a new tablespace. Pages in this
  /// tablespace carry `scheme` (use a default Scheme{} for no IPA).
  Result<TablespaceId> CreateTablespace(const std::string& name,
                                        ftl::RegionId region,
                                        storage::Scheme scheme) {
    return CreateTablespaceOn(name, ftl_->region_device(region), scheme);
  }

  /// Bind an arbitrary PageDevice (e.g. a conventional SSD with the
  /// write_delta extension) to a new tablespace.
  Result<TablespaceId> CreateTablespaceOn(const std::string& name,
                                          ftl::PageDevice* device,
                                          storage::Scheme scheme);

  Result<TableId> CreateTable(const std::string& name, TablespaceId ts);

  // -- Transactions -----------------------------------------------------------

  /// `use_locks = false` opens a transaction on the shared-nothing fast
  /// path: DML skips the lock manager entirely. Only safe when the caller
  /// guarantees partition-exclusive access (sharded_database.h); the default
  /// preserves two-phase locking.
  TxnId Begin(bool use_locks = true);
  Status Commit(TxnId txn);
  /// Roll back through the log (CLR-protected) and release locks.
  Status Abort(TxnId txn);

  /// Commit split for cross-partition transactions (sharded_database.h):
  /// CommitRecord appends + (group-)forces the commit record and releases
  /// locks; RunCommitMaintenance runs the cleaner / log-reclaim work that
  /// Commit() would piggyback. Commit(txn) == CommitRecord + maintenance.
  Status CommitRecord(TxnId txn);
  Status RunCommitMaintenance();

  /// Force the WAL through its last record, charging config.log_force_us
  /// once if anything was pending, and close the group-commit batch.
  void ForceLog();
  /// Commits whose log force is still deferred by group commit.
  uint32_t pending_commit_forces() const { return pending_commit_forces_; }

  // -- DML (all byte-span based; schemas live in src/workload) ----------------

  Result<Rid> Insert(TxnId txn, TableId table, std::span<const uint8_t> tuple);
  Result<std::vector<uint8_t>> Read(TxnId txn, Rid rid, bool for_update = false);
  /// Fixed-length in-place update of `bytes` at `offset` within the tuple —
  /// the IPA-friendly small update.
  Status Update(TxnId txn, Rid rid, uint32_t offset, std::span<const uint8_t> bytes);
  /// Whole-tuple replacement; may relocate within the page.
  Status UpdateResize(TxnId txn, Rid rid, std::span<const uint8_t> tuple);
  Status Delete(TxnId txn, Rid rid);
  /// Delete + reinsert (possibly on another page) when a grown tuple no
  /// longer fits its page. Returns the new Rid.
  Result<Rid> Move(TxnId txn, Rid rid, std::span<const uint8_t> tuple);

  /// Sequential scan; `fn` returns false to stop. Not transactional (used by
  /// loaders and index rebuilds).
  Status Scan(TableId table,
              const std::function<bool(Rid, std::span<const uint8_t>)>& fn);

  /// Drop a table: TRIM every page it owned (freeing the flash space) and
  /// detach it from the catalog. Irreversible; not transactional (like most
  /// systems, DDL here is not covered by transaction rollback).
  Status DropTable(TableId table);

  /// Allocate and format a fresh page for index structures (format record is
  /// redo-only; index content itself is not WAL-logged — see engine/btree.h).
  /// The page is remembered as index-class so its writebacks carry
  /// ftl::StreamTag::kIndex on stream-aware devices.
  Result<PageId> AllocateIndexPage(TableId table) {
    PageId id;
    IPA_RETURN_NOT_OK(AllocatePage(table, &id));
    index_pages_.insert(id.raw);
    return id;
  }

  // -- Change capture (src/repl) ----------------------------------------------

  /// Everything one committed transaction logged, in forward LSN order
  /// (kInsert/kUpdate/kDelete/kResize records only — kBegin/kCommit and
  /// non-transactional records are omitted). Delivered to the commit hook
  /// once the commit record is durable, so a subscriber never sees a
  /// transaction a crash could still un-commit.
  struct CommitEvent {
    TxnId txn = kInvalidTxn;
    Lsn commit_lsn = kInvalidLsn;
    std::vector<LogRecord> records;
  };
  using CommitHook = std::function<void(const CommitEvent&)>;
  using AbortHook = std::function<void(TxnId, Lsn abort_lsn)>;

  /// Subscribe to durable commits (replication shipper). The hook runs
  /// synchronously once the commit record's log force completes — immediately
  /// under the default group_commit_ops=1, at the closing force otherwise.
  /// Pass nullptr to unsubscribe. With no hook set the commit path is
  /// bit-identical to the unhooked engine.
  void SetCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }
  /// Subscribe to workload aborts (abort boundaries in the change stream).
  /// Recovery rollbacks are not delivered.
  void SetAbortHook(AbortHook hook) { abort_hook_ = std::move(hook); }

  /// Non-transactional point read of one tuple (no locks, no maintenance
  /// piggy-backing — safe to call from a commit hook).
  Result<std::vector<uint8_t>> ReadTuple(Rid rid);

  /// Owning table of a page, or NotFound for pages no table owns (e.g.
  /// dropped tables). Linear in the catalog; meant for change capture, not
  /// hot paths.
  Result<TableId> TableOfPage(PageId id) const;

  storage::Scheme scheme_of(TablespaceId ts) const {
    return tablespaces_[ts].scheme;
  }

  // -- Maintenance / recovery --------------------------------------------------

  /// Sharp checkpoint: flush all dirty pages, emit a checkpoint record,
  /// truncate the log (bounded by the oldest active transaction).
  Status Checkpoint();

  /// Crash simulation: throw away buffer contents and unflushed log.
  void SimulateCrash();

  /// ARIES restart: analysis / redo / undo over the surviving log.
  Status Recover();

  /// Restart after a device power loss (the caller must PowerCycle() the
  /// flash array first): run the NoFTL mount-time torn-write scan on every
  /// NoFTL-backed tablespace's region — so a torn in-place append reads as
  /// never written — then the ARIES restart, which replays the lost tail
  /// from the WAL.
  Status RecoverAfterPowerLoss();

  // -- Introspection ------------------------------------------------------------

  BufferPool& buffer_pool() { return *pool_; }
  Wal& wal() { return wal_; }
  const LockManager& lock_manager() const { return locks_; }
  const TxnStats& txn_stats() const { return txn_stats_; }
  /// Publish txn_stats() to the metrics registry, then zero it.
  void ResetTxnStats();
  const EngineConfig& config() const { return config_; }
  uint64_t table_page_count(TableId t) const {
    return tables_[t].pages.size();
  }
  const std::string& table_name(TableId t) const { return tables_[t].name; }
  size_t table_count() const { return tables_.size(); }
  /// Pages AllocatePage can still hand out to table `t`: what is left of its
  /// tablespace.
  uint64_t pages_left(TableId t) const {
    const Tablespace& ts = tablespaces_[tables_[t].ts];
    return ts.capacity_pages - ts.next_lba;
  }
  uint64_t checkpoints_taken() const { return checkpoints_; }

  /// Number of active (open) transactions.
  size_t active_txns() const { return txns_.size(); }

  /// The recorded I/O trace (empty unless config.record_io_trace).
  const std::vector<IoEvent>& io_trace() const { return io_trace_; }
  void ClearIoTrace() { io_trace_.clear(); }

  /// The simulated clock transaction latencies are measured against.
  SimClock& sim_clock() { return *clock_; }

 private:
  struct Tablespace {
    std::string name;
    ftl::PageDevice* device = nullptr;
    storage::Scheme scheme;
    uint64_t next_lba = 0;
    uint64_t capacity_pages = 0;
  };

  struct Table {
    std::string name;
    TablespaceId ts;
    std::vector<PageId> pages;
    /// Insertion hint: index of the page last observed to have room.
    size_t insert_hint = 0;
    bool dropped = false;
  };

  struct TxnState {
    Lsn first_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
    bool use_locks = true;
    /// Set by Begin(); a transaction it did not open records no latency.
    std::optional<SimTime> begin_time;
  };

  Lsn Log(LogRecord rec, TxnId txn);
  /// Lock-table acquire, skipped for shared-nothing fast-path transactions.
  Status AcquireLock(TxnId txn, uint64_t key, LockMode mode);
  /// WAL-rule force up to `lsn` (buffer-pool flush callback), charging
  /// config.log_force_us when it actually has to advance the durable LSN.
  void ForceLogTo(Lsn lsn);
  void TraceUpdate(PageId page, uint32_t log_bytes);
  Status AllocatePage(TableId table, PageId* out);
  /// Fix page `id`, run `fn(view)` (a Status(const
  /// storage::ConstSlottedPage&)) on it, unfix it, then run the cleaner and
  /// log reclamation.
  template <typename Fn>
  Status WithPage(PageId id, Fn&& fn);
  /// WithPage for a `fn` (a Status(storage::SlottedPage&)) that may change
  /// the page through BufferPool::WillModify's pointer. An OK return leaves
  /// the frame dirty, with the PageLSN `fn` set as its recLSN.
  template <typename Fn>
  Status ModifyPage(PageId id, Fn&& fn);
  /// The cleaner and log reclamation that follow every page access.
  Status AfterPageAccess();
  Status MaybeReclaimLog();
  /// Log the CLR that compensates `rec` and apply it with ApplyToPage.
  Status UndoRecord(TxnId txn, const LogRecord& rec);
  Status RedoRecord(const LogRecord& rec, Lsn lsn);
  /// Apply page record or CLR `rec`, logged at `lsn`, to its page.
  Status ApplyToPage(const LogRecord& rec, Lsn lsn);

  ftl::NoFtl* ftl_;
  SimClock* clock_;
  std::unique_ptr<SimClock> owned_clock_;
  EngineConfig config_;
  Wal wal_;
  std::unique_ptr<BufferPool> pool_;
  LockManager locks_;
  std::vector<Tablespace> tablespaces_;
  std::vector<Table> tables_;
  /// PageId.raw of pages allocated for index structures (stream classifier).
  std::unordered_set<uint64_t> index_pages_;
  std::unordered_map<TxnId, TxnState> txns_;
  TxnId next_txn_ = 1;
  TxnStats txn_stats_;
  uint64_t checkpoints_ = 0;
  bool in_recovery_ = false;
  std::vector<IoEvent> io_trace_;
  /// Group-commit batch state: commits whose force is deferred and the
  /// simulated time the oldest of them committed at.
  uint32_t pending_commit_forces_ = 0;
  SimTime oldest_pending_commit_ = 0;

  /// Change-capture subscribers (SetCommitHook/SetAbortHook). Commit events
  /// queue until their commit record is durable; SimulateCrash discards the
  /// queue (an undelivered event's transaction is still durable — a restarted
  /// subscriber recovers it via catch-up, not the hook).
  CommitHook commit_hook_;
  AbortHook abort_hook_;
  std::vector<CommitEvent> pending_commit_events_;
  bool delivering_events_ = false;
  void DeliverCommitEvents();
};

}  // namespace ipa::engine
