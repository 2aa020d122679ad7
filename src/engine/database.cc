#include "engine/database.h"

#include <algorithm>
#include <cstring>

#include "common/metrics.h"
#include "storage/slotted_page.h"

namespace ipa::engine {

namespace {

/// Add a TxnStats's counters and commit latencies to the registry.
void Publish(const TxnStats& s) {
  metrics::PublishStats(s, kTxnStatFields);
  metrics::PublishHistogram("db.txn_latency_us", s.txn_latency);
}

/// Pack the info needed to redo a page format into aux64. Bits 56-63 carry
/// the delta codec so WAL redo re-formats pages with the tablespace's
/// negotiated codec; pre-codec logs have 0 there, which is DeltaCodec::kRaw.
uint64_t PackFormatAux(TableId table, storage::Scheme s) {
  return static_cast<uint64_t>(table) | (static_cast<uint64_t>(s.n) << 32) |
         (static_cast<uint64_t>(s.m) << 40) |
         (static_cast<uint64_t>(s.v) << 48) |
         (static_cast<uint64_t>(s.codec) << 56);
}
void UnpackFormatAux(uint64_t aux, TableId* table, storage::Scheme* s) {
  *table = static_cast<TableId>(aux & 0xFFFFFFFFu);
  s->n = static_cast<uint8_t>(aux >> 32);
  s->m = static_cast<uint8_t>(aux >> 40);
  s->v = static_cast<uint8_t>(aux >> 48);
  s->codec = static_cast<uint8_t>(aux >> 56);
}

/// CLR action tags (first byte of a CLR's `before` field).
enum ClrAction : uint8_t {
  kClrUpdate = 1,  ///< Write `after` at `offset` in tuple `slot`.
  kClrDelete = 2,  ///< Mark-delete tuple `slot` (undo of insert).
  kClrRevive = 3,  ///< Restore tuple `slot` with bytes `after` (undo of delete).
  kClrResize = 4,  ///< Replace tuple `slot` with bytes `after` (undo of resize).
};

}  // namespace

Database::Database(ftl::NoFtl* ftl, EngineConfig config, SimClock* clock)
    : ftl_(ftl), config_(config), wal_(config.log_capacity_bytes) {
  if (clock) {
    clock_ = clock;
  } else if (ftl_) {
    clock_ = &ftl_->clock();
  } else {
    owned_clock_ = std::make_unique<SimClock>();
    clock_ = owned_clock_.get();
  }
  BufferConfig bc;
  bc.page_size = config_.page_size;
  bc.frames = config_.buffer_pages;
  bc.dirty_flush_threshold = config_.dirty_flush_threshold;
  bc.record_update_sizes = config_.record_update_sizes;
  if (config_.record_io_trace) bc.io_trace = &io_trace_;
  // Stream classifier for stream-aware devices (ftl::PageFtl under
  // GcPolicy::kStreamWarmCold): pages handed out by AllocateIndexPage carry
  // kIndex, everything else kHeap. Tag-oblivious devices drop the tag, so
  // this is behavior-neutral for NoFTL regions, BlackboxSsd and the
  // single-stream PageFtl policies.
  bc.stream_of = [this](PageId id) {
    return index_pages_.count(id.raw) ? ftl::StreamTag::kIndex
                                      : ftl::StreamTag::kHeap;
  };
  pool_ = std::make_unique<BufferPool>(
      bc, [this](TablespaceId ts) { return tablespaces_[ts].device; },
      [this](Lsn lsn) { ForceLogTo(lsn); });
}

Database::~Database() {
  Publish(txn_stats_);
  metrics::AddCounter("db.checkpoints", checkpoints_);
}

void Database::ResetTxnStats() {
  Publish(txn_stats_);
  txn_stats_ = TxnStats{};
}

Result<TablespaceId> Database::CreateTablespaceOn(const std::string& name,
                                                  ftl::PageDevice* device,
                                                  storage::Scheme scheme) {
  if (tablespaces_.size() >= 0xFFFF) {
    return Status::OutOfSpace("too many tablespaces");
  }
  if (scheme.enabled() &&
      scheme.AreaBytes() + storage::kPageHeaderSize + 64 > config_.page_size) {
    return Status::InvalidArgument("scheme delta area does not fit the page");
  }
  Tablespace ts;
  ts.name = name;
  ts.device = device;
  ts.scheme = scheme;
  ts.capacity_pages = device->capacity_pages();
  tablespaces_.push_back(ts);
  return static_cast<TablespaceId>(tablespaces_.size() - 1);
}

Result<TableId> Database::CreateTable(const std::string& name, TablespaceId ts) {
  if (ts >= tablespaces_.size()) {
    return Status::InvalidArgument("no such tablespace");
  }
  Table t;
  t.name = name;
  t.ts = ts;
  tables_.push_back(std::move(t));
  return static_cast<TableId>(tables_.size() - 1);
}

void Database::TraceUpdate(PageId page, uint32_t log_bytes) {
  if (config_.record_io_trace) {
    io_trace_.push_back({IoEvent::Type::kUpdate, page.raw, log_bytes});
  }
}

Lsn Database::Log(LogRecord rec, TxnId txn) {
  if (txn != kInvalidTxn) {
    auto& st = txns_[txn];
    rec.prev = st.last_lsn;
    rec.txn = txn;
    Lsn lsn = wal_.Append(rec);
    if (st.first_lsn == kInvalidLsn) st.first_lsn = lsn;
    st.last_lsn = lsn;
    return lsn;
  }
  rec.txn = kInvalidTxn;
  rec.prev = kInvalidLsn;
  return wal_.Append(rec);
}

TxnId Database::Begin(bool use_locks) {
  TxnId id = next_txn_++;
  txns_[id] = TxnState{.use_locks = use_locks, .begin_time = clock_->Now()};
  Log(LogRecord{.type = LogType::kBegin}, id);
  return id;
}

Status Database::AcquireLock(TxnId txn, uint64_t key, LockMode mode) {
  auto it = txns_.find(txn);
  if (it != txns_.end() && !it->second.use_locks) return Status::OK();
  return locks_.Acquire(txn, key, mode);
}

void Database::ForceLog() {
  if (config_.log_force_us > 0 && wal_.durable_lsn() < wal_.end_lsn()) {
    clock_->Advance(config_.log_force_us);
  }
  wal_.FlushAll();
  pending_commit_forces_ = 0;
  DeliverCommitEvents();
}

void Database::DeliverCommitEvents() {
  if (!commit_hook_ || pending_commit_events_.empty()) return;
  if (delivering_events_) return;  // hook re-entered the engine; no recursion
  delivering_events_ = true;
  size_t delivered = 0;
  while (delivered < pending_commit_events_.size() &&
         pending_commit_events_[delivered].commit_lsn < wal_.durable_lsn()) {
    commit_hook_(pending_commit_events_[delivered]);
    delivered++;
  }
  pending_commit_events_.erase(pending_commit_events_.begin(),
                               pending_commit_events_.begin() + delivered);
  delivering_events_ = false;
}

void Database::ForceLogTo(Lsn lsn) {
  Lsn before = wal_.durable_lsn();
  wal_.FlushTo(lsn);
  if (config_.log_force_us > 0 && wal_.durable_lsn() != before) {
    clock_->Advance(config_.log_force_us);
  }
}

Status Database::CommitRecord(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return Status::NotFound("unknown transaction");
  Lsn commit_lsn = Log(LogRecord{.type = LogType::kCommit}, txn);
  if (commit_hook_) {
    // Capture the transaction's DML records now, while the whole chain is
    // guaranteed readable (checkpoint truncation is bounded by the oldest
    // active transaction, and this one is still in txns_). Delivery waits
    // for the commit record's force below.
    CommitEvent ev;
    ev.txn = txn;
    ev.commit_lsn = commit_lsn;
    Lsn cur = it->second.last_lsn;  // the commit record itself
    while (cur != kInvalidLsn) {
      auto rec = wal_.Read(cur);
      if (!rec.ok()) break;  // truncated prefix: capture what survives
      Lsn prev = rec.value().prev;
      switch (rec.value().type) {
        case LogType::kInsert:
        case LogType::kUpdate:
        case LogType::kDelete:
        case LogType::kResize:
          ev.records.push_back(std::move(rec.value()));
          break;
        default:
          break;  // kBegin/kCommit; CLRs never appear in a committed chain
      }
      cur = prev;
    }
    std::reverse(ev.records.begin(), ev.records.end());
    pending_commit_events_.push_back(std::move(ev));
  }
  // No-force applies to data pages; the commit record itself is forced —
  // immediately by default, or batched by group commit (docs/SHARDING.md).
  if (pending_commit_forces_ == 0) oldest_pending_commit_ = clock_->Now();
  pending_commit_forces_++;
  bool force =
      pending_commit_forces_ >= config_.group_commit_ops ||
      (config_.group_commit_window_us > 0 &&
       clock_->Now() - oldest_pending_commit_ >= config_.group_commit_window_us);
  if (force) ForceLog();
  locks_.ReleaseAll(txn);
  if (it->second.begin_time) {
    txn_stats_.txn_latency.Add(clock_->Now() - *it->second.begin_time);
  }
  txns_.erase(it);
  txn_stats_.commits++;
  return Status::OK();
}

Status Database::RunCommitMaintenance() {
  IPA_RETURN_NOT_OK(pool_->MaybeRunCleaner());
  return MaybeReclaimLog();
}

Status Database::Commit(TxnId txn) {
  IPA_RETURN_NOT_OK(CommitRecord(txn));
  return RunCommitMaintenance();
}

Status Database::Abort(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return Status::NotFound("unknown transaction");
  // Walk the undo chain, CLR-protected (restart-safe partial rollback).
  Lsn cur = it->second.last_lsn;
  while (cur != kInvalidLsn) {
    IPA_ASSIGN_OR_RETURN(LogRecord rec, wal_.Read(cur));
    if (rec.type == LogType::kClr) {
      cur = rec.aux64;  // skip to undo-next
      continue;
    }
    Lsn next = rec.prev;
    IPA_RETURN_NOT_OK(UndoRecord(txn, rec));
    cur = next;
  }
  Lsn abort_lsn = Log(LogRecord{.type = LogType::kAbort}, txn);
  ForceLog();
  locks_.ReleaseAll(txn);
  txns_.erase(txn);
  // Recovery rollbacks are not workload aborts.
  (in_recovery_ ? txn_stats_.recovery_rollbacks : txn_stats_.aborts)++;
  if (abort_hook_ && !in_recovery_) abort_hook_(txn, abort_lsn);
  return Status::OK();
}

template <typename Fn>
Status Database::WithPage(PageId id, Fn&& fn) {
  IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, pool_->Fix(id));
  Status s = fn(storage::ConstSlottedPage(frame->data(), config_.page_size));
  pool_->Unfix(frame, false);
  IPA_RETURN_NOT_OK(s);
  return AfterPageAccess();
}

template <typename Fn>
Status Database::ModifyPage(PageId id, Fn&& fn) {
  IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, pool_->Fix(id));
  storage::SlottedPage view(pool_->WillModify(frame), config_.page_size);
  Status s = fn(view);
  pool_->Unfix(frame, s.ok(), view.page_lsn());
  IPA_RETURN_NOT_OK(s);
  return AfterPageAccess();
}

Status Database::AfterPageAccess() {
  IPA_RETURN_NOT_OK(pool_->MaybeRunCleaner());
  return MaybeReclaimLog();
}

Status Database::AllocatePage(TableId table, PageId* out) {
  Table& t = tables_[table];
  Tablespace& ts = tablespaces_[t.ts];
  if (ts.next_lba >= ts.capacity_pages) {
    return Status::OutOfSpace("tablespace '" + ts.name + "' is full");
  }
  PageId id(t.ts, ts.next_lba++);

  // Page formats are non-transactional redo-only records (never undone:
  // other transactions may already have used the page by undo time) and are
  // forced immediately so a surviving catalog never references a page whose
  // format the crashed log lost.
  Lsn lsn = Log(LogRecord{.type = LogType::kFormat,
                          .page = id,
                          .aux64 = PackFormatAux(table, ts.scheme)},
                kInvalidTxn);
  wal_.FlushTo(lsn);

  IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, pool_->Fix(id, /*for_format=*/true));
  storage::SlottedPage view(pool_->WillModify(frame), config_.page_size);
  view.Initialize(id.raw, table, ts.scheme);
  view.set_page_lsn(lsn);
  pool_->Unfix(frame, /*dirtied=*/true, lsn);

  t.pages.push_back(id);
  t.insert_hint = t.pages.size() - 1;
  *out = id;
  return Status::OK();
}

Result<Rid> Database::Insert(TxnId txn, TableId table,
                             std::span<const uint8_t> tuple) {
  if (table >= tables_.size()) return Status::InvalidArgument("no such table");
  Table& t = tables_[table];

  // Find a page with room, starting at the insertion hint.
  PageId target;
  bool found = false;
  for (size_t probe = 0; probe < 2 && !found; probe++) {
    size_t idx = probe == 0 ? t.insert_hint : t.pages.size() - 1;
    if (idx >= t.pages.size()) continue;
    IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, pool_->Fix(t.pages[idx]));
    storage::ConstSlottedPage view(frame->data(), config_.page_size);
    if (view.HasRoomFor(static_cast<uint32_t>(tuple.size()))) {
      target = t.pages[idx];
      found = true;
      t.insert_hint = idx;
    }
    pool_->Unfix(frame, false);
  }
  if (!found) {
    IPA_RETURN_NOT_OK(AllocatePage(table, &target));
  }

  Rid rid;
  rid.page = target;
  Status s = ModifyPage(target, [&](storage::SlottedPage& view) -> Status {
    auto slot = view.Insert(tuple);
    if (!slot.ok()) return slot.status();
    rid.slot = slot.value();
    Lsn lsn = Log(LogRecord{.type = LogType::kInsert,
                            .page = target,
                            .slot = rid.slot,
                            .after = {tuple.begin(), tuple.end()}},
                  txn);
    view.set_page_lsn(lsn);
    return Status::OK();
  });
  IPA_RETURN_NOT_OK(s);
  TraceUpdate(target, static_cast<uint32_t>(tuple.size()) + 8);
  IPA_RETURN_NOT_OK(AcquireLock(txn, rid.Pack(), LockMode::kExclusive));
  return rid;
}

Result<std::vector<uint8_t>> Database::Read(TxnId txn, Rid rid, bool for_update) {
  IPA_RETURN_NOT_OK(AcquireLock(
      txn, rid.Pack(), for_update ? LockMode::kExclusive : LockMode::kShared));
  std::vector<uint8_t> out;
  IPA_RETURN_NOT_OK(WithPage(
      rid.page, [&](const storage::ConstSlottedPage& view) -> Status {
        auto tuple = view.Read(rid.slot);
        if (!tuple.ok()) return tuple.status();
        out.assign(tuple.value().begin(), tuple.value().end());
        return Status::OK();
      }));
  return out;
}

Status Database::Update(TxnId txn, Rid rid, uint32_t offset,
                        std::span<const uint8_t> bytes) {
  IPA_RETURN_NOT_OK(AcquireLock(txn, rid.Pack(), LockMode::kExclusive));
  TraceUpdate(rid.page, static_cast<uint32_t>(bytes.size()) + 8);
  return ModifyPage(rid.page, [&](storage::SlottedPage& view) -> Status {
    auto tuple = view.Read(rid.slot);
    if (!tuple.ok()) return tuple.status();
    if (offset + bytes.size() > tuple.value().size()) {
      return Status::InvalidArgument("update beyond tuple bounds");
    }
    std::vector<uint8_t> before(tuple.value().begin() + offset,
                                tuple.value().begin() + offset + bytes.size());
    Lsn lsn = Log(LogRecord{.type = LogType::kUpdate,
                            .page = rid.page,
                            .slot = rid.slot,
                            .offset = static_cast<uint16_t>(offset),
                            .before = std::move(before),
                            .after = {bytes.begin(), bytes.end()}},
                  txn);
    IPA_RETURN_NOT_OK(view.UpdateInPlace(rid.slot, offset, bytes));
    view.set_page_lsn(lsn);
    return Status::OK();
  });
}

Status Database::UpdateResize(TxnId txn, Rid rid, std::span<const uint8_t> tuple) {
  IPA_RETURN_NOT_OK(AcquireLock(txn, rid.Pack(), LockMode::kExclusive));
  TraceUpdate(rid.page, static_cast<uint32_t>(tuple.size()) + 8);
  return ModifyPage(rid.page, [&](storage::SlottedPage& view) -> Status {
    auto old = view.Read(rid.slot);
    if (!old.ok()) return old.status();
    std::vector<uint8_t> before(old.value().begin(), old.value().end());
    IPA_RETURN_NOT_OK(view.UpdateResize(rid.slot, tuple));
    Lsn lsn = Log(LogRecord{.type = LogType::kResize,
                            .page = rid.page,
                            .slot = rid.slot,
                            .before = std::move(before),
                            .after = {tuple.begin(), tuple.end()}},
                  txn);
    view.set_page_lsn(lsn);
    return Status::OK();
  });
}

Status Database::Delete(TxnId txn, Rid rid) {
  IPA_RETURN_NOT_OK(AcquireLock(txn, rid.Pack(), LockMode::kExclusive));
  TraceUpdate(rid.page, 12);
  return ModifyPage(rid.page, [&](storage::SlottedPage& view) -> Status {
    auto old = view.Read(rid.slot);
    if (!old.ok()) return old.status();
    Lsn lsn = Log(LogRecord{.type = LogType::kDelete,
                            .page = rid.page,
                            .slot = rid.slot,
                            .before = {old.value().begin(), old.value().end()}},
                  txn);
    IPA_RETURN_NOT_OK(view.Delete(rid.slot));
    view.set_page_lsn(lsn);
    return Status::OK();
  });
}

Result<Rid> Database::Move(TxnId txn, Rid rid, std::span<const uint8_t> tuple) {
  IPA_RETURN_NOT_OK(Delete(txn, rid));
  TableId table = 0;
  // Identify the table from the page header.
  IPA_RETURN_NOT_OK(WithPage(
      rid.page, [&](const storage::ConstSlottedPage& view) -> Status {
        table = view.table_id();
        return Status::OK();
      }));
  return Insert(txn, table, tuple);
}

Status Database::DropTable(TableId table) {
  if (table >= tables_.size()) return Status::InvalidArgument("no such table");
  Table& t = tables_[table];
  if (t.dropped) return Status::InvalidArgument("table already dropped");
  Tablespace& ts = tablespaces_[t.ts];
  auto* backend = dynamic_cast<ftl::FtlBackend*>(ts.device);
  for (PageId pid : t.pages) {
    // Evict any buffered copy without flushing, then unmap on the device.
    // (Pages of a dropped table must not be written back by the cleaner.)
    pool_->DropPageNoFlush(pid);
    if (backend && ts.device->IsMapped(pid.lba())) {
      IPA_RETURN_NOT_OK(backend->Trim(pid.lba()));
    }
  }
  t.pages.clear();
  t.dropped = true;
  return Status::OK();
}

Status Database::Scan(TableId table,
                      const std::function<bool(Rid, std::span<const uint8_t>)>& fn) {
  if (table >= tables_.size()) return Status::InvalidArgument("no such table");
  for (PageId pid : tables_[table].pages) {
    IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, pool_->Fix(pid));
    storage::ConstSlottedPage view(frame->data(), config_.page_size);
    bool stop = false;
    for (storage::SlotId s = 0; s < view.slot_count() && !stop; s++) {
      if (!view.IsLive(s)) continue;
      auto tuple = view.Read(s);
      if (tuple.ok() && !fn(Rid{pid, s}, tuple.value())) stop = true;
    }
    pool_->Unfix(frame, false);
    if (stop) break;
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  metrics::ScopedSpan span("db.checkpoint", clock_);
  // Checkpoint flushes run as background writes (Shore-MT's checkpointer and
  // page cleaners do not stall user transactions on data-page I/O).
  IPA_RETURN_NOT_OK(pool_->FlushAll(/*async=*/true));
  Lsn ckpt = Log(LogRecord{.type = LogType::kCheckpoint}, kInvalidTxn);
  ForceLog();
  // Truncation is bounded by the oldest active transaction's first record
  // (its undo chain must stay readable).
  Lsn bound = ckpt;
  for (const auto& [id, st] : txns_) {
    if (st.first_lsn != kInvalidLsn) bound = std::min(bound, st.first_lsn);
  }
  IPA_RETURN_NOT_OK(wal_.TruncateTo(bound));
  checkpoints_++;
  return Status::OK();
}

Status Database::MaybeReclaimLog() {
  if (in_recovery_) return Status::OK();
  if (wal_.UsedFraction() < config_.log_reclaim_threshold) return Status::OK();
  return Checkpoint();
}

void Database::SimulateCrash() {
  wal_.DiscardUnflushed();
  pool_->DropAllNoFlush();
  txns_.clear();
  locks_ = LockManager{};
  // Unforced group-commit batches died with the log tail, and undelivered
  // commit events are process state that dies with the crash too (their
  // transactions stay durable; subscribers resynchronize via catch-up).
  pending_commit_forces_ = 0;
  pending_commit_events_.clear();
}

Result<std::vector<uint8_t>> Database::ReadTuple(Rid rid) {
  // Deliberately avoids WithPage: no cleaner/reclaim piggy-backing, so a
  // commit hook can read tuples without re-entering maintenance.
  IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, pool_->Fix(rid.page));
  storage::ConstSlottedPage view(frame->data(), config_.page_size);
  auto tuple = view.Read(rid.slot);
  std::vector<uint8_t> out;
  if (tuple.ok()) out.assign(tuple.value().begin(), tuple.value().end());
  pool_->Unfix(frame, false);
  if (!tuple.ok()) return tuple.status();
  return out;
}

Result<TableId> Database::TableOfPage(PageId id) const {
  for (size_t t = 0; t < tables_.size(); t++) {
    for (PageId p : tables_[t].pages) {
      if (p.raw == id.raw) return static_cast<TableId>(t);
    }
  }
  return Status::NotFound("page not owned by any table");
}

// ---------------------------------------------------------------------------
// Undo / redo machinery
// ---------------------------------------------------------------------------

Status Database::ApplyToPage(const LogRecord& rec, Lsn lsn) {
  return ModifyPage(rec.page, [&](storage::SlottedPage& view) -> Status {
    switch (rec.type) {
      case LogType::kUpdate:
        IPA_RETURN_NOT_OK(view.UpdateInPlace(rec.slot, rec.offset, rec.after));
        break;
      case LogType::kInsert: {
        auto s = view.Insert(rec.after);
        if (!s.ok()) return s.status();
        if (s.value() != rec.slot) {
          return Status::Corruption("redo insert slot mismatch");
        }
        break;
      }
      case LogType::kDelete:
        IPA_RETURN_NOT_OK(view.Delete(rec.slot));
        break;
      case LogType::kResize:
        IPA_RETURN_NOT_OK(view.UpdateResize(rec.slot, rec.after));
        break;
      case LogType::kClr: {
        // Compensation: undo applies it as it logs it, redo after a crash.
        switch (static_cast<ClrAction>(rec.before.empty() ? 0 : rec.before[0])) {
          case kClrUpdate:
            IPA_RETURN_NOT_OK(view.UpdateInPlace(rec.slot, rec.offset, rec.after));
            break;
          case kClrDelete:
            IPA_RETURN_NOT_OK(view.Delete(rec.slot));
            break;
          case kClrRevive:
            IPA_RETURN_NOT_OK(view.Revive(rec.slot, rec.after));
            break;
          case kClrResize:
            IPA_RETURN_NOT_OK(view.UpdateResize(rec.slot, rec.after));
            break;
          default:
            return Status::Corruption("CLR without action tag");
        }
        break;
      }
      default:
        return Status::Internal("ApplyToPage on non-page record");
    }
    view.set_page_lsn(lsn);
    return Status::OK();
  });
}

Status Database::UndoRecord(TxnId txn, const LogRecord& rec) {
  LogRecord clr{.type = LogType::kClr,
                .page = rec.page,
                .slot = rec.slot,
                .offset = rec.offset,
                .aux64 = rec.prev};  // undo-next
  switch (rec.type) {
    case LogType::kUpdate:
      clr.before = {kClrUpdate};
      clr.after = rec.before;
      break;
    case LogType::kInsert:
      clr.before = {kClrDelete};
      break;
    case LogType::kDelete:
      clr.before = {kClrRevive};
      clr.after = rec.before;
      break;
    case LogType::kResize:
      clr.before = {kClrResize};
      clr.after = rec.before;
      break;
    default:
      return Status::OK();  // kBegin changes no page: nothing to undo
  }
  Lsn lsn = Log(clr, txn);
  return ApplyToPage(clr, lsn);
}

Status Database::RedoRecord(const LogRecord& rec, Lsn lsn) {
  if (rec.type == LogType::kFormat) {
    TableId table;
    storage::Scheme scheme;
    UnpackFormatAux(rec.aux64, &table, &scheme);
    bool mapped =
        tablespaces_[rec.page.tablespace()].device->IsMapped(rec.page.lba());
    if (mapped) {
      // Page reached flash; redo only if its LSN predates the format.
      bool need = false;
      IPA_RETURN_NOT_OK(WithPage(
          rec.page, [&](const storage::ConstSlottedPage& view) -> Status {
            need = view.page_lsn() < lsn;
            return Status::OK();
          }));
      if (!need) return Status::OK();
    }
    IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame,
                         pool_->Fix(rec.page, /*for_format=*/true));
    storage::SlottedPage view(pool_->WillModify(frame), config_.page_size);
    view.Initialize(rec.page.raw, table, scheme);
    view.set_page_lsn(lsn);
    pool_->Unfix(frame, true, lsn);
    return Status::OK();
  }
  // Ordinary page record: redo iff the page version predates it.
  bool need = false;
  IPA_RETURN_NOT_OK(WithPage(
      rec.page, [&](const storage::ConstSlottedPage& view) -> Status {
        need = view.page_lsn() < lsn;
        return Status::OK();
      }));
  if (!need) return Status::OK();
  return ApplyToPage(rec, lsn);
}

Status Database::RecoverAfterPowerLoss() {
  // Mount every distinct backend first: ARIES redo must never read torn
  // on-media state (torn delta bytes on NoFTL regions, torn reverse-map
  // entries on a page-mapping FTL). Backends shared by several tablespaces
  // are mounted once.
  std::vector<ftl::FtlBackend*> mounted;
  for (const Tablespace& ts : tablespaces_) {
    auto* backend = dynamic_cast<ftl::FtlBackend*>(ts.device);
    if (!backend) continue;  // raw PageDevice without a management plane
    if (std::find(mounted.begin(), mounted.end(), backend) != mounted.end()) {
      continue;
    }
    mounted.push_back(backend);
    IPA_RETURN_NOT_OK(backend->Mount());
  }
  return Recover();
}

Status Database::Recover() {
  metrics::ScopedSpan span("db.recovery", clock_);
  in_recovery_ = true;
  // -- Analysis: find loser transactions and their last LSNs.
  std::unordered_map<TxnId, TxnState> losers;
  Lsn lsn = wal_.base_lsn();
  while (lsn < wal_.end_lsn()) {
    IPA_ASSIGN_OR_RETURN(LogRecord rec, wal_.Read(lsn));
    if (rec.txn != kInvalidTxn) {
      switch (rec.type) {
        case LogType::kBegin:
          losers[rec.txn] = TxnState{.first_lsn = lsn, .last_lsn = lsn};
          break;
        case LogType::kCommit:
        case LogType::kAbort:
          losers.erase(rec.txn);
          break;
        default: {
          auto it = losers.find(rec.txn);
          if (it == losers.end()) {
            losers[rec.txn] = TxnState{.first_lsn = lsn, .last_lsn = lsn};
          } else {
            it->second.last_lsn = lsn;
          }
          break;
        }
      }
    }
    IPA_ASSIGN_OR_RETURN(lsn, wal_.NextLsn(lsn));
  }

  // -- Redo: repeat history from the log base.
  lsn = wal_.base_lsn();
  while (lsn < wal_.end_lsn()) {
    IPA_ASSIGN_OR_RETURN(LogRecord rec, wal_.Read(lsn));
    switch (rec.type) {
      case LogType::kFormat:
      case LogType::kUpdate:
      case LogType::kInsert:
      case LogType::kDelete:
      case LogType::kResize:
      case LogType::kClr:
        IPA_RETURN_NOT_OK(RedoRecord(rec, lsn));
        break;
      default:
        break;
    }
    IPA_ASSIGN_OR_RETURN(lsn, wal_.NextLsn(lsn));
  }

  // -- Undo losers (restores the txn chains, then reuses Abort()).
  for (auto& [txn, st] : losers) {
    txns_[txn] = st;
    next_txn_ = std::max(next_txn_, txn + 1);
  }
  std::vector<TxnId> loser_ids;
  loser_ids.reserve(losers.size());
  for (auto& [txn, st] : losers) loser_ids.push_back(txn);
  std::sort(loser_ids.rbegin(), loser_ids.rend());
  for (TxnId txn : loser_ids) {
    IPA_RETURN_NOT_OK(Abort(txn));
  }
  in_recovery_ = false;
  return Status::OK();
}

}  // namespace ipa::engine
