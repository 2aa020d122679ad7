#include "repl/node.h"

#include <algorithm>
#include <set>

#include "common/bytes.h"
#include "common/metrics.h"

namespace ipa::repl {

namespace {

constexpr uint32_t kMetaMagic = 0x4D4C5052;  // "RPLM"
constexpr uint32_t kMetaVvCap = 8;
constexpr size_t kMetaRowBytes = 16 + kMetaVvCap * 16;
constexpr size_t kMapRowBytes = 32;

/// RAII: suppress change capture while the node itself drives the engine
/// (apply transactions, meta bookkeeping) — applied frames must not be
/// re-shipped as if they were local writes.
class SuppressCapture {
 public:
  explicit SuppressCapture(bool* flag) : flag_(flag) { *flag_ = true; }
  ~SuppressCapture() { *flag_ = false; }

 private:
  bool* flag_;
};

}  // namespace

Result<std::unique_ptr<ReplNode>> ReplNode::Attach(
    engine::Database* db, engine::TablespaceId ts,
    std::vector<engine::TableId> tables, ReplConfig cfg) {
  std::unique_ptr<ReplNode> node(
      new ReplNode(db, ts, std::move(tables), cfg));
  IPA_RETURN_NOT_OK(node->Bootstrap());
  ReplNode* n = node.get();
  db->SetCommitHook(
      [n](const engine::Database::CommitEvent& ev) { n->OnCommit(ev); });
  db->SetAbortHook(
      [n](engine::TxnId txn, engine::Lsn lsn) { n->OnAbort(txn, lsn); });
  return node;
}

ReplNode::~ReplNode() {
  db_->SetCommitHook({});
  db_->SetAbortHook({});
  metrics::PublishStats(stats_, kReplStatFields);
}

Status ReplNode::Bootstrap() {
  storage::Scheme scheme = db_->scheme_of(ts_);
  ipa_budget_ = scheme.enabled()
                    ? static_cast<uint32_t>(scheme.n) * scheme.m
                    : 0;
  IPA_ASSIGN_OR_RETURN(meta_table_, db_->CreateTable("__repl_meta", ts_));
  IPA_ASSIGN_OR_RETURN(map_table_, db_->CreateTable("__repl_map", ts_));

  SuppressCapture guard(&suppress_capture_);
  engine::TxnId txn = db_->Begin();
  auto rid = db_->Insert(txn, meta_table_, EncodeMetaRow(vv_));
  if (!rid.ok()) return AbortApply(txn, rid.status());
  meta_rid_ = rid.value().Pack();
  Status s = db_->Commit(txn);
  if (s.IsOutOfSpace()) s = Status::OK();  // commit record already durable
  return s;
}

std::vector<uint8_t> ReplNode::PopOutbound() {
  if (outbound_.empty()) return {};
  std::vector<uint8_t> f = std::move(outbound_.front());
  outbound_.erase(outbound_.begin());
  return f;
}

// ---------------------------------------------------------------------------
// Shipper: change capture
// ---------------------------------------------------------------------------

ReplNode::LogicalKey ReplNode::KeyOfLocal(uint64_t local_rid) const {
  auto it = local_to_key_.find(local_rid);
  if (it != local_to_key_.end()) return it->second;
  return {cfg_.writer, local_rid};
}

void ReplNode::OnCommit(const engine::Database::CommitEvent& ev) {
  if (!cfg_.writable || suppress_capture_) return;
  Frame f;
  f.kind = FrameKind::kChangeset;
  f.writer = cfg_.writer;
  f.lsn = ev.commit_lsn;
  f.prev_lsn = last_emitted_;
  uint64_t version = version_floor_ + ev.commit_lsn;

  for (const engine::LogRecord& rec : ev.records) {
    auto table = db_->TableOfPage(rec.page);
    if (!table.ok()) continue;  // page no table owns (dropped mid-run)
    size_t idx = tables_.size();
    for (size_t t = 0; t < tables_.size(); t++) {
      if (tables_[t] == table.value()) idx = t;
    }
    if (idx == tables_.size()) continue;  // non-replicated table (meta/map)

    engine::Rid rid{rec.page, rec.slot};
    uint64_t local = rid.Pack();
    LogicalKey key = KeyOfLocal(local);
    ChangeOp op;
    op.origin = key.first;
    op.rid = key.second;
    op.table = static_cast<uint32_t>(idx);
    op.version = version;
    op.vwriter = cfg_.writer;

    switch (rec.type) {
      case engine::LogType::kInsert:
      case engine::LogType::kResize:
        op.kind = ChangeKind::kFull;
        op.bytes = rec.after;
        stats_.full_ops++;
        break;
      case engine::LogType::kUpdate:
        if (!cfg_.full_images && rec.after.size() <= ipa_budget_) {
          // The mutation fit the page's [NxM] IPA budget on the primary, so
          // it ships in delta-record form: an (offset, bytes) patch.
          op.kind = ChangeKind::kDelta;
          op.offset = rec.offset;
          op.bytes = rec.after;
          stats_.delta_ops++;
        } else {
          // Foldback: ship the full image, like the out-of-place page write
          // the engine falls back to when a diff exceeds the budget.
          auto img = db_->ReadTuple(rid);
          if (!img.ok()) continue;  // deleted later in the txn; kDelete governs
          op.kind = ChangeKind::kFull;
          op.bytes = std::move(img.value());
          stats_.full_ops++;
          if (!cfg_.full_images) {
            stats_.foldbacks++;
          }
        }
        break;
      case engine::LogType::kDelete:
        op.kind = ChangeKind::kDelete;
        break;
      default:
        continue;
    }

    // Own bookkeeping (in-memory): per-key versions feed snapshots and the
    // multi-writer LWW merge. Not persisted for local writes — after a crash
    // these keys recover with version 0 (conservative: remote ops win).
    Entry e;
    if (auto it = entries_.find(key); it != entries_.end()) e = it->second;
    bool was_live = e.local_rid != kNoRid;
    switch (op.kind) {
      case ChangeKind::kDelete:
        if (was_live && local_to_key_.count(e.local_rid)) {
          local_to_key_.erase(e.local_rid);
        }
        e.local_rid = kNoRid;
        break;
      default:
        e.local_rid = local;
        break;
    }
    e.version = version;
    e.vwriter = cfg_.writer;
    entries_[key] = e;

    f.ops.push_back(std::move(op));
  }

  last_emitted_ = ev.commit_lsn;
  std::vector<uint8_t> wire = EncodeFrame(f, cfg_.compress_wire);
  stats_.frames_emitted++;
  stats_.bytes_emitted += wire.size();
  outbound_.push_back(std::move(wire));
}

void ReplNode::OnAbort(engine::TxnId /*txn*/, engine::Lsn abort_lsn) {
  if (!cfg_.writable || suppress_capture_) return;
  Frame f;
  f.kind = FrameKind::kAbortMark;
  f.writer = cfg_.writer;
  f.lsn = abort_lsn;
  f.prev_lsn = last_emitted_;
  last_emitted_ = abort_lsn;
  std::vector<uint8_t> wire = EncodeFrame(f, cfg_.compress_wire);
  stats_.frames_emitted++;
  stats_.abort_marks++;
  stats_.bytes_emitted += wire.size();
  outbound_.push_back(std::move(wire));
}

Result<std::vector<std::vector<uint8_t>>> ReplNode::BuildSnapshot() {
  if (db_->active_txns() != 0) {
    return Status::Busy("snapshot requires a quiescent engine");
  }
  uint64_t snap = db_->wal().end_lsn();
  // The snapshot's LWW version. Every op this writer ever emitted carried
  // version_floor_ + commit_lsn with commit_lsn < end_lsn (LSNs are monotone,
  // even across crashes), so snap_version strictly dominates them all — a
  // replica holding any older state accepts every item — while tail frames
  // committed after the snapshot still dominate the items.
  uint64_t snap_version = version_floor_ + snap;
  std::vector<std::vector<uint8_t>> out;

  Frame begin;
  begin.kind = FrameKind::kSnapshotBegin;
  begin.writer = cfg_.writer;
  begin.lsn = snap;
  begin.prev_lsn = snap_version;  // version basis for the applier
  out.push_back(EncodeFrame(begin));

  for (size_t ti = 0; ti < tables_.size(); ti++) {
    IPA_RETURN_NOT_OK(db_->Scan(
        tables_[ti],
        [&](engine::Rid rid, std::span<const uint8_t> bytes) {
          LogicalKey key = KeyOfLocal(rid.Pack());
          const Entry* e = nullptr;
          if (auto it = entries_.find(key); it != entries_.end()) {
            e = &it->second;
          }
          Frame item;
          item.kind = FrameKind::kSnapshotItem;
          item.writer = cfg_.writer;
          item.lsn = snap;
          item.prev_lsn = kUnknownLsn;
          ChangeOp op;
          op.kind = ChangeKind::kFull;
          op.origin = key.first;
          op.rid = key.second;
          op.table = static_cast<uint32_t>(ti);
          if (e != nullptr && e->vwriter != cfg_.writer) {
            // Foreign-origin tuple: preserve the (version, writer) pair the
            // tuple arrived with, so cross-writer LWW stays order-free.
            op.version = e->version;
            op.vwriter = e->vwriter;
          } else {
            // Own tuple: stamp the snapshot version. The in-memory per-key
            // version may have been lost in a crash (it recovers as 0), but
            // snap_version dominates anything this writer emitted before.
            op.version = snap_version;
            op.vwriter = cfg_.writer;
          }
          op.bytes.assign(bytes.begin(), bytes.end());
          item.ops.push_back(std::move(op));
          out.push_back(EncodeFrame(item, cfg_.compress_wire));
          stats_.snapshot_items++;
          return true;
        }));
  }

  Frame end;
  end.kind = FrameKind::kSnapshotEnd;
  end.writer = cfg_.writer;
  end.lsn = snap;
  end.prev_lsn = snap_version;
  end.vv = vv_;
  end.vv.Advance(cfg_.writer, snap);
  out.push_back(EncodeFrame(end));
  stats_.snapshots_built++;
  return out;
}

// ---------------------------------------------------------------------------
// Applier
// ---------------------------------------------------------------------------

bool ReplNode::LwwSkips(const Entry& e, const ChangeOp& op) {
  // Strictly-newer local state wins; equal (version, writer) pairs apply in
  // arrival order (that is how multiple ops of one transaction on the same
  // key stay sequential).
  return e.version > op.version ||
         (e.version == op.version && e.vwriter > op.vwriter);
}

const ReplNode::Entry* ReplNode::Find(const Staged& staged,
                                      const LogicalKey& key) const {
  if (auto it = staged.find(key); it != staged.end()) return &it->second;
  if (auto it = entries_.find(key); it != entries_.end()) return &it->second;
  return nullptr;
}

Status ReplNode::ApplyOp(engine::TxnId txn, const ChangeOp& op,
                         Staged* staged) {
  if (op.table >= tables_.size()) {
    return Status::Corruption("repl op references unknown table index");
  }
  LogicalKey key{op.origin, op.rid};
  const Entry* cur = Find(*staged, key);
  if (cur != nullptr && LwwSkips(*cur, op)) {
    stats_.lww_skips++;
    return Status::OK();
  }

  Entry next = cur != nullptr ? *cur : Entry{};
  switch (op.kind) {
    case ChangeKind::kDelta: {
      if (cur == nullptr || cur->local_rid == kNoRid) {
        stats_.missing_skips++;
        return Status::OK();
      }
      IPA_RETURN_NOT_OK(db_->Update(txn, engine::Rid::Unpack(cur->local_rid),
                                    op.offset, op.bytes));
      break;
    }
    case ChangeKind::kFull: {
      if (cur != nullptr && cur->local_rid != kNoRid) {
        engine::Rid local = engine::Rid::Unpack(cur->local_rid);
        Status s = db_->UpdateResize(txn, local, op.bytes);
        if (s.IsOutOfSpace()) {
          // The grown image no longer fits its page: relocate.
          auto moved = db_->Move(txn, local, op.bytes);
          if (!moved.ok()) return moved.status();
          next.local_rid = moved.value().Pack();
        } else {
          IPA_RETURN_NOT_OK(s);
        }
      } else {
        auto rid = db_->Insert(txn, tables_[op.table], op.bytes);
        if (!rid.ok()) return rid.status();
        next.local_rid = rid.value().Pack();
      }
      break;
    }
    case ChangeKind::kDelete: {
      if (cur != nullptr && cur->local_rid != kNoRid) {
        IPA_RETURN_NOT_OK(
            db_->Delete(txn, engine::Rid::Unpack(cur->local_rid)));
      }
      next.local_rid = kNoRid;
      break;
    }
  }
  next.version = op.version;
  next.vwriter = op.vwriter;
  (*staged)[key] = next;
  IPA_RETURN_NOT_OK(PersistMapRow(txn, key, &(*staged)[key]));
  stats_.ops_applied++;
  return Status::OK();
}

Status ReplNode::PersistMapRow(engine::TxnId txn, const LogicalKey& key,
                               Entry* e) {
  uint8_t row[kMapRowBytes];
  EncodeU32(row, key.first);
  EncodeU32(row + 4, e->vwriter);
  EncodeU64(row + 8, key.second);
  EncodeU64(row + 16, e->local_rid);
  EncodeU64(row + 24, e->version);
  if (e->map_rid == kNoRid) {
    auto rid = db_->Insert(txn, map_table_, row);
    if (!rid.ok()) return rid.status();
    e->map_rid = rid.value().Pack();
    return Status::OK();
  }
  return db_->Update(txn, engine::Rid::Unpack(e->map_rid), 0, row);
}

std::vector<uint8_t> ReplNode::EncodeMetaRow(const VersionVector& vv) const {
  std::vector<uint8_t> row(kMetaRowBytes, 0);
  EncodeU32(row.data(), kMetaMagic);
  EncodeU32(row.data() + 4, cfg_.writer);
  EncodeU32(row.data() + 8,
            static_cast<uint32_t>(std::min<size_t>(vv.applied.size(),
                                                   kMetaVvCap)));
  size_t i = 0;
  for (const auto& [w, lsn] : vv.applied) {
    if (i >= kMetaVvCap) break;
    EncodeU32(row.data() + 16 + i * 16, w);
    EncodeU64(row.data() + 16 + i * 16 + 8, lsn);
    i++;
  }
  return row;
}

Status ReplNode::PersistMeta(engine::TxnId txn, const VersionVector& vv) {
  if (meta_rid_ == kNoRid) {
    return Status::Internal("repl meta row was never bootstrapped");
  }
  if (vv.applied.size() > kMetaVvCap) {
    return Status::OutOfSpace("version vector exceeds the meta row capacity");
  }
  return db_->Update(txn, engine::Rid::Unpack(meta_rid_), 0,
                     EncodeMetaRow(vv));
}

void ReplNode::MergeStaged(Staged&& staged) {
  for (auto& [key, e] : staged) {
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.local_rid != kNoRid &&
        it->second.local_rid != e.local_rid) {
      local_to_key_.erase(it->second.local_rid);
    }
    if (e.local_rid != kNoRid) local_to_key_[e.local_rid] = key;
    entries_[key] = e;
  }
}

Status ReplNode::CommitApply(engine::TxnId txn, Staged&& staged,
                             VersionVector&& vv) {
  Status s = db_->Commit(txn);
  // The commit record is forced before Commit runs any maintenance, so the
  // transaction is durable whatever Commit returns afterwards — adopt the
  // staged state unconditionally. (After an Unavailable the caller runs the
  // crash protocol and RecoverReplState rebuilds the same state durably.)
  MergeStaged(std::move(staged));
  vv_ = std::move(vv);
  if (s.IsOutOfSpace()) return Status::OK();
  return s;
}

Status ReplNode::AbortApply(engine::TxnId txn, const Status& cause) {
  Status s;
  for (int i = 0; i < 4; i++) {
    s = db_->Abort(txn);
    if (!s.IsOutOfSpace()) break;  // CLR-protected: rollback restartable
  }
  if (!s.ok()) return s;  // Unavailable: the crash protocol takes over
  return cause;
}

Result<ReplNode::Apply> ReplNode::ApplyFrame(std::span<const uint8_t> wire) {
  auto decoded = DecodeFrame(wire);
  if (!decoded.ok()) {
    stats_.torn_rejected++;
    return Apply::kRejectedTorn;
  }
  Frame f = std::move(decoded.value());
  if (f.kind != FrameKind::kChangeset && f.kind != FrameKind::kAbortMark) {
    return Status::InvalidArgument(
        "snapshot frames must go through ApplySnapshot");
  }
  if (f.writer == cfg_.writer) return Apply::kEcho;
  uint64_t have = vv_.Of(f.writer);
  if (f.lsn <= have) {
    stats_.duplicates++;
    return Apply::kDuplicate;
  }
  if (f.prev_lsn == kUnknownLsn || f.prev_lsn > have) {
    // Either the shipper restarted (unknown chain) or frames are missing in
    // between: refuse and let the caller run catch-up. prev_lsn < have is
    // fine — it means the predecessor frame is already covered (e.g. by a
    // snapshot whose LSN lands between two frames of the tail).
    stats_.gap_rejected++;
    return Apply::kNeedCatchup;
  }

  SuppressCapture guard(&suppress_capture_);
  engine::TxnId txn = db_->Begin();
  Staged staged;
  Status s = Status::OK();
  for (const ChangeOp& op : f.ops) {
    s = ApplyOp(txn, op, &staged);
    if (!s.ok()) break;
  }
  VersionVector vv = vv_;
  vv.Advance(f.writer, f.lsn);
  if (s.ok()) s = PersistMeta(txn, vv);
  if (!s.ok()) {
    IPA_RETURN_NOT_OK(AbortApply(txn, s));
    return s;  // unreachable: AbortApply returns `cause`; kept for clarity
  }
  IPA_RETURN_NOT_OK(CommitApply(txn, std::move(staged), std::move(vv)));
  stats_.frames_applied++;
  return Apply::kApplied;
}

Status ReplNode::ApplySnapshot(
    const std::vector<std::vector<uint8_t>>& frames) {
  if (cfg_.writable) {
    return Status::InvalidArgument("a writable node does not catch up");
  }
  // Decode everything first: a torn snapshot must change nothing.
  std::vector<Frame> fs;
  fs.reserve(frames.size());
  for (const auto& wire : frames) {
    auto d = DecodeFrame(wire);
    if (!d.ok()) {
      stats_.torn_rejected++;
      return d.status();
    }
    fs.push_back(std::move(d.value()));
  }
  if (fs.size() < 2 || fs.front().kind != FrameKind::kSnapshotBegin ||
      fs.back().kind != FrameKind::kSnapshotEnd) {
    return Status::Corruption("snapshot stream lacks begin/end framing");
  }
  const Frame& begin = fs.front();
  const Frame& end = fs.back();
  if (begin.writer != end.writer || begin.lsn != end.lsn) {
    return Status::Corruption("snapshot begin/end frames disagree");
  }
  if (begin.writer == cfg_.writer) {
    return Status::InvalidArgument("snapshot from self");
  }
  uint64_t snap = begin.lsn;
  // LWW version the shipper stamped on its items (version_floor + snap LSN);
  // carried in begin.prev_lsn. Local entries at or above it were produced by
  // something newer than this snapshot.
  uint64_t snap_version = begin.prev_lsn;
  if (snap <= vv_.Of(begin.writer)) {
    stats_.duplicates++;
    return Status::OK();  // already caught up past this snapshot
  }

  SuppressCapture guard(&suppress_capture_);
  engine::TxnId txn = db_->Begin();
  Staged staged;
  std::set<LogicalKey> seen;
  Status s = Status::OK();
  for (size_t i = 1; i + 1 < fs.size() && s.ok(); i++) {
    if (fs[i].kind != FrameKind::kSnapshotItem || fs[i].ops.size() != 1) {
      s = Status::Corruption("snapshot stream has a non-item frame inside");
      break;
    }
    const ChangeOp& op = fs[i].ops[0];
    seen.insert({op.origin, op.rid});
    s = ApplyOp(txn, op, &staged);
  }

  if (s.ok()) {
    // Delete-unseen: tuples the snapshot no longer contains were deleted on
    // the shipper before `snap`; drop them unless something newer than the
    // snapshot (a tail frame already applied) produced the local state.
    for (const auto& [key, e] : entries_) {
      const Entry* cur = Find(staged, key);
      if (cur->local_rid == kNoRid) continue;
      if (cur->version >= snap_version) continue;
      if (seen.count(key)) continue;
      s = db_->Delete(txn, engine::Rid::Unpack(cur->local_rid));
      if (!s.ok()) break;
      Entry ne = *cur;
      ne.local_rid = kNoRid;
      ne.version = snap_version;
      ne.vwriter = begin.writer;
      staged[key] = ne;
      s = PersistMapRow(txn, key, &staged[key]);
      if (!s.ok()) break;
    }
  }

  VersionVector vv = vv_;
  vv.MergeMax(end.vv);
  vv.Advance(begin.writer, snap);
  if (s.ok()) s = PersistMeta(txn, vv);
  if (!s.ok()) return AbortApply(txn, s);
  IPA_RETURN_NOT_OK(CommitApply(txn, std::move(staged), std::move(vv)));
  stats_.snapshots_applied++;
  return Status::OK();
}

Status ReplNode::Promote(const std::vector<std::vector<uint8_t>>& pending) {
  for (const auto& wire : pending) {
    auto r = ApplyFrame(wire);
    if (!r.ok()) return r.status();
    if (r.value() == Apply::kNeedCatchup) {
      // A gap in the queue: the missing transactions died with the primary
      // (committed-but-unshipped is lost by contract). Everything after the
      // gap is unanchored; drop it.
      break;
    }
  }
  cfg_.writable = true;
  // Version future commits above everything ever seen, so post-failover
  // writes beat stale pre-failover changes in the LWW merge even though this
  // node's WAL starts at lower LSNs than the old primary's.
  for (const auto& [key, e] : entries_) {
    version_floor_ = std::max(version_floor_, e.version);
  }
  stats_.promotions++;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Crash protocol / introspection
// ---------------------------------------------------------------------------

Status ReplNode::RecoverReplState() {
  outbound_.clear();
  last_emitted_ = kUnknownLsn;  // receivers will demand catch-up
  entries_.clear();
  local_to_key_.clear();
  vv_ = VersionVector{};
  meta_rid_ = kNoRid;

  IPA_RETURN_NOT_OK(db_->Scan(
      meta_table_, [&](engine::Rid rid, std::span<const uint8_t> b) {
        if (b.size() == kMetaRowBytes && DecodeU32(b.data()) == kMetaMagic) {
          meta_rid_ = rid.Pack();
          uint32_t count = DecodeU32(b.data() + 8);
          for (uint32_t i = 0; i < count && i < kMetaVvCap; i++) {
            WriterId w = DecodeU32(b.data() + 16 + i * 16);
            uint64_t lsn = DecodeU64(b.data() + 16 + i * 16 + 8);
            vv_.applied[w] = lsn;
          }
        }
        return true;
      }));
  if (meta_rid_ == kNoRid) {
    return Status::Corruption("repl meta row missing after recovery");
  }

  IPA_RETURN_NOT_OK(db_->Scan(
      map_table_, [&](engine::Rid rid, std::span<const uint8_t> b) {
        if (b.size() != kMapRowBytes) return true;
        LogicalKey key{DecodeU32(b.data()), DecodeU64(b.data() + 8)};
        Entry e;
        e.vwriter = DecodeU32(b.data() + 4);
        e.local_rid = DecodeU64(b.data() + 16);
        e.version = DecodeU64(b.data() + 24);
        e.map_rid = rid.Pack();
        if (e.local_rid != kNoRid) local_to_key_[e.local_rid] = key;
        entries_[key] = e;
        return true;
      }));

  // Tuples no map row claims are this node's own writes (identity keys).
  // Their LWW versions died with the process; recover them conservatively.
  for (engine::TableId t : tables_) {
    IPA_RETURN_NOT_OK(db_->Scan(
        t, [&](engine::Rid rid, std::span<const uint8_t>) {
          uint64_t local = rid.Pack();
          if (local_to_key_.count(local)) return true;
          LogicalKey key{cfg_.writer, local};
          if (!entries_.count(key)) {
            entries_[key] = Entry{local, 0, cfg_.writer, kNoRid};
          }
          return true;
        }));
  }
  return Status::OK();
}

Status ReplNode::ScanLogical(LogicalMap* out) const {
  for (engine::TableId t : tables_) {
    IPA_RETURN_NOT_OK(db_->Scan(
        t, [&](engine::Rid rid, std::span<const uint8_t> bytes) {
          (*out)[KeyOfLocal(rid.Pack())] =
              std::vector<uint8_t>(bytes.begin(), bytes.end());
          return true;
        }));
  }
  return Status::OK();
}

}  // namespace ipa::repl
