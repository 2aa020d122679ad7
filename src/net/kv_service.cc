#include "net/kv_service.h"

#include <string>

#include "common/bytes.h"

namespace ipa::net {

namespace {

/// Tuple layout: [key u64][value bytes].
constexpr size_t kTupleHeader = 8;

std::vector<uint8_t> MakeTuple(uint64_t key, std::span<const uint8_t> value) {
  std::vector<uint8_t> t;
  t.reserve(kTupleHeader + value.size());
  PutU64(&t, key);
  t.insert(t.end(), value.begin(), value.end());
  return t;
}

}  // namespace

Result<std::unique_ptr<KvService>> KvService::Create(
    std::vector<PartitionConfig> parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("KvService needs at least one partition");
  }
  std::vector<Part> built;
  for (const PartitionConfig& pc : parts) {
    Part p;
    p.db = pc.db;
    p.ts = pc.ts;
    IPA_ASSIGN_OR_RETURN(p.table, pc.db->CreateTable("KV", pc.ts));
    IPA_ASSIGN_OR_RETURN(engine::Btree idx,
                         engine::Btree::Create(pc.db, "KV_IDX", pc.ts));
    p.index = std::make_unique<engine::Btree>(std::move(idx));
    built.push_back(std::move(p));
  }
  return std::unique_ptr<KvService>(new KvService(std::move(built)));
}

uint32_t KvService::PartitionOfKey(uint64_t key) const {
  // Same SplitMix64 finalizer as ShardedDatabase::PartitionOfKey, so the
  // router and the engine agree on key homes.
  uint64_t h = key;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return static_cast<uint32_t>(h % parts_.size());
}

RStatus KvService::WireStatus(const Status& s) {
  if (s.ok()) return RStatus::kOk;
  if (s.IsNotFound()) return RStatus::kNotFound;
  if (s.IsBusy() || s.IsAborted()) return RStatus::kRetry;
  if (s.IsUnavailable()) return RStatus::kUnavailable;
  return RStatus::kError;
}

engine::TxnId KvService::BeginAuto(Part& part) {
  // The no-lock fast path is safe only while the partition is truly
  // shared-nothing; an open interactive transaction interleaves with
  // autocommit ops across requests, so both sides must take locks then.
  return part.db->Begin(/*use_locks=*/part.open_txns > 0);
}

KvService::TxnState* KvService::StateOfTxn(uint64_t handle,
                                           uint32_t expected_part) {
  if (PartitionOfHandle(handle) != expected_part) return nullptr;
  std::lock_guard<std::mutex> l(txn_mu_);
  auto it = open_txns_.find(handle);
  return it == open_txns_.end() ? nullptr : it->second.get();
}

std::unique_ptr<KvService::TxnState> KvService::TakeTxn(uint64_t handle) {
  std::lock_guard<std::mutex> l(txn_mu_);
  auto it = open_txns_.find(handle);
  if (it == open_txns_.end()) return nullptr;
  std::unique_ptr<TxnState> ts = std::move(it->second);
  open_txns_.erase(it);
  return ts;
}

void KvService::RestoreIndex(Part& part, const TxnState& ts) {
  // Best effort even when the engine abort itself failed (device power cut):
  // the post-crash RebuildIndexes pass supersedes anything left here.
  for (const auto& [key, u] : ts.undo) {
    if (u.present) {
      (void)part.index->Insert(key, u.packed);
    } else {
      (void)part.index->Remove(key);
    }
  }
}

RStatus KvService::Get(uint32_t p, uint64_t txn, uint64_t key,
                       std::vector<uint8_t>* value) {
  Part& part = parts_[p];
  engine::TxnId t;
  bool autocommit = txn == kAutoCommit;
  if (autocommit) {
    t = BeginAuto(part);
  } else {
    TxnState* ts = StateOfTxn(txn, p);
    if (ts == nullptr || PartitionOfKey(key) != p) {
      // Unknown/foreign handle, or a key homed on another partition: honoring
      // it would file the tuple under the wrong partition's index.
      return RStatus::kBadRequest;
    }
    // The txn deleted this key; the index entry still points at the dead
    // slot until commit (header comment), so hide it here.
    if (ts->tombstones.count(key) > 0) return RStatus::kNotFound;
    t = ts->txn;
  }

  auto finish = [&](const Status& s) {
    if (autocommit) {
      if (s.ok()) {
        Status c = part.db->Commit(t);
        return WireStatus(c);
      }
      (void)part.db->Abort(t);
    }
    return WireStatus(s);
  };

  auto packed = part.index->Lookup(key);
  if (!packed.ok()) return finish(packed.status());
  auto row = part.db->Read(t, engine::Rid::Unpack(packed.value()));
  if (!row.ok()) return finish(row.status());
  if (row.value().size() < kTupleHeader ||
      DecodeU64(row.value().data()) != key) {
    // Truncated tuple or an index entry resolving to some other key's slot:
    // never slice past the end, and never serve another key's bytes.
    return finish(Status::Corruption("KV tuple does not match its index entry"));
  }
  value->assign(row.value().begin() + kTupleHeader, row.value().end());
  return finish(Status::OK());
}

RStatus KvService::Put(uint32_t p, uint64_t txn, uint64_t key,
                       std::span<const uint8_t> value) {
  Part& part = parts_[p];
  engine::TxnId t;
  TxnState* ts = nullptr;
  bool autocommit = txn == kAutoCommit;
  if (autocommit) {
    t = BeginAuto(part);
  } else {
    ts = StateOfTxn(txn, p);
    if (ts == nullptr || PartitionOfKey(key) != p) {
      // Unknown/foreign handle, or a key homed on another partition: honoring
      // it would file the tuple under the wrong partition's index.
      return RStatus::kBadRequest;
    }
    t = ts->txn;
  }

  // Index changes made before a failure are rolled back by hand — the
  // B+-tree is not WAL-logged, so engine undo never sees them. For
  // interactive transactions, `capture` additionally snapshots the key's
  // committed index state at the txn's first mutation of it, so Abort can
  // roll back index changes from earlier, already-successful requests too.
  bool index_inserted = false;
  uint64_t index_old = 0;
  bool index_had_old = false;
  auto finish = [&](const Status& s) {
    if (s.ok() && autocommit) return WireStatus(part.db->Commit(t));
    if (!s.ok()) {
      if (index_inserted) {
        if (index_had_old) {
          (void)part.index->Insert(key, index_old);
        } else {
          (void)part.index->Remove(key);
        }
      }
      if (autocommit) (void)part.db->Abort(t);
    }
    return WireStatus(s);
  };
  auto capture = [&](bool present, uint64_t packed) {
    if (ts != nullptr) {
      ts->undo.emplace(key, TxnState::KeyUndo{present, packed});
    }
  };

  auto packed = part.index->Lookup(key);
  bool own_deleted = ts != nullptr && ts->tombstones.count(key) > 0;
  if (packed.ok() && !own_deleted) {
    engine::Rid rid = engine::Rid::Unpack(packed.value());
    auto row = part.db->Read(t, rid, /*for_update=*/true);
    if (!row.ok()) return finish(row.status());
    if (row.value().size() == kTupleHeader + value.size()) {
      // Same-size overwrite: the fixed-length in-place update — the
      // IPA-friendly small write the whole stack is built around.
      return finish(part.db->Update(t, rid, kTupleHeader, value));
    }
    std::vector<uint8_t> tuple = MakeTuple(key, value);
    Status s = part.db->UpdateResize(t, rid, tuple);
    if (s.IsOutOfSpace()) {
      auto moved = part.db->Move(t, rid, tuple);
      if (!moved.ok()) return finish(moved.status());
      capture(true, packed.value());
      index_old = packed.value();
      index_had_old = true;
      index_inserted = true;
      return finish(part.index->Insert(key, moved.value().Pack()));
    }
    return finish(s);
  }
  if (!packed.ok() && !packed.status().IsNotFound()) {
    return finish(packed.status());
  }

  // New key — or a re-insert over this transaction's own delete, in which
  // case the index entry still points at the dead slot and is re-pointed.
  auto rid = part.db->Insert(t, part.table, MakeTuple(key, value));
  if (!rid.ok()) return finish(rid.status());
  if (own_deleted && packed.ok()) {
    // First-touch undo state was captured by the delete; the per-request
    // rollback only needs to re-point the entry back at the dead slot.
    index_old = packed.value();
    index_had_old = true;
  } else {
    capture(false, 0);
    index_had_old = false;
  }
  index_inserted = true;
  Status is = part.index->Insert(key, rid.value().Pack());
  if (is.ok() && ts != nullptr) ts->tombstones.erase(key);
  return finish(is);
}

RStatus KvService::Delete(uint32_t p, uint64_t txn, uint64_t key) {
  Part& part = parts_[p];
  engine::TxnId t;
  TxnState* ts = nullptr;
  bool autocommit = txn == kAutoCommit;
  if (autocommit) {
    t = BeginAuto(part);
  } else {
    ts = StateOfTxn(txn, p);
    if (ts == nullptr || PartitionOfKey(key) != p) {
      // Unknown/foreign handle, or a key homed on another partition: honoring
      // it would file the tuple under the wrong partition's index.
      return RStatus::kBadRequest;
    }
    if (ts->tombstones.count(key) > 0) return RStatus::kNotFound;
    t = ts->txn;
  }

  bool index_removed = false;
  uint64_t index_old = 0;
  auto finish = [&](const Status& s) {
    if (s.ok() && autocommit) return WireStatus(part.db->Commit(t));
    if (!s.ok()) {
      if (index_removed) (void)part.index->Insert(key, index_old);
      if (autocommit) (void)part.db->Abort(t);
    }
    return WireStatus(s);
  };

  auto packed = part.index->Lookup(key);
  if (!packed.ok()) return finish(packed.status());
  Status s = part.db->Delete(t, engine::Rid::Unpack(packed.value()));
  if (!s.ok()) return finish(s);
  if (ts != nullptr) {
    // Interactive: keep the entry pointing at the exclusively locked dead
    // slot so concurrent writers of the key conflict instead of inserting a
    // duplicate; Commit removes it, Abort restores the first-touch state.
    ts->undo.emplace(key, TxnState::KeyUndo{true, packed.value()});
    ts->tombstones.insert(key);
    return finish(Status::OK());
  }
  index_old = packed.value();
  index_removed = true;
  return finish(part.index->Remove(key));
}

Result<uint64_t> KvService::Begin(uint64_t key_hint, uint64_t owner) {
  uint32_t p = PartitionOfKey(key_hint);
  Part& part = parts_[p];
  auto ts = std::make_unique<TxnState>();
  ts->txn = part.db->Begin(/*use_locks=*/true);
  ts->owner = owner;
  part.open_txns++;
  std::lock_guard<std::mutex> l(txn_mu_);
  uint64_t handle = (static_cast<uint64_t>(p) << 48) |
                    (next_handle_++ & 0xFFFFFFFFFFFFull);
  open_txns_[handle] = std::move(ts);
  return handle;
}

RStatus KvService::Commit(uint64_t handle) {
  std::unique_ptr<TxnState> ts = TakeTxn(handle);
  if (ts == nullptr) return RStatus::kBadRequest;
  Part& part = parts_[PartitionOfHandle(handle)];
  // Split commit: the deferred index removals for deleted keys apply only
  // once the commit record is in. CommitRecord fails only for a transaction
  // the engine no longer knows (crash recovery owns that state), in which
  // case the index is left alone for RebuildIndexes.
  Status s = part.db->CommitRecord(ts->txn);
  if (s.ok()) {
    for (uint64_t key : ts->tombstones) (void)part.index->Remove(key);
    s = part.db->RunCommitMaintenance();
  }
  part.open_txns--;
  return WireStatus(s);
}

RStatus KvService::Abort(uint64_t handle) {
  std::unique_ptr<TxnState> ts = TakeTxn(handle);
  if (ts == nullptr) return RStatus::kBadRequest;
  Part& part = parts_[PartitionOfHandle(handle)];
  Status s = part.db->Abort(ts->txn);
  RestoreIndex(part, *ts);
  part.open_txns--;
  return WireStatus(s);
}

void KvService::AbortAll() {
  std::unordered_map<uint64_t, std::unique_ptr<TxnState>> taken;
  {
    std::lock_guard<std::mutex> l(txn_mu_);
    taken.swap(open_txns_);
  }
  for (const auto& [handle, ts] : taken) {
    Part& part = parts_[PartitionOfHandle(handle)];
    (void)part.db->Abort(ts->txn);
    RestoreIndex(part, *ts);
    part.open_txns--;
  }
}

std::vector<uint64_t> KvService::HandlesOwnedBy(uint64_t owner) const {
  std::vector<uint64_t> out;
  if (owner == 0) return out;  // 0 marks unowned handles, never a connection
  std::lock_guard<std::mutex> l(txn_mu_);
  for (const auto& [handle, ts] : open_txns_) {
    if (ts->owner == owner) out.push_back(handle);
  }
  return out;
}

Status KvService::RebuildIndexes() {
  // Crash recovery killed every open transaction with the engine state.
  {
    std::lock_guard<std::mutex> l(txn_mu_);
    open_txns_.clear();
  }
  for (Part& part : parts_) {
    part.open_txns = 0;
    std::string name = "KV_IDX_R" + std::to_string(++part.index_rebuilds);
    IPA_ASSIGN_OR_RETURN(engine::Btree idx,
                         engine::Btree::Create(part.db, name, part.ts));
    part.index = std::make_unique<engine::Btree>(std::move(idx));
    Status st = Status::OK();
    IPA_RETURN_NOT_OK(part.db->Scan(
        part.table, [&](engine::Rid rid, std::span<const uint8_t> tuple) {
          if (tuple.size() < kTupleHeader) {
            st = Status::Corruption("KV tuple shorter than its key");
            return false;
          }
          st = part.index->Insert(DecodeU64(tuple.data()), rid.Pack());
          return st.ok();
        }));
    IPA_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Result<uint64_t> KvService::KeyCount(uint32_t p) {
  uint64_t n = 0;
  IPA_RETURN_NOT_OK(parts_[p].index->Scan(
      0, ~0ull, [&](uint64_t, uint64_t) {
        n++;
        return true;
      }));
  return n;
}

}  // namespace ipa::net
