#include "engine/lock_manager.h"

#include <algorithm>

namespace ipa::engine {

namespace {

/// Insert `key` into `map`, reusing an emptied node from `free` if any.
template <typename Map>
typename Map::iterator InsertRecycled(Map& map, std::vector<typename Map::node_type>& free,
                                      const typename Map::key_type& key) {
  if (free.empty()) return map.try_emplace(key).first;
  typename Map::node_type node = std::move(free.back());
  free.pop_back();
  node.key() = key;
  return map.insert(std::move(node)).position;
}

}  // namespace

Status LockManager::Acquire(TxnId txn, uint64_t key, LockMode mode) {
  acquires_++;
  auto it = locks_.find(key);
  if (it == locks_.end()) it = InsertRecycled(locks_, free_locks_, key);
  Entry& e = it->second;
  bool newly_held = false;
  if (mode == LockMode::kShared) {
    if (e.xholder != kInvalidTxn && e.xholder != txn) {
      return Status::Busy("X-locked by another transaction");
    }
    if (e.xholder == txn) return Status::OK();  // X covers S
    if (std::find(e.sharers.begin(), e.sharers.end(), txn) == e.sharers.end()) {
      e.sharers.push_back(txn);
      newly_held = true;
    }
  } else {
    if (e.xholder == txn) return Status::OK();
    if (e.xholder != kInvalidTxn) {
      return Status::Busy("X-locked by another transaction");
    }
    if (!e.sharers.empty() && !(e.sharers.size() == 1 && e.sharers[0] == txn)) {
      return Status::Busy("S-locked by other transactions");
    }
    newly_held = e.sharers.empty();  // else an upgrade of a held S lock
    e.sharers.clear();
    e.xholder = txn;
  }
  if (newly_held) {
    auto held = held_.find(txn);
    if (held == held_.end()) held = InsertRecycled(held_, free_held_, txn);
    held->second.push_back(key);
  }
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  for (uint64_t key : it->second) {
    auto le = locks_.find(key);
    if (le == locks_.end()) continue;
    Entry& e = le->second;
    if (e.xholder == txn) e.xholder = kInvalidTxn;
    std::erase(e.sharers, txn);
    if (e.xholder == kInvalidTxn && e.sharers.empty()) {
      free_locks_.push_back(locks_.extract(le));
    }
  }
  it->second.clear();
  free_held_.push_back(held_.extract(it));
}

size_t LockManager::held_count(TxnId txn) const {
  auto it = held_.find(txn);
  return it == held_.end() ? 0 : it->second.size();
}

}  // namespace ipa::engine
