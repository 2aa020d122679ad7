// Record-granularity two-phase locking.
//
// The engine executes transactions on one thread (the simulation is
// single-threaded and deterministic), but transactions may interleave
// logically; the lock manager enforces S/X conflicts between open
// transactions and returns Busy on conflict (no blocking — the caller
// aborts or retries, a timeout-free deadlock policy).
//
// The lock table allocates nothing once warm: a released lock entry and a
// finished transaction's key list go to free lists as node handles, and the
// next Acquire reuses them with the capacity of their sharer and key
// vectors.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/types.h"

namespace ipa::engine {

enum class LockMode : uint8_t { kShared, kExclusive };

class LockManager {
 public:
  /// Acquire (or upgrade) a lock on `key` for `txn`. Re-entrant. Returns
  /// Busy when another transaction holds a conflicting mode.
  Status Acquire(TxnId txn, uint64_t key, LockMode mode);

  /// Release every lock held by `txn` (commit/abort).
  void ReleaseAll(TxnId txn);

  size_t held_count(TxnId txn) const;

  /// Total Acquire() calls that reached the lock table — the sharded
  /// engine's "no lock-manager traffic on single-partition transactions"
  /// claim is asserted against this (docs/SHARDING.md).
  uint64_t acquires() const { return acquires_; }

 private:
  struct Entry {
    /// Room for two sharers from the start, so a recycled entry seldom
    /// grows whatever key it was last used for.
    Entry() { sharers.reserve(2); }
    std::vector<TxnId> sharers;  ///< Few at a time, so a vector beats a set.
    TxnId xholder = kInvalidTxn;
  };
  using LockTable = std::unordered_map<uint64_t, Entry>;
  using HeldTable = std::unordered_map<TxnId, std::vector<uint64_t>>;

  LockTable locks_;
  HeldTable held_;
  /// Released nodes, each emptied, waiting for reuse.
  std::vector<LockTable::node_type> free_locks_;
  std::vector<HeldTable::node_type> free_held_;
  uint64_t acquires_ = 0;
};

}  // namespace ipa::engine
