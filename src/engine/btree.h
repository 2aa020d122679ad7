// B+tree index over the buffer pool.
//
// Fixed-size u64 keys map to u64 values (packed Rids). Index nodes are
// ordinary database pages, so they take the same IPA write path as heap
// pages when flushed — the paper notes that indexes dominated by small
// updates are natural IPA candidates.
//
// Index pages are not WAL-logged (their format records reformat them on
// restart); after a crash indexes are rebuilt from a heap scan, a common
// research-engine simplification. Deletion is lazy (no rebalancing).

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "engine/database.h"

namespace ipa::engine {

class Btree {
 public:
  /// Create a new (empty) index whose pages live in tablespace `ts`.
  /// A catalog table entry named `name` tracks its pages.
  static Result<Btree> Create(Database* db, const std::string& name,
                              TablespaceId ts);

  /// Insert or overwrite.
  Status Insert(uint64_t key, uint64_t value);

  Result<uint64_t> Lookup(uint64_t key);

  /// Remove a key; NotFound if absent.
  Status Remove(uint64_t key);

  /// In-order scan over keys in [lo, hi]; `fn` returns false to stop.
  Status Scan(uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t, uint64_t)>& fn);

  TableId table() const { return table_; }
  uint64_t height() const { return height_; }

 private:
  Btree(Database* db, TableId table) : db_(db), table_(table) {}

  struct SplitResult {
    bool split = false;
    uint64_t sep_key = 0;
    PageId right;
  };

  Result<PageId> NewNode(bool leaf);
  /// `pages_above` is what the ancestors take if `node` splits: a right
  /// sibling for each full ancestor up to the first one with room, plus a
  /// new root when they are all full. The leaf checks that the tablespace
  /// has the pages its split cascade needs before it changes anything.
  Status InsertRec(PageId node, uint64_t key, uint64_t value, uint64_t pages_above,
                   SplitResult* out);

  Database* db_;
  TableId table_;
  PageId root_;
  uint64_t height_ = 1;
};

}  // namespace ipa::engine
