// TPC-B: the Account_Update transaction (Appendix A.0.1).
//
// Schema: BRANCH (1 per scale unit), TELLER (10 per branch), ACCOUNT
// (accounts_per_branch per branch; 100 000 in the spec, scaled down here),
// HISTORY (append-only). The single transaction adds a random delta to one
// account, its teller and its branch balance, and appends a history row —
// three 4-byte-net page updates plus one ~20-byte append, exactly the
// profile behind Figure 7.

#pragma once

#include <vector>

#include "engine/btree.h"
#include "workload/workload.h"

namespace ipa::workload {

struct TpcbConfig {
  uint32_t branches = 1;
  uint32_t tellers_per_branch = 10;
  uint32_t accounts_per_branch = 100000;
  uint64_t seed = 7;
};

class Tpcb : public Workload {
 public:
  /// `index_ts` may differ from the data tablespace (e.g. to give index
  /// pages their own region); pass the same id to co-locate.
  Tpcb(engine::Database* db, TpcbConfig config, TablespaceMap ts_of);
  /// Publishes workload.tpcb.account_update if any transaction ran.
  ~Tpcb() override;

  Status Load() override;
  Result<bool> RunTransaction() override;
  std::string name() const override { return "TPC-B"; }
  uint64_t EstimatedPages(uint32_t page_size) const override;

  /// After crash recovery: rebuild the account B+tree and the branch/teller
  /// rid caches from heap scans (the heap is the recovered source of truth).
  Status RebuildIndexes() override;

  engine::TableId account_table() const { return account_; }

  /// Tuple layouts (offsets used by the transaction's byte-level updates).
  static constexpr uint32_t kBalanceOffset = 12;  // i32, little-endian
  static constexpr uint32_t kAccountTupleSize = 100;
  static constexpr uint32_t kBranchTupleSize = 100;
  static constexpr uint32_t kTellerTupleSize = 100;
  static constexpr uint32_t kHistoryTupleSize = 50;

 private:
  engine::Database* db_;
  TpcbConfig config_;
  TablespaceMap ts_of_;
  Rng rng_;

  engine::TableId branch_ = 0, teller_ = 0, account_ = 0, history_ = 0;
  std::vector<engine::Rid> branch_rids_;
  std::vector<engine::Rid> teller_rids_;
  std::unique_ptr<engine::Btree> account_index_;
  uint64_t account_updates_ = 0;
};

}  // namespace ipa::workload
