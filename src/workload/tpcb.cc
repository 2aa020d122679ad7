#include "workload/tpcb.h"

#include "common/bytes.h"
#include "common/metrics.h"

namespace ipa::workload {

namespace {

std::vector<uint8_t> MakeTuple(uint32_t size, uint64_t id, int32_t balance) {
  std::vector<uint8_t> t(size, 0x20);  // filler: spaces, like CHAR padding
  EncodeU64(t.data(), id);
  EncodeU32(t.data() + 8, 0);
  EncodeU32(t.data() + Tpcb::kBalanceOffset, static_cast<uint32_t>(balance));
  return t;
}

}  // namespace

Tpcb::Tpcb(engine::Database* db, TpcbConfig config, TablespaceMap ts_of)
    : db_(db), config_(config), ts_of_(std::move(ts_of)), rng_(config.seed) {}

Tpcb::~Tpcb() {
  if (account_updates_ > 0) {
    metrics::AddCounter("workload.tpcb.account_update", account_updates_);
  }
}

uint64_t Tpcb::EstimatedPages(uint32_t page_size) const {
  uint64_t per_page_accounts = page_size / (kAccountTupleSize + 8);
  uint64_t accounts =
      static_cast<uint64_t>(config_.branches) * config_.accounts_per_branch;
  uint64_t pages = accounts / per_page_accounts + 16;
  pages += pages / 8;  // index pages (16B entries, high fanout) + slack
  return pages;
}

Status Tpcb::Load() {
  IPA_ASSIGN_OR_RETURN(branch_, db_->CreateTable("BRANCH", ts_of_("BRANCH")));
  IPA_ASSIGN_OR_RETURN(teller_, db_->CreateTable("TELLER", ts_of_("TELLER")));
  IPA_ASSIGN_OR_RETURN(account_, db_->CreateTable("ACCOUNT", ts_of_("ACCOUNT")));
  IPA_ASSIGN_OR_RETURN(history_, db_->CreateTable("HISTORY", ts_of_("HISTORY")));
  IPA_ASSIGN_OR_RETURN(
      engine::Btree tree,
      engine::Btree::Create(db_, "ACCOUNT_IDX", ts_of_("ACCOUNT_IDX")));
  account_index_ = std::make_unique<engine::Btree>(std::move(tree));

  for (uint32_t b = 0; b < config_.branches; b++) {
    engine::TxnId txn = db_->Begin();
    IPA_ASSIGN_OR_RETURN(engine::Rid rid,
                         db_->Insert(txn, branch_, MakeTuple(kBranchTupleSize, b, 0)));
    branch_rids_.push_back(rid);
    for (uint32_t t = 0; t < config_.tellers_per_branch; t++) {
      IPA_ASSIGN_OR_RETURN(
          engine::Rid trd,
          db_->Insert(txn, teller_,
                      MakeTuple(kTellerTupleSize,
                                static_cast<uint64_t>(b) * config_.tellers_per_branch + t, 0)));
      teller_rids_.push_back(trd);
    }
    IPA_RETURN_NOT_OK(db_->Commit(txn));

    // Accounts in batches.
    uint64_t base = static_cast<uint64_t>(b) * config_.accounts_per_branch;
    uint32_t batch = 0;
    engine::TxnId load = db_->Begin();
    for (uint32_t a = 0; a < config_.accounts_per_branch; a++) {
      IPA_ASSIGN_OR_RETURN(
          engine::Rid rid,
          db_->Insert(load, account_, MakeTuple(kAccountTupleSize, base + a, 0)));
      IPA_RETURN_NOT_OK(account_index_->Insert(base + a, rid.Pack()));
      if (++batch == 2000) {
        IPA_RETURN_NOT_OK(db_->Commit(load));
        load = db_->Begin();
        batch = 0;
      }
    }
    IPA_RETURN_NOT_OK(db_->Commit(load));
  }
  return Status::OK();
}

Status Tpcb::RebuildIndexes() {
  // A fresh index (the old non-logged index pages are orphaned in the
  // tablespace; a production system would recycle them via Trim).
  IPA_ASSIGN_OR_RETURN(
      engine::Btree tree,
      engine::Btree::Create(db_, "ACCOUNT_IDX_R", ts_of_("ACCOUNT_IDX")));
  account_index_ = std::make_unique<engine::Btree>(std::move(tree));
  Status index_status = Status::OK();
  IPA_RETURN_NOT_OK(db_->Scan(
      account_, [&](engine::Rid rid, std::span<const uint8_t> tuple) {
        uint64_t aid = DecodeU64(tuple.data());
        index_status = account_index_->Insert(aid, rid.Pack());
        return index_status.ok();
      }));
  IPA_RETURN_NOT_OK(index_status);

  branch_rids_.clear();
  IPA_RETURN_NOT_OK(db_->Scan(branch_, [&](engine::Rid rid,
                                           std::span<const uint8_t>) {
    branch_rids_.push_back(rid);
    return true;
  }));
  teller_rids_.clear();
  IPA_RETURN_NOT_OK(db_->Scan(teller_, [&](engine::Rid rid,
                                           std::span<const uint8_t>) {
    teller_rids_.push_back(rid);
    return true;
  }));
  return Status::OK();
}

Result<bool> Tpcb::RunTransaction() {
  account_updates_++;
  // Account_Update: the only TPC-B transaction.
  uint64_t accounts =
      static_cast<uint64_t>(config_.branches) * config_.accounts_per_branch;
  uint64_t aid = rng_.Uniform(accounts);
  uint32_t branch = static_cast<uint32_t>(aid / config_.accounts_per_branch);
  uint32_t teller = branch * config_.tellers_per_branch +
                    static_cast<uint32_t>(rng_.Uniform(config_.tellers_per_branch));
  int32_t delta = static_cast<int32_t>(rng_.UniformRange(-99999, 99999));

  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };

  // Account: balance += delta (4-byte numeric; typically only the least
  // significant bytes actually change on the page).
  auto packed = account_index_->Lookup(aid);
  if (!packed.ok()) return fail(packed.status());
  engine::Rid arid = engine::Rid::Unpack(packed.value());
  auto tuple = db_->Read(txn, arid, /*for_update=*/true);
  if (!tuple.ok()) return fail(tuple.status());
  int32_t bal = static_cast<int32_t>(DecodeU32(tuple.value().data() + kBalanceOffset));
  uint8_t newbal[4];
  EncodeU32(newbal, static_cast<uint32_t>(bal + delta));
  Status s = db_->Update(txn, arid, kBalanceOffset, newbal);
  if (!s.ok()) return fail(s);

  // Teller and branch balances.
  for (engine::Rid rid : {teller_rids_[teller], branch_rids_[branch]}) {
    auto row = db_->Read(txn, rid, /*for_update=*/true);
    if (!row.ok()) return fail(row.status());
    int32_t rb = static_cast<int32_t>(DecodeU32(row.value().data() + kBalanceOffset));
    uint8_t nb[4];
    EncodeU32(nb, static_cast<uint32_t>(rb + delta));
    s = db_->Update(txn, rid, kBalanceOffset, nb);
    if (!s.ok()) return fail(s);
  }

  // History append (~20 bytes of net payload in the spec; 50B row here).
  std::vector<uint8_t> hist(kHistoryTupleSize, 0);
  EncodeU64(hist.data(), aid);
  EncodeU32(hist.data() + 8, teller);
  EncodeU32(hist.data() + 12, branch);
  EncodeU32(hist.data() + 16, static_cast<uint32_t>(delta));
  auto hr = db_->Insert(txn, history_, hist);
  if (!hr.ok()) return fail(hr.status());

  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Status RunTransactions(Workload& w, uint64_t n) {
  for (uint64_t i = 0; i < n; i++) {
    // A false result is a spec-mandated rollback, not an error.
    IPA_RETURN_NOT_OK(w.RunTransaction().status());
  }
  return Status::OK();
}

}  // namespace ipa::workload
