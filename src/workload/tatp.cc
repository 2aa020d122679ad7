#include "workload/tatp.h"

#include "common/bytes.h"

namespace ipa::workload {

namespace {
constexpr StatField<TatpMix> kMixFields[] = {
    {&TatpMix::get_subscriber, "workload.tatp.get_subscriber_data"},
    {&TatpMix::get_new_dest, "workload.tatp.get_new_destination"},
    {&TatpMix::get_access, "workload.tatp.get_access_data"},
    {&TatpMix::upd_subscriber, "workload.tatp.update_subscriber_data"},
    {&TatpMix::upd_location, "workload.tatp.update_location"},
    {&TatpMix::ins_call_fwd, "workload.tatp.insert_call_forwarding"},
    {&TatpMix::del_call_fwd, "workload.tatp.delete_call_forwarding"},
};
}  // namespace

Tatp::Tatp(engine::Database* db, TatpConfig config, TablespaceMap ts_of)
    : db_(db), config_(config), ts_of_(std::move(ts_of)), rng_(config.seed) {}

Tatp::~Tatp() { PublishMix(mix_, kMixFields); }

uint64_t Tatp::EstimatedPages(uint32_t page_size) const {
  uint64_t sub_pages =
      config_.subscribers / (page_size / (kSubscriberSize + 8)) + 2;
  // Child rows per subscriber: ~2.5 ACCESS_INFO + ~2.5 SPECIAL_FACILITY +
  // ~3.75 CALL_FORWARDING (1.5 per facility on average).
  uint64_t aux_rows = static_cast<uint64_t>(config_.subscribers) * 9;
  uint64_t aux_pages = aux_rows / (page_size / (kAccessInfoSize + 8)) + 2;
  // Four B+tree indexes: one 16B entry per row plus node slack.
  uint64_t index_entries = static_cast<uint64_t>(config_.subscribers) * 10;
  uint64_t index_pages = index_entries * 20 / page_size + 4;
  uint64_t pages = sub_pages + aux_pages + index_pages;
  pages += pages / 8;  // slack
  return pages;
}

uint32_t Tatp::RandomSubscriber() {
  // TATP non-uniform subscriber selection: (A | rand) style, like NURand.
  uint64_t a = 65535;
  while (a >= config_.subscribers) a /= 2;
  uint64_t r1 = rng_.Uniform(a + 1);
  uint64_t r2 = rng_.Uniform(config_.subscribers);
  return static_cast<uint32_t>((r1 | r2) % config_.subscribers);
}

Status Tatp::Load() {
  IPA_ASSIGN_OR_RETURN(subscriber_,
                       db_->CreateTable("SUBSCRIBER", ts_of_("SUBSCRIBER")));
  IPA_ASSIGN_OR_RETURN(access_info_,
                       db_->CreateTable("ACCESS_INFO", ts_of_("ACCESS_INFO")));
  IPA_ASSIGN_OR_RETURN(
      special_facility_,
      db_->CreateTable("SPECIAL_FACILITY", ts_of_("SPECIAL_FACILITY")));
  IPA_ASSIGN_OR_RETURN(
      call_forwarding_,
      db_->CreateTable("CALL_FORWARDING", ts_of_("CALL_FORWARDING")));
  IPA_ASSIGN_OR_RETURN(
      engine::Btree idx,
      engine::Btree::Create(db_, "SUBSCRIBER_IDX", ts_of_("SUBSCRIBER_IDX")));
  subscriber_index_ = std::make_unique<engine::Btree>(std::move(idx));
  IPA_ASSIGN_OR_RETURN(engine::Btree ai, engine::Btree::Create(
                                             db_, "AI_IDX", ts_of_("AI_IDX")));
  ai_index_ = std::make_unique<engine::Btree>(std::move(ai));
  IPA_ASSIGN_OR_RETURN(engine::Btree sf, engine::Btree::Create(
                                             db_, "SF_IDX", ts_of_("SF_IDX")));
  sf_index_ = std::make_unique<engine::Btree>(std::move(sf));
  IPA_ASSIGN_OR_RETURN(engine::Btree cf, engine::Btree::Create(
                                             db_, "CF_IDX", ts_of_("CF_IDX")));
  cf_index_ = std::make_unique<engine::Btree>(std::move(cf));

  engine::TxnId txn = db_->Begin();
  uint32_t batch = 0;
  for (uint32_t s = 0; s < config_.subscribers; s++) {
    std::vector<uint8_t> t(kSubscriberSize, 0x30);
    EncodeU64(t.data(), s);
    EncodeU32(t.data() + kVlrLocationOff, static_cast<uint32_t>(rng_.Next()));
    IPA_ASSIGN_OR_RETURN(engine::Rid rid, db_->Insert(txn, subscriber_, t));
    IPA_RETURN_NOT_OK(subscriber_index_->Insert(s, rid.Pack()));

    uint32_t n_ai = 1 + static_cast<uint32_t>(rng_.Uniform(4));
    for (uint32_t i = 0; i < n_ai; i++) {
      std::vector<uint8_t> ai(kAccessInfoSize, 0x41);
      EncodeU64(ai.data(), s);
      ai[8] = static_cast<uint8_t>(i);
      IPA_ASSIGN_OR_RETURN(engine::Rid arid, db_->Insert(txn, access_info_, ai));
      IPA_RETURN_NOT_OK(
          ai_index_->Insert(static_cast<uint64_t>(s) * 4 + i, arid.Pack()));
    }
    uint32_t n_sf = 1 + static_cast<uint32_t>(rng_.Uniform(4));
    for (uint32_t i = 0; i < n_sf; i++) {
      std::vector<uint8_t> sf(kSpecialFacilitySize, 0x42);
      EncodeU64(sf.data(), s);
      sf[8] = static_cast<uint8_t>(i);
      sf[9] = rng_.Chance(0.85) ? 1 : 0;  // is_active
      IPA_ASSIGN_OR_RETURN(engine::Rid srid,
                           db_->Insert(txn, special_facility_, sf));
      IPA_RETURN_NOT_OK(
          sf_index_->Insert(static_cast<uint64_t>(s) * 4 + i, srid.Pack()));
      // 0-3 call forwarding rows.
      uint32_t n_cf = static_cast<uint32_t>(rng_.Uniform(4));
      for (uint32_t cf = 0; cf < n_cf; cf++) {
        std::vector<uint8_t> cft(kCallForwardingSize, 0x43);
        EncodeU64(cft.data(), s);
        cft[8] = static_cast<uint8_t>(i);
        cft[9] = static_cast<uint8_t>(cf * 8);  // start_time
        IPA_ASSIGN_OR_RETURN(engine::Rid crid,
                             db_->Insert(txn, call_forwarding_, cft));
        IPA_RETURN_NOT_OK(cf_index_->Insert(
            (static_cast<uint64_t>(s) * 4 + i) * 8 + cf, crid.Pack()));
      }
    }
    if (++batch == 1000) {
      IPA_RETURN_NOT_OK(db_->Commit(txn));
      txn = db_->Begin();
      batch = 0;
    }
  }
  return db_->Commit(txn);
}

Status Tatp::RebuildIndexes() {
  auto fresh = [&](const char* name,
                   std::unique_ptr<engine::Btree>* out) -> Status {
    IPA_ASSIGN_OR_RETURN(engine::Btree t,
                         engine::Btree::Create(db_, name, ts_of_(name)));
    *out = std::make_unique<engine::Btree>(std::move(t));
    return Status::OK();
  };
  IPA_RETURN_NOT_OK(fresh("SUBSCRIBER_IDX_R", &subscriber_index_));
  IPA_RETURN_NOT_OK(fresh("AI_IDX_R", &ai_index_));
  IPA_RETURN_NOT_OK(fresh("SF_IDX_R", &sf_index_));
  IPA_RETURN_NOT_OK(fresh("CF_IDX_R", &cf_index_));

  Status st = Status::OK();
  auto scan = [&](engine::TableId table, auto fn) -> Status {
    IPA_RETURN_NOT_OK(db_->Scan(
        table, [&](engine::Rid rid, std::span<const uint8_t> t) {
          st = fn(rid, t);
          return st.ok();
        }));
    return st;
  };
  IPA_RETURN_NOT_OK(scan(subscriber_, [&](engine::Rid rid,
                                          std::span<const uint8_t> t) {
    return subscriber_index_->Insert(DecodeU64(t.data()), rid.Pack());
  }));
  IPA_RETURN_NOT_OK(scan(access_info_, [&](engine::Rid rid,
                                           std::span<const uint8_t> t) {
    return ai_index_->Insert(DecodeU64(t.data()) * 4 + t[8], rid.Pack());
  }));
  IPA_RETURN_NOT_OK(scan(special_facility_, [&](engine::Rid rid,
                                                std::span<const uint8_t> t) {
    return sf_index_->Insert(DecodeU64(t.data()) * 4 + t[8], rid.Pack());
  }));
  IPA_RETURN_NOT_OK(scan(call_forwarding_, [&](engine::Rid rid,
                                               std::span<const uint8_t> t) {
    uint64_t key = (DecodeU64(t.data()) * 4 + t[8]) * 8 + t[9] / 8;
    return cf_index_->Insert(key, rid.Pack());
  }));
  return Status::OK();
}

Result<bool> Tatp::GetSubscriberData() {
  uint32_t s = RandomSubscriber();
  engine::TxnId txn = db_->Begin();
  auto packed = subscriber_index_->Lookup(s);
  if (!packed.ok()) {
    (void)db_->Abort(txn);
    return packed.status();
  }
  auto row = db_->Read(txn, engine::Rid::Unpack(packed.value()));
  if (!row.ok()) {
    (void)db_->Abort(txn);
    return row.status();
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Tatp::GetNewDestination() {
  uint32_t s = RandomSubscriber();
  uint32_t sf = static_cast<uint32_t>(rng_.Uniform(4));
  engine::TxnId txn = db_->Begin();
  auto srid = sf_index_->Lookup(static_cast<uint64_t>(s) * 4 + sf);
  if (srid.ok()) {
    auto row = db_->Read(txn, engine::Rid::Unpack(srid.value()));
    if (row.ok()) {
      for (uint32_t slot = 0; slot < 3; slot++) {
        auto crid =
            cf_index_->Lookup((static_cast<uint64_t>(s) * 4 + sf) * 8 + slot);
        if (crid.ok()) (void)db_->Read(txn, engine::Rid::Unpack(crid.value()));
      }
    }
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Tatp::GetAccessData() {
  uint32_t s = RandomSubscriber();
  engine::TxnId txn = db_->Begin();
  uint32_t ai = static_cast<uint32_t>(rng_.Uniform(4));
  auto arid = ai_index_->Lookup(static_cast<uint64_t>(s) * 4 + ai);
  if (arid.ok()) {
    (void)db_->Read(txn, engine::Rid::Unpack(arid.value()));
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Tatp::UpdateSubscriberData() {
  uint32_t s = RandomSubscriber();
  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status st) -> Result<bool> {
    (void)db_->Abort(txn);
    return st;
  };
  auto packed = subscriber_index_->Lookup(s);
  if (!packed.ok()) return fail(packed.status());
  uint8_t bit = rng_.Chance(0.5) ? 1 : 0;
  Status st =
      db_->Update(txn, engine::Rid::Unpack(packed.value()), kBit1Off, {&bit, 1});
  if (!st.ok()) return fail(st);
  auto srid = sf_index_->Lookup(static_cast<uint64_t>(s) * 4 + 0);
  if (srid.ok()) {
    uint8_t data_a = static_cast<uint8_t>(rng_.Uniform(256));
    st = db_->Update(txn, engine::Rid::Unpack(srid.value()), kSfDataAOff,
                     {&data_a, 1});
    if (!st.ok()) return fail(st);
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Tatp::UpdateLocation() {
  uint32_t s = RandomSubscriber();
  engine::TxnId txn = db_->Begin();
  auto packed = subscriber_index_->Lookup(s);
  if (!packed.ok()) {
    (void)db_->Abort(txn);
    return packed.status();
  }
  uint8_t loc[4];
  EncodeU32(loc, static_cast<uint32_t>(rng_.Next()));
  Status st = db_->Update(txn, engine::Rid::Unpack(packed.value()),
                          kVlrLocationOff, loc);
  if (!st.ok()) {
    (void)db_->Abort(txn);
    return st;
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Tatp::InsertCallForwarding() {
  uint32_t s = RandomSubscriber();
  uint32_t sf = static_cast<uint32_t>(rng_.Uniform(4));
  engine::TxnId txn = db_->Begin();
  if (!sf_index_->Lookup(static_cast<uint64_t>(s) * 4 + sf).ok()) {
    IPA_RETURN_NOT_OK(db_->Commit(txn));
    return false;  // facility absent: the spec counts this as a failed txn
  }
  uint32_t slot = 0;
  while (slot < 3 &&
         cf_index_->Lookup((static_cast<uint64_t>(s) * 4 + sf) * 8 + slot).ok()) {
    slot++;
  }
  if (slot == 3) {
    IPA_RETURN_NOT_OK(db_->Commit(txn));
    return false;  // all slots taken -> primary key violation in the spec
  }
  std::vector<uint8_t> cft(kCallForwardingSize, 0x43);
  EncodeU64(cft.data(), s);
  cft[8] = static_cast<uint8_t>(sf);
  cft[9] = static_cast<uint8_t>(slot * 8);
  auto rid = db_->Insert(txn, call_forwarding_, cft);
  if (!rid.ok()) {
    (void)db_->Abort(txn);
    return rid.status();
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  IPA_RETURN_NOT_OK(cf_index_->Insert(
      (static_cast<uint64_t>(s) * 4 + sf) * 8 + slot, rid.value().Pack()));
  return true;
}

Result<bool> Tatp::DeleteCallForwarding() {
  uint32_t s = RandomSubscriber();
  uint32_t sf = static_cast<uint32_t>(rng_.Uniform(4));
  engine::TxnId txn = db_->Begin();
  uint64_t key = 0;
  engine::Rid crid;
  bool found = false;
  for (uint32_t slot = 0; slot < 3 && !found; slot++) {
    key = (static_cast<uint64_t>(s) * 4 + sf) * 8 + slot;
    auto r = cf_index_->Lookup(key);
    if (r.ok()) {
      crid = engine::Rid::Unpack(r.value());
      found = true;
    }
  }
  if (!found) {
    IPA_RETURN_NOT_OK(db_->Commit(txn));
    return false;
  }
  Status st = db_->Delete(txn, crid);
  if (!st.ok()) {
    (void)db_->Abort(txn);
    return st;
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  (void)cf_index_->Remove(key);
  return true;
}

Result<bool> Tatp::RunTransaction() {
  // Standard TATP mix.
  double p = rng_.NextDouble();
  if (p < 0.35) { mix_.get_subscriber++; return GetSubscriberData(); }
  if (p < 0.45) { mix_.get_new_dest++; return GetNewDestination(); }
  if (p < 0.80) { mix_.get_access++; return GetAccessData(); }
  if (p < 0.82) { mix_.upd_subscriber++; return UpdateSubscriberData(); }
  if (p < 0.96) { mix_.upd_location++; return UpdateLocation(); }
  if (p < 0.98) { mix_.ins_call_fwd++; return InsertCallForwarding(); }
  mix_.del_call_fwd++;
  return DeleteCallForwarding();
}

}  // namespace ipa::workload
