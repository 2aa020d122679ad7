#include "workload/linkbench.h"

#include <algorithm>

#include "common/bytes.h"

namespace ipa::workload {

namespace {
constexpr StatField<LinkbenchMix> kMixFields[] = {
    {&LinkbenchMix::get_node, "workload.linkbench.get_node"},
    {&LinkbenchMix::add_node, "workload.linkbench.add_node"},
    {&LinkbenchMix::update_node, "workload.linkbench.update_node"},
    {&LinkbenchMix::delete_node, "workload.linkbench.delete_node"},
    {&LinkbenchMix::get_link, "workload.linkbench.get_link"},
    {&LinkbenchMix::add_link, "workload.linkbench.add_link"},
    {&LinkbenchMix::delete_link, "workload.linkbench.delete_link"},
    {&LinkbenchMix::update_link, "workload.linkbench.update_link"},
    {&LinkbenchMix::count_link, "workload.linkbench.count_link"},
    {&LinkbenchMix::get_link_list, "workload.linkbench.get_link_list"},
};
}  // namespace

Linkbench::Linkbench(engine::Database* db, LinkbenchConfig config,
                     TablespaceMap ts_of)
    : db_(db),
      config_(config),
      ts_of_(std::move(ts_of)),
      rng_(config.seed),
      // Node payload sizes: average a bit under 90B (LinkBench paper).
      node_payload_cdf_({{0, 0.02},
                         {32, 0.20},
                         {64, 0.45},
                         {90, 0.65},
                         {128, 0.80},
                         {256, 0.92},
                         {512, 0.98},
                         {1024, 1.0}}),
      // Link payloads: almost half empty, rest tiny (< 12B average).
      link_payload_cdf_({{0, 0.45}, {4, 0.6}, {8, 0.8}, {12, 0.95}, {16, 1.0}}) {
  zipf_ = std::make_unique<ZipfianGenerator>(config.nodes, config.zipf_theta);
}

Linkbench::~Linkbench() { PublishMix(mix_, kMixFields); }

uint64_t Linkbench::EstimatedPages(uint32_t page_size) const {
  uint64_t node_bytes = config_.nodes * (kNodeHeader + 100 + 8);
  uint64_t links = static_cast<uint64_t>(
      static_cast<double>(config_.nodes) * config_.links_per_node);
  uint64_t link_bytes = links * (kLinkHeader + 8 + 8);
  uint64_t count_bytes = config_.nodes * (kCountSize + 8);
  uint64_t pages = (node_bytes + link_bytes + count_bytes) / (page_size * 9 / 10);
  pages += pages / 5 + 8;  // index + growth slack
  return pages;
}

uint64_t Linkbench::ZipfNode() { return zipf_->Next(rng_) % config_.nodes; }

uint32_t Linkbench::SampleNodePayload() { return node_payload_cdf_.Sample(rng_); }
uint32_t Linkbench::SampleLinkPayload() { return link_payload_cdf_.Sample(rng_); }

std::vector<uint8_t> Linkbench::MakeNodeTuple(uint64_t id, uint32_t payload_len) {
  std::vector<uint8_t> t(kNodeHeader + payload_len, 0x6E);
  EncodeU64(t.data(), id);
  EncodeU32(t.data() + 8, 0);
  EncodeU64(t.data() + kNodeVersionOff, 0);
  EncodeU32(t.data() + kNodeTimeOff, 1000);
  return t;
}

std::vector<uint8_t> Linkbench::MakeLinkTuple(uint64_t id1, uint64_t id2,
                                              uint32_t payload_len) {
  std::vector<uint8_t> t(kLinkHeader + payload_len, 0x6C);
  EncodeU64(t.data(), id1);
  EncodeU32(t.data() + 8, 0);
  EncodeU64(t.data() + 12, id2);
  t[20] = 1;  // visibility
  EncodeU32(t.data() + kLinkVersionOff, 0);
  EncodeU32(t.data() + kLinkTimeOff, 1000);
  return t;
}

Status Linkbench::Load() {
  IPA_ASSIGN_OR_RETURN(node_, db_->CreateTable("NODE", ts_of_("NODE")));
  IPA_ASSIGN_OR_RETURN(link_, db_->CreateTable("LINK", ts_of_("LINK")));
  IPA_ASSIGN_OR_RETURN(count_, db_->CreateTable("COUNT", ts_of_("COUNT")));
  IPA_ASSIGN_OR_RETURN(engine::Btree idx,
                       engine::Btree::Create(db_, "NODE_IDX", ts_of_("NODE_IDX")));
  node_index_ = std::make_unique<engine::Btree>(std::move(idx));
  IPA_ASSIGN_OR_RETURN(engine::Btree li, engine::Btree::Create(
                                             db_, "LINK_IDX", ts_of_("LINK_IDX")));
  link_index_ = std::make_unique<engine::Btree>(std::move(li));
  IPA_ASSIGN_OR_RETURN(engine::Btree ci, engine::Btree::Create(
                                             db_, "COUNT_IDX", ts_of_("COUNT_IDX")));
  count_index_ = std::make_unique<engine::Btree>(std::move(ci));

  engine::TxnId txn = db_->Begin();
  uint32_t batch = 0;
  for (uint64_t id = 0; id < config_.nodes; id++) {
    IPA_ASSIGN_OR_RETURN(engine::Rid rid,
                         db_->Insert(txn, node_, MakeNodeTuple(id, SampleNodePayload())));
    IPA_RETURN_NOT_OK(node_index_->Insert(id, rid.Pack()));

    std::vector<uint8_t> ct(kCountSize, 0);
    EncodeU64(ct.data(), id);
    IPA_ASSIGN_OR_RETURN(engine::Rid crid, db_->Insert(txn, count_, ct));
    IPA_RETURN_NOT_OK(count_index_->Insert(id, crid.Pack()));
    if (++batch == 1000) {
      IPA_RETURN_NOT_OK(db_->Commit(txn));
      txn = db_->Begin();
      batch = 0;
    }
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  next_node_id_ = config_.nodes;

  // Initial links: zipf-skewed sources, uniform targets.
  uint64_t total_links = static_cast<uint64_t>(
      static_cast<double>(config_.nodes) * config_.links_per_node);
  txn = db_->Begin();
  batch = 0;
  for (uint64_t l = 0; l < total_links; l++) {
    uint64_t id1 = ZipfNode();
    uint64_t id2 = rng_.Uniform(config_.nodes);
    IPA_ASSIGN_OR_RETURN(
        engine::Rid rid,
        db_->Insert(txn, link_, MakeLinkTuple(id1, id2, SampleLinkPayload())));
    IPA_RETURN_NOT_OK(
        link_index_->Insert(LinkKey(id1, next_link_seq_[id1]++), rid.Pack()));
    IPA_RETURN_NOT_OK(BumpCount(txn, id1, 1));
    if (++batch == 1000) {
      IPA_RETURN_NOT_OK(db_->Commit(txn));
      txn = db_->Begin();
      batch = 0;
    }
  }
  return db_->Commit(txn);
}

Status Linkbench::BumpCount(engine::TxnId txn, uint64_t id, int64_t delta) {
  auto packed = count_index_->Lookup(id);
  if (!packed.ok()) return Status::OK();
  engine::Rid crid = engine::Rid::Unpack(packed.value());
  auto row = db_->Read(txn, crid, /*for_update=*/true);
  IPA_RETURN_NOT_OK(row.status());
  int64_t v = static_cast<int64_t>(DecodeU64(row.value().data() + kCountValueOff));
  uint8_t nb[8];
  EncodeU64(nb, static_cast<uint64_t>(v + delta));
  IPA_RETURN_NOT_OK(db_->Update(txn, crid, kCountValueOff, nb));
  uint8_t tb[4];
  EncodeU32(tb, static_cast<uint32_t>(rng_.Uniform(1u << 24)));
  return db_->Update(txn, crid, kCountTimeOff, tb);
}

Status Linkbench::RebuildIndexes() {
  auto fresh = [&](const char* name,
                   std::unique_ptr<engine::Btree>* out) -> Status {
    IPA_ASSIGN_OR_RETURN(engine::Btree t,
                         engine::Btree::Create(db_, name, ts_of_(name)));
    *out = std::make_unique<engine::Btree>(std::move(t));
    return Status::OK();
  };
  IPA_RETURN_NOT_OK(fresh("NODE_IDX_R", &node_index_));
  IPA_RETURN_NOT_OK(fresh("LINK_IDX_R", &link_index_));
  IPA_RETURN_NOT_OK(fresh("COUNT_IDX_R", &count_index_));
  next_link_seq_.clear();
  next_node_id_ = 0;

  Status st = Status::OK();
  auto scan = [&](engine::TableId table, auto fn) -> Status {
    IPA_RETURN_NOT_OK(db_->Scan(
        table, [&](engine::Rid rid, std::span<const uint8_t> t) {
          st = fn(rid, t);
          return st.ok();
        }));
    return st;
  };
  IPA_RETURN_NOT_OK(scan(node_, [&](engine::Rid rid,
                                    std::span<const uint8_t> t) {
    uint64_t id = DecodeU64(t.data());
    next_node_id_ = std::max(next_node_id_, id + 1);
    return node_index_->Insert(id, rid.Pack());
  }));
  IPA_RETURN_NOT_OK(scan(count_, [&](engine::Rid rid,
                                     std::span<const uint8_t> t) {
    return count_index_->Insert(DecodeU64(t.data()), rid.Pack());
  }));
  IPA_RETURN_NOT_OK(scan(link_, [&](engine::Rid rid,
                                    std::span<const uint8_t> t) {
    uint64_t id1 = DecodeU64(t.data());
    return link_index_->Insert(LinkKey(id1, next_link_seq_[id1]++), rid.Pack());
  }));
  return Status::OK();
}

Result<bool> Linkbench::GetNode() {
  uint64_t id = ZipfNode();
  engine::TxnId txn = db_->Begin();
  auto packed = node_index_->Lookup(id);
  if (packed.ok()) {
    (void)db_->Read(txn, engine::Rid::Unpack(packed.value()));
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Linkbench::AddNode() {
  uint64_t id = next_node_id_++;
  engine::TxnId txn = db_->Begin();
  auto rid = db_->Insert(txn, node_, MakeNodeTuple(id, SampleNodePayload()));
  if (!rid.ok()) {
    (void)db_->Abort(txn);
    return rid.status();
  }
  Status s = node_index_->Insert(id, rid.value().Pack());
  if (!s.ok()) {
    (void)db_->Abort(txn);
    return s;
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Linkbench::UpdateNode() {
  uint64_t id = ZipfNode();
  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };
  auto packed = node_index_->Lookup(id);
  if (!packed.ok()) {
    IPA_RETURN_NOT_OK(db_->Commit(txn));
    return false;
  }
  engine::Rid rid = engine::Rid::Unpack(packed.value());
  auto row = db_->Read(txn, rid, /*for_update=*/true);
  if (!row.ok()) return fail(row.status());

  // Over a third of node updates change only numeric fields (version/time);
  // the rest rewrite the payload with a (usually similar) new size.
  if (rng_.Chance(0.35)) {
    uint64_t version = DecodeU64(row.value().data() + kNodeVersionOff) + 1;
    uint8_t vb[8];
    EncodeU64(vb, version);
    Status s = db_->Update(txn, rid, kNodeVersionOff, vb);
    if (!s.ok()) return fail(s);
    uint8_t tb[4];
    EncodeU32(tb, static_cast<uint32_t>(rng_.Uniform(1u << 20)));
    s = db_->Update(txn, rid, kNodeTimeOff, tb);
    if (!s.ok()) return fail(s);
  } else {
    uint32_t old_payload = static_cast<uint32_t>(row.value().size()) - kNodeHeader;
    // New size near the old one: +-25%.
    int64_t delta = rng_.UniformRange(-static_cast<int64_t>(old_payload) / 4,
                                      static_cast<int64_t>(old_payload) / 4 + 4);
    uint32_t new_payload = static_cast<uint32_t>(
        std::max<int64_t>(0, static_cast<int64_t>(old_payload) + delta));
    auto t = MakeNodeTuple(id, new_payload);
    EncodeU64(t.data() + kNodeVersionOff,
              DecodeU64(row.value().data() + kNodeVersionOff) + 1);
    for (uint32_t i = 0; i < new_payload; i++) {
      t[kNodeHeader + i] = static_cast<uint8_t>(rng_.Next());
    }
    Status s = db_->UpdateResize(txn, rid, t);
    if (s.IsOutOfSpace()) {
      auto moved = db_->Move(txn, rid, t);
      if (!moved.ok()) return fail(moved.status());
      s = node_index_->Insert(id, moved.value().Pack());
    }
    if (!s.ok()) return fail(s);
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Linkbench::DeleteNode() {
  uint64_t id = ZipfNode();
  engine::TxnId txn = db_->Begin();
  auto packed = node_index_->Lookup(id);
  if (!packed.ok()) {
    IPA_RETURN_NOT_OK(db_->Commit(txn));
    return false;
  }
  Status s = db_->Delete(txn, engine::Rid::Unpack(packed.value()));
  if (!s.ok()) {
    (void)db_->Abort(txn);
    return s;
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  (void)node_index_->Remove(id);
  return true;
}

Result<bool> Linkbench::GetLink() {
  uint64_t id = ZipfNode();
  engine::TxnId txn = db_->Begin();
  // A random existing link of id1, found through the adjacency index.
  std::vector<uint64_t> rids;
  IPA_RETURN_NOT_OK(link_index_->Scan(LinkKey(id, 0), LinkKey(id + 1, 0) - 1,
                                      [&](uint64_t, uint64_t v) {
                                        rids.push_back(v);
                                        return rids.size() < 32;
                                      }));
  if (!rids.empty()) {
    (void)db_->Read(txn, engine::Rid::Unpack(rids[rng_.Uniform(rids.size())]));
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Linkbench::AddLink() {
  uint64_t id1 = ZipfNode();
  uint64_t id2 = rng_.Uniform(config_.nodes);
  engine::TxnId txn = db_->Begin();
  auto rid = db_->Insert(txn, link_, MakeLinkTuple(id1, id2, SampleLinkPayload()));
  if (!rid.ok()) {
    (void)db_->Abort(txn);
    return rid.status();
  }
  Status s = BumpCount(txn, id1, 1);
  if (!s.ok()) {
    (void)db_->Abort(txn);
    return s;
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  IPA_RETURN_NOT_OK(
      link_index_->Insert(LinkKey(id1, next_link_seq_[id1]++), rid.value().Pack()));
  return true;
}

Result<bool> Linkbench::DeleteLink() {
  uint64_t id = ZipfNode();
  // Newest link of id1 via the adjacency index.
  uint64_t key = 0, packed = 0;
  bool found = false;
  IPA_RETURN_NOT_OK(link_index_->Scan(LinkKey(id, 0), LinkKey(id + 1, 0) - 1,
                                      [&](uint64_t k, uint64_t v) {
                                        key = k;
                                        packed = v;
                                        found = true;
                                        return true;  // keep last
                                      }));
  if (!found) return false;
  engine::TxnId txn = db_->Begin();
  Status s = db_->Delete(txn, engine::Rid::Unpack(packed));
  if (!s.ok()) {
    (void)db_->Abort(txn);
    return s;
  }
  s = BumpCount(txn, id, -1);
  if (!s.ok()) {
    (void)db_->Abort(txn);
    return s;
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  (void)link_index_->Remove(key);
  return true;
}

Result<bool> Linkbench::UpdateLink() {
  uint64_t id = ZipfNode();
  std::vector<uint64_t> rids;
  IPA_RETURN_NOT_OK(link_index_->Scan(LinkKey(id, 0), LinkKey(id + 1, 0) - 1,
                                      [&](uint64_t, uint64_t v) {
                                        rids.push_back(v);
                                        return rids.size() < 32;
                                      }));
  if (rids.empty()) return false;
  engine::Rid rid = engine::Rid::Unpack(rids[rng_.Uniform(rids.size())]);
  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };
  auto row = db_->Read(txn, rid, /*for_update=*/true);
  if (!row.ok()) return fail(row.status());
  // Most link updates bump version/time; some rewrite the (tiny) payload.
  uint8_t vb[4];
  EncodeU32(vb, DecodeU32(row.value().data() + kLinkVersionOff) + 1);
  Status s = db_->Update(txn, rid, kLinkVersionOff, vb);
  if (!s.ok()) return fail(s);
  uint8_t tb[4];
  EncodeU32(tb, static_cast<uint32_t>(rng_.Uniform(1u << 20)));
  s = db_->Update(txn, rid, kLinkTimeOff, tb);
  if (!s.ok()) return fail(s);
  if (rng_.Chance(0.4) && row.value().size() > kLinkHeader) {
    uint32_t payload = static_cast<uint32_t>(row.value().size()) - kLinkHeader;
    std::vector<uint8_t> pb(payload);
    for (auto& b : pb) b = static_cast<uint8_t>(rng_.Next());
    s = db_->Update(txn, rid, kLinkHeader, pb);
    if (!s.ok()) return fail(s);
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Linkbench::CountLink() {
  uint64_t id = ZipfNode();
  engine::TxnId txn = db_->Begin();
  auto packed = count_index_->Lookup(id);
  if (packed.ok()) (void)db_->Read(txn, engine::Rid::Unpack(packed.value()));
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Linkbench::GetLinkList() {
  uint64_t id = ZipfNode();
  engine::TxnId txn = db_->Begin();
  // The newest 10 links of id1 (the index scan is ascending; keep the tail).
  std::vector<uint64_t> rids;
  IPA_RETURN_NOT_OK(link_index_->Scan(LinkKey(id, 0), LinkKey(id + 1, 0) - 1,
                                      [&](uint64_t, uint64_t v) {
                                        rids.push_back(v);
                                        return true;
                                      }));
  size_t n = std::min<size_t>(rids.size(), 10);
  for (size_t i = 0; i < n; i++) {
    (void)db_->Read(txn, engine::Rid::Unpack(rids[rids.size() - 1 - i]));
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Linkbench::RunTransaction() {
  // LinkBench paper operation mix.
  double p = rng_.NextDouble();
  if (p < 0.129) { mix_.get_node++; return GetNode(); }
  if (p < 0.155) { mix_.add_node++; return AddNode(); }
  if (p < 0.229) { mix_.update_node++; return UpdateNode(); }
  if (p < 0.239) { mix_.delete_node++; return DeleteNode(); }
  if (p < 0.249) { mix_.get_link++; return GetLink(); }  // GET_LINK + MULTIGET
  if (p < 0.339) { mix_.add_link++; return AddLink(); }
  if (p < 0.369) { mix_.delete_link++; return DeleteLink(); }
  if (p < 0.449) { mix_.update_link++; return UpdateLink(); }
  if (p < 0.498) { mix_.count_link++; return CountLink(); }
  mix_.get_link_list++;
  return GetLinkList();
}

}  // namespace ipa::workload
