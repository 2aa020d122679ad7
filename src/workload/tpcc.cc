#include "workload/tpcc.h"

#include <algorithm>

#include "common/bytes.h"

namespace ipa::workload {

namespace {

constexpr StatField<TpccMix> kMixFields[] = {
    {&TpccMix::new_order, "workload.tpcc.new_order"},
    {&TpccMix::payment, "workload.tpcc.payment"},
    {&TpccMix::order_status, "workload.tpcc.order_status"},
    {&TpccMix::delivery, "workload.tpcc.delivery"},
    {&TpccMix::stock_level, "workload.tpcc.stock_level"},
};

std::vector<uint8_t> Filler(uint32_t size, uint8_t fill = 0x20) {
  return std::vector<uint8_t>(size, fill);
}

}  // namespace

Tpcc::Tpcc(engine::Database* db, TpccConfig config, TablespaceMap ts_of)
    : db_(db),
      config_(config),
      ts_of_(std::move(ts_of)),
      rng_(config.seed),
      nurand_(config.seed) {}

Tpcc::~Tpcc() { PublishMix(mix_, kMixFields); }

uint64_t Tpcc::EstimatedPages(uint32_t page_size) const {
  auto pages_for = [&](uint64_t rows, uint32_t size) {
    uint64_t per_page = page_size / (size + 8);
    return rows / std::max<uint64_t>(per_page, 1) + 2;
  };
  uint64_t w = config_.warehouses;
  uint64_t d = w * config_.districts_per_warehouse;
  uint64_t c = d * config_.customers_per_district;
  uint64_t pages = pages_for(w, kWarehouseSize) + pages_for(d, kDistrictSize) +
                   pages_for(c, kCustomerSize) +
                   pages_for(static_cast<uint64_t>(w) * config_.items, kStockSize) +
                   pages_for(config_.items, kItemSize);
  pages += pages / 6;  // index pages + slack
  return pages;
}

Status Tpcc::Load() {
  IPA_ASSIGN_OR_RETURN(warehouse_, db_->CreateTable("WAREHOUSE", ts_of_("WAREHOUSE")));
  IPA_ASSIGN_OR_RETURN(district_, db_->CreateTable("DISTRICT", ts_of_("DISTRICT")));
  IPA_ASSIGN_OR_RETURN(customer_, db_->CreateTable("CUSTOMER", ts_of_("CUSTOMER")));
  IPA_ASSIGN_OR_RETURN(history_, db_->CreateTable("HISTORY", ts_of_("HISTORY")));
  IPA_ASSIGN_OR_RETURN(order_, db_->CreateTable("ORDER", ts_of_("ORDER")));
  IPA_ASSIGN_OR_RETURN(new_order_, db_->CreateTable("NEW_ORDER", ts_of_("NEW_ORDER")));
  IPA_ASSIGN_OR_RETURN(order_line_, db_->CreateTable("ORDER_LINE", ts_of_("ORDER_LINE")));
  IPA_ASSIGN_OR_RETURN(item_, db_->CreateTable("ITEM", ts_of_("ITEM")));
  IPA_ASSIGN_OR_RETURN(stock_, db_->CreateTable("STOCK", ts_of_("STOCK")));
  IPA_ASSIGN_OR_RETURN(
      engine::Btree ci,
      engine::Btree::Create(db_, "CUSTOMER_IDX", ts_of_("CUSTOMER_IDX")));
  customer_index_ = std::make_unique<engine::Btree>(std::move(ci));
  IPA_ASSIGN_OR_RETURN(engine::Btree si, engine::Btree::Create(
                                             db_, "STOCK_IDX", ts_of_("STOCK_IDX")));
  stock_index_ = std::make_unique<engine::Btree>(std::move(si));
  IPA_ASSIGN_OR_RETURN(engine::Btree oi, engine::Btree::Create(
                                             db_, "ORDER_IDX", ts_of_("ORDER_IDX")));
  order_index_ = std::make_unique<engine::Btree>(std::move(oi));
  IPA_ASSIGN_OR_RETURN(engine::Btree li, engine::Btree::Create(
                                             db_, "LINE_IDX", ts_of_("LINE_IDX")));
  line_index_ = std::make_unique<engine::Btree>(std::move(li));
  IPA_ASSIGN_OR_RETURN(
      engine::Btree ni,
      engine::Btree::Create(db_, "NEW_ORDER_IDX", ts_of_("NEW_ORDER_IDX")));
  new_order_index_ = std::make_unique<engine::Btree>(std::move(ni));
  IPA_ASSIGN_OR_RETURN(
      engine::Btree lo,
      engine::Btree::Create(db_, "LAST_ORDER_IDX", ts_of_("LAST_ORDER_IDX")));
  last_order_index_ = std::make_unique<engine::Btree>(std::move(lo));

  uint32_t g_districts =
      config_.warehouses * config_.districts_per_warehouse;
  next_o_id_.assign(g_districts, 1);

  // Items (shared catalog).
  {
    engine::TxnId txn = db_->Begin();
    uint32_t batch = 0;
    for (uint32_t i = 0; i < config_.items; i++) {
      auto t = Filler(kItemSize);
      EncodeU32(t.data(), i);
      EncodeU32(t.data() + 8, 100 + static_cast<uint32_t>(rng_.Uniform(9900)));
      IPA_ASSIGN_OR_RETURN(engine::Rid rid, db_->Insert(txn, item_, t));
      item_rids_.push_back(rid);
      if (++batch == 2000) {
        IPA_RETURN_NOT_OK(db_->Commit(txn));
        txn = db_->Begin();
        batch = 0;
      }
    }
    IPA_RETURN_NOT_OK(db_->Commit(txn));
  }

  for (uint32_t w = 0; w < config_.warehouses; w++) {
    engine::TxnId txn = db_->Begin();
    auto wt = Filler(kWarehouseSize);
    EncodeU32(wt.data(), w);
    IPA_ASSIGN_OR_RETURN(engine::Rid wrid, db_->Insert(txn, warehouse_, wt));
    warehouse_rids_.push_back(wrid);
    for (uint32_t d = 0; d < config_.districts_per_warehouse; d++) {
      auto dt = Filler(kDistrictSize);
      EncodeU32(dt.data(), d);
      EncodeU32(dt.data() + 4, w);
      EncodeU32(dt.data() + kDistNextOidOff, 1);
      IPA_ASSIGN_OR_RETURN(engine::Rid drid, db_->Insert(txn, district_, dt));
      district_rids_.push_back(drid);
    }
    IPA_RETURN_NOT_OK(db_->Commit(txn));

    // Customers.
    engine::TxnId ctxn = db_->Begin();
    uint32_t batch = 0;
    for (uint32_t d = 0; d < config_.districts_per_warehouse; d++) {
      for (uint32_t c = 0; c < config_.customers_per_district; c++) {
        auto t = Filler(kCustomerSize);
        EncodeU32(t.data(), c);
        EncodeU32(t.data() + 4, d);
        EncodeU32(t.data() + 8, w);
        EncodeU64(t.data() + kCustBalanceOff, static_cast<uint64_t>(-1000));
        IPA_ASSIGN_OR_RETURN(engine::Rid rid, db_->Insert(ctxn, customer_, t));
        IPA_RETURN_NOT_OK(
            customer_index_->Insert(GlobalCustomer(w, d, c), rid.Pack()));
        if (++batch == 1000) {
          IPA_RETURN_NOT_OK(db_->Commit(ctxn));
          ctxn = db_->Begin();
          batch = 0;
        }
      }
    }
    IPA_RETURN_NOT_OK(db_->Commit(ctxn));

    // Stock.
    engine::TxnId stxn = db_->Begin();
    batch = 0;
    for (uint32_t i = 0; i < config_.items; i++) {
      auto t = Filler(kStockSize);
      EncodeU32(t.data(), i);
      EncodeU32(t.data() + 4, w);
      EncodeU32(t.data() + kStockQuantityOff,
                10 + static_cast<uint32_t>(rng_.Uniform(91)));
      IPA_ASSIGN_OR_RETURN(engine::Rid rid, db_->Insert(stxn, stock_, t));
      IPA_RETURN_NOT_OK(stock_index_->Insert(
          static_cast<uint64_t>(w) * config_.items + i, rid.Pack()));
      if (++batch == 1000) {
        IPA_RETURN_NOT_OK(db_->Commit(stxn));
        stxn = db_->Begin();
        batch = 0;
      }
    }
    IPA_RETURN_NOT_OK(db_->Commit(stxn));
  }
  return Status::OK();
}

Status Tpcc::AddToField32(engine::TxnId txn, engine::Rid rid, uint32_t off,
                          int32_t delta) {
  auto tuple = db_->Read(txn, rid, /*for_update=*/true);
  IPA_RETURN_NOT_OK(tuple.status());
  int32_t v = static_cast<int32_t>(DecodeU32(tuple.value().data() + off));
  uint8_t nb[4];
  EncodeU32(nb, static_cast<uint32_t>(v + delta));
  return db_->Update(txn, rid, off, nb);
}

Status Tpcc::AddToField64(engine::TxnId txn, engine::Rid rid, uint32_t off,
                          int64_t delta) {
  auto tuple = db_->Read(txn, rid, /*for_update=*/true);
  IPA_RETURN_NOT_OK(tuple.status());
  int64_t v = static_cast<int64_t>(DecodeU64(tuple.value().data() + off));
  uint8_t nb[8];
  EncodeU64(nb, static_cast<uint64_t>(v + delta));
  return db_->Update(txn, rid, off, nb);
}

Result<bool> Tpcc::NewOrder() {
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(config_.districts_per_warehouse));
  uint32_t c = static_cast<uint32_t>(
      nurand_.Gen(rng_, 1023, 0, config_.customers_per_district - 1));
  uint32_t gd = GlobalDistrict(w, d);
  uint32_t ol_cnt = 5 + static_cast<uint32_t>(rng_.Uniform(11));
  bool rollback = rng_.Chance(0.01);  // spec: 1% of NewOrders abort

  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };

  // District: O_ID allocation (D_NEXT_O_ID += 1; 4-byte numeric update).
  Status s = AddToField32(txn, district_rids_[gd], kDistNextOidOff, 1);
  if (!s.ok()) return fail(s);
  uint64_t o_id = next_o_id_[gd];

  PendingOrder pending;
  pending.o_id = o_id;
  pending.customer = GlobalCustomer(w, d, c);
  pending.total_amount = 0;

  // Order row.
  auto ot = Filler(kOrderSize, 0);
  EncodeU64(ot.data(), o_id);
  EncodeU32(ot.data() + 8, c);
  EncodeU32(ot.data() + 12, d);
  EncodeU32(ot.data() + 20, ol_cnt);
  EncodeU32(ot.data() + kOrderGdOff, gd);
  auto orid = db_->Insert(txn, order_, ot);
  if (!orid.ok()) return fail(orid.status());
  pending.order_rid = orid.value();

  // New-order row.
  auto nt = Filler(kNewOrderSize, 0);
  EncodeU64(nt.data(), o_id);
  EncodeU32(nt.data() + 8, gd);
  auto nrid = db_->Insert(txn, new_order_, nt);
  if (!nrid.ok()) return fail(nrid.status());
  pending.new_order_rid = nrid.value();

  for (uint32_t ol = 0; ol < ol_cnt; ol++) {
    uint32_t item = static_cast<uint32_t>(
        nurand_.Gen(rng_, 8191, 0, config_.items - 1));
    uint32_t supply_w = w;
    bool remote = config_.warehouses > 1 && rng_.Chance(0.01);
    if (remote) {
      supply_w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
    }
    uint32_t qty = 1 + static_cast<uint32_t>(rng_.Uniform(10));

    if (rollback && ol == ol_cnt - 1) {
      // Spec: unused item number detected on the last line -> rollback.
      (void)db_->Abort(txn);
      return false;
    }

    // Item price (read-only).
    auto it = db_->Read(txn, item_rids_[item]);
    if (!it.ok()) return fail(it.status());
    uint32_t price = DecodeU32(it.value().data() + 8);
    uint32_t amount = price * qty;
    pending.total_amount += amount;

    // Stock: the write hot spot. Three numeric fields change; the deltas are
    // small, so typically only least-significant bytes differ on the page.
    auto packed = stock_index_->Lookup(
        static_cast<uint64_t>(supply_w) * config_.items + item);
    if (!packed.ok()) return fail(packed.status());
    engine::Rid srid = engine::Rid::Unpack(packed.value());
    auto st = db_->Read(txn, srid, /*for_update=*/true);
    if (!st.ok()) return fail(st.status());
    int32_t quantity =
        static_cast<int32_t>(DecodeU32(st.value().data() + kStockQuantityOff));
    int32_t new_q = quantity >= static_cast<int32_t>(qty) + 10
                        ? quantity - static_cast<int32_t>(qty)
                        : quantity - static_cast<int32_t>(qty) + 91;
    uint8_t nb[4];
    EncodeU32(nb, static_cast<uint32_t>(new_q));
    s = db_->Update(txn, srid, kStockQuantityOff, nb);
    if (!s.ok()) return fail(s);
    s = AddToField32(txn, srid, kStockYtdOff, static_cast<int32_t>(qty));
    if (!s.ok()) return fail(s);
    s = AddToField32(txn, srid,
                     remote ? kStockRemoteCntOff : kStockOrderCntOff, 1);
    if (!s.ok()) return fail(s);

    // Order line.
    auto lt = Filler(kOrderLineSize, 0);
    EncodeU64(lt.data(), o_id);
    EncodeU32(lt.data() + 8, ol);
    EncodeU32(lt.data() + 12, item);
    EncodeU32(lt.data() + 16, supply_w);
    EncodeU32(lt.data() + 24, qty);
    EncodeU32(lt.data() + 28, amount);
    EncodeU32(lt.data() + kOlGdOff, gd);
    auto lrid = db_->Insert(txn, order_line_, lt);
    if (!lrid.ok()) return fail(lrid.status());
    pending.lines.push_back(lrid.value());
  }

  IPA_RETURN_NOT_OK(db_->Commit(txn));
  next_o_id_[gd]++;
  // Secondary-index maintenance (post-commit: indexes are non-transactional
  // and rebuilt on restart; maintaining them after commit keeps them
  // consistent with committed state under the spec's 1% rollbacks).
  IPA_RETURN_NOT_OK(
      order_index_->Insert(OrderKey(gd, o_id), pending.order_rid.Pack()));
  IPA_RETURN_NOT_OK(new_order_index_->Insert(OrderKey(gd, o_id),
                                             pending.new_order_rid.Pack()));
  for (uint32_t i = 0; i < pending.lines.size(); i++) {
    IPA_RETURN_NOT_OK(
        line_index_->Insert(LineKey(gd, o_id, i), pending.lines[i].Pack()));
  }
  IPA_RETURN_NOT_OK(
      last_order_index_->Insert(pending.customer, OrderKey(gd, o_id)));
  return true;
}

Result<bool> Tpcc::Payment() {
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(config_.districts_per_warehouse));
  uint32_t c = static_cast<uint32_t>(
      nurand_.Gen(rng_, 1023, 0, config_.customers_per_district - 1));
  int64_t amount = 100 + static_cast<int64_t>(rng_.Uniform(499901));  // cents

  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };

  Status s = AddToField64(txn, warehouse_rids_[w], kWhYtdOff, amount);
  if (!s.ok()) return fail(s);
  s = AddToField64(txn, district_rids_[GlobalDistrict(w, d)], kDistYtdOff, amount);
  if (!s.ok()) return fail(s);

  auto packed = customer_index_->Lookup(GlobalCustomer(w, d, c));
  if (!packed.ok()) return fail(packed.status());
  engine::Rid crid = engine::Rid::Unpack(packed.value());
  s = AddToField64(txn, crid, kCustBalanceOff, -amount);
  if (!s.ok()) return fail(s);
  s = AddToField64(txn, crid, kCustYtdOff, amount);
  if (!s.ok()) return fail(s);
  s = AddToField32(txn, crid, kCustPaymentCntOff, 1);
  if (!s.ok()) return fail(s);

  if (rng_.Chance(0.10)) {
    // Bad credit: rewrite the front of C_DATA (a large update; such pages go
    // out-of-place — matching the paper's remark on the 10% of Customers).
    std::vector<uint8_t> cdata(200);
    for (size_t i = 0; i < cdata.size(); i++) {
      cdata[i] = static_cast<uint8_t>(rng_.Next());
    }
    s = db_->Update(txn, crid, kCustDataOff, cdata);
    if (!s.ok()) return fail(s);
  }

  auto ht = Filler(kHistorySize, 0);
  EncodeU32(ht.data(), GlobalCustomer(w, d, c));
  EncodeU64(ht.data() + 4, static_cast<uint64_t>(amount));
  auto hr = db_->Insert(txn, history_, ht);
  if (!hr.ok()) return fail(hr.status());

  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Tpcc::OrderStatus() {
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(config_.districts_per_warehouse));
  uint32_t c = static_cast<uint32_t>(
      nurand_.Gen(rng_, 1023, 0, config_.customers_per_district - 1));
  uint32_t gc = GlobalCustomer(w, d, c);

  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };
  auto packed = customer_index_->Lookup(gc);
  if (!packed.ok()) return fail(packed.status());
  auto cust = db_->Read(txn, engine::Rid::Unpack(packed.value()));
  if (!cust.ok()) return fail(cust.status());

  // The customer's most recent order, via the last-order index.
  auto okey = last_order_index_->Lookup(gc);
  if (okey.ok()) {
    uint32_t gd = static_cast<uint32_t>(okey.value() >> 40);
    uint64_t o_id = okey.value() & 0xFFFFFFFFFFull;
    auto orid = order_index_->Lookup(okey.value());
    if (orid.ok()) {
      auto ord = db_->Read(txn, engine::Rid::Unpack(orid.value()));
      if (ord.ok()) {
        uint32_t ol_cnt = DecodeU32(ord.value().data() + 20);
        for (uint32_t i = 0; i < ol_cnt; i++) {
          auto lrid = line_index_->Lookup(LineKey(gd, o_id, i));
          if (!lrid.ok()) break;
          (void)db_->Read(txn, engine::Rid::Unpack(lrid.value()));
        }
      }
    }
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Result<bool> Tpcc::Delivery() {
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t carrier = 1 + static_cast<uint32_t>(rng_.Uniform(10));

  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };
  std::vector<uint64_t> delivered_keys;
  for (uint32_t d = 0; d < config_.districts_per_warehouse; d++) {
    uint32_t gd = GlobalDistrict(w, d);
    // Oldest undelivered order: min key in the district's range of the
    // NEW_ORDER index.
    uint64_t okey = 0;
    uint64_t no_rid_packed = 0;
    bool found = false;
    IPA_RETURN_NOT_OK(new_order_index_->Scan(
        OrderKey(gd, 0), OrderKey(gd + 1, 0) - 1,
        [&](uint64_t k, uint64_t v) {
          okey = k;
          no_rid_packed = v;
          found = true;
          return false;  // first == oldest
        }));
    if (!found) continue;
    uint64_t o_id = okey & 0xFFFFFFFFFFull;

    Status s = db_->Delete(txn, engine::Rid::Unpack(no_rid_packed));
    if (!s.ok()) return fail(s);

    auto orid = order_index_->Lookup(okey);
    if (!orid.ok()) return fail(orid.status());
    engine::Rid order_rid = engine::Rid::Unpack(orid.value());
    auto ord = db_->Read(txn, order_rid, /*for_update=*/true);
    if (!ord.ok()) return fail(ord.status());
    uint32_t cust = DecodeU32(ord.value().data() + 8);
    uint32_t ol_cnt = DecodeU32(ord.value().data() + 20);

    uint8_t cb[4];
    EncodeU32(cb, carrier);
    s = db_->Update(txn, order_rid, kOrderCarrierOff, cb);
    if (!s.ok()) return fail(s);

    uint8_t date[4];
    EncodeU32(date, 20170514);
    uint64_t amount = 0;
    for (uint32_t i = 0; i < ol_cnt; i++) {
      auto lrid = line_index_->Lookup(LineKey(gd, o_id, i));
      if (!lrid.ok()) return fail(lrid.status());
      engine::Rid line_rid = engine::Rid::Unpack(lrid.value());
      auto line = db_->Read(txn, line_rid, /*for_update=*/true);
      if (!line.ok()) return fail(line.status());
      amount += DecodeU32(line.value().data() + 28);
      s = db_->Update(txn, line_rid, kOlDeliveryDateOff, date);
      if (!s.ok()) return fail(s);
    }

    auto packed = customer_index_->Lookup(GlobalCustomer(w, d, cust));
    if (!packed.ok()) return fail(packed.status());
    engine::Rid crid = engine::Rid::Unpack(packed.value());
    s = AddToField64(txn, crid, kCustBalanceOff, static_cast<int64_t>(amount));
    if (!s.ok()) return fail(s);
    s = AddToField32(txn, crid, kCustDeliveryCntOff, 1);
    if (!s.ok()) return fail(s);
    delivered_keys.push_back(okey);
  }
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  for (uint64_t okey : delivered_keys) {
    (void)new_order_index_->Remove(okey);
  }
  return true;
}

Result<bool> Tpcc::StockLevel() {
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(config_.districts_per_warehouse));
  uint32_t gd = GlobalDistrict(w, d);
  uint32_t threshold = 10 + static_cast<uint32_t>(rng_.Uniform(11));

  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };
  auto dist = db_->Read(txn, district_rids_[gd]);
  if (!dist.ok()) return fail(dist.status());
  uint64_t next = DecodeU32(dist.value().data() + kDistNextOidOff);
  uint64_t lo_oid = next > 20 ? next - 20 : 1;

  // Order-line rows of the last ~20 orders, via the order-line index.
  std::vector<engine::Rid> line_rids;
  IPA_RETURN_NOT_OK(line_index_->Scan(
      LineKey(gd, lo_oid, 0), LineKey(gd, next, 0),
      [&](uint64_t, uint64_t v) {
        line_rids.push_back(engine::Rid::Unpack(v));
        return line_rids.size() < 220;
      }));
  uint32_t low = 0;
  for (engine::Rid lrid : line_rids) {
    auto line = db_->Read(txn, lrid);
    if (!line.ok()) {
      if (line.status().IsBusy()) return fail(line.status());
      continue;
    }
    uint32_t item = DecodeU32(line.value().data() + 12);
    auto packed = stock_index_->Lookup(
        static_cast<uint64_t>(w) * config_.items + item);
    if (!packed.ok()) continue;
    auto st = db_->Read(txn, engine::Rid::Unpack(packed.value()));
    if (st.ok() &&
        DecodeU32(st.value().data() + kStockQuantityOff) < threshold) {
      low++;
    }
  }
  (void)low;
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

Status Tpcc::RebuildIndexes() {
  auto fresh = [&](const char* name,
                   std::unique_ptr<engine::Btree>* out) -> Status {
    IPA_ASSIGN_OR_RETURN(engine::Btree t,
                         engine::Btree::Create(db_, name, ts_of_(name)));
    *out = std::make_unique<engine::Btree>(std::move(t));
    return Status::OK();
  };
  IPA_RETURN_NOT_OK(fresh("CUSTOMER_IDX_R", &customer_index_));
  IPA_RETURN_NOT_OK(fresh("STOCK_IDX_R", &stock_index_));
  IPA_RETURN_NOT_OK(fresh("ORDER_IDX_R", &order_index_));
  IPA_RETURN_NOT_OK(fresh("LINE_IDX_R", &line_index_));
  IPA_RETURN_NOT_OK(fresh("NEW_ORDER_IDX_R", &new_order_index_));
  IPA_RETURN_NOT_OK(fresh("LAST_ORDER_IDX_R", &last_order_index_));

  Status st = Status::OK();
  auto scan = [&](engine::TableId table, auto fn) -> Status {
    IPA_RETURN_NOT_OK(db_->Scan(
        table, [&](engine::Rid rid, std::span<const uint8_t> t) {
          st = fn(rid, t);
          return st.ok();
        }));
    return st;
  };

  IPA_RETURN_NOT_OK(scan(customer_, [&](engine::Rid rid,
                                        std::span<const uint8_t> t) {
    uint32_t c = DecodeU32(t.data());
    uint32_t d = DecodeU32(t.data() + 4);
    uint32_t w = DecodeU32(t.data() + 8);
    return customer_index_->Insert(GlobalCustomer(w, d, c), rid.Pack());
  }));
  IPA_RETURN_NOT_OK(scan(stock_, [&](engine::Rid rid,
                                     std::span<const uint8_t> t) {
    uint32_t i = DecodeU32(t.data());
    uint32_t w = DecodeU32(t.data() + 4);
    return stock_index_->Insert(static_cast<uint64_t>(w) * config_.items + i,
                                rid.Pack());
  }));
  IPA_RETURN_NOT_OK(scan(order_, [&](engine::Rid rid,
                                     std::span<const uint8_t> t) {
    uint64_t o_id = DecodeU64(t.data());
    uint32_t gd = DecodeU32(t.data() + kOrderGdOff);
    uint32_t c = DecodeU32(t.data() + 8);
    IPA_RETURN_NOT_OK(order_index_->Insert(OrderKey(gd, o_id), rid.Pack()));
    // Customer's latest order: keep the max OrderKey per customer.
    uint32_t gc = gd * config_.customers_per_district + c;
    auto prev = last_order_index_->Lookup(gc);
    if (!prev.ok() || prev.value() < OrderKey(gd, o_id)) {
      IPA_RETURN_NOT_OK(last_order_index_->Insert(gc, OrderKey(gd, o_id)));
    }
    return Status::OK();
  }));
  IPA_RETURN_NOT_OK(scan(order_line_, [&](engine::Rid rid,
                                          std::span<const uint8_t> t) {
    uint64_t o_id = DecodeU64(t.data());
    uint32_t line = DecodeU32(t.data() + 8);
    uint32_t gd = DecodeU32(t.data() + kOlGdOff);
    return line_index_->Insert(LineKey(gd, o_id, line), rid.Pack());
  }));
  IPA_RETURN_NOT_OK(scan(new_order_, [&](engine::Rid rid,
                                         std::span<const uint8_t> t) {
    uint64_t o_id = DecodeU64(t.data());
    uint32_t gd = DecodeU32(t.data() + 8);
    return new_order_index_->Insert(OrderKey(gd, o_id), rid.Pack());
  }));

  // D_NEXT_O_ID caches from the recovered DISTRICT rows.
  uint32_t g_districts = config_.warehouses * config_.districts_per_warehouse;
  next_o_id_.assign(g_districts, 1);
  district_rids_.clear();
  IPA_RETURN_NOT_OK(scan(district_, [&](engine::Rid rid,
                                        std::span<const uint8_t> t) {
    uint32_t d = DecodeU32(t.data());
    uint32_t w = DecodeU32(t.data() + 4);
    district_rids_.resize(g_districts);
    district_rids_[GlobalDistrict(w, d)] = rid;
    next_o_id_[GlobalDistrict(w, d)] = DecodeU32(t.data() + kDistNextOidOff);
    return Status::OK();
  }));
  warehouse_rids_.clear();
  IPA_RETURN_NOT_OK(scan(warehouse_, [&](engine::Rid rid,
                                         std::span<const uint8_t>) {
    warehouse_rids_.push_back(rid);
    return Status::OK();
  }));
  item_rids_.clear();
  IPA_RETURN_NOT_OK(scan(item_, [&](engine::Rid rid, std::span<const uint8_t>) {
    item_rids_.push_back(rid);
    return Status::OK();
  }));
  return Status::OK();
}

Result<bool> Tpcc::RunTransaction() {
  double p = rng_.NextDouble();
  if (p < 0.45) { mix_.new_order++; return NewOrder(); }
  if (p < 0.88) { mix_.payment++; return Payment(); }
  if (p < 0.92) { mix_.order_status++; return OrderStatus(); }
  if (p < 0.96) { mix_.delivery++; return Delivery(); }
  mix_.stock_level++;
  return StockLevel();
}

}  // namespace ipa::workload
