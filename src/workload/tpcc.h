// TPC-C order-entry workload (Appendix A.0.2), scaled down.
//
// All five transactions are implemented with their spec mix (NewOrder 45%,
// Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%), NURand access
// skew, and the spec's 1% NewOrder rollbacks. Attribute layouts keep the
// numeric fields the transactions touch at fixed offsets, so the on-page
// byte-change footprint matches the paper's analysis: a NewOrder changes
// three numeric STOCK fields per item (~3 net bytes since the deltas are
// small), Payment changes YTD/balance fields (and rewrites C_DATA for 10%
// of customers), Delivery stamps carrier/delivery dates.
//
// Scale-downs vs. the spec (documented deviations): items/stock default to
// 10 000 (spec 100 000), customers per district to 300 (spec 3 000), and
// C_DATA is a fixed 400 B (spec 300-500 B). All secondary access paths
// (oldest undelivered order, a customer's last order, order-line lookup)
// are storage-resident B+trees, so index traffic takes real page I/O; index
// maintenance happens post-commit (indexes are non-logged, engine/btree.h).

#pragma once

#include <vector>

#include "engine/btree.h"
#include "workload/workload.h"

namespace ipa::workload {

struct TpccConfig {
  uint32_t warehouses = 1;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 300;
  uint32_t items = 10000;  // == stock rows per warehouse
  uint64_t seed = 11;
};

/// Transactions a Tpcc driver ran, by type: published under
/// `workload.tpcc.*` when the driver is destroyed.
struct TpccMix {
  uint64_t new_order = 0, payment = 0, order_status = 0, delivery = 0, stock_level = 0;
};

class Tpcc : public Workload {
 public:
  Tpcc(engine::Database* db, TpccConfig config, TablespaceMap ts_of);
  ~Tpcc() override;

  Status Load() override;
  Result<bool> RunTransaction() override;
  std::string name() const override { return "TPC-C"; }
  uint64_t EstimatedPages(uint32_t page_size) const override;

  /// Rebuild all six secondary indexes and the rid/counter caches from heap
  /// scans after crash recovery.
  Status RebuildIndexes() override;

  engine::TableId stock_table() const { return stock_; }
  engine::TableId customer_table() const { return customer_; }

  // Tuple sizes / field offsets (little-endian numerics).
  static constexpr uint32_t kStockSize = 310;
  static constexpr uint32_t kStockQuantityOff = 12;   // i32
  static constexpr uint32_t kStockYtdOff = 16;        // u32
  static constexpr uint32_t kStockOrderCntOff = 20;   // u32
  static constexpr uint32_t kStockRemoteCntOff = 24;  // u32

  static constexpr uint32_t kCustomerSize = 560;
  static constexpr uint32_t kCustBalanceOff = 12;     // i64
  static constexpr uint32_t kCustYtdOff = 20;         // i64
  static constexpr uint32_t kCustPaymentCntOff = 28;  // u32
  static constexpr uint32_t kCustDeliveryCntOff = 32; // u32
  static constexpr uint32_t kCustDataOff = 160;       // 400 B C_DATA

  static constexpr uint32_t kDistrictSize = 100;
  static constexpr uint32_t kDistNextOidOff = 8;      // u32
  static constexpr uint32_t kDistYtdOff = 12;         // i64

  static constexpr uint32_t kWarehouseSize = 90;
  static constexpr uint32_t kWhYtdOff = 8;            // i64

  static constexpr uint32_t kOrderSize = 32;
  static constexpr uint32_t kOrderCarrierOff = 16;    // u32
  static constexpr uint32_t kOrderGdOff = 24;         // u32 global district

  static constexpr uint32_t kOrderLineSize = 56;
  static constexpr uint32_t kOlDeliveryDateOff = 20;  // u32
  static constexpr uint32_t kOlGdOff = 32;            // u32 global district

  static constexpr uint32_t kNewOrderSize = 16;
  static constexpr uint32_t kItemSize = 82;
  static constexpr uint32_t kHistorySize = 46;

 private:
  struct PendingOrder {
    uint64_t o_id;
    engine::Rid order_rid;
    engine::Rid new_order_rid;
    uint32_t customer;  // global customer index
    std::vector<engine::Rid> lines;
    uint32_t total_amount;
  };

  uint32_t GlobalDistrict(uint32_t w, uint32_t d) const {
    return w * config_.districts_per_warehouse + d;
  }
  uint32_t GlobalCustomer(uint32_t w, uint32_t d, uint32_t c) const {
    return GlobalDistrict(w, d) * config_.customers_per_district + c;
  }

  // Secondary-index key layouts (storage-resident B+trees).
  static uint64_t OrderKey(uint32_t gd, uint64_t o_id) {
    return (static_cast<uint64_t>(gd) << 40) | o_id;
  }
  static uint64_t LineKey(uint32_t gd, uint64_t o_id, uint32_t line) {
    return (static_cast<uint64_t>(gd) << 40) | (o_id << 8) | line;
  }

  Result<bool> NewOrder();
  Result<bool> Payment();
  Result<bool> OrderStatus();
  Result<bool> Delivery();
  Result<bool> StockLevel();

  /// Read a little-endian numeric at `off`, add `delta`, write it back
  /// through a byte-level Update (the IPA-friendly small write).
  Status AddToField32(engine::TxnId txn, engine::Rid rid, uint32_t off,
                      int32_t delta);
  Status AddToField64(engine::TxnId txn, engine::Rid rid, uint32_t off,
                      int64_t delta);

  engine::Database* db_;
  TpccConfig config_;
  TablespaceMap ts_of_;
  Rng rng_;
  NuRand nurand_;

  engine::TableId warehouse_ = 0, district_ = 0, customer_ = 0, history_ = 0,
                  order_ = 0, new_order_ = 0, order_line_ = 0, item_ = 0,
                  stock_ = 0;
  std::vector<engine::Rid> warehouse_rids_;
  std::vector<engine::Rid> district_rids_;
  std::unique_ptr<engine::Btree> customer_index_;
  std::unique_ptr<engine::Btree> stock_index_;
  std::vector<engine::Rid> item_rids_;

  // Storage-resident secondary indexes (maintained post-commit, rebuilt on
  // restart like all non-logged indexes — engine/btree.h):
  std::unique_ptr<engine::Btree> order_index_;      ///< OrderKey -> order rid
  std::unique_ptr<engine::Btree> line_index_;       ///< LineKey -> line rid
  std::unique_ptr<engine::Btree> new_order_index_;  ///< OrderKey -> NEW_ORDER rid
  std::unique_ptr<engine::Btree> last_order_index_; ///< customer -> OrderKey

  std::vector<uint64_t> next_o_id_;  ///< per global district (D_NEXT_O_ID cache)
  TpccMix mix_;
};

}  // namespace ipa::workload
