// TATP (Telecom Application Transaction Processing) workload.
//
// Schema: SUBSCRIBER (S rows), ACCESS_INFO (1-4 per subscriber),
// SPECIAL_FACILITY (1-4 per subscriber), CALL_FORWARDING (0-3 per facility).
// The standard mix is 80% reads / 16% updates / 4% insert+delete; the
// signature write is UpdateLocation: a 4-byte VLR_LOCATION change — one of
// the smallest updates in any OLTP benchmark, which is why the paper uses
// TATP in the IPL comparison (Table 2).

#pragma once

#include <vector>

#include "engine/btree.h"
#include "workload/workload.h"

namespace ipa::workload {

struct TatpConfig {
  uint32_t subscribers = 50000;
  uint64_t seed = 13;
};

/// Transactions a Tatp driver ran, by type: published under
/// `workload.tatp.*` when the driver is destroyed.
struct TatpMix {
  uint64_t get_subscriber = 0, get_new_dest = 0, get_access = 0;
  uint64_t upd_subscriber = 0, upd_location = 0, ins_call_fwd = 0, del_call_fwd = 0;
};

class Tatp : public Workload {
 public:
  Tatp(engine::Database* db, TatpConfig config, TablespaceMap ts_of);
  ~Tatp() override;

  Status Load() override;
  Result<bool> RunTransaction() override;
  std::string name() const override { return "TATP"; }
  uint64_t EstimatedPages(uint32_t page_size) const override;

  /// Rebuild the four indexes from heap scans after crash recovery (keys are
  /// reconstructed from the rows' own id/type fields).
  Status RebuildIndexes() override;

  static constexpr uint32_t kSubscriberSize = 120;
  static constexpr uint32_t kVlrLocationOff = 100;  // u32
  static constexpr uint32_t kBit1Off = 40;          // u8
  static constexpr uint32_t kAccessInfoSize = 40;
  static constexpr uint32_t kSpecialFacilitySize = 40;
  static constexpr uint32_t kSfDataAOff = 12;  // u8
  static constexpr uint32_t kCallForwardingSize = 40;

 private:
  uint32_t RandomSubscriber();

  Result<bool> GetSubscriberData();
  Result<bool> GetNewDestination();
  Result<bool> GetAccessData();
  Result<bool> UpdateSubscriberData();
  Result<bool> UpdateLocation();
  Result<bool> InsertCallForwarding();
  Result<bool> DeleteCallForwarding();

  engine::Database* db_;
  TatpConfig config_;
  TablespaceMap ts_of_;
  Rng rng_;

  engine::TableId subscriber_ = 0, access_info_ = 0, special_facility_ = 0,
                  call_forwarding_ = 0;
  std::unique_ptr<engine::Btree> subscriber_index_;
  /// Storage-resident child-table indexes (keys below); index traffic takes
  /// real page I/O like the TATP spec's primary-key accesses.
  std::unique_ptr<engine::Btree> ai_index_;  ///< s*4 + ai_type -> rid
  std::unique_ptr<engine::Btree> sf_index_;  ///< s*4 + sf_type -> rid
  std::unique_ptr<engine::Btree> cf_index_;  ///< (s*4 + sf)*8 + slot -> rid
  TatpMix mix_;
};

}  // namespace ipa::workload
