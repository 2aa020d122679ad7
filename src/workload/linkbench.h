// LinkBench: Facebook's social-graph benchmark (Appendix A.0.3).
//
// Schema: NODE (objects), LINK (directed edges), COUNT (per-node edge
// counters). The operation mix and payload-size behaviour follow the
// LinkBench paper: reads dominate (GET_LINK_LIST alone is ~51%), node
// payloads average under 90 bytes, link payloads under 12 bytes (half
// empty), and over a third of updates change only numeric fields
// (version/time) — which is why LinkBench updates fit IPA's larger
// [N x 100..125] schemes (Figure 10, Tables 3/5).
//
// Access skew is Zipfian over node ids. Adjacency (id1 -> link rids) and
// count-row locations are kept in process memory as the secondary access
// path; rows live in the engine.

#pragma once

#include <unordered_map>
#include <vector>

#include "engine/btree.h"
#include "workload/workload.h"

namespace ipa::workload {

struct LinkbenchConfig {
  uint64_t nodes = 40000;
  double links_per_node = 2.0;
  double zipf_theta = 0.8;
  uint64_t seed = 17;
};

/// Operations a Linkbench driver ran, by type: published under
/// `workload.linkbench.*` when the driver is destroyed.
struct LinkbenchMix {
  uint64_t get_node = 0, add_node = 0, update_node = 0, delete_node = 0;
  uint64_t get_link = 0, add_link = 0, delete_link = 0, update_link = 0;
  uint64_t count_link = 0, get_link_list = 0;
};

class Linkbench : public Workload {
 public:
  Linkbench(engine::Database* db, LinkbenchConfig config, TablespaceMap ts_of);
  ~Linkbench() override;

  Status Load() override;
  Result<bool> RunTransaction() override;
  std::string name() const override { return "LinkBench"; }
  uint64_t EstimatedPages(uint32_t page_size) const override;

  /// Rebuild node/count/link indexes from heap scans after crash recovery.
  /// Adjacency seq numbers are reassigned in scan order (links carry no
  /// ordering key of their own; "newest links" become approximate after a
  /// restart, which LinkBench tolerates).
  Status RebuildIndexes() override;

  engine::TableId node_table() const { return node_; }

  // NODE: id u64 | type u32 | version u64 | time u32 | payload[var]
  static constexpr uint32_t kNodeHeader = 24;
  static constexpr uint32_t kNodeVersionOff = 12;  // u64
  static constexpr uint32_t kNodeTimeOff = 20;     // u32
  // LINK: id1 u64 | type u32 | id2 u64 | vis u8 | version u32 | time u32 | payload
  static constexpr uint32_t kLinkHeader = 29;
  static constexpr uint32_t kLinkVersionOff = 21;  // u32
  static constexpr uint32_t kLinkTimeOff = 25;     // u32
  // COUNT: id u64 | type u32 | count u64 | time u32 | version u64
  static constexpr uint32_t kCountSize = 32;
  static constexpr uint32_t kCountValueOff = 12;   // u64
  static constexpr uint32_t kCountTimeOff = 20;    // u32

 private:
  uint64_t ZipfNode();
  std::vector<uint8_t> MakeNodeTuple(uint64_t id, uint32_t payload_len);
  std::vector<uint8_t> MakeLinkTuple(uint64_t id1, uint64_t id2,
                                     uint32_t payload_len);
  uint32_t SampleNodePayload();
  uint32_t SampleLinkPayload();

  Result<bool> GetNode();
  Result<bool> AddNode();
  Result<bool> UpdateNode();
  Result<bool> DeleteNode();
  Result<bool> GetLink();
  Result<bool> AddLink();
  Result<bool> DeleteLink();
  Result<bool> UpdateLink();
  Result<bool> CountLink();
  Result<bool> GetLinkList();

  Status BumpCount(engine::TxnId txn, uint64_t id, int64_t delta);
  static uint64_t LinkKey(uint64_t id1, uint32_t seq) {
    return (id1 << 20) | seq;
  }

  engine::Database* db_;
  LinkbenchConfig config_;
  TablespaceMap ts_of_;
  Rng rng_;
  std::unique_ptr<ZipfianGenerator> zipf_;
  DiscreteCdf node_payload_cdf_;
  DiscreteCdf link_payload_cdf_;

  engine::TableId node_ = 0, link_ = 0, count_ = 0;
  std::unique_ptr<engine::Btree> node_index_;   ///< node id -> rid
  /// Adjacency as a storage-resident index: (id1 << 20 | seq) -> link rid.
  /// `seq` slots are allocated by the in-memory counter below (an allocation
  /// cache, not an access path — lookups go through the index).
  std::unique_ptr<engine::Btree> link_index_;
  std::unique_ptr<engine::Btree> count_index_;  ///< node id -> COUNT rid
  std::unordered_map<uint64_t, uint32_t> next_link_seq_;
  uint64_t next_node_id_ = 0;
  LinkbenchMix mix_;
};

}  // namespace ipa::workload
