// TPC-H-lite: a scan/analytics mix interleaved with OLTP writers, modeled on
// KVell's workload-scan.c / workload-tpch.c (PAPERS.md). One LINEITEM-style
// fact table takes range scans with aggregation (Q1/Q6-lite) while writer
// transactions keep mutating quantities and prices and appending fresh rows
// — so scans run against pages whose delta areas are live, and under a
// larger-than-RAM dataset the mix exercises eviction, scrub and GC instead
// of the fits-in-RAM regime.
//
// Determinism: every decision draws from the seeded Rng, and each analytics
// query folds its aggregate into `agg_fingerprint()` — the cross-IPA_JOBS
// determinism oracle (tests/delta_codec_test.cc).

#pragma once

#include <memory>
#include <vector>

#include "engine/btree.h"
#include "workload/workload.h"

namespace ipa::workload {

struct TpchLiteConfig {
  /// Rows in the LINEITEM fact table.
  uint64_t rows = 40000;
  /// Rows visited by one range scan.
  uint32_t scan_span = 512;
  /// One analytics transaction every `scan_every` transactions; the rest
  /// are OLTP writers.
  uint32_t scan_every = 8;
  /// One writer in `insert_every` appends a fresh row instead of updating.
  uint32_t insert_every = 16;
  uint32_t seed = 11;
};

/// Transactions a TpchLite driver ran: published under
/// `workload.tpch_lite.*` when the driver is destroyed, the two scan counts
/// once a scan ran and the writer count once a writer ran.
struct TpchLiteMix {
  uint64_t scans = 0, scan_rows = 0, writer_txns = 0;
};

class TpchLite : public Workload {
 public:
  static constexpr uint32_t kLineTupleSize = 120;
  static constexpr uint32_t kQtyOffset = 8;
  static constexpr uint32_t kPriceOffset = 12;
  static constexpr uint32_t kDiscountOffset = 16;
  static constexpr uint32_t kShipDateOffset = 20;

  TpchLite(engine::Database* db, TpchLiteConfig config, TablespaceMap ts_of);
  ~TpchLite() override;

  Status Load() override;
  Result<bool> RunTransaction() override;
  std::string name() const override { return "tpch-lite"; }
  Status RebuildIndexes() override;
  uint64_t EstimatedPages(uint32_t page_size) const override;

  /// Order-sensitive digest of every aggregate any analytics query computed
  /// so far. Two runs with the same seed and transaction count must agree
  /// byte for byte, whatever IPA_JOBS or the codec in use.
  uint64_t agg_fingerprint() const { return agg_fingerprint_; }
  uint64_t scans_run() const { return scans_run_; }

 private:
  Result<bool> RunAnalytics();
  Result<bool> RunWriter();

  engine::Database* db_;
  TpchLiteConfig config_;
  TablespaceMap ts_of_;
  Rng rng_;

  engine::TableId lineitem_ = 0;
  std::unique_ptr<engine::Btree> line_index_;
  uint64_t next_row_ = 0;  ///< Next fresh row key for inserts.
  uint64_t txn_counter_ = 0;
  uint64_t agg_fingerprint_ = 0;
  uint64_t scans_run_ = 0;
  TpchLiteMix mix_;
};

}  // namespace ipa::workload
