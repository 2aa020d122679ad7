// Workload framework: TPC-B, TPC-C, TATP and LinkBench drivers over the
// engine (Section 8.2 analyses, Sections 8.3/8.4 evaluations).
//
// All workloads run at reduced scale; the schemas, transaction profiles and
// attribute layouts follow the respective specifications so the *update-size
// distributions* — the property the paper's analysis rests on — are
// faithful. Each driver documents its deviations.
//
// Secondary access paths that a full system would keep in auxiliary
// structures (e.g. "oldest undelivered order per district") are held in
// process memory where noted; primary data and indexes live in the engine
// and generate real page I/O.
//
// Each driver counts the transactions of its mix in a member and publishes
// them under `workload.*` when it is destroyed (docs/METRICS.md).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "engine/database.h"

namespace ipa::workload {

/// Assigns tables to tablespaces; returning the same id for every table puts
/// the whole database in one region (the default). Selective-IPA experiments
/// map write-hot tables to an IPA region and the rest elsewhere (Section 5).
using TablespaceMap =
    std::function<engine::TablespaceId(const std::string& table_name)>;

inline TablespaceMap SingleTablespace(engine::TablespaceId ts) {
  return [ts](const std::string&) { return ts; };
}

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  // A driver publishes its mix when destroyed: a copy, or a moved-from
  // shell, would publish it twice.
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Create tables/indexes and populate the initial database.
  virtual Status Load() = 0;

  /// Execute one transaction of the mix. Returns true if it committed
  /// (some mixes contain spec-mandated rollbacks).
  virtual Result<bool> RunTransaction() = 0;

  virtual std::string name() const = 0;

  /// Rebuild secondary access structures (B+tree indexes, rid caches) from
  /// heap scans after crash recovery — indexes are not WAL-logged
  /// (engine/btree.h), so ARIES restores heap content only. Default: not
  /// implemented for this workload.
  virtual Status RebuildIndexes() {
    return Status::NotSupported("index rebuild not implemented");
  }

  /// Rough number of data pages the loaded database occupies — used to size
  /// regions and express buffer sizes as a fraction of the DB.
  virtual uint64_t EstimatedPages(uint32_t page_size) const = 0;
};

/// Run `n` transactions, aborting the run on hard errors.
Status RunTransactions(Workload& w, uint64_t n);

/// Publishes a driver's mix counts (metrics::PublishStats) once any of them
/// moved, so a driver that ran none of them, such as one built with a null
/// database only to size a stack, publishes no name.
template <typename Mix, size_t N>
void PublishMix(const Mix& mix, const StatField<Mix> (&fields)[N]) {
  for (const StatField<Mix>& f : fields) {
    if (mix.*f.field != 0) {
      metrics::PublishStats(mix, fields);
      return;
    }
  }
}

}  // namespace ipa::workload
