// Shared experiment harness for the per-table/figure benchmark binaries.
//
// RunWorkload() assembles a testbed (device profile + NoFTL region + engine),
// loads the selected workload, clears all statistics, runs the measurement
// phase and returns every metric the paper's tables report. All runs are
// deterministic for a fixed seed; sizes scale with the IPA_SCALE env var.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "engine/buffer_pool.h"
#include "ftl/noftl.h"
#include "workload/testbed.h"
#include "workload/workload.h"

namespace ipa::bench {

enum class Wl { kTpcb, kTpcc, kTatp, kLinkbench, kScanMix };

const char* WlName(Wl w);

struct RunConfig {
  Wl workload = Wl::kTpcb;
  storage::Scheme scheme = {};  // [0x0] = IPA off
  workload::Profile profile = workload::Profile::kEmulatorSlc;
  /// FTL backend under the tablespace; page-FTL backends force scheme = {}
  /// (see docs/FTL_BACKENDS.md).
  workload::Backend backend = workload::Backend::kNoFtl;
  double buffer_fraction = 0.5;
  uint32_t page_size = 4096;
  /// Eager Shore-MT policies (cleaner at 12.5% dirty, log reclaim at 37.5%)
  /// vs the paper's "non-eager" configuration (75% / ~100%).
  bool eager = true;
  uint64_t txns = 20000;
  bool record_update_sizes = false;
  bool record_io_trace = false;
  /// Workload size multiplier on top of IPA_SCALE.
  double scale = 1.0;
  /// Dataset multiplier (composes with the IPA_DATASET env var): grows the
  /// workload's dataset WITHOUT growing the buffer pool, which stays sized
  /// for the unmultiplied dataset. At 8.0 the heap is ~8x the buffer —
  /// the larger-than-RAM regime (eviction/scrub/GC under memory pressure).
  double dataset_multiplier = 1.0;
  uint64_t seed = 42;
  /// Region over-provisioning fraction (paper: 10% throughout).
  double over_provisioning = 0.10;
  /// When set, the measurement phase runs until this much *simulated* time
  /// has elapsed (like the paper's fixed 2-hour intervals) instead of a
  /// fixed transaction count; faster configurations then perform more host
  /// I/O, as in Tables 6-10. `txns` becomes a safety cap (x50).
  uint64_t sim_time_us = 0;
};

/// Simulated CPU time the host spends per transaction of `w` (RunWorkload
/// advances the clock by it between transactions): with large buffers
/// transactions become CPU-bound and IPA's relative throughput gain fades,
/// as in Table 9.
uint32_t DefaultCpuUs(Wl w);

struct RunResult {
  // Host I/O (measurement phase only).
  uint64_t host_reads = 0;
  uint64_t host_page_writes = 0;
  uint64_t host_delta_writes = 0;
  uint64_t host_writes = 0;  ///< page + delta writes
  double ipa_share_pct = 0;  ///< % of host writes served as in-place appends
  uint64_t delta_bytes_written = 0;
  uint64_t ipa_fallbacks = 0;

  // Garbage collection.
  uint64_t gc_migrations = 0;
  uint64_t gc_erases = 0;
  double migrations_per_host_write = 0;
  double erases_per_host_write = 0;

  // Latency / throughput (simulated time).
  double read_latency_ms = 0;
  double write_latency_ms = 0;  ///< out-of-place page writes
  // Latency CDF points (simulated ms) for the backend-comparison tables.
  double read_p50_ms = 0, read_p95_ms = 0, read_p99_ms = 0;
  double write_p50_ms = 0, write_p95_ms = 0, write_p99_ms = 0;
  double txn_latency_ms = 0;
  double throughput_tps = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t sim_us = 0;

  // DB I/O write amplification inputs (Section 8.4).
  uint64_t gross_written_bytes = 0;   ///< page writes * page_size + delta bytes
  uint64_t net_changed_bytes = 0;     ///< sum of byte-diffs at flush time
  double WriteAmplification() const {
    return net_changed_bytes == 0
               ? 0.0
               : static_cast<double>(gross_written_bytes) /
                     static_cast<double>(net_changed_bytes);
  }

  // Distributions / traces (populated on request).
  std::map<engine::TableId, engine::UpdateSizeTrace> traces;
  std::map<std::string, engine::UpdateSizeTrace> traces_by_name;
  std::vector<engine::IoEvent> io_trace;

  double space_overhead_pct = 0;  ///< delta-area share of the page
};

Result<RunResult> RunWorkload(const RunConfig& config);

/// Print a loud one-time stderr warning when the bench harness was compiled
/// without optimization (Debug build): timings would be meaningless.
void WarnIfDebugBuild();

/// Default measurement-phase transaction counts per workload, scaled by
/// IPA_SCALE (kept small enough that every bench binary finishes quickly).
uint64_t DefaultTxns(Wl w);

// ---------------------------------------------------------------------------
// Table formatting
// ---------------------------------------------------------------------------

/// Fixed-width text table, matching the paper's presentation style.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Fmt(double v, int decimals = 2);
std::string Pct(double v, int decimals = 0);  ///< signed percent, e.g. "-54"

/// Tables 6 / 8: OpenSSD profile — baseline MLC without IPA vs the [NxM]
/// scheme in pSLC and odd-MLC modes; absolute + relative columns.
int PrintOpenSsdTable(Wl workload, storage::Scheme scheme);

/// Tables 7 / 9 / 10: buffer-size sweep on the flash emulator — [0x0]
/// absolute vs scheme-relative columns for each buffer fraction.
struct SweepPoint {
  double buffer_fraction;
  std::vector<storage::Scheme> schemes;  ///< relative columns per buffer
};
int PrintBufferSweepTable(Wl workload, const std::vector<SweepPoint>& points,
                          bool eager);

}  // namespace ipa::bench
