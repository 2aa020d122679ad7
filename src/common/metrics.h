// Unified observability layer: a process-wide registry of named counters,
// gauges and latency histograms, plus scoped trace spans that attribute
// *simulated* time to a subsystem tree.
//
// Design constraints (see docs/METRICS.md):
//  * Publish-only. The registry is one mutex-guarded map from name to
//    metric, and no per-operation path calls it. The flash device, the FTLs,
//    the engine, the workload drivers and the replication, admission and
//    serving layers count events and latencies in their own plain stats
//    structs and publish them (PublishStats, PublishHistogram) when they
//    discard them: at a stats reset and at destruction. A snapshot therefore
//    sees an owner's counts only after that owner was reset or destroyed.
//    Rare events (a closed trace span, a torn delta record) publish when
//    they happen.
//  * Deterministic snapshots. Publications merge by unordered summation, so
//    a snapshot is bit-identical however many worker threads (IPA_JOBS)
//    published — matching the parallel-runner determinism contract from
//    bench/parallel_runner.h.
//
// Export: any binary linking this library writes a metrics JSON file at
// process exit when IPA_METRICS_JSON is set; bench/tool binaries also accept
// --metrics-json PATH (metrics::InitFromArgs). An unwritable path is a loud
// startup error, never a silent skip. tools/bench_compare diffs two such
// files (counters exactly, histograms within a tolerance) — the building
// block of the CI perf-regression gate.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sim_clock.h"
#include "common/stats.h"
#include "common/status.h"

namespace ipa::metrics {

enum class Type : uint8_t { kCounter, kGauge, kHistogram };

const char* TypeName(Type t);

/// One metric in a snapshot. Exactly one of `value` (counter), `gauge` or
/// `hist` is meaningful, selected by `type`; only a histogram holds `hist`.
struct MetricValue {
  std::string name;
  Type type = Type::kCounter;
  uint64_t value = 0;  ///< Counter.
  int64_t gauge = 0;   ///< Gauge.
  std::optional<LatencyStats> hist;  ///< Histogram, in simulated microseconds.
};

/// A point-in-time merged view of every registered metric, sorted by name
/// (the serialization order is part of the stable JSON schema).
struct Snapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* Find(std::string_view name) const;
  /// Counter value by name; 0 when absent (or not a counter).
  uint64_t Counter(std::string_view name) const;

  /// Serialize to the stable ipa-metrics-v1 JSON document.
  std::string ToJson() const;
};

/// The process-wide registry: one mutex-guarded map from name to metric.
/// Owners publish into it with the functions below; TakeSnapshot() for
/// reporting.
class Registry {
 public:
  /// The singleton (leaked so atexit exporters can always reach it).
  static Registry& Instance();

  /// Adds each delta to its counter under one lock, so no snapshot sees
  /// some of them but not the others.
  void AddCounters(std::initializer_list<std::pair<std::string_view, uint64_t>> deltas);
  void SetGauge(std::string_view name, int64_t value);
  void MergeHistogram(std::string_view name, const LatencyStats& stats);

  Snapshot TakeSnapshot();

  /// Drops every metric. Test-only.
  void ResetForTest();

 private:
  Registry() = default;
  /// Metric `name`, created as `type` on first publication; null when the
  /// name already holds another type (the publication is dropped, with a
  /// one-time warning). The caller holds mu_.
  MetricValue* Slot(std::string_view name, Type type);

  std::mutex mu_;
  std::map<std::string, MetricValue, std::less<>> metrics_;
  bool type_mismatch_warned_ = false;
};

/// Adds `delta` to counter `name`.
inline void AddCounter(std::string_view name, uint64_t delta) {
  Registry::Instance().AddCounters({{name, delta}});
}

/// Sets gauge `name`: last write wins (e.g. a fingerprint or a configured
/// size).
inline void SetGauge(std::string_view name, int64_t value) {
  Registry::Instance().SetGauge(name, value);
}

/// Merges an owner's latency histogram into histogram `name`. Owners call
/// this where they publish their counters.
inline void PublishHistogram(std::string_view name, const LatencyStats& stats) {
  Registry::Instance().MergeHistogram(name, stats);
}

/// Adds every named field of an owner's stats struct to its counter. Owners
/// call this when they discard their counts (stats reset and destruction),
/// so each event is counted once, in the owner's struct (docs/METRICS.md,
/// "Owned counts").
template <typename Stats, size_t N>
void PublishStats(const Stats& stats, const StatField<Stats> (&fields)[N]) {
  for (const StatField<Stats>& f : fields) {
    if (f.metric) AddCounter(f.metric, stats.*f.field);
  }
}

// ---------------------------------------------------------------------------
// Trace spans: attribute simulated time to a subsystem tree
// ---------------------------------------------------------------------------

/// RAII span over a rare operation (a GC pass, a checkpoint, a mount). When
/// it closes it adds to `trace.<name>.calls`, `trace.<name>.sim_us`
/// (inclusive simulated time) and `trace.<name>.self_us` (minus time spent
/// in nested spans, tracked per thread). With a null clock both times stay
/// 0. `name` must outlive the span (a string literal).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const SimClock* clock);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const SimClock* clock_;
  SimTime t0_ = 0;
  uint64_t child_us_ = 0;
  ScopedSpan* parent_;
};

// ---------------------------------------------------------------------------
// Export / import / compare
// ---------------------------------------------------------------------------

/// Consume `--metrics-json PATH` (or `--metrics-json=PATH`) from argv and
/// arrange for a metrics JSON dump at process exit; overrides the
/// IPA_METRICS_JSON environment variable. The path is probed immediately —
/// an unwritable path terminates the process with a loud error (exit 2).
void InitFromArgs(int argc, char** argv);

/// Set the export path directly (same probing/atexit semantics).
void SetExportPath(const std::string& path);

/// Write `snap` as ipa-metrics-v1 JSON. False on I/O failure.
bool WriteSnapshotJson(const Snapshot& snap, const std::string& path);

/// Parse an ipa-metrics-v1 JSON document produced by ToJson().
Status ParseSnapshotJson(std::string_view json, Snapshot* out);

struct CompareOptions {
  /// Relative tolerance for histogram count/mean/max drift.
  double histogram_tolerance = 0.05;
  /// Metric-name prefixes excluded from comparison.
  std::vector<std::string> ignore_prefixes;
};

struct CompareReport {
  std::vector<std::string> diffs;  ///< Failures: one readable line each.
  std::vector<std::string> notes;  ///< Non-fatal observations (new metrics).
  bool ok() const { return diffs.empty(); }
};

/// Compare deterministic metrics exactly (counters, gauges) and histograms
/// within `options.histogram_tolerance`. A metric present in `baseline` but
/// missing from `current` is a failure; a new metric in `current` is a note.
CompareReport CompareSnapshots(const Snapshot& baseline, const Snapshot& current,
                               const CompareOptions& options = {});

}  // namespace ipa::metrics
