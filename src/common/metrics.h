// Unified observability layer: a process-wide registry of named counters,
// gauges and latency histograms, plus scoped trace spans that attribute
// *simulated* time to a subsystem tree.
//
// Design constraints (see docs/METRICS.md):
//  * Cheap hot path. A metric name is interned exactly once (at handle
//    construction); every update is an index into a per-thread shard — no
//    map lookup, no lock, no shared cache line between writer threads.
//  * Deterministic snapshots. Counter and histogram cells are merged by
//    unordered summation, so a snapshot is bit-identical however many
//    worker threads (IPA_JOBS) produced the increments — matching the
//    parallel-runner determinism contract from bench/parallel_runner.h.
//  * Concurrent-safe. Cells are relaxed atomics written by exactly one
//    thread; snapshots may race with writers without UB (they observe a
//    slightly stale but consistent-per-cell view; quiesced snapshots, as
//    taken at process exit, are exact).
//  * Owned counts. The flash device, the FTLs, the engine and the
//    replication and admission layers count events only in their own plain
//    stats structs and publish them (PublishStats) when they discard them:
//    at a stats reset and at destruction. A snapshot therefore sees an
//    owner's counts only after that owner was reset or destroyed.
//
// Export: any binary linking this library writes a metrics JSON file at
// process exit when IPA_METRICS_JSON is set; bench/tool binaries also accept
// --metrics-json PATH (metrics::InitFromArgs). An unwritable path is a loud
// startup error, never a silent skip. tools/bench_compare diffs two such
// files (counters exactly, histograms within a tolerance) — the building
// block of the CI perf-regression gate.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_clock.h"
#include "common/stats.h"
#include "common/status.h"

namespace ipa::metrics {

enum class Type : uint8_t { kCounter, kGauge, kHistogram };

const char* TypeName(Type t);

/// Merged histogram cells: power-of-two buckets (bucket 0 holds value 0,
/// bucket i holds values in [2^(i-1), 2^i)), plus count/sum/max. Values are
/// simulated microseconds on every latency metric.
struct HistogramValue {
  static constexpr size_t kBuckets = 65;  // bit_width(uint64) in [0, 64]

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound (exclusive) of the bucket holding the p-th percentile
  /// sample, p in [0,100]; 0 when empty.
  uint64_t PercentileUpperBound(double p) const;
  void Merge(const HistogramValue& other);
};

/// One metric in a snapshot. Exactly one of `value` (counter), `gauge` or
/// `hist` is meaningful, selected by `type`.
struct MetricValue {
  std::string name;
  Type type = Type::kCounter;
  uint64_t value = 0;  ///< Counter.
  int64_t gauge = 0;   ///< Gauge.
  HistogramValue hist;
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

/// The process-wide registry. Use the typed handles below instead of calling
/// Intern directly; TakeSnapshot() for reporting.
class Registry {
 public:
  // Capacity of the interned id spaces. Registration past a limit is a loud
  // stderr warning and the overflowing metric routes to a dead cell.
  static constexpr uint32_t kMaxCounters = 1024;
  static constexpr uint32_t kMaxGauges = 256;
  static constexpr uint32_t kMaxHistograms = 256;

  /// The singleton (leaked so atexit exporters can always reach it).
  static Registry& Instance();

  /// Intern `name` with `type`; idempotent. Returns the type-specific index.
  uint32_t Intern(std::string_view name, Type type);

  Snapshot TakeSnapshot();

  /// Zero every live cell, retired accumulator and gauge. Test-only: must
  /// not race with concurrent writers.
  void ResetForTest();

  // -- internal (used by the typed handles; not part of the public API) -----
  std::atomic<uint64_t>* CounterCell(uint32_t id);
  void SetGauge(uint32_t id, int64_t v);
  void RecordHistogram(uint32_t id, uint64_t v);

 private:
  friend struct ThreadShard;
  Registry();
  struct Impl;
  Impl* impl_;
};

/// Monotonic event count.
class Counter {
 public:
  explicit Counter(std::string_view name)
      : id_(Registry::Instance().Intern(name, Type::kCounter)) {}
  void Add(uint64_t delta) {
    Registry::Instance().CounterCell(id_)->fetch_add(delta, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

 private:
  uint32_t id_;
};

/// Last-write-wins scalar (e.g. a fingerprint or a configured size).
class Gauge {
 public:
  explicit Gauge(std::string_view name)
      : id_(Registry::Instance().Intern(name, Type::kGauge)) {}
  void Set(int64_t v) { Registry::Instance().SetGauge(id_, v); }

 private:
  uint32_t id_;
};

/// Log-bucketed value distribution (latencies in simulated microseconds).
class Histogram {
 public:
  explicit Histogram(std::string_view name)
      : id_(Registry::Instance().Intern(name, Type::kHistogram)) {}
  void Record(uint64_t v) { Registry::Instance().RecordHistogram(id_, v); }

 private:
  uint32_t id_;
};

/// Add every named field of an owner's stats struct to its counter,
/// registering the name on first use. Owners call this when they discard
/// their counts (stats reset and destruction), so each event is counted once,
/// in the owner's struct (docs/METRICS.md, "Owned counts").
template <typename Stats, size_t N>
void PublishStats(const Stats& stats, const StatField<Stats> (&fields)[N]) {
  for (const StatField<Stats>& f : fields) {
    if (f.metric) Counter(f.metric).Add(stats.*f.field);
  }
}

// ---------------------------------------------------------------------------
// Trace spans: attribute simulated time to a subsystem tree
// ---------------------------------------------------------------------------

/// Interns the three metrics of one span site: `trace.<name>.calls`,
/// `trace.<name>.sim_us` (inclusive simulated time) and
/// `trace.<name>.self_us` (minus time spent in nested spans). Declared
/// `static` at the instrumentation site via IPA_TRACE_SPAN.
class SpanSite {
 public:
  explicit SpanSite(const char* name);

  Counter calls;
  Counter sim_us;
  Counter self_us;
};

/// RAII span. With a null clock only `calls` is counted. Nesting is tracked
/// per thread so `self_us` excludes child-span time.
class ScopedSpan {
 public:
  ScopedSpan(SpanSite& site, const SimClock* clock);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite& site_;
  const SimClock* clock_;
  SimTime t0_ = 0;
  uint64_t child_us_ = 0;
  ScopedSpan* parent_;
};

// IPA_TRACE_SPAN("ftl.gc", &clock) — or IPA_TRACE_SPAN("ftl.gc") to count
// calls without time attribution. Use at block scope; the span closes when
// the enclosing scope exits.
#define IPA_METRICS_CONCAT2(a, b) a##b
#define IPA_METRICS_CONCAT(a, b) IPA_METRICS_CONCAT2(a, b)
#define IPA_TRACE_SPAN_2(name, clock)                                         \
  static ::ipa::metrics::SpanSite IPA_METRICS_CONCAT(ipa_span_site_,          \
                                                     __LINE__)(name);         \
  ::ipa::metrics::ScopedSpan IPA_METRICS_CONCAT(ipa_span_, __LINE__)(         \
      IPA_METRICS_CONCAT(ipa_span_site_, __LINE__), (clock))
#define IPA_TRACE_SPAN_1(name) IPA_TRACE_SPAN_2(name, nullptr)
#define IPA_TRACE_SPAN_GET(_1, _2, macro, ...) macro
#define IPA_TRACE_SPAN(...)                                                   \
  IPA_TRACE_SPAN_GET(__VA_ARGS__, IPA_TRACE_SPAN_2, IPA_TRACE_SPAN_1)         \
  (__VA_ARGS__)

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
