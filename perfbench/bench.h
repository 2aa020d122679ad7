// Shared pieces of the repo benchmark: raw-sample percentiles, counter
// snapshots, the span tracer and the forwarding device it wraps around each
// tablespace, the Instance interface every workload implements, and the
// repetition loop (Run) that measures them.
//
// Layers, as the metric names use them: `net` (protocol, admission,
// KvService), `engine` (database, buffer pool, WAL, locks, B+-tree,
// sharding), `ftl` (the tablespace's PageDevice: NoFTL region or StreamFtl)
// and `flash` (FlashArray counters).

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "engine/buffer_pool.h"
#include "engine/database.h"
#include "flash/flash_array.h"
#include "ftl/ftl_backend.h"

namespace perfbench {

using ipa::SimClock;
using ipa::SimTime;
using ipa::Status;

inline uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Percentiles from raw samples
// ---------------------------------------------------------------------------

/// Nearest-rank percentiles of raw samples, plus the highest of
/// p50/p90/p99/p99.9/p99.99 that still has at least 10 samples beyond it.
struct Percentiles {
  uint64_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double top_pct = 0;
  double top = 0;
};
/// `integral`: the samples are whole simulated microseconds; ties are
/// interpolated across the microsecond they stand for.
Percentiles Summarize(std::vector<double> samples, bool integral = false);

// ---------------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------------

/// Every counter the benchmark reads from the stack; windows are measured as
/// the difference of two snapshots, so nothing is ever reset.
struct Counters {
  ipa::flash::DeviceStats dev;
  ipa::ftl::RegionStats region;  ///< Latency histograms are not diffed.
  ipa::engine::BufferStats buf;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;

  void AddDb(ipa::engine::Database& db);
  void AddRegion(const ipa::ftl::RegionStats& rs);
};
Counters Minus(const Counters& after, const Counters& before);
/// All counters as one vector, for exact comparison between runs.
std::vector<uint64_t> Flatten(const Counters& c);
/// Full-page program bytes (host and GC) plus delta bytes, per op.
inline double FlashBytesPerOp(const Counters& c, double ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(c.dev.bytes_programmed +
                                        c.dev.delta_bytes_programmed) /
                        ops;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

enum class SpanKind : uint8_t {
  kOp,          ///< One workload operation (the parent of everything below).
  kRead,        ///< PageDevice::ReadPage.
  kWritePage,   ///< PageDevice::WritePage / WriteTagged.
  kWriteDelta,  ///< PageDevice::WriteDelta.
  kEncode,      ///< Frame encode (request and response).
  kDecode,      ///< Frame decode + parse (request and response).
  kKvCall,      ///< KvService Get/Put/Delete.
  kForceLog,    ///< KvService::ForceLog (group-commit close).
};
inline constexpr int kSpanKinds = 8;
const char* SpanKindName(SpanKind k);

struct Span {
  static constexpr uint32_t kNoOp = ~0u;
  uint32_t op = kNoOp;  ///< Index of the enclosing op span.
  SpanKind kind = SpanKind::kOp;
  bool rejected = false;  ///< WriteDelta refused (the caller writes the page).
  uint64_t wall_begin_ns = 0, wall_end_ns = 0;
  SimTime sim_begin = 0, sim_end = 0;
};

/// In-memory span recorder. Spans are kept until the run ends, then reduced
/// to per-layer self times and written out as TSV.
class Tracer {
 public:
  void set_active(bool on) { active_ = on; }
  bool active() const { return active_; }

  void BeginOp();
  void EndOp(SimTime sim_begin, SimTime sim_end);
  /// Child spans attach to the open op (or to none outside an op).
  uint32_t BeginChild(SpanKind kind, SimTime sim_now);
  void EndChild(uint32_t span, SimTime sim_now, bool rejected);

  const std::vector<Span>& spans() const { return spans_; }
  /// Write the spans of the first `max_ops` op spans (and their children).
  Status WriteTsv(const std::string& path, uint32_t max_ops) const;

 private:
  std::vector<Span> spans_;
  uint32_t open_op_ = Span::kNoOp;
  bool active_ = false;
};

/// RAII child span; a null tracer makes it free.
class SpanScope {
 public:
  SpanScope(Tracer* t, SpanKind kind, const SimClock& clock)
      : t_(t && t->active() ? t : nullptr), clock_(clock) {
    if (t_) span_ = t_->BeginChild(kind, clock.Now());
  }
  ~SpanScope() {
    if (t_) t_->EndChild(span_, clock_.Now(), rejected_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_rejected() { rejected_ = true; }

 private:
  Tracer* t_;
  const SimClock& clock_;
  uint32_t span_ = 0;
  bool rejected_ = false;
};

/// Forwarding FtlBackend that records one span per data-path call. Every
/// call, including WriteTagged with its tag and the management plane, is
/// forwarded unchanged, so a stack behaves identically with or without it.
class TracedDevice final : public ipa::ftl::FtlBackend {
 public:
  TracedDevice(ipa::ftl::FtlBackend* inner, Tracer* tracer,
               const SimClock* clock)
      : inner_(inner), tracer_(tracer), clock_(clock) {}

  Status ReadPage(ipa::ftl::Lba lba, uint8_t* out) override {
    SpanScope s(tracer_, SpanKind::kRead, *clock_);
    return inner_->ReadPage(lba, out);
  }
  Status WritePage(ipa::ftl::Lba lba, const uint8_t* data, bool sync) override {
    SpanScope s(tracer_, SpanKind::kWritePage, *clock_);
    return inner_->WritePage(lba, data, sync);
  }
  Status WriteTagged(ipa::ftl::Lba lba, const uint8_t* data, bool sync,
                     ipa::ftl::StreamTag tag) override {
    SpanScope s(tracer_, SpanKind::kWritePage, *clock_);
    return inner_->WriteTagged(lba, data, sync, tag);
  }
  Status WriteDelta(ipa::ftl::Lba lba, uint32_t offset, const uint8_t* bytes,
                    uint32_t len, bool sync) override {
    SpanScope s(tracer_, SpanKind::kWriteDelta, *clock_);
    Status st = inner_->WriteDelta(lba, offset, bytes, len, sync);
    if (!st.ok()) s.set_rejected();
    return st;
  }
  bool DeltaWritePossible(ipa::ftl::Lba lba) const override {
    return inner_->DeltaWritePossible(lba);
  }
  bool IsMapped(ipa::ftl::Lba lba) const override {
    return inner_->IsMapped(lba);
  }
  uint32_t page_size() const override { return inner_->page_size(); }
  uint64_t capacity_pages() const override { return inner_->capacity_pages(); }
  const char* backend_name() const override { return inner_->backend_name(); }
  Status Trim(ipa::ftl::Lba lba) override { return inner_->Trim(lba); }
  Status Mount(ipa::ftl::MountScanReport* report) override {
    return inner_->Mount(report);
  }
  Status Audit() const override { return inner_->Audit(); }
  const ipa::ftl::RegionStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  ipa::ftl::FtlBackend* inner_;
  Tracer* tracer_;
  const SimClock* clock_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one measured window produced. Everything except the wall fields is
/// a pure function of (workload, seed, seconds) and is compared exactly
/// between repetitions and between the traced and untraced runs.
struct Window {
  uint64_t attempted = 0;
  uint64_t completed = 0;  ///< Operations that finished without an error.
  uint64_t failed = 0;
  SimTime sim_us = 0;
  std::vector<double> sim_lat_us;  ///< Per completed op.
  Counters delta;                  ///< Whole window.
  Counters first_half;             ///< First half of the ops.
  uint64_t forces = 0;             ///< Log-force events (durable LSN moved).
  /// Serving only.
  uint64_t shed = 0, wire_bytes = 0;
  std::vector<double> queue_wait_us, force_wait_us;

  std::vector<double> wall_lat_ns;  ///< Per completed op.
  double wall_s = 0;
  double setup_s = 0;

  std::vector<uint64_t> Fingerprint() const;
};

/// One workload's full result: windows of every repetition, the SLO rate
/// and the correctness verdict.
struct Outcome {
  std::vector<Window> reps;
  double slo_rate = 0;
  std::vector<Metric> layer;  ///< Span-derived metrics of the traced rep.
  std::string error;          ///< Non-empty: a check failed.
};

/// How a workload is run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  uint32_t seconds = 10;
  bool trace = false;
  std::string spans_out;
};

/// One built stack of a workload.
class Instance {
 public:
  virtual ~Instance() = default;
  /// Build, load, checkpoint and warm up until GC runs. A non-null `tracer`
  /// gets every tablespace device wrapped in a TracedDevice.
  virtual Status Setup(uint64_t seed, Tracer* tracer) = 0;
  /// One '#' line: DB and buffer pages, ops per window.
  virtual void PrintShape(uint64_t ops) const = 0;
  /// The measured window of `ops` operations (spans go to `tracer`).
  virtual ipa::Result<Window> Measure(uint64_t ops, Tracer* tracer) = 0;
  /// One open-loop SLO rung at `rate`: does it meet the workload's limit?
  virtual ipa::Result<bool> Probe(double rate, uint64_t seed) = 0;
  /// Output checks after the run (FtlBackend::Audit and the workload's own).
  virtual Status Check() = 0;
};

struct WorkloadDef {
  /// Ops per wall second the window is sized for: the window is
  /// nominal_ops_per_s * --seconds ops, split over the repetitions, so
  /// simulated results are a pure function of (workload, seed, seconds).
  double nominal_ops_per_s = 0;
  /// Absolute simulated rates of the SLO search (ascending).
  std::vector<double> ladder;
  std::function<std::unique_ptr<Instance>()> make;
};

WorkloadDef TpcbIpaEcc();
WorkloadDef LinkbenchStreamFtl();
WorkloadDef ServeKv();

/// Untraced: three repetitions of setup + window (setup and wall figures are
/// their medians). Traced: one untraced repetition as the overhead baseline,
/// then the traced one, then the SLO search. Output checks run after the
/// last repetition.
Outcome Run(const WorkloadDef& def, const Options& opt);

/// Deterministic counter-derived per-layer metrics of one window.
void AddCounterMetrics(const Window& w, std::vector<Metric>* out);
/// Span-derived per-layer metrics (tracer must hold exactly one window).
void AddSpanMetrics(const Tracer& t, uint64_t ops, std::vector<Metric>* out);

/// Rates from `lo` to `hi` in steps of 5%, rounded to whole ops/s.
std::vector<double> GeometricLadder(double lo, double hi);

/// Print one SLO rung's outcome; returns whether it passed (p99 and
/// end-of-rung lag both within `limit_us`).
bool ReportProbe(double rate, double p99_us, double lag_us, uint64_t shed,
                 double limit_us);

/// Simulated p99 limit of the SLO search (microseconds).
inline constexpr double kSloP99Us = 2000;

}  // namespace perfbench
