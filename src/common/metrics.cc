#include "common/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

namespace ipa::metrics {

const char* TypeName(Type t) {
  switch (t) {
    case Type::kCounter: return "counter";
    case Type::kGauge: return "gauge";
    case Type::kHistogram: return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Registry: per-thread shards of relaxed-atomic counter cells
// ---------------------------------------------------------------------------

/// One thread's private counter cells. The array is allocated at full
/// registry capacity up front so a snapshot never races a container resize;
/// a cell is written by its owning thread only and read (relaxed) by
/// snapshotters.
struct ThreadShard {
  std::unique_ptr<std::atomic<uint64_t>[]> counters;
  Registry::Impl* impl = nullptr;

  ThreadShard() : counters(new std::atomic<uint64_t>[Registry::kMaxCounters]) {
    for (uint32_t i = 0; i < Registry::kMaxCounters; i++) {
      counters[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Folds this shard into the registry's retired accumulator and deletes it.
  void RetireSelf();
};

struct Registry::Impl {
  std::mutex mu;
  struct Def {
    std::string name;
    Type type;
    uint32_t index;
  };
  std::map<std::string, Def, std::less<>> defs;  // name -> definition
  uint32_t next_counter = 0;
  uint32_t next_gauge = 0;
  uint32_t next_hist = 0;
  bool overflow_warned = false;
  bool type_mismatch_warned = false;

  std::vector<ThreadShard*> live_shards;
  /// Accumulated cells of exited threads (plain integers; merged under mu).
  std::vector<uint64_t> retired_counters = std::vector<uint64_t>(kMaxCounters, 0);
  /// One merged histogram per interned histogram name, indexed by its id
  /// (guarded by mu). The dead-cell id has none: its samples are dropped.
  std::vector<LatencyStats> hists;

  std::unique_ptr<std::atomic<int64_t>[]> gauges{
      new std::atomic<int64_t>[kMaxGauges]};

  Impl() {
    for (uint32_t i = 0; i < kMaxGauges; i++) {
      gauges[i].store(0, std::memory_order_relaxed);
    }
  }

  void Retire(ThreadShard* shard) {
    std::lock_guard<std::mutex> lock(mu);
    for (uint32_t i = 0; i < kMaxCounters; i++) {
      retired_counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    live_shards.erase(
        std::remove(live_shards.begin(), live_shards.end(), shard),
        live_shards.end());
    delete shard;
  }
};

void ThreadShard::RetireSelf() { impl->Retire(this); }

namespace {

/// Owns a thread's shard; the destructor folds it into the retired
/// accumulator so increments survive worker-thread exit (RunMany pools).
struct ShardTls {
  ThreadShard* shard = nullptr;
  ~ShardTls() {
    if (shard) shard->RetireSelf();
  }
};

thread_local ShardTls g_shard_tls;

// ---------------------------------------------------------------------------
// Export hook (IPA_METRICS_JSON / --metrics-json)
// ---------------------------------------------------------------------------

std::mutex g_export_mu;
std::string& ExportPath() {
  // Leaked: read by the atexit writer after static destruction begins.
  static auto* path = new std::string();
  return *path;
}

void WriteMetricsAtExit() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_export_mu);
    path = ExportPath();
  }
  if (path.empty()) return;
  Snapshot snap = Registry::Instance().TakeSnapshot();
  if (!WriteSnapshotJson(snap, path)) {
    std::fprintf(stderr, "ERROR: metrics export failed: cannot write %s\n",
                 path.c_str());
  }
}

void RegisterExportAtExit() {
  static std::once_flag once;
  std::call_once(once, [] { std::atexit(WriteMetricsAtExit); });
}

/// Fail fast on an unwritable export path: a perf gate that silently loses
/// its metrics file would pass vacuously.
void ProbeWritableOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) {
    std::fprintf(stderr,
                 "ERROR: metrics export path is not writable: %s "
                 "(IPA_METRICS_JSON / --metrics-json)\n",
                 path.c_str());
    std::exit(2);
  }
  std::fclose(f);
}

/// Adopt IPA_METRICS_JSON the first time any metric is interned, so every
/// instrumented binary exports without explicit setup.
void AdoptEnvExportPath() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("IPA_METRICS_JSON");
    if (!env || !*env) return;
    ProbeWritableOrDie(env);
    {
      std::lock_guard<std::mutex> lock(g_export_mu);
      if (ExportPath().empty()) ExportPath() = env;
    }
    RegisterExportAtExit();
  });
}

}  // namespace

Registry::Registry() : impl_(new Impl()) {}

Registry& Registry::Instance() {
  // Leaked: handles and atexit exporters may outlive static destruction.
  static auto* registry = new Registry();
  return *registry;
}

uint32_t Registry::Intern(std::string_view name, Type type) {
  AdoptEnvExportPath();
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint32_t limit = type == Type::kCounter   ? kMaxCounters
                   : type == Type::kGauge   ? kMaxGauges
                                            : kMaxHistograms;
  auto it = impl_->defs.find(name);
  if (it != impl_->defs.end()) {
    if (it->second.type == type) return it->second.index;
    // A name interned under one type must never hand its index to another
    // type's accessor (the id spaces have different capacities, so a counter
    // index can be out of bounds for the gauge array). Route the mismatched
    // registration to the requested type's dead cell instead.
    if (!impl_->type_mismatch_warned) {
      impl_->type_mismatch_warned = true;
      std::fprintf(stderr,
                   "WARNING: metric '%.*s' already registered as %s; %s "
                   "registration with the same name is dropped\n",
                   static_cast<int>(name.size()), name.data(),
                   TypeName(it->second.type), TypeName(type));
    }
    return limit - 1;
  }
  uint32_t& next = type == Type::kCounter   ? impl_->next_counter
                   : type == Type::kGauge   ? impl_->next_gauge
                                            : impl_->next_hist;
  // The last index of each id space is a shared dead cell for overflow; its
  // value is garbage, so overflowing metrics are not reported.
  if (next + 1 >= limit) {
    if (!impl_->overflow_warned) {
      impl_->overflow_warned = true;
      std::fprintf(stderr,
                   "WARNING: metric registry full; '%.*s' and later %s "
                   "registrations are dropped\n",
                   static_cast<int>(name.size()), name.data(), TypeName(type));
    }
    return limit - 1;
  }
  uint32_t index = next++;
  impl_->defs.emplace(std::string(name),
                      Impl::Def{std::string(name), type, index});
  if (type == Type::kHistogram) impl_->hists.emplace_back();
  return index;
}

std::atomic<uint64_t>* Registry::CounterCell(uint32_t id) {
  ShardTls& tls = g_shard_tls;
  if (!tls.shard) {
    tls.shard = new ThreadShard();
    tls.shard->impl = impl_;
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->live_shards.push_back(tls.shard);
  }
  return &tls.shard->counters[id];
}

void Registry::SetGauge(uint32_t id, int64_t v) {
  impl_->gauges[id].store(v, std::memory_order_relaxed);
}

void Registry::MergeHistogram(uint32_t id, const LatencyStats& h) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (id < impl_->hists.size()) impl_->hists[id].Merge(h);
}

Snapshot Registry::TakeSnapshot() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Snapshot snap;
  snap.metrics.reserve(impl_->defs.size());
  for (const auto& [name, def] : impl_->defs) {
    MetricValue m;
    m.name = def.name;
    m.type = def.type;
    switch (def.type) {
      case Type::kCounter: {
        uint64_t v = impl_->retired_counters[def.index];
        for (ThreadShard* s : impl_->live_shards) {
          v += s->counters[def.index].load(std::memory_order_relaxed);
        }
        m.value = v;
        break;
      }
      case Type::kGauge:
        m.gauge = impl_->gauges[def.index].load(std::memory_order_relaxed);
        break;
      case Type::kHistogram:
        m.hist = impl_->hists[def.index];
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  // defs is an ordered map, so the snapshot is already name-sorted; keep the
  // invariant explicit regardless of the container choice.
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snap;
}

void Registry::ResetForTest() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::fill(impl_->retired_counters.begin(), impl_->retired_counters.end(), 0);
  for (LatencyStats& h : impl_->hists) h.Reset();
  for (uint32_t i = 0; i < kMaxGauges; i++) {
    impl_->gauges[i].store(0, std::memory_order_relaxed);
  }
  for (ThreadShard* s : impl_->live_shards) {
    for (uint32_t i = 0; i < kMaxCounters; i++) {
      s->counters[i].store(0, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

const MetricValue* Snapshot::Find(std::string_view name) const {
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricValue& m, std::string_view n) { return m.name < n; });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

uint64_t Snapshot::Counter(std::string_view name) const {
  const MetricValue* m = Find(name);
  return m && m->type == Type::kCounter ? m->value : 0;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {
thread_local ScopedSpan* g_current_span = nullptr;
}  // namespace

SpanSite::SpanSite(const char* name)
    : calls(std::string("trace.") + name + ".calls"),
      sim_us(std::string("trace.") + name + ".sim_us"),
      self_us(std::string("trace.") + name + ".self_us") {}

ScopedSpan::ScopedSpan(SpanSite& site, const SimClock* clock)
    : site_(site), clock_(clock), parent_(g_current_span) {
  if (clock_) t0_ = clock_->Now();
  g_current_span = this;
}

ScopedSpan::~ScopedSpan() {
  g_current_span = parent_;
  site_.calls.Inc();
  if (!clock_) return;
  uint64_t total = clock_->Now() - t0_;
  site_.sim_us.Add(total);
  site_.self_us.Add(total >= child_us_ ? total - child_us_ : 0);
  if (parent_) parent_->child_us_ += total;
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

std::string Snapshot::ToJson() const {
  std::string out;
  out.reserve(256 + metrics.size() * 64);
  out += "{\n  \"schema\": \"ipa-metrics-v1\",\n  \"metrics\": [\n";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); i++) {
    const MetricValue& m = metrics[i];
    out += "    {\"name\": \"";
    out += m.name;  // metric names are [a-z0-9._]: no JSON escaping needed
    out += "\", \"type\": \"";
    out += TypeName(m.type);
    out += "\"";
    switch (m.type) {
      case Type::kCounter:
        std::snprintf(buf, sizeof(buf), ", \"value\": %llu",
                      static_cast<unsigned long long>(m.value));
        out += buf;
        break;
      case Type::kGauge:
        std::snprintf(buf, sizeof(buf), ", \"value\": %lld",
                      static_cast<long long>(m.gauge));
        out += buf;
        break;
      case Type::kHistogram: {
        const LatencyStats& h = *m.hist;
        std::snprintf(buf, sizeof(buf),
                      ", \"count\": %llu, \"sum\": %llu, \"max\": %llu",
                      static_cast<unsigned long long>(h.count()),
                      static_cast<unsigned long long>(h.sum()),
                      static_cast<unsigned long long>(h.MaxMicros()));
        out += buf;
        out += ", \"buckets\": [";
        bool first = true;
        for (size_t b = 0; b < LatencyStats::kBuckets; b++) {
          if (h.bucket(b) == 0) continue;
          std::snprintf(buf, sizeof(buf), "%s[%zu, %llu]", first ? "" : ", ", b,
                        static_cast<unsigned long long>(h.bucket(b)));
          out += buf;
          first = false;
        }
        out += "]";
        break;
      }
    }
    out += i + 1 < metrics.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool WriteSnapshotJson(const Snapshot& snap, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::string json = snap.ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = written == json.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

void SetExportPath(const std::string& path) {
  ProbeWritableOrDie(path);
  {
    std::lock_guard<std::mutex> lock(g_export_mu);
    ExportPath() = path;
  }
  RegisterExportAtExit();
}

void InitFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    std::string_view arg(argv[i]);
    if (arg == "--metrics-json" && i + 1 < argc) {
      SetExportPath(argv[i + 1]);
      return;
    }
    constexpr std::string_view kPrefix = "--metrics-json=";
    if (arg.substr(0, kPrefix.size()) == kPrefix) {
      SetExportPath(std::string(arg.substr(kPrefix.size())));
      return;
    }
  }
  // No flag: fall back to the environment variable (probed so a bad path
  // fails at startup even for binaries that register no metric early).
  AdoptEnvExportPath();
}

// ---------------------------------------------------------------------------
// JSON import (minimal parser for the ipa-metrics-v1 schema)
// ---------------------------------------------------------------------------

namespace {

struct Cursor {
  std::string_view s;
  size_t pos = 0;

  void SkipWs() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) pos++;
  }
  bool Eat(char c) {
    SkipWs();
    if (pos < s.size() && s[pos] == c) {
      pos++;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return pos < s.size() && s[pos] == c;
  }
};

Status ParseError(const char* what) {
  return Status::Corruption(std::string("metrics JSON: ") + what);
}

Status ParseString(Cursor& c, std::string* out) {
  if (!c.Eat('"')) return ParseError("expected string");
  out->clear();
  while (c.pos < c.s.size() && c.s[c.pos] != '"') {
    char ch = c.s[c.pos++];
    if (ch == '\\') {
      if (c.pos >= c.s.size()) return ParseError("bad escape");
      out->push_back(c.s[c.pos++]);
    } else {
      out->push_back(ch);
    }
  }
  if (c.pos >= c.s.size()) return ParseError("unterminated string");
  c.pos++;  // closing quote
  return Status::OK();
}

Status ParseInt(Cursor& c, int64_t* out) {
  c.SkipWs();
  size_t start = c.pos;
  if (c.pos < c.s.size() && c.s[c.pos] == '-') c.pos++;
  size_t digits = c.pos;
  while (c.pos < c.s.size() && std::isdigit(static_cast<unsigned char>(c.s[c.pos]))) {
    c.pos++;
  }
  if (c.pos == digits) return ParseError("expected number");
  *out = std::strtoll(std::string(c.s.substr(start, c.pos - start)).c_str(),
                      nullptr, 10);
  return Status::OK();
}

Status ParseU64(Cursor& c, uint64_t* out) {
  c.SkipWs();
  size_t start = c.pos;
  while (c.pos < c.s.size() && std::isdigit(static_cast<unsigned char>(c.s[c.pos]))) {
    c.pos++;
  }
  if (c.pos == start) return ParseError("expected unsigned number");
  *out = std::strtoull(std::string(c.s.substr(start, c.pos - start)).c_str(),
                       nullptr, 10);
  return Status::OK();
}

Status ParseBuckets(Cursor& c, std::vector<std::pair<size_t, uint64_t>>* buckets) {
  if (!c.Eat('[')) return ParseError("expected bucket array");
  if (c.Eat(']')) return Status::OK();
  do {
    if (!c.Eat('[')) return ParseError("expected bucket pair");
    uint64_t index = 0, count = 0;
    IPA_RETURN_NOT_OK(ParseU64(c, &index));
    if (!c.Eat(',')) return ParseError("expected ',' in bucket pair");
    IPA_RETURN_NOT_OK(ParseU64(c, &count));
    if (!c.Eat(']')) return ParseError("expected ']' after bucket pair");
    if (index >= LatencyStats::kBuckets) return ParseError("bucket out of range");
    buckets->emplace_back(index, count);
  } while (c.Eat(','));
  if (!c.Eat(']')) return ParseError("expected ']' after buckets");
  return Status::OK();
}

Status ParseMetric(Cursor& c, MetricValue* m) {
  if (!c.Eat('{')) return ParseError("expected metric object");
  std::string type_name;
  int64_t signed_value = 0;
  uint64_t unsigned_value = 0;
  uint64_t count = 0, sum = 0, max = 0;
  std::vector<std::pair<size_t, uint64_t>> buckets;
  do {
    std::string key;
    IPA_RETURN_NOT_OK(ParseString(c, &key));
    if (!c.Eat(':')) return ParseError("expected ':'");
    if (key == "name") {
      IPA_RETURN_NOT_OK(ParseString(c, &m->name));
    } else if (key == "type") {
      IPA_RETURN_NOT_OK(ParseString(c, &type_name));
    } else if (key == "value") {
      IPA_RETURN_NOT_OK(ParseInt(c, &signed_value));
      unsigned_value = static_cast<uint64_t>(signed_value);
    } else if (key == "count") {
      IPA_RETURN_NOT_OK(ParseU64(c, &count));
    } else if (key == "sum") {
      IPA_RETURN_NOT_OK(ParseU64(c, &sum));
    } else if (key == "max") {
      IPA_RETURN_NOT_OK(ParseU64(c, &max));
    } else if (key == "buckets") {
      IPA_RETURN_NOT_OK(ParseBuckets(c, &buckets));
    } else {
      return ParseError("unknown metric key");
    }
  } while (c.Eat(','));
  if (!c.Eat('}')) return ParseError("expected '}' after metric");

  if (type_name == "counter") {
    m->type = Type::kCounter;
    m->value = unsigned_value;
  } else if (type_name == "gauge") {
    m->type = Type::kGauge;
    m->gauge = signed_value;
  } else if (type_name == "histogram") {
    m->type = Type::kHistogram;
    m->hist = LatencyStats::FromParts(count, sum, max, buckets);
  } else {
    return ParseError("unknown metric type");
  }
  return Status::OK();
}

}  // namespace

Status ParseSnapshotJson(std::string_view json, Snapshot* out) {
  out->metrics.clear();
  Cursor c{json};
  if (!c.Eat('{')) return ParseError("expected top-level object");
  bool saw_schema = false;
  do {
    std::string key;
    IPA_RETURN_NOT_OK(ParseString(c, &key));
    if (!c.Eat(':')) return ParseError("expected ':'");
    if (key == "schema") {
      std::string schema;
      IPA_RETURN_NOT_OK(ParseString(c, &schema));
      if (schema != "ipa-metrics-v1") return ParseError("unsupported schema");
      saw_schema = true;
    } else if (key == "metrics") {
      if (!c.Eat('[')) return ParseError("expected metrics array");
      if (!c.Peek(']')) {
        do {
          MetricValue m;
          IPA_RETURN_NOT_OK(ParseMetric(c, &m));
          out->metrics.push_back(std::move(m));
        } while (c.Eat(','));
      }
      if (!c.Eat(']')) return ParseError("expected ']' after metrics");
    } else {
      return ParseError("unknown top-level key");
    }
  } while (c.Eat(','));
  if (!c.Eat('}')) return ParseError("expected final '}'");
  if (!saw_schema) return ParseError("missing schema marker");
  std::sort(out->metrics.begin(), out->metrics.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Compare
// ---------------------------------------------------------------------------

namespace {

bool Ignored(const std::string& name, const CompareOptions& options) {
  for (const std::string& prefix : options.ignore_prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

double RelDiff(double base, double now) {
  if (base == 0.0) return now == 0.0 ? 0.0 : 1.0;
  return std::fabs(now - base) / std::fabs(base);
}

std::string DiffLine(const std::string& name, const char* what, double base,
                     double now) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: %s %.6g -> %.6g (%+.2f%%)", name.c_str(),
                what, base, now, base == 0.0 ? 0.0 : 100.0 * (now - base) / base);
  return buf;
}

}  // namespace

CompareReport CompareSnapshots(const Snapshot& baseline, const Snapshot& current,
                               const CompareOptions& options) {
  CompareReport report;
  for (const MetricValue& b : baseline.metrics) {
    if (Ignored(b.name, options)) continue;
    const MetricValue* cur = current.Find(b.name);
    if (!cur) {
      report.diffs.push_back(b.name + ": missing from current run");
      continue;
    }
    if (cur->type != b.type) {
      report.diffs.push_back(b.name + ": type changed (" +
                             std::string(TypeName(b.type)) + " -> " +
                             TypeName(cur->type) + ")");
      continue;
    }
    switch (b.type) {
      case Type::kCounter:
        if (cur->value != b.value) {
          report.diffs.push_back(
              DiffLine(b.name, "counter", static_cast<double>(b.value),
                       static_cast<double>(cur->value)));
        }
        break;
      case Type::kGauge:
        if (cur->gauge != b.gauge) {
          report.diffs.push_back(DiffLine(b.name, "gauge",
                                          static_cast<double>(b.gauge),
                                          static_cast<double>(cur->gauge)));
        }
        break;
      case Type::kHistogram: {
        double tol = options.histogram_tolerance;
        const LatencyStats& bh = *b.hist;
        const LatencyStats& ch = *cur->hist;
        if (RelDiff(static_cast<double>(bh.count()),
                    static_cast<double>(ch.count())) > tol) {
          report.diffs.push_back(DiffLine(b.name, "histogram count",
                                          static_cast<double>(bh.count()),
                                          static_cast<double>(ch.count())));
        } else if (RelDiff(bh.MeanMicros(), ch.MeanMicros()) > tol) {
          report.diffs.push_back(
              DiffLine(b.name, "histogram mean", bh.MeanMicros(), ch.MeanMicros()));
        } else if (RelDiff(static_cast<double>(bh.MaxMicros()),
                           static_cast<double>(ch.MaxMicros())) > tol) {
          report.diffs.push_back(DiffLine(b.name, "histogram max",
                                          static_cast<double>(bh.MaxMicros()),
                                          static_cast<double>(ch.MaxMicros())));
        }
        break;
      }
    }
  }
  for (const MetricValue& c : current.metrics) {
    if (Ignored(c.name, options)) continue;
    if (!baseline.Find(c.name)) {
      report.notes.push_back(c.name + ": new metric (absent from baseline)");
    }
  }
  return report;
}

}  // namespace ipa::metrics
