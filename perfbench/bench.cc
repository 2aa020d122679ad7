#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

Percentiles Summarize(std::vector<double> samples, bool integral) {
  Percentiles p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  auto rank = [&](double pct) {
    double r = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
    size_t i = std::min(r < 1 ? 0 : static_cast<size_t>(r) - 1, samples.size() - 1);
    double v = samples[i];
    if (!integral || !std::isfinite(v)) return v;
    // Whole-microsecond samples tie heavily; spread each tied value evenly
    // over [v, v+1), so the percentile moves with the distribution instead
    // of sticking to one integer.
    // The k-th of c tied samples stands for v + (k + 0.5) / c.
    auto lo = std::lower_bound(samples.begin(), samples.end(), v);
    auto hi = std::upper_bound(samples.begin(), samples.end(), v);
    double k = static_cast<double>(i - static_cast<size_t>(lo - samples.begin()));
    return v + (k + 0.5) / static_cast<double>(hi - lo);
  };
  p.p50 = rank(50);
  p.p99 = rank(99);
  for (double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(samples.size()) * (1.0 - pct / 100.0) >= 10.0) {
      p.top_pct = pct;
      p.top = rank(pct);
      break;
    }
  }
  return p;
}

// ---------------------------------------------------------------------------

void Counters::AddDb(ipa::engine::Database& db) {
  const ipa::engine::BufferStats& b = db.buffer_pool().stats();
  buf.fetches += b.fetches;
  buf.hits += b.hits;
  buf.misses += b.misses;
  buf.evictions += b.evictions;
  buf.flushes += b.flushes;
  buf.clean_diff_skips += b.clean_diff_skips;
  buf.ipa_flushes += b.ipa_flushes;
  buf.oop_flushes += b.oop_flushes;
  buf.ipa_fallbacks += b.ipa_fallbacks;
  buf.cleaner_runs += b.cleaner_runs;
  buf.delta_records_written += b.delta_records_written;
  commits += db.txn_stats().commits;
  aborts += db.txn_stats().aborts;
  wal_bytes += db.wal().TotalAppended();
  checkpoints += db.checkpoints_taken();
}

void Counters::AddRegion(const ipa::ftl::RegionStats& rs) {
  region.host_reads += rs.host_reads;
  region.host_page_writes += rs.host_page_writes;
  region.host_delta_writes += rs.host_delta_writes;
  region.delta_bytes_written += rs.delta_bytes_written;
  region.delta_fallbacks += rs.delta_fallbacks;
  region.gc_page_migrations += rs.gc_page_migrations;
  region.gc_erases += rs.gc_erases;
  region.ecc_corrected_bits += rs.ecc_corrected_bits;
  region.ecc_uncorrectable += rs.ecc_uncorrectable;
  region.torn_delta_bytes_dropped += rs.torn_delta_bytes_dropped;
  region.torn_pages_quarantined += rs.torn_pages_quarantined;
  region.scrub_refreshes += rs.scrub_refreshes;
  region.wear_level_migrations += rs.wear_level_migrations;
  region.wear_level_swaps += rs.wear_level_swaps;
  region.read_latency.Merge(rs.read_latency);
  region.write_latency.Merge(rs.write_latency);
  region.delta_write_latency.Merge(rs.delta_write_latency);
}

namespace {

// Field lists, so Minus and Flatten cannot drift apart.
#define PB_DEV_FIELDS(X)                                                     \
  X(page_reads) X(page_programs) X(delta_programs) X(block_erases)           \
  X(bytes_read) X(bytes_programmed) X(delta_bytes_programmed)                \
  X(ispp_rejections) X(interference_flips) X(retention_flips)                \
  X(page_refreshes) X(power_loss_injections) X(torn_page_programs)           \
  X(torn_delta_programs) X(torn_erases)
#define PB_REGION_FIELDS(X)                                                  \
  X(host_reads) X(host_page_writes) X(host_delta_writes)                     \
  X(delta_bytes_written) X(delta_fallbacks) X(gc_page_migrations)            \
  X(gc_erases) X(ecc_corrected_bits) X(ecc_uncorrectable)                    \
  X(torn_delta_bytes_dropped) X(torn_pages_quarantined) X(scrub_refreshes)   \
  X(wear_level_migrations) X(wear_level_swaps)
#define PB_BUF_FIELDS(X)                                                     \
  X(fetches) X(hits) X(misses) X(evictions) X(flushes) X(clean_diff_skips)   \
  X(ipa_flushes) X(oop_flushes) X(ipa_fallbacks) X(cleaner_runs)            \
  X(delta_records_written)

}  // namespace

Counters Minus(const Counters& a, const Counters& b) {
  Counters d;
#define PB_SUB(f) d.dev.f = a.dev.f - b.dev.f;
  PB_DEV_FIELDS(PB_SUB)
#undef PB_SUB
#define PB_SUB(f) d.region.f = a.region.f - b.region.f;
  PB_REGION_FIELDS(PB_SUB)
#undef PB_SUB
#define PB_SUB(f) d.buf.f = a.buf.f - b.buf.f;
  PB_BUF_FIELDS(PB_SUB)
#undef PB_SUB
  d.commits = a.commits - b.commits;
  d.aborts = a.aborts - b.aborts;
  d.wal_bytes = a.wal_bytes - b.wal_bytes;
  d.checkpoints = a.checkpoints - b.checkpoints;
  return d;
}

std::vector<uint64_t> Flatten(const Counters& c) {
  std::vector<uint64_t> v;
#define PB_PUSH(f) v.push_back(c.dev.f);
  PB_DEV_FIELDS(PB_PUSH)
#undef PB_PUSH
#define PB_PUSH(f) v.push_back(c.region.f);
  PB_REGION_FIELDS(PB_PUSH)
#undef PB_PUSH
#define PB_PUSH(f) v.push_back(c.buf.f);
  PB_BUF_FIELDS(PB_PUSH)
#undef PB_PUSH
  for (const ipa::LatencyStats* l : {&c.region.read_latency,
                                     &c.region.write_latency,
                                     &c.region.delta_write_latency}) {
    v.push_back(l->count());
    v.push_back(l->MaxMicros());
    v.push_back(static_cast<uint64_t>(l->MeanMicros() * 1000.0));
  }
  v.insert(v.end(), {c.commits, c.aborts, c.wal_bytes, c.checkpoints});
  return v;
}

std::vector<uint64_t> Window::Fingerprint() const {
  std::vector<uint64_t> v = Flatten(delta);
  std::vector<uint64_t> h = Flatten(first_half);
  v.insert(v.end(), h.begin(), h.end());
  v.insert(v.end(), {attempted, completed, failed, sim_us, forces, shed,
                     wire_bytes});
  for (const std::vector<double>* s :
       {&sim_lat_us, &queue_wait_us, &force_wait_us}) {
    uint64_t fnv = 0xCBF29CE484222325ull;
    for (double x : *s) {
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof bits);
      fnv = (fnv ^ bits) * 0x100000001B3ull;
    }
    v.push_back(s->size());
    v.push_back(fnv);
  }
  return v;
}

// ---------------------------------------------------------------------------

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kOp: return "op";
    case SpanKind::kRead: return "ftl.read";
    case SpanKind::kWritePage: return "ftl.write_page";
    case SpanKind::kWriteDelta: return "ftl.write_delta";
    case SpanKind::kEncode: return "net.encode";
    case SpanKind::kDecode: return "net.decode";
    case SpanKind::kKvCall: return "net.kv_call";
    case SpanKind::kForceLog: return "engine.force_log";
  }
  return "?";
}

void Tracer::BeginOp() {
  if (!active_) return;
  Span s;
  s.op = static_cast<uint32_t>(spans_.size());
  s.kind = SpanKind::kOp;
  s.wall_begin_ns = WallNs();
  open_op_ = s.op;
  spans_.push_back(s);
}

void Tracer::EndOp(SimTime sim_begin, SimTime sim_end) {
  if (!active_ || open_op_ == Span::kNoOp) return;
  Span& s = spans_[open_op_];
  s.wall_end_ns = WallNs();
  s.sim_begin = sim_begin;
  s.sim_end = sim_end;
  open_op_ = Span::kNoOp;
}

uint32_t Tracer::BeginChild(SpanKind kind, SimTime sim_now) {
  Span s;
  s.op = open_op_;
  s.kind = kind;
  s.sim_begin = sim_now;
  s.wall_begin_ns = WallNs();
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::EndChild(uint32_t span, SimTime sim_now, bool rejected) {
  Span& s = spans_[span];
  s.wall_end_ns = WallNs();
  s.sim_end = sim_now;
  s.rejected = rejected;
}

Status Tracer::WriteTsv(const std::string& path, uint32_t max_ops) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Status::IoError("cannot write " + path);
  std::fprintf(f, "op\tkind\trejected\twall_begin_ns\twall_end_ns\tsim_begin_us\t"
                  "sim_end_us\n");
  uint64_t t0 = spans_.empty() ? 0 : spans_.front().wall_begin_ns;
  uint32_t ops = 0;
  for (const Span& s : spans_) {
    if (s.kind == SpanKind::kOp && ++ops > max_ops) break;
    std::fprintf(f, "%d\t%s\t%d\t%llu\t%llu\t%llu\t%llu\n",
                 s.op == Span::kNoOp ? -1 : static_cast<int>(s.op),
                 SpanKindName(s.kind), s.rejected ? 1 : 0,
                 static_cast<unsigned long long>(s.wall_begin_ns - t0),
                 static_cast<unsigned long long>(s.wall_end_ns - t0),
                 static_cast<unsigned long long>(s.sim_begin),
                 static_cast<unsigned long long>(s.sim_end));
  }
  bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IoError("cannot write " + path);
}

// ---------------------------------------------------------------------------

namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

void AddCounterMetrics(const Window& w, std::vector<Metric>* out) {
  const Counters& d = w.delta;
  double ops = static_cast<double>(w.completed);
  double kops = ops / 1000.0;
  auto add = [&](const char* name, double v, const char* unit) {
    out->push_back({name, v, unit});
  };
  add("failed_pct", 100.0 * Ratio(w.failed, w.attempted), "%");

  add("net.wire_bytes_per_req", Ratio(w.wire_bytes, w.attempted), "B/req");
  add("net.admit_shed_pct", 100.0 * Ratio(w.shed, w.attempted), "%");
  add("net.queue_wait_sim_us_p99", Summarize(w.queue_wait_us, true).p99, "us");
  add("net.force_wait_sim_us_p99", Summarize(w.force_wait_us, true).p99, "us");

  add("engine.wal_bytes_per_op", Ratio(d.wal_bytes, ops), "B/op");
  add("engine.buffer_hit_pct", 100.0 * Ratio(d.buf.hits, d.buf.fetches), "%");
  add("engine.evictions_per_op", Ratio(d.buf.evictions, ops), "1/op");
  add("engine.ipa_flush_pct",
      100.0 * Ratio(d.buf.ipa_flushes, d.buf.ipa_flushes + d.buf.oop_flushes),
      "%");
  add("engine.ipa_fallbacks_per_kop", Ratio(d.buf.ipa_fallbacks, kops),
      "1/kop");
  add("engine.delta_records_per_ipa_flush",
      Ratio(d.buf.delta_records_written, d.buf.ipa_flushes), "1/flush");
  add("engine.commits_per_force", Ratio(d.commits, w.forces), "1/force");
  add("engine.cleaner_runs_per_kop", Ratio(d.buf.cleaner_runs, kops), "1/kop");
  add("engine.checkpoints", static_cast<double>(d.checkpoints), "count");
  add("engine.aborts", static_cast<double>(d.aborts), "count");

  add("ftl.gc_migrations_per_op", Ratio(d.region.gc_page_migrations, ops),
      "1/op");
  add("ftl.gc_erases_per_kop", Ratio(d.region.gc_erases, kops), "1/kop");

  add("flash.page_reads_per_op", Ratio(d.dev.page_reads, ops), "1/op");
  add("flash.page_programs_per_op", Ratio(d.dev.page_programs, ops), "1/op");
  add("flash.delta_programs_per_op", Ratio(d.dev.delta_programs, ops), "1/op");
  add("flash.bytes_programmed_per_op", Ratio(d.dev.bytes_programmed, ops),
      "B/op");
  add("flash.delta_bytes_per_op", Ratio(d.dev.delta_bytes_programmed, ops),
      "B/op");
  add("flash.erases_per_kop", Ratio(d.dev.block_erases, kops), "1/kop");

  // flash_bytes_per_op over each half of the window: shows whether GC has
  // levelled off or the device is still filling.
  double half = static_cast<double>(w.completed / 2);
  add("flash_bytes_per_op.first_half", FlashBytesPerOp(w.first_half, half),
      "B/op");
  add("flash_bytes_per_op.second_half",
      FlashBytesPerOp(Minus(w.delta, w.first_half), ops - half), "B/op");
}

void AddSpanMetrics(const Tracer& t, uint64_t ops_count,
                    std::vector<Metric>* out) {
  struct Acc {
    uint64_t calls = 0, rejected = 0, wall_ns = 0, sim_us = 0;
    std::vector<double> sim, wall;
  };
  Acc acc[kSpanKinds];
  for (const Span& s : t.spans()) {
    if (s.kind != SpanKind::kOp && s.op == Span::kNoOp) continue;
    Acc& a = acc[static_cast<int>(s.kind)];
    a.calls++;
    a.rejected += s.rejected ? 1 : 0;
    uint64_t wall = s.wall_end_ns - s.wall_begin_ns;
    uint64_t sim = s.sim_end - s.sim_begin;
    a.wall_ns += wall;
    a.sim_us += sim;
    if (s.kind != SpanKind::kOp) {
      a.sim.push_back(static_cast<double>(sim));
      a.wall.push_back(static_cast<double>(wall));
    }
  }
  auto& op = acc[static_cast<int>(SpanKind::kOp)];
  double ops = static_cast<double>(ops_count);
  auto add = [&](std::string name, double v, const char* unit) {
    out->push_back({std::move(name), v, unit});
  };

  uint64_t dev_wall = 0, dev_sim = 0;
  for (SpanKind k :
       {SpanKind::kRead, SpanKind::kWritePage, SpanKind::kWriteDelta}) {
    const Acc& a = acc[static_cast<int>(k)];
    dev_wall += a.wall_ns;
    dev_sim += a.sim_us;
    std::string base = SpanKindName(k);
    Percentiles sp = Summarize(a.sim, true);
    add(base + ".calls_per_op", Ratio(a.calls, ops), "1/op");
    add(base + ".wall_us_mean", Ratio(a.wall_ns, a.calls) / 1000.0, "us");
    add(base + ".sim_us_p50", sp.p50, "us");
    add(base + ".sim_us_p99", sp.p99, "us");
  }
  const Acc& wd = acc[static_cast<int>(SpanKind::kWriteDelta)];
  add("ftl.write_delta.rejected_pct", 100.0 * Ratio(wd.rejected, wd.calls),
      "%");
  add("ftl.busy_wall_pct", 100.0 * Ratio(dev_wall, op.wall_ns), "%");

  const Acc& enc = acc[static_cast<int>(SpanKind::kEncode)];
  const Acc& dec = acc[static_cast<int>(SpanKind::kDecode)];
  const Acc& kv = acc[static_cast<int>(SpanKind::kKvCall)];
  add("net.encode_ns_per_req", Ratio(enc.wall_ns, ops), "ns/req");
  add("net.decode_ns_per_req", Ratio(dec.wall_ns, ops), "ns/req");
  Percentiles kvp = Summarize(kv.wall);
  add("net.kv_wall_us_p50", kvp.p50 / 1000.0, "us");
  add("net.kv_wall_us_p99", kvp.p99 / 1000.0, "us");

  // Engine self time: the op span minus every child span of another layer
  // (device calls and frame codec work). KvService calls and log forces
  // are engine work and stay in.
  double self_wall = static_cast<double>(op.wall_ns) -
                     static_cast<double>(dev_wall + enc.wall_ns + dec.wall_ns);
  add("engine.self_wall_us_per_op", Ratio(self_wall, ops) / 1000.0, "us/op");
  double self_sim = static_cast<double>(op.sim_us) - static_cast<double>(dev_sim);
  add("engine.self_sim_us_per_op", Ratio(self_sim, ops), "us/op");
}

std::vector<double> GeometricLadder(double lo, double hi) {
  std::vector<double> v;
  for (double r = lo; r <= hi; r *= 1.05) v.push_back(std::round(r));
  return v;
}

bool ReportProbe(double rate, double p99_us, double lag_us, uint64_t shed,
                 double limit_us) {
  bool pass = p99_us <= limit_us && lag_us <= limit_us;
  std::printf("# slo rung %.0f ops/s: p99 %.1f us, end lag %.0f us, shed %llu "
              "-> %s\n",
              rate, p99_us, lag_us, static_cast<unsigned long long>(shed),
              pass ? "pass" : "miss");
  return pass;
}

namespace {

/// Ops whose spans the traced run writes out (the reduction uses all).
constexpr uint32_t kTsvOps = 20000;

/// Binary search over the ascending ladder for the highest rate that
/// passes, assuming passing is monotone in the rate; 0 when none passes.
ipa::Result<double> HighestPassingRate(const std::vector<double>& ladder,
                                       Instance& inst, uint64_t seed) {
  // Invariant: every rung <= lo passes, every rung >= hi fails.
  int lo = -1;
  int hi = static_cast<int>(ladder.size());
  while (hi - lo > 1) {
    int mid = (lo + hi) / 2;
    IPA_ASSIGN_OR_RETURN(bool pass, inst.Probe(ladder[mid], seed));
    (pass ? lo : hi) = mid;
  }
  return lo < 0 ? 0.0 : ladder[lo];
}

}  // namespace

Outcome Run(const WorkloadDef& def, const Options& opt) {
  Outcome out;
  int reps = opt.trace ? 2 : 3;
  uint64_t ops = std::max<uint64_t>(
      100, static_cast<uint64_t>(def.nominal_ops_per_s *
                                 static_cast<double>(opt.seconds) / 3));
  Tracer tracer;
  auto fail = [&](const std::string& what, const Status& s) {
    out.error = what + ": " + s.ToString();
    return out;
  };
  for (int rep = 0; rep < reps; ++rep) {
    bool traced = opt.trace && rep == 1;
    std::unique_ptr<Instance> inst = def.make();
    uint64_t t0 = WallNs();
    if (Status s = inst->Setup(opt.seed, traced ? &tracer : nullptr); !s.ok()) {
      return fail("setup", s);
    }
    double setup_s = static_cast<double>(WallNs() - t0) / 1e9;
    if (rep == 0) inst->PrintShape(ops);
    auto w = inst->Measure(ops, traced ? &tracer : nullptr);
    if (!w.ok()) return fail("window", w.status());
    w.value().setup_s = setup_s;
    out.reps.push_back(std::move(w.value()));
    if (traced) {
      AddSpanMetrics(tracer, out.reps.back().attempted, &out.layer);
    }
    if (rep + 1 < reps) continue;

    // The SLO search runs in traced mode only: stalls decide its rungs, so
    // it spreads too widely across seeds to carry a bound.
    if (opt.trace) {
      auto rate = HighestPassingRate(def.ladder, *inst, opt.seed);
      if (!rate.ok()) return fail("SLO search", rate.status());
      out.slo_rate = rate.value();
    }
    if (Status s = inst->Check(); !s.ok()) return fail("check", s);
  }
  if (opt.trace && !opt.spans_out.empty()) {
    if (Status s = tracer.WriteTsv(opt.spans_out, kTsvOps); !s.ok()) {
      return fail("spans", s);
    }
  }
  return out;
}

}  // namespace perfbench
