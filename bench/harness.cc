#include "bench/harness.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench/parallel_runner.h"
#include "workload/linkbench.h"
#include "workload/tatp.h"
#include "workload/tpcb.h"
#include "workload/tpcc.h"
#include "workload/tpch_lite.h"

namespace ipa::bench {

const char* WlName(Wl w) {
  switch (w) {
    case Wl::kTpcb: return "TPC-B";
    case Wl::kTpcc: return "TPC-C";
    case Wl::kTatp: return "TATP";
    case Wl::kLinkbench: return "LinkBench";
    case Wl::kScanMix: return "ScanMix";
  }
  return "?";
}

uint64_t DefaultTxns(Wl w) {
  double scale = workload::BenchScale();
  uint64_t base;
  switch (w) {
    case Wl::kTpcb: base = 20000; break;
    case Wl::kTpcc: base = 6000; break;
    case Wl::kTatp: base = 30000; break;
    case Wl::kLinkbench: base = 12000; break;
    case Wl::kScanMix: base = 8000; break;
    default: base = 10000; break;
  }
  return static_cast<uint64_t>(static_cast<double>(base) * scale);
}

uint32_t DefaultCpuUs(Wl w) {
  switch (w) {
    case Wl::kTpcb: return 150;
    case Wl::kTpcc: return 400;  // NewOrder touches ~10 items
    case Wl::kTatp: return 40;
    case Wl::kLinkbench: return 120;
    case Wl::kScanMix: return 250;  // analytics scans dominate CPU
  }
  return 100;
}

namespace {

std::unique_ptr<workload::Workload> MakeWorkload(
    Wl w, engine::Database* db, const workload::TablespaceMap& ts_map,
    double scale, uint64_t seed) {
  switch (w) {
    case Wl::kTpcb: {
      workload::TpcbConfig c;
      c.accounts_per_branch =
          static_cast<uint32_t>(60000 * scale);
      c.seed = seed;
      return std::make_unique<workload::Tpcb>(db, c, ts_map);
    }
    case Wl::kTpcc: {
      workload::TpccConfig c;
      c.items = static_cast<uint32_t>(8000 * scale);
      c.customers_per_district = static_cast<uint32_t>(240 * scale);
      c.seed = seed;
      return std::make_unique<workload::Tpcc>(db, c, ts_map);
    }
    case Wl::kTatp: {
      workload::TatpConfig c;
      c.subscribers = static_cast<uint32_t>(30000 * scale);
      c.seed = seed;
      return std::make_unique<workload::Tatp>(db, c, ts_map);
    }
    case Wl::kLinkbench: {
      workload::LinkbenchConfig c;
      c.nodes = static_cast<uint64_t>(20000 * scale);
      c.seed = seed;
      return std::make_unique<workload::Linkbench>(db, c, ts_map);
    }
    case Wl::kScanMix: {
      workload::TpchLiteConfig c;
      c.rows = static_cast<uint64_t>(40000 * scale);
      c.seed = static_cast<uint32_t>(seed);
      return std::make_unique<workload::TpchLite>(db, c, ts_map);
    }
  }
  return nullptr;
}

}  // namespace

void WarnIfDebugBuild() {
  static std::once_flag once;
  std::call_once(once, [] {
#ifndef NDEBUG
    std::fprintf(stderr,
                 "*** WARNING: this bench binary was built without "
                 "optimization (Debug build).\n"
                 "*** Wall-clock numbers are meaningless; configure with "
                 "-DCMAKE_BUILD_TYPE=Release.\n");
#endif
  });
}

Result<RunResult> RunWorkload(const RunConfig& config) {
  WarnIfDebugBuild();
  // The dataset multiplier (RunConfig field x IPA_DATASET env) grows the
  // heap only: workload row counts scale by it, the buffer pool does not —
  // buffer_fraction is divided back down so buffer_pages stays what the
  // unmultiplied dataset would get. dataset > 1 therefore puts the run in
  // the larger-than-RAM regime.
  double dataset = config.dataset_multiplier * workload::DatasetScale();
  if (dataset < 1.0) dataset = 1.0;
  double scale = config.scale * workload::BenchScale();
  double data_scale = scale * dataset;

  // Sizing pass: a throwaway workload instance estimates the DB footprint.
  auto sizing =
      MakeWorkload(config.workload, nullptr, workload::SingleTablespace(0),
                   data_scale, config.seed);
  uint64_t db_pages = sizing->EstimatedPages(config.page_size);

  workload::TestbedConfig tc;
  tc.profile = config.profile;
  tc.backend = config.backend;
  tc.page_size = config.page_size;
  tc.scheme = config.scheme;
  tc.db_pages = db_pages;
  tc.buffer_fraction = config.buffer_fraction / dataset;
  tc.record_update_sizes = config.record_update_sizes;
  tc.record_io_trace = config.record_io_trace;
  tc.over_provisioning = config.over_provisioning;
  if (!config.eager) {
    tc.dirty_flush_threshold = 0.75;
    tc.log_reclaim_threshold = 0.98;
  }
  // TPC-C grows its ORDER/ORDER_LINE/HISTORY tables throughout the run;
  // fixed-interval measurements need generous append headroom.
  if (config.workload == Wl::kTpcc) tc.growth_headroom = 5.0;
  IPA_ASSIGN_OR_RETURN(std::unique_ptr<workload::Testbed> bed, MakeTestbed(tc));

  auto wl = MakeWorkload(config.workload, bed->db.get(), bed->ts_map(),
                         data_scale, config.seed);
  IPA_RETURN_NOT_OK(wl->Load());
  // Settle: push the loaded database to flash so the measurement phase
  // starts from a steady on-flash state.
  IPA_RETURN_NOT_OK(bed->db->Checkpoint());

  // Reset all statistics for the measurement phase.
  bed->ResetBackendStats();
  bed->db->buffer_pool().ResetStats();
  bed->db->buffer_pool().mutable_update_traces().clear();
  bed->db->ResetTxnStats();
  bed->db->ClearIoTrace();
  SimTime t0 = bed->clock().Now();

  uint32_t cpu = DefaultCpuUs(config.workload);
  if (config.sim_time_us > 0) {
    SimTime deadline = t0 + config.sim_time_us;
    uint64_t cap = config.txns * 50;
    for (uint64_t i = 0; i < cap && bed->clock().Now() < deadline; i++) {
      auto r = wl->RunTransaction();
      IPA_RETURN_NOT_OK(r.status());
      bed->clock().Advance(cpu);
    }
  } else {
    for (uint64_t i = 0; i < config.txns; i++) {
      auto r = wl->RunTransaction();
      IPA_RETURN_NOT_OK(r.status());
      bed->clock().Advance(cpu);
    }
  }
  // Drain dirty state so flush-path counters reflect the whole phase.
  IPA_RETURN_NOT_OK(bed->db->buffer_pool().FlushAll());

  SimTime t1 = bed->clock().Now();
  const ftl::RegionStats& rs = bed->backend_stats();
  const engine::BufferStats& bs = bed->db->buffer_pool().stats();

  RunResult out;
  out.host_reads = rs.host_reads;
  out.host_page_writes = rs.host_page_writes;
  out.host_delta_writes = rs.host_delta_writes;
  out.host_writes = rs.HostWrites();
  out.ipa_share_pct = rs.IpaSharePercent();
  out.delta_bytes_written = rs.delta_bytes_written;
  out.ipa_fallbacks = bs.ipa_fallbacks;
  out.gc_migrations = rs.gc_page_migrations;
  out.gc_erases = rs.gc_erases;
  out.migrations_per_host_write = rs.MigrationsPerHostWrite();
  out.erases_per_host_write = rs.ErasesPerHostWrite();
  out.read_latency_ms = rs.read_latency.MeanMillis();
  out.write_latency_ms = rs.write_latency.MeanMillis();
  out.read_p50_ms = rs.read_latency.PercentileMicros(50) / 1000.0;
  out.read_p95_ms = rs.read_latency.PercentileMicros(95) / 1000.0;
  out.read_p99_ms = rs.read_latency.PercentileMicros(99) / 1000.0;
  out.write_p50_ms = rs.write_latency.PercentileMicros(50) / 1000.0;
  out.write_p95_ms = rs.write_latency.PercentileMicros(95) / 1000.0;
  out.write_p99_ms = rs.write_latency.PercentileMicros(99) / 1000.0;
  out.txn_latency_ms = bed->db->txn_stats().txn_latency.MeanMillis();
  out.commits = bed->db->txn_stats().commits;
  out.aborts = bed->db->txn_stats().aborts;
  out.sim_us = t1 - t0;
  out.throughput_tps = out.sim_us == 0
                           ? 0.0
                           : static_cast<double>(out.commits) /
                                 (static_cast<double>(out.sim_us) / 1e6);

  out.gross_written_bytes =
      rs.host_page_writes * static_cast<uint64_t>(config.page_size) +
      rs.delta_bytes_written;
  if (config.record_update_sizes) {
    for (const auto& [table, trace] : bed->db->buffer_pool().update_traces()) {
      uint64_t sum = 0;
      for (const auto& [v, c] : trace.gross.Points()) {
        sum += static_cast<uint64_t>(v) * c;
      }
      out.net_changed_bytes += sum;
      out.traces[table] = trace;
      out.traces_by_name[bed->db->table_name(table)] = trace;
    }
  }
  if (config.record_io_trace) out.io_trace = bed->db->io_trace();
  out.space_overhead_pct = 100.0 * config.scheme.SpaceOverhead(config.page_size);
  return out;
}

// ---------------------------------------------------------------------------

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> width(headers_.size());
  for (size_t i = 0; i < headers_.size(); i++) width[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < width.size(); i++) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t i = 0; i < width.size(); i++) {
      const std::string& cell = i < row.size() ? row[i] : "";
      std::printf(" %-*s |", static_cast<int>(width[i]), cell.c_str());
    }
    std::printf("\n");
  };
  auto print_sep = [&] {
    std::printf("+");
    for (size_t i = 0; i < width.size(); i++) {
      for (size_t k = 0; k < width[i] + 2; k++) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  };
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string Fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string Pct(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f", decimals, v);
  return buf;
}

namespace {

std::string SchemeName(const storage::Scheme& s) {
  return std::to_string(s.n) + "x" + std::to_string(s.m);
}

std::string OopVsIpa(const RunResult& r) {
  return Fmt(100.0 - r.ipa_share_pct, 0) + "/" + Fmt(r.ipa_share_pct, 0);
}

}  // namespace

int PrintOpenSsdTable(Wl workload, storage::Scheme scheme) {
  RunConfig base;
  base.workload = workload;
  base.profile = workload::Profile::kOpenSsdNoIpa;
  base.buffer_fraction = 0.05;  // the board host had a ~1.5% DB buffer
  base.txns = DefaultTxns(workload);
  // Fixed measurement interval (simulated): faster configurations execute
  // more transactions and thus more host I/O, as in the paper's runs.
  base.sim_time_us = static_cast<uint64_t>(20e6 * workload::BenchScale());
  RunConfig pslc = base;
  pslc.profile = workload::Profile::kOpenSsdPSlc;
  pslc.scheme = scheme;
  RunConfig odd = base;
  odd.profile = workload::Profile::kOpenSsdOddMlc;
  odd.scheme = scheme;
  auto results = RunMany({base, pslc, odd});
  const char* arm_names[] = {"baseline", "pSLC", "odd-MLC"};
  for (size_t i = 0; i < results.size(); i++) {
    if (!results[i].ok()) {
      std::fprintf(stderr, "%s: %s\n", arm_names[i],
                   results[i].status().ToString().c_str());
      return 1;
    }
  }
  const RunResult& b = results[0].value();
  const RunResult& p = results[1].value();
  const RunResult& o = results[2].value();

  std::string nm = SchemeName(scheme);
  TablePrinter t({"Metric", "0x0 Absolute", nm + " Abs pSLC",
                  nm + " Rel pSLC [%]", nm + " Abs odd-MLC",
                  nm + " Rel odd-MLC [%]"});
  t.AddRow({"Out-of-Place Writes vs IPAs", "", OopVsIpa(p), "", OopVsIpa(o), ""});
  auto add = [&](const char* name, auto get, int dec = 0, bool thousands = true) {
    double vb = get(b), vp = get(p), vo = get(o);
    auto render = [&](double v) {
      return thousands ? FormatThousands(static_cast<uint64_t>(v)) : Fmt(v, dec);
    };
    t.AddRow({name, render(vb), render(vp),
              Pct(RelPercent(vb, vp)), render(vo), Pct(RelPercent(vb, vo))});
  };
  add("Host Reads", [](const RunResult& r) { return double(r.host_reads); });
  add("Host Writes", [](const RunResult& r) { return double(r.host_writes); });
  add("GC Page Migrations",
      [](const RunResult& r) { return double(r.gc_migrations); });
  add("GC Erases", [](const RunResult& r) { return double(r.gc_erases); });
  add("Page Migrations per Host Write",
      [](const RunResult& r) { return r.migrations_per_host_write; }, 4, false);
  add("GC Erases per Host Write",
      [](const RunResult& r) { return r.erases_per_host_write; }, 4, false);
  add("Transactional Throughput",
      [](const RunResult& r) { return r.throughput_tps; }, 0, false);
  t.Print();
  return 0;
}

int PrintBufferSweepTable(Wl workload, const std::vector<SweepPoint>& points,
                          bool eager) {
  // Column layout: per buffer point, one absolute column + one relative
  // column per scheme.
  std::vector<std::string> header{"Metric"};
  for (const SweepPoint& pt : points) {
    std::string buf = Fmt(100 * pt.buffer_fraction, 0) + "%";
    header.push_back("B" + buf + " 0x0 Abs");
    for (const auto& s : pt.schemes) {
      header.push_back("B" + buf + " " + SchemeName(s) + " Rel[%]");
    }
  }
  TablePrinter t(header);

  // Collect the whole sweep (baseline + every scheme per buffer point) as
  // one batch of independent configs, run it on the pool, then slice the
  // ordered results back into cells.
  std::vector<RunConfig> configs;
  for (const SweepPoint& pt : points) {
    RunConfig rc;
    rc.workload = workload;
    rc.buffer_fraction = pt.buffer_fraction;
    rc.eager = eager;
    rc.txns = DefaultTxns(workload);
    rc.sim_time_us = static_cast<uint64_t>(10e6 * workload::BenchScale());
    configs.push_back(rc);
    for (const auto& s : pt.schemes) {
      RunConfig rs = rc;
      rs.scheme = s;
      configs.push_back(rs);
    }
  }
  auto results = RunMany(configs);

  struct Cell {
    RunResult base;
    std::vector<RunResult> schemes;
  };
  std::vector<Cell> cells;
  size_t idx = 0;
  for (const SweepPoint& pt : points) {
    if (!results[idx].ok()) {
      std::fprintf(stderr, "baseline %.0f%%: %s\n", 100 * pt.buffer_fraction,
                   results[idx].status().ToString().c_str());
      return 1;
    }
    Cell cell;
    cell.base = std::move(results[idx++]).value();
    for (size_t k = 0; k < pt.schemes.size(); k++) {
      if (!results[idx].ok()) {
        std::fprintf(stderr, "scheme: %s\n",
                     results[idx].status().ToString().c_str());
        return 1;
      }
      cell.schemes.push_back(std::move(results[idx++]).value());
    }
    cells.push_back(std::move(cell));
  }

  {
    std::vector<std::string> row{"Out-of-Place Writes vs IPAs"};
    for (const Cell& c : cells) {
      row.push_back("");
      for (const RunResult& r : c.schemes) row.push_back(OopVsIpa(r));
    }
    t.AddRow(row);
  }
  auto add = [&](const char* name, auto get, int dec = 0, bool thousands = true) {
    std::vector<std::string> row{name};
    for (const Cell& c : cells) {
      double vb = get(c.base);
      row.push_back(thousands ? FormatThousands(static_cast<uint64_t>(vb))
                              : Fmt(vb, dec));
      for (const RunResult& r : c.schemes) {
        row.push_back(Pct(RelPercent(vb, get(r)), 2));
      }
    }
    t.AddRow(row);
  };
  add("Host Read I/Os", [](const RunResult& r) { return double(r.host_reads); });
  add("Host Write I/Os", [](const RunResult& r) { return double(r.host_writes); });
  add("GC Page Migrations",
      [](const RunResult& r) { return double(r.gc_migrations); });
  add("GC Erases", [](const RunResult& r) { return double(r.gc_erases); });
  add("GC Page Migr. per Host Write",
      [](const RunResult& r) { return r.migrations_per_host_write; }, 4, false);
  add("GC Erases per Host Write",
      [](const RunResult& r) { return r.erases_per_host_write; }, 4, false);
  add("READ I/O resp. time [ms]",
      [](const RunResult& r) { return r.read_latency_ms; }, 3, false);
  add("WRITE I/O resp. time [ms]",
      [](const RunResult& r) { return r.write_latency_ms; }, 3, false);
  add("Transactional Throughput",
      [](const RunResult& r) { return r.throughput_tps; }, 0, false);
  t.Print();
  return 0;
}

}  // namespace ipa::bench
