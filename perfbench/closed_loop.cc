// Closed-loop workloads: one client runs transactions back to back on the
// simulated clock.
//
//  tpcb-ipa-ecc         TPC-B [2x4] v=12, 4 KiB pages, NoFTL SLC region with
//                       DBMS-managed ECC (Section 6.2), buffer 30% of the DB.
//  linkbench-streamftl  LinkBench on StreamFtl, 8 KiB pages, buffer 30% of
//                       the DB; IPA is off on a cooked device.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "flash/timing.h"
#include "workload/linkbench.h"
#include "workload/testbed.h"
#include "workload/tpcb.h"

namespace perfbench {
namespace {

using namespace ipa;

struct ClosedSpec {
  /// Simulated host CPU per transaction (the table benches' defaults),
  /// charged between transactions.
  uint32_t cpu_us = 0;
  /// p99 limit of the SLO search and the arrivals offered per rung.
  double slo_p99_us = 0;
  uint64_t slo_arrivals = 0;
  storage::Scheme scheme;
  uint64_t db_pages = 0;  ///< Workload::EstimatedPages of the loaded DB.
  std::function<Result<std::unique_ptr<workload::Testbed>>()> make_testbed;
  std::function<std::unique_ptr<workload::Workload>(
      engine::Database*, engine::TablespaceId, uint64_t seed)>
      make_workload;
  /// Workload-specific output check after the run.
  std::function<Status(workload::Testbed&)> check;
};

/// Warm-up stops once GC has erased a block; this bounds it.
constexpr uint64_t kWarmupCap = 400000;

class ClosedInstance final : public Instance {
 public:
  explicit ClosedInstance(std::shared_ptr<const ClosedSpec> spec)
      : spec_(std::move(spec)) {}

  Status Setup(uint64_t seed, Tracer* tracer) override {
    IPA_ASSIGN_OR_RETURN(bed_, spec_->make_testbed());
    ftl::PageDevice* dev = bed_->backend;
    if (tracer) {
      traced_ = std::make_unique<TracedDevice>(bed_->backend, tracer,
                                               &bed_->clock());
      dev = traced_.get();
    }
    IPA_ASSIGN_OR_RETURN(engine::TablespaceId ts,
                         bed_->db->CreateTablespaceOn("bench", dev, spec_->scheme));
    wl_ = spec_->make_workload(bed_->db.get(), ts, seed);
    IPA_RETURN_NOT_OK(wl_->Load());
    IPA_RETURN_NOT_OK(bed_->db->Checkpoint());
    // Warm up until GC runs, so the window measures a device in steady use
    // rather than one still filling its free blocks.
    uint64_t erases0 = bed_->dev->AggregateStats().block_erases;
    for (uint64_t i = 0; bed_->dev->AggregateStats().block_erases == erases0;
         ++i) {
      if (i == kWarmupCap) return Status::Internal("warm-up: GC never started");
      IPA_RETURN_NOT_OK(wl_->RunTransaction().status());
      bed_->clock().Advance(spec_->cpu_us);
    }
    return Status::OK();
  }

  void PrintShape(uint64_t ops) const override {
    std::printf("# db pages %llu, buffer pages %llu, %llu ops per window\n",
                static_cast<unsigned long long>(spec_->db_pages),
                static_cast<unsigned long long>(bed_->buffer_pages),
                static_cast<unsigned long long>(ops));
  }

  Result<Window> Measure(uint64_t ops, Tracer* tracer) override {
    SimClock& clock = bed_->clock();
    engine::Wal& wal = bed_->db->wal();
    Window w;
    w.sim_lat_us.reserve(ops);
    w.wall_lat_ns.reserve(ops);
    Counters before = Snap();
    SimTime sim0 = clock.Now();
    engine::Lsn durable = wal.durable_lsn();
    if (tracer) tracer->set_active(true);
    uint64_t wall0 = WallNs();
    for (uint64_t i = 0; i < ops; ++i) {
      if (i == ops / 2) w.first_half = Minus(Snap(), before);
      uint64_t t0 = WallNs();
      SimTime s0 = clock.Now();
      if (tracer) tracer->BeginOp();
      auto r = wl_->RunTransaction();
      SimTime s1 = clock.Now();
      if (tracer) tracer->EndOp(s0, s1);
      uint64_t t1 = WallNs();
      clock.Advance(spec_->cpu_us);
      w.attempted++;
      if (r.ok()) {
        w.completed++;
        w.sim_lat_us.push_back(static_cast<double>(s1 - s0));
        w.wall_lat_ns.push_back(static_cast<double>(t1 - t0));
      } else {
        w.failed++;
      }
      if (wal.durable_lsn() != durable) {
        durable = wal.durable_lsn();
        w.forces++;
      }
    }
    w.wall_s = static_cast<double>(WallNs() - wall0) / 1e9;
    if (tracer) tracer->set_active(false);
    w.sim_us = clock.Now() - sim0;
    w.delta = Minus(Snap(), before);
    return w;
  }

  /// Poisson arrivals at `rate`, each transaction starting at max(due,
  /// server free). Passes when p99 from due time to commit stays within the
  /// workload's limit (a failed transaction misses it) and the server ends
  /// no further behind than the limit (no growing backlog).
  Result<bool> Probe(double rate, uint64_t seed) override {
    SimClock& clock = bed_->clock();
    Rng rng(seed ^ static_cast<uint64_t>(rate));
    SimTime t0 = clock.Now();
    double t = 0;
    std::vector<double> lat;
    for (uint64_t i = 0; i < spec_->slo_arrivals; ++i) {
      t += -std::log(1.0 - rng.NextDouble()) / rate * 1e6;
      SimTime due = t0 + static_cast<SimTime>(t);
      clock.AdvanceTo(due);
      auto r = wl_->RunTransaction();
      lat.push_back(r.ok() ? static_cast<double>(clock.Now() - due) : HUGE_VAL);
      clock.Advance(spec_->cpu_us);
    }
    SimTime end = t0 + static_cast<SimTime>(t);
    double lag = static_cast<double>(clock.Now() > end ? clock.Now() - end : 0);
    return ReportProbe(rate, Summarize(std::move(lat), true).p99, lag, 0,
                       spec_->slo_p99_us);
  }

  Status Check() override {
    IPA_RETURN_NOT_OK(bed_->backend->Audit());
    return spec_->check(*bed_);
  }

 private:
  Counters Snap() const {
    Counters c;
    c.dev = bed_->dev->AggregateStats();
    c.AddRegion(bed_->backend->stats());
    c.AddDb(*bed_->db);
    return c;
  }

  std::shared_ptr<const ClosedSpec> spec_;
  std::unique_ptr<TracedDevice> traced_;  ///< Outlives the DB bound to it.
  std::unique_ptr<workload::Testbed> bed_;
  std::unique_ptr<workload::Workload> wl_;
};

WorkloadDef Closed(ClosedSpec spec, double nominal_ops_per_s) {
  WorkloadDef def;
  def.nominal_ops_per_s = nominal_ops_per_s;
  def.ladder = GeometricLadder(250, 8000);
  auto shared = std::make_shared<const ClosedSpec>(std::move(spec));
  def.make = [shared]() -> std::unique_ptr<Instance> {
    return std::make_unique<ClosedInstance>(shared);
  };
  return def;
}

// ---------------------------------------------------------------------------
// tpcb-ipa-ecc
// ---------------------------------------------------------------------------

constexpr uint32_t kTpcbAccounts = 20000;
constexpr double kBufferFraction = 0.30;

/// The emulator-profile stack of workload::MakeTestbed (same geometry and
/// sizing), with DBMS-managed ECC on the NoFTL region, which MakeTestbed
/// does not offer. No tablespace yet: the caller binds one.
Result<std::unique_ptr<workload::Testbed>> MakeEccTestbed(uint64_t db_pages,
                                                         storage::Scheme s) {
  constexpr uint32_t kPage = 4096;
  // Growth headroom 4x (MakeTestbed: 2x): HISTORY grows by one row per
  // transaction and must not exhaust the tablespace within a run.
  constexpr double kHeadroom = 4.0, kOp = 0.10;
  flash::Geometry g;
  g.page_size = kPage;
  g.oob_size = 128;
  g.cell_type = flash::CellType::kSlc;
  g.channels = 4;
  g.chips_per_channel = 4;
  g.pages_per_block = 64;
  g.max_programs_per_page = 8;
  g.pe_cycle_limit = 100000;
  uint64_t logical = static_cast<uint64_t>(static_cast<double>(db_pages) * kHeadroom);
  uint64_t physical =
      static_cast<uint64_t>(static_cast<double>(logical) * (1.0 + kOp) * 1.10);
  uint64_t blocks = physical / g.pages_per_block + 8 * g.total_chips();
  g.blocks_per_chip = static_cast<uint32_t>(blocks / g.total_chips() + 1);

  auto bed = std::make_unique<workload::Testbed>();
  bed->dev = std::make_unique<flash::FlashArray>(g, flash::TimingFor(g.cell_type));
  bed->noftl = std::make_unique<ftl::NoFtl>(bed->dev.get());
  ftl::RegionConfig rc;
  rc.name = "db";
  rc.logical_pages = logical;
  rc.over_provisioning = kOp;
  rc.ipa_mode = ftl::IpaMode::kSlc;
  rc.delta_area_offset = kPage - s.AreaBytes();
  rc.manage_ecc = true;
  IPA_ASSIGN_OR_RETURN(bed->region, bed->noftl->CreateRegion(rc));
  bed->backend = bed->noftl->region_device(bed->region);

  engine::EngineConfig ec;
  ec.page_size = kPage;
  bed->buffer_pages = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(db_pages) * kBufferFraction), 64);
  ec.buffer_pages = static_cast<uint32_t>(bed->buffer_pages);
  ec.log_capacity_bytes = 24ull << 20;
  bed->db = std::make_unique<engine::Database>(bed->noftl.get(), ec);
  return bed;
}

/// Sum of the i32 balance column of a TPC-B table (BRANCH/TELLER/ACCOUNT).
Result<int64_t> BalanceSum(engine::Database& db, const std::string& table) {
  for (engine::TableId t = 0; t < db.table_count(); ++t) {
    if (db.table_name(t) != table) continue;
    int64_t sum = 0;
    IPA_RETURN_NOT_OK(db.Scan(t, [&](engine::Rid, std::span<const uint8_t> row) {
      uint32_t raw = 0;
      std::memcpy(&raw, row.data() + workload::Tpcb::kBalanceOffset, 4);
      sum += static_cast<int32_t>(raw);
      return true;
    }));
    return sum;
  }
  return Status::NotFound("no table " + table);
}

Status CheckTpcb(workload::Testbed& bed) {
  if (bed.backend->stats().ecc_uncorrectable != 0) {
    return Status::Corruption("ECC reported uncorrectable pages");
  }
  IPA_ASSIGN_OR_RETURN(int64_t branches, BalanceSum(*bed.db, "BRANCH"));
  IPA_ASSIGN_OR_RETURN(int64_t tellers, BalanceSum(*bed.db, "TELLER"));
  IPA_ASSIGN_OR_RETURN(int64_t accounts, BalanceSum(*bed.db, "ACCOUNT"));
  if (branches != tellers || tellers != accounts) {
    return Status::Corruption(
        "TPC-B balance sums disagree: branch " + std::to_string(branches) +
        ", teller " + std::to_string(tellers) + ", account " +
        std::to_string(accounts));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// linkbench-streamftl
// ---------------------------------------------------------------------------

constexpr uint64_t kLinkbenchNodes = 20000;

}  // namespace

WorkloadDef TpcbIpaEcc() {
  ClosedSpec spec;
  spec.cpu_us = 150;
  spec.slo_p99_us = kSloP99Us;
  spec.slo_arrivals = 4000;
  spec.scheme = storage::Scheme{.n = 2, .m = 4, .v = 12};
  workload::TpcbConfig tc;
  tc.accounts_per_branch = kTpcbAccounts;
  spec.db_pages =
      workload::Tpcb(nullptr, tc, workload::SingleTablespace(0)).EstimatedPages(4096);
  spec.make_testbed = [db_pages = spec.db_pages, s = spec.scheme] {
    return MakeEccTestbed(db_pages, s);
  };
  spec.make_workload = [tc](engine::Database* db, engine::TablespaceId ts,
                            uint64_t seed) -> std::unique_ptr<workload::Workload> {
    workload::TpcbConfig c = tc;
    c.seed = seed;
    return std::make_unique<workload::Tpcb>(db, c, workload::SingleTablespace(ts));
  };
  spec.check = CheckTpcb;
  return Closed(std::move(spec), 5500);
}

WorkloadDef LinkbenchStreamFtl() {
  ClosedSpec spec;
  spec.cpu_us = 120;
  // GET_LINK_LIST range scans put the closed-loop p99 past 2 ms already.
  spec.slo_p99_us = 10000;
  spec.slo_arrivals = 4000;
  workload::LinkbenchConfig lc;
  lc.nodes = kLinkbenchNodes;
  spec.db_pages = workload::Linkbench(nullptr, lc, workload::SingleTablespace(0))
                      .EstimatedPages(8192);
  spec.make_testbed = [db_pages = spec.db_pages] {
    workload::TestbedConfig tc;
    tc.backend = workload::Backend::kStreamFtl;
    tc.page_size = 8192;
    tc.db_pages = db_pages;
    tc.buffer_fraction = kBufferFraction;
    return workload::MakeTestbed(tc);
  };
  spec.make_workload = [lc](engine::Database* db, engine::TablespaceId ts,
                            uint64_t seed) -> std::unique_ptr<workload::Workload> {
    workload::LinkbenchConfig c = lc;
    c.seed = seed;
    return std::make_unique<workload::Linkbench>(db, c,
                                                 workload::SingleTablespace(ts));
  };
  spec.check = [](workload::Testbed&) { return Status::OK(); };
  return Closed(std::move(spec), 60000);
}

}  // namespace perfbench
