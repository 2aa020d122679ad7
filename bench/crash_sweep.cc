#include "bench/crash_sweep.h"

#include <algorithm>
#include <map>
#include <memory>

#include "bench/parallel_runner.h"
#include "common/crc32.h"
#include "common/random.h"
#include "engine/database.h"
#include "flash/timing.h"
#include "workload/testbed.h"

namespace ipa::bench {

namespace {

// TPC-B-style rows: fixed-size account tuples whose balance field takes the
// per-transaction 4-byte in-place updates (the IPA-friendly write pattern),
// plus append-only history tuples.
constexpr uint32_t kAccountBytes = 100;
constexpr uint32_t kBalanceOffset = 12;
constexpr uint32_t kHistoryBytes = 20;
constexpr uint32_t kLoadBatch = 8;
constexpr uint64_t kCheckpointEvery = 16;

/// Committed database content: rid.Pack() -> tuple bytes (both tables share
/// the tablespace, so packed rids are unique across them).
using Reference = std::map<uint64_t, std::vector<uint8_t>>;

/// One fully private simulated stack per sweep point.
struct Testbed {
  flash::FlashArray dev;
  ftl::NoFtl noftl;                       // kNoFtl stacks only
  std::unique_ptr<ftl::PageFtl> pageftl;  // page-mapping stacks only
  /// The tablespace's backend, whichever stack is active.
  ftl::FtlBackend* backend = nullptr;
  std::unique_ptr<engine::Database> db;
  ftl::RegionId region = 0;
  engine::TablespaceId ts = 0;
  engine::TableId accounts_tbl = 0;
  engine::TableId history_tbl = 0;

  static flash::Geometry Geo() {
    flash::Geometry g;
    g.channels = 2;
    g.chips_per_channel = 2;
    g.blocks_per_chip = 48;
    g.pages_per_block = 16;
    g.page_size = 2048;
    return g;
  }

  Testbed() : dev(Geo(), flash::SlcTiming()), noftl(&dev) {}

  Status Open(workload::Backend kind, storage::DeltaCodec codec) {
    engine::EngineConfig ec;
    ec.page_size = Geo().page_size;
    ec.buffer_pages = 12;  // tiny pool: constant steal under the workload
    ec.log_capacity_bytes = 1 << 20;
    ec.log_reclaim_threshold = 0.375;

    if (kind == workload::Backend::kNoFtl) {
      storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
      scheme.codec = static_cast<uint8_t>(codec);
      ftl::RegionConfig rc;
      rc.name = "sweep";
      rc.logical_pages = 256;
      rc.ipa_mode = ftl::IpaMode::kSlc;
      rc.delta_area_offset = Geo().page_size - scheme.AreaBytes();
      rc.manage_ecc = true;
      auto r = noftl.CreateRegion(rc);
      IPA_RETURN_NOT_OK(r.status());
      region = r.value();
      backend = noftl.region_device(region);
      db = std::make_unique<engine::Database>(&noftl, ec);
      auto t = db->CreateTablespace("sweep", region, scheme);
      IPA_RETURN_NOT_OK(t.status());
      ts = t.value();
    } else {
      ftl::PageFtlConfig pc;
      pc.name = "sweep";
      pc.logical_pages = 256;
      pc.gc_policy = workload::PageFtlPolicy(kind);
      auto pf = ftl::PageFtl::Create(&dev, pc);
      IPA_RETURN_NOT_OK(pf.status());
      pageftl = std::move(pf).value();
      backend = pageftl.get();
      db = std::make_unique<engine::Database>(nullptr, ec, &dev.clock());
      auto t = db->CreateTablespaceOn("sweep", backend, {});
      IPA_RETURN_NOT_OK(t.status());
      ts = t.value();
    }
    auto a = db->CreateTable("account", ts);
    IPA_RETURN_NOT_OK(a.status());
    accounts_tbl = a.value();
    auto h = db->CreateTable("history", ts);
    IPA_RETURN_NOT_OK(h.status());
    history_tbl = h.value();
    return Status::OK();
  }
};

struct WorkloadOutcome {
  Reference committed;
  uint64_t commits = 0;
  bool crashed = false;  ///< Workload ended in a power loss.
};

std::vector<uint8_t> AccountTuple(uint32_t id) {
  std::vector<uint8_t> t(kAccountBytes);
  for (uint32_t j = 0; j < kAccountBytes; j++) {
    t[j] = static_cast<uint8_t>(id * 7u + j * 13u + 1u);
  }
  return t;
}

/// Run the deterministic TPC-B-style workload to completion or until the
/// first power loss. The returned reference holds exactly the content a
/// correct post-recovery database must serve.
///
/// Commit protocol vs power loss: the commit record is forced to the (RAM-
/// modeled, write-atomic) log *before* Commit() issues any cleaner /
/// checkpoint flash I/O, so a Commit() that returns Unavailable is already
/// durable — the reference promotes it. A loss inside any other operation
/// leaves the transaction uncommitted and the reference unchanged.
Result<WorkloadOutcome> RunTpcb(Testbed& tb, uint32_t accounts, uint64_t txns,
                                uint64_t seed) {
  WorkloadOutcome w;
  Rng rng(seed);
  std::vector<uint64_t> rids;  // packed rids of committed accounts

  // -- Load phase: accounts in small committed batches.
  for (uint32_t base = 0; base < accounts; base += kLoadBatch) {
    engine::TxnId txn = tb.db->Begin();
    Reference local = w.committed;
    std::vector<uint64_t> batch;
    Status s = Status::OK();
    for (uint32_t i = base; i < std::min(accounts, base + kLoadBatch); i++) {
      std::vector<uint8_t> t = AccountTuple(i);
      auto rid = tb.db->Insert(txn, tb.accounts_tbl, t);
      if (!rid.ok()) {
        s = rid.status();
        break;
      }
      local[rid.value().Pack()] = std::move(t);
      batch.push_back(rid.value().Pack());
    }
    if (s.ok()) {
      Status cs = tb.db->Commit(txn);
      if (cs.ok() || cs.IsUnavailable()) {
        w.committed = std::move(local);
        w.commits++;
        rids.insert(rids.end(), batch.begin(), batch.end());
      }
      s = cs;
    }
    if (!s.ok()) {
      if (s.IsUnavailable()) {
        w.crashed = true;
        return w;
      }
      return s;
    }
  }

  // -- Transaction phase: 3 balance updates + 1 history insert per txn.
  for (uint64_t t = 0; t < txns; t++) {
    engine::TxnId txn = tb.db->Begin();
    Reference local = w.committed;
    Status s = Status::OK();
    for (int u = 0; u < 3 && s.ok(); u++) {
      uint64_t key = rids[rng.Uniform(rids.size())];
      uint8_t patch[4];
      for (uint8_t& b : patch) b = static_cast<uint8_t>(rng.Next());
      s = tb.db->Update(txn, engine::Rid::Unpack(key), kBalanceOffset, patch);
      if (s.ok()) {
        std::copy(patch, patch + sizeof(patch),
                  local[key].begin() + kBalanceOffset);
      }
    }
    if (s.ok()) {
      std::vector<uint8_t> h(kHistoryBytes);
      for (uint8_t& b : h) b = static_cast<uint8_t>(rng.Next());
      auto rid = tb.db->Insert(txn, tb.history_tbl, h);
      if (rid.ok()) {
        local[rid.value().Pack()] = std::move(h);
      } else {
        s = rid.status();
      }
    }
    bool abort = rng.Chance(0.1);  // drawn even on failure: keeps rng aligned
    if (s.ok()) {
      if (abort) {
        s = tb.db->Abort(txn);  // local discarded
      } else {
        Status cs = tb.db->Commit(txn);
        if (cs.ok() || cs.IsUnavailable()) {
          w.committed = std::move(local);
          w.commits++;
        }
        s = cs;
      }
    }
    if (s.ok() && (t + 1) % kCheckpointEvery == 0) {
      s = tb.db->Checkpoint();
    }
    if (!s.ok()) {
      if (s.IsUnavailable()) {
        w.crashed = true;
        return w;
      }
      return s;
    }
  }
  return w;
}

/// Scan both tables and compare against the reference byte-for-byte.
Status VerifyReference(Testbed& tb, const Reference& ref) {
  Reference found;
  for (engine::TableId tbl : {tb.accounts_tbl, tb.history_tbl}) {
    IPA_RETURN_NOT_OK(
        tb.db->Scan(tbl, [&](engine::Rid rid, std::span<const uint8_t> t) {
          found[rid.Pack()] = {t.begin(), t.end()};
          return true;
        }));
  }
  if (found.size() != ref.size()) {
    return Status::Corruption(
        "tuple count mismatch: scanned " + std::to_string(found.size()) +
        ", committed " + std::to_string(ref.size()));
  }
  for (const auto& [key, bytes] : ref) {
    auto it = found.find(key);
    if (it == found.end()) {
      return Status::Corruption("committed rid " + std::to_string(key) +
                                " lost");
    }
    if (it->second != bytes) {
      return Status::Corruption("content mismatch at rid " +
                                std::to_string(key));
    }
  }
  return Status::OK();
}

CrashSweepPoint RunPoint(const CrashSweepConfig& cfg, uint32_t accounts,
                         uint64_t txns, uint64_t inject_at) {
  CrashSweepPoint p;
  p.inject_at = inject_at;
  Testbed tb;
  Status open = tb.Open(cfg.backend, cfg.codec);
  if (!open.ok()) {
    p.error = "open: " + open.ToString();
    return p;
  }
  flash::PowerLossPolicy policy;
  policy.inject_at_op = inject_at;
  // Distinct torn-state shapes per point, reproducible from the sweep seed.
  policy.seed = cfg.seed ^ (0x9E3779B97F4A7C15ull * (inject_at + 1));
  tb.dev.SetPowerLossPolicy(policy);

  auto wr = RunTpcb(tb, accounts, txns, cfg.seed);
  if (!wr.ok()) {
    p.error = "workload: " + wr.status().ToString();
    return p;
  }
  const WorkloadOutcome& w = wr.value();
  p.crashed = w.crashed;
  p.commits = w.commits;

  // Crash, power-cycle, restart. Crash-free points (the armed op was
  // rejected by validation and never drew current) still go through a final
  // crash + restart, exercising plain volatile-state recovery.
  tb.db->SimulateCrash();
  tb.dev.PowerCycle();
  Status rs = tb.db->RecoverAfterPowerLoss();
  if (!rs.ok()) {
    p.error = "recover: " + rs.ToString();
    return p;
  }
  const ftl::RegionStats& st = tb.backend->stats();
  p.torn_bytes = st.torn_delta_bytes_dropped;
  p.quarantined = st.torn_pages_quarantined;
  if (st.ecc_uncorrectable != 0) {
    p.error = "uncorrectable ECC after recovery";
    return p;
  }
  Status v = VerifyReference(tb, w.committed);
  if (!v.ok()) {
    p.error = v.ToString();
    return p;
  }
  p.ok = true;
  return p;
}

void Append64(std::vector<uint8_t>& buf, uint64_t v) {
  for (int i = 0; i < 8; i++) buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

}  // namespace

uint32_t CrashSweepReport::Fingerprint() const {
  std::vector<uint8_t> buf;
  buf.reserve(points.size() * 34 + 8);
  Append64(buf, total_ops);
  for (const CrashSweepPoint& p : points) {
    Append64(buf, p.inject_at);
    buf.push_back(p.crashed ? 1 : 0);
    buf.push_back(p.ok ? 1 : 0);
    Append64(buf, p.commits);
    Append64(buf, p.torn_bytes);
    Append64(buf, p.quarantined);
  }
  return Crc32c(buf.data(), buf.size());
}

Result<CrashSweepReport> RunCrashSweep(const CrashSweepConfig& config) {
  CrashSweepConfig cfg = config;
  if (cfg.scale_with_env) {
    double scale = workload::BenchScale();
    cfg.txns = std::max<uint64_t>(
        8, static_cast<uint64_t>(static_cast<double>(cfg.txns) * scale));
  }

  // -- Trace run: count the mutating flash ops of the crash-free workload.
  CrashSweepReport report;
  {
    Testbed tb;
    IPA_RETURN_NOT_OK(tb.Open(cfg.backend, cfg.codec));
    tb.dev.SetPowerLossPolicy(flash::PowerLossPolicy{});  // armed never: counts ops
    auto wr = RunTpcb(tb, cfg.accounts, cfg.txns, cfg.seed);
    IPA_RETURN_NOT_OK(wr.status());
    if (wr.value().crashed) {
      return Status::Internal("trace run lost power without injection");
    }
    report.total_ops = tb.dev.mutation_ops();
  }
  if (report.total_ops == 0) {
    return Status::Internal("workload issued no mutating flash ops");
  }

  // -- Injection points: every op index, or an even subsample when capped.
  std::vector<uint64_t> points;
  if (cfg.max_points == 0 || cfg.max_points >= report.total_ops) {
    points.resize(report.total_ops);
    for (uint64_t i = 0; i < report.total_ops; i++) points[i] = i;
  } else {
    points.resize(cfg.max_points);
    for (uint64_t i = 0; i < cfg.max_points; i++) {
      points[i] = i * report.total_ops / cfg.max_points;
    }
  }

  // -- Replay: each point is a private stack; order-independent by design.
  report.points.resize(points.size());
  ParallelFor(
      points.size(),
      [&](size_t i) {
        report.points[i] = RunPoint(cfg, cfg.accounts, cfg.txns, points[i]);
      },
      cfg.jobs);

  for (const CrashSweepPoint& p : report.points) {
    if (p.crashed) report.crashes++;
    if (!p.ok) report.failures++;
  }
  return report;
}

}  // namespace ipa::bench
