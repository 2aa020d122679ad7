#include "bench/crash_sweep.h"

#include <algorithm>
#include <span>

#include "bench/parallel_runner.h"
#include "common/crc32.h"
#include "common/random.h"
#include "engine/database.h"

namespace ipa::bench {

namespace {

constexpr uint32_t kLoadBatch = 8;
constexpr uint64_t kCheckpointEvery = 16;

}  // namespace

workload::StackSpec SweepSpec(workload::Backend backend,
                              storage::DeltaCodec codec) {
  workload::StackSpec spec = workload::SmallSpec();
  workload::RegionSpec r{.tablespace = "sweep", .tables = {"account", "history"}};
  if (backend == workload::Backend::kNoFtl) {
    r.ftl = ftl::RegionConfig{.name = "sweep",
                              .logical_pages = 256,
                              .ipa_mode = ftl::IpaMode::kSlc,
                              .manage_ecc = true};
    r.scheme = {.n = 2, .m = 4, .v = 12, .codec = static_cast<uint8_t>(codec)};
  } else {
    r.ftl = ftl::PageFtlConfig{.name = "sweep",
                               .logical_pages = 256,
                               .gc_policy = workload::PageFtlPolicy(backend)};
  }
  spec.regions.push_back(std::move(r));
  return spec;
}

Status BuildReplicated(const repl::ReplConfig& config, SweepNode* out) {
  IPA_ASSIGN_OR_RETURN(out->stack, workload::Build(SweepSpec()));
  workload::Stack& s = *out->stack;
  IPA_ASSIGN_OR_RETURN(out->repl, repl::ReplNode::Attach(s.db.get(), s.ts,
                                                         s.parts[0].tables,
                                                         config));
  return Status::OK();
}

std::vector<uint8_t> AccountTuple(uint32_t id) {
  std::vector<uint8_t> t(kAccountBytes);
  for (uint32_t j = 0; j < kAccountBytes; j++) {
    t[j] = static_cast<uint8_t>(id * 7u + j * 13u + 1u);
  }
  return t;
}

Result<TpcbOutcome> RunTpcb(workload::Stack& stack, uint32_t accounts,
                            uint64_t txns, uint64_t seed,
                            const TpcbHook& hook) {
  if (accounts == 0) {
    return Status::InvalidArgument("TPC-B needs at least one account");
  }
  engine::Database& db = *stack.db;
  const std::vector<engine::TableId>& tables = stack.parts[0].tables;
  TpcbOutcome w;
  Rng rng(seed);
  std::vector<uint64_t> rids;  // packed rids of the loaded accounts

  // A power loss ends the run; any other failure is a harness error.
  auto stop = [&w](const Status& s) -> Result<TpcbOutcome> {
    if (!s.IsUnavailable()) return s;
    w.crashed = true;
    return std::move(w);
  };
  auto commit = [&](engine::TxnId txn, Reference& local) {
    Status s = db.Commit(txn);
    if (s.ok() || s.IsUnavailable()) {
      w.committed = std::move(local);
      w.commits++;
    }
    return s;
  };
  auto step = [&](const TpcbStep& st) {
    return hook ? hook(st) : Status::OK();
  };

  // -- Load phase: accounts in small committed batches.
  for (uint32_t base = 0; base < accounts; base += kLoadBatch) {
    engine::TxnId txn = db.Begin();
    Reference local = w.committed;
    Status s;
    for (uint32_t i = base; i < std::min(accounts, base + kLoadBatch) && s.ok();
         i++) {
      std::vector<uint8_t> t = AccountTuple(i);
      auto rid = db.Insert(txn, tables[kAccountTable], t);
      s = rid.status();
      if (s.ok()) {
        rids.push_back(rid.value().Pack());
        local[rids.back()] = std::move(t);
      }
    }
    if (s.ok()) s = commit(txn, local);
    if (!s.ok()) return stop(s);
    IPA_RETURN_NOT_OK(step({.load = true}));
  }

  // -- Transaction phase: 3 balance updates + 1 history insert per txn.
  for (uint64_t t = 0; t < txns; t++) {
    engine::TxnId txn = db.Begin();
    Reference local = w.committed;
    Status s;
    for (int u = 0; u < 3 && s.ok(); u++) {
      uint64_t key = rids[rng.Uniform(rids.size())];
      uint8_t patch[4];
      for (uint8_t& b : patch) b = static_cast<uint8_t>(rng.Next());
      s = db.Update(txn, engine::Rid::Unpack(key), kBalanceOffset, patch);
      if (s.ok()) {
        std::copy(patch, patch + sizeof(patch),
                  local[key].begin() + kBalanceOffset);
      }
    }
    if (s.ok()) {
      std::vector<uint8_t> h(kHistoryBytes);
      for (uint8_t& b : h) b = static_cast<uint8_t>(rng.Next());
      auto rid = db.Insert(txn, tables[kHistoryTable], h);
      s = rid.status();
      if (s.ok()) local[rid.value().Pack()] = std::move(h);
    }
    bool abort = rng.Chance(0.1);  // drawn even on failure: keeps rng aligned
    if (s.ok()) s = abort ? db.Abort(txn) : commit(txn, local);
    if (!s.ok()) return stop(s);
    IPA_RETURN_NOT_OK(step({.txn = t, .committed = !abort}));
    if ((t + 1) % kCheckpointEvery == 0) {
      s = db.Checkpoint();
      if (!s.ok()) return stop(s);
    }
  }
  return w;
}

namespace {

/// What a run injects: nothing (the trace run), a power cut at one mutating
/// op of the swept stack, or a shipment drill.
struct Drill {
  bool armed = true;       ///< false for the crash-free trace run.
  bool shipment = false;   ///< Shipment drill (else a power cut).
  uint64_t at = 0;         ///< Mutating-op index, or shipment ordinal.
  uint64_t torn_seed = 0;  ///< Shapes the torn prefix (shipment drills).
};

/// One run of the workload: a single stack or, when replicated, the
/// primary→replica pair plus the shipping state between them.
struct SweepRun {
  SweepRun(const CrashSweepConfig& c, const Drill& d) : cfg(c), drill(d) {}

  /// The stack whose mutating ops the sweep cuts.
  workload::Stack& swept() { return *(cfg.repl ? replica : primary).stack; }

  const CrashSweepConfig& cfg;
  const Drill drill;
  SweepNode primary;  // the only node when not replicated
  SweepNode replica;  // replicated sweeps only
  TpcbOutcome outcome;          ///< The workload's result.
  uint64_t swept_ops = 0;       ///< swept()'s mutating ops before verifying.
  uint64_t shipments = 0;       ///< Next shipment ordinal.
  uint64_t frames_accepted = 0; ///< Frames the replica took (incl. dups).
  bool ship_fired = false;      ///< The shipment drill engaged.
  bool replica_cut_fired = false;
  bool need_catchup = false;    ///< Primary crashed; in-flight frames lost.
};

/// Replica crash protocol: power-cycle, engine recovery, then rebuild the
/// replication state from the durable meta/map tables. Disarms the policy so
/// the sweep's single cut cannot re-fire during the remainder of the replay.
Status RecoverReplica(SweepRun& run) {
  workload::Stack& r = *run.replica.stack;
  run.replica_cut_fired = true;
  r.db->SimulateCrash();
  r.dev->PowerCycle();
  r.dev->SetPowerLossPolicy(flash::PowerLossPolicy{});
  IPA_RETURN_NOT_OK(r.db->RecoverAfterPowerLoss());
  return run.replica.repl->RecoverReplState();
}

/// Snapshot catch-up: ship the primary's full state. The replica may lose
/// power mid-snapshot (the armed cut can land inside the big apply
/// transaction) — recover and re-apply; the whole stream is one transaction,
/// so the retry starts from nothing.
Status RunCatchup(SweepRun& run) {
  SweepNode& r = run.replica;
  auto snap = run.primary.repl->BuildSnapshot();
  IPA_RETURN_NOT_OK(snap.status());
  for (int attempt = 0; attempt < 4; attempt++) {
    Status s = r.repl->ApplySnapshot(snap.value());
    if (s.IsUnavailable() && !r.stack->dev->powered_on()) {
      IPA_RETURN_NOT_OK(RecoverReplica(run));
      continue;
    }
    if (s.IsOutOfSpace()) {
      IPA_RETURN_NOT_OK(r.stack->db->Checkpoint());
      continue;
    }
    IPA_RETURN_NOT_OK(s);
    run.need_catchup = false;
    return Status::OK();
  }
  return Status::Internal("snapshot catch-up did not settle");
}

/// Deliver one frame, running the drill when its ordinal comes up.
///
/// Shipment drill: the frame first arrives torn (any proper prefix must be
/// rejected with zero state change), then the PRIMARY loses power at the
/// boundary — this frame and everything still queued is lost in flight; the
/// primary recovers and the replica heals later via snapshot catch-up.
///
/// Replica cut: the armed power loss fires inside ApplyFrame's transaction;
/// the engine reports Unavailable, recovery rolls the half-applied frame
/// back, and re-delivering the SAME frame must succeed (idempotence).
Status ShipFrame(SweepRun& run, const std::vector<uint8_t>& wire) {
  SweepNode& p = run.primary;
  SweepNode& r = run.replica;
  const Drill& drill = run.drill;
  uint64_t ordinal = run.shipments++;
  if (drill.armed && drill.shipment && !run.ship_fired &&
      ordinal == drill.at) {
    run.ship_fired = true;
    Rng rng(drill.torn_seed);
    size_t len = 1 + rng.Next() % (wire.size() - 1);
    auto torn = r.repl->ApplyFrame(std::span(wire.data(), len));
    IPA_RETURN_NOT_OK(torn.status());
    if (torn.value() != repl::ReplNode::Apply::kRejectedTorn) {
      return Status::Corruption("torn shipment was not rejected");
    }
    p.stack->db->SimulateCrash();
    p.stack->dev->PowerCycle();
    IPA_RETURN_NOT_OK(p.stack->db->RecoverAfterPowerLoss());
    IPA_RETURN_NOT_OK(p.repl->RecoverReplState());
    run.need_catchup = true;
    return Status::OK();  // outbound was cleared; the drain loop ends
  }
  for (int attempt = 0; attempt < 6; attempt++) {
    auto a = r.repl->ApplyFrame(wire);
    if (!a.ok()) {
      if (a.status().IsUnavailable() && !r.stack->dev->powered_on()) {
        IPA_RETURN_NOT_OK(RecoverReplica(run));
        continue;
      }
      if (a.status().IsOutOfSpace()) {
        IPA_RETURN_NOT_OK(r.stack->db->Checkpoint());
        continue;
      }
      return a.status();
    }
    switch (a.value()) {
      case repl::ReplNode::Apply::kApplied:
      case repl::ReplNode::Apply::kDuplicate:
        run.frames_accepted++;
        return Status::OK();
      case repl::ReplNode::Apply::kEcho:
        return Status::Corruption("replica saw its own frame echoed");
      case repl::ReplNode::Apply::kNeedCatchup:
        IPA_RETURN_NOT_OK(RunCatchup(run));
        continue;  // retry: the snapshot covers it, expect kDuplicate
      case repl::ReplNode::Apply::kRejectedTorn:
        return Status::Corruption("intact frame rejected as torn");
    }
  }
  return Status::Internal("frame delivery did not settle");
}

/// Drain the primary's outbound queue through ShipFrame.
Status ShipAll(SweepRun& run) {
  for (;;) {
    std::vector<uint8_t> w = run.primary.repl->PopOutbound();
    if (w.empty()) return Status::OK();
    IPA_RETURN_NOT_OK(ShipFrame(run, w));
  }
}

/// Scan both tables and compare against the reference byte-for-byte.
Status VerifyReference(workload::Stack& s, const Reference& ref) {
  Reference found;
  for (engine::TableId tbl : s.parts[0].tables) {
    IPA_RETURN_NOT_OK(
        s.db->Scan(tbl, [&](engine::Rid rid, std::span<const uint8_t> t) {
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

/// Replica convergence oracle: logical content (origin identity -> bytes)
/// must be byte-identical on both nodes, and the replica's view re-keyed by
/// origin rid must equal the reference.
Status VerifyConverged(SweepRun& run, const Reference& ref) {
  repl::ReplNode::LogicalMap pm, rm;
  IPA_RETURN_NOT_OK(run.primary.repl->ScanLogical(&pm));
  IPA_RETURN_NOT_OK(run.replica.repl->ScanLogical(&rm));
  if (pm != rm) {
    return Status::Corruption(
        "replica diverged: primary has " + std::to_string(pm.size()) +
        " logical tuples, replica has " + std::to_string(rm.size()));
  }
  Reference rebuilt;
  for (const auto& [key, bytes] : rm) {
    if (key.first != 1) {
      return Status::Corruption("replica holds tuple from unknown writer " +
                                std::to_string(key.first));
    }
    rebuilt[key.second] = bytes;
  }
  if (rebuilt != ref) {
    return Status::Corruption("replica logical content != reference (" +
                              std::to_string(rebuilt.size()) + " vs " +
                              std::to_string(ref.size()) + " tuples)");
  }
  return Status::OK();
}

/// Open the stacks, arm the drill and run the workload; a replicated pair
/// then final-syncs. Sets `run.outcome` and `run.swept_ops`.
Status Replay(SweepRun& run) {
  const CrashSweepConfig& cfg = run.cfg;
  if (cfg.repl) {
    IPA_RETURN_NOT_OK(
        BuildReplicated({.writer = 1, .writable = true}, &run.primary));
    IPA_RETURN_NOT_OK(
        BuildReplicated({.writer = 2, .writable = false}, &run.replica));
  } else {
    IPA_ASSIGN_OR_RETURN(run.primary.stack,
                         workload::Build(SweepSpec(cfg.backend, cfg.codec)));
  }
  flash::PowerLossPolicy policy;  // default: never fires, resets op counter
  if (run.drill.armed && !run.drill.shipment) {
    policy.inject_at_op = run.drill.at;
    // Distinct torn-state shapes per point, reproducible from the seed.
    policy.seed = cfg.seed ^ (0x9E3779B97F4A7C15ull * (run.drill.at + 1));
  }
  run.swept().dev->SetPowerLossPolicy(policy);

  TpcbHook ship;
  if (cfg.repl) ship = [&run](const TpcbStep&) { return ShipAll(run); };
  IPA_ASSIGN_OR_RETURN(
      run.outcome,
      RunTpcb(*run.primary.stack, cfg.accounts, cfg.txns, cfg.seed, ship));
  if (cfg.repl) {
    // The primary only loses power in a shipment drill, between
    // transactions.
    if (run.outcome.crashed) {
      return Status::Internal("primary lost power mid-workload");
    }
    // Final sync: drain stragglers; if the primary crashed at the drill
    // boundary the lost tail heals through one snapshot catch-up.
    IPA_RETURN_NOT_OK(ShipAll(run));
    if (run.need_catchup) IPA_RETURN_NOT_OK(RunCatchup(run));
  }
  run.swept_ops = run.swept().dev->mutation_ops();
  return Status::OK();
}

/// Check a replay against its reference. A single node first crashes and
/// restarts (crash-free points too, exercising plain volatile-state
/// recovery) and reports its torn-write counters in `p`; a replicated pair
/// must have converged.
Status Verify(SweepRun& run, CrashSweepPoint* p) {
  const Reference& ref = run.outcome.committed;
  if (run.cfg.repl) {
    IPA_RETURN_NOT_OK(VerifyReference(*run.primary.stack, ref));
    return VerifyConverged(run, ref);
  }
  workload::Stack& s = *run.primary.stack;
  s.db->SimulateCrash();
  s.dev->PowerCycle();
  IPA_RETURN_NOT_OK(s.db->RecoverAfterPowerLoss());
  const ftl::RegionStats& st = s.backend->stats();
  p->torn_bytes = st.torn_delta_bytes_dropped;
  p->quarantined = st.torn_pages_quarantined;
  if (st.ecc_uncorrectable != 0) {
    return Status::Corruption("uncorrectable ECC after recovery");
  }
  return VerifyReference(s, ref);
}

CrashSweepPoint RunPoint(const CrashSweepConfig& cfg, const Drill& drill) {
  CrashSweepPoint p;
  p.shipment = drill.shipment;
  p.inject_at = drill.at;
  SweepRun run(cfg, drill);
  Status s = Replay(run);
  if (s.ok()) s = Verify(run, &p);
  p.commits = run.outcome.commits;
  if (cfg.repl) {
    p.crashed = drill.shipment ? run.ship_fired : run.replica_cut_fired;
  } else {
    p.crashed = run.outcome.crashed;
  }
  p.frames = run.frames_accepted;
  if (s.ok()) {
    p.ok = true;
  } else {
    p.error = s.ToString();
  }
  return p;
}

void Append64(std::vector<uint8_t>& buf, uint64_t v) {
  for (int i = 0; i < 8; i++) buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

}  // namespace

uint32_t CrashSweepReport::Fingerprint() const {
  std::vector<uint8_t> buf;
  buf.reserve(points.size() * 34 + 16);
  Append64(buf, total_ops);
  if (repl) Append64(buf, shipments);
  for (const CrashSweepPoint& p : points) {
    if (repl) buf.push_back(p.shipment ? 1 : 0);
    Append64(buf, p.inject_at);
    buf.push_back(p.crashed ? 1 : 0);
    buf.push_back(p.ok ? 1 : 0);
    Append64(buf, p.commits);
    if (repl) {
      Append64(buf, p.frames);
    } else {
      Append64(buf, p.torn_bytes);
      Append64(buf, p.quarantined);
    }
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

  // -- Trace run: count the swept stack's mutating flash ops and, when
  // replicated, the primary's shipments in the crash-free workload.
  CrashSweepReport report;
  report.repl = cfg.repl;
  {
    SweepRun trace(cfg, Drill{.armed = false});
    IPA_RETURN_NOT_OK(Replay(trace));
    if (trace.outcome.crashed) {
      return Status::Internal("trace run lost power without injection");
    }
    // A crash-free pair must already converge; a crash-free single node has
    // nothing to recover.
    CrashSweepPoint p;
    if (cfg.repl) IPA_RETURN_NOT_OK(Verify(trace, &p));
    report.total_ops = trace.swept_ops;
    report.shipments = trace.shipments;
  }
  if (report.total_ops == 0 || (cfg.repl && report.shipments == 0)) {
    return Status::Internal("trace run issued no mutating flash ops");
  }

  // -- Point list: every swept op index, then every shipment boundary;
  // evenly subsampled (preserving the mix) when capped.
  uint64_t total = report.total_ops + report.shipments;
  uint64_t want = (cfg.max_points == 0 || cfg.max_points >= total)
                      ? total
                      : cfg.max_points;
  std::vector<Drill> drills(want);
  for (uint64_t i = 0; i < want; i++) {
    Drill& d = drills[i];
    d.at = i * total / want;
    if (d.at >= report.total_ops) {
      d.shipment = true;
      d.at -= report.total_ops;
      d.torn_seed = cfg.seed ^ (0xC2B2AE3D27D4EB4Full * (d.at + 1));
    }
  }

  // -- Replay: each point is a private stack (or pair); order-independent.
  report.points.resize(drills.size());
  ParallelFor(
      drills.size(),
      [&](size_t i) { report.points[i] = RunPoint(cfg, drills[i]); },
      cfg.jobs);

  for (const CrashSweepPoint& p : report.points) {
    if (p.crashed) report.crashes++;
    if (!p.ok) report.failures++;
  }
  return report;
}

}  // namespace ipa::bench
