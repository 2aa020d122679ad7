#include "check/fuzzer.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <utility>
#include <variant>
#include <vector>

#include "check/invariants.h"
#include "check/model_db.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/sharded_database.h"
#include "flash/flash_array.h"
#include "ftl/noftl.h"
#include "ftl/page_ftl.h"
#include "repl/node.h"
#include "storage/page_format.h"
#include "workload/testbed.h"

namespace ipa::check {

namespace {

constexpr const char* kKindNames[] = {
    "insert", "update",     "resize",     "delete", "read",      "commit",
    "abort",  "scancheck",  "checkpoint", "scrub",  "wearlevel", "powercut",
    "ship",   "replsync"};

/// Deterministic payload bytes for one op.
std::vector<uint8_t> Payload(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
  return v;
}

constexpr storage::Scheme kScheme{.n = 2, .m = 4, .v = 12};

/// A NoFTL region of the fuzz stacks: managed ECC, so mount scans must
/// scrub torn appends (Section 6.2).
ftl::RegionConfig FuzzRegion(const char* name, ftl::IpaMode mode,
                             uint64_t logical_pages = 256) {
  return {.name = name,
          .logical_pages = logical_pages,
          .ipa_mode = mode,
          .manage_ecc = true};
}

/// The oracles' small stack with one region backing tablespace "fuzz", which
/// holds tables t0 and t1.
workload::StackSpec OneRegion(
    flash::CellType cell,
    std::variant<ftl::RegionConfig, ftl::PageFtlConfig> ftl,
    storage::Scheme scheme = kScheme) {
  workload::StackSpec spec = workload::SmallSpec(cell);
  spec.regions.push_back({std::move(ftl), "fuzz", scheme, {"t0", "t1"}});
  return spec;
}

/// One schedule: the stack it runs on and its two op-mix tweaks.
struct ScheduleRow {
  const char* name;
  workload::StackSpec spec;
  /// Draw power cuts. Without managed ECC the paper promises no crash
  /// consistency for torn appends (Section 6.2), so slc-noecc runs cut-free.
  bool power_cuts = true;
  /// Build the spec twice, bridge primary and replica with ReplNodes, and
  /// mix shipping and sync barriers into the ops.
  bool replicated = false;
};

/// The seed matrix, indexed by Schedule. A new schedule is one more row.
const ScheduleRow& Row(Schedule s) {
  static const std::vector<ScheduleRow> rows = [] {
    using flash::CellType;
    using ftl::IpaMode;
    workload::StackSpec noneager =
        OneRegion(CellType::kSlc, FuzzRegion("slc-noneager", IpaMode::kSlc));
    noneager.engine.dirty_flush_threshold = 0.75;
    noneager.engine.log_reclaim_threshold = 0.9;
    ftl::RegionConfig noecc = FuzzRegion("slc-noecc", IpaMode::kSlc);
    noecc.manage_ecc = false;
    // Cooked-device stacks: a page-mapping FTL instead of a NoFTL region, no
    // scheme (write_delta is structurally impossible behind it). Under the
    // stream policy the buffer pool tags its writebacks (heap vs index) and
    // GC relocations segregate below the block interface.
    auto cooked = [](const char* name, ftl::GcPolicy policy) {
      return OneRegion(CellType::kSlc,
                       ftl::PageFtlConfig{.name = name,
                                          .logical_pages = 256,
                                          .gc_policy = policy},
                       {});
    };
    // Two shared-nothing partitions, one channel (2 chips) each, composed
    // behind a ShardedDatabase. Sequential driver: power-loss injection
    // needs deterministic crash points (docs/SHARDING.md), and the oracles
    // compare against one global model.
    workload::StackSpec sharded = workload::SmallSpec();
    for (uint32_t p = 0; p < 2; p++) {
      ftl::RegionConfig rc =
          FuzzRegion(p == 0 ? "sharded0" : "sharded1", IpaMode::kSlc, 128);
      rc.chips = {2 * p, 2 * p + 1};
      sharded.regions.push_back({rc, "fuzz", kScheme, {"t0", "t1"}});
    }
    sharded.sharded = true;
    // Mixed-codec pair: ONE engine over two regions, t0's tablespace in one
    // byte codec and t1's in the other (Runner swaps them on odd seeds).
    workload::StackSpec mixed = workload::SmallSpec();
    storage::Scheme delta = kScheme, compress = kScheme;
    delta.codec = static_cast<uint8_t>(storage::DeltaCodec::kDelta);
    compress.codec = static_cast<uint8_t>(storage::DeltaCodec::kDeltaCompress);
    mixed.regions.push_back(
        {FuzzRegion("deltacodec", IpaMode::kSlc, 128), "fuzz", delta, {"t0"}});
    mixed.regions.push_back({FuzzRegion("deltacodec2", IpaMode::kSlc, 128),
                             "fuzz2", compress, {"t1"}});
    return std::vector<ScheduleRow>{
        {"slc", OneRegion(CellType::kSlc, FuzzRegion("slc", IpaMode::kSlc))},
        {"slc-noneager", noneager},
        {"pslc", OneRegion(CellType::kMlc, FuzzRegion("pslc", IpaMode::kPSlc))},
        {"oddmlc",
         OneRegion(CellType::kMlc, FuzzRegion("oddmlc", IpaMode::kOddMlc))},
        {.name = "slc-noecc",
         .spec = OneRegion(CellType::kSlc, noecc),
         .power_cuts = false},
        {"pageftl", cooked("pageftl", ftl::GcPolicy::kCostBenefit)},
        {"sharded", sharded},
        {"streamftl", cooked("streamftl", ftl::GcPolicy::kStreamWarmCold)},
        {.name = "replication",
         .spec = OneRegion(CellType::kSlc,
                           FuzzRegion("replication", IpaMode::kSlc)),
         .replicated = true},
        {"deltacodec", mixed},
    };
  }();
  return rows[static_cast<int>(s)];
}

/// Replays one trace against a fresh testbed and the reference model.
class Runner {
 public:
  explicit Runner(const FuzzConfig& cfg) : cfg_(cfg) {}

  FuzzResult Run(const std::vector<Op>& trace) {
    Status built = BuildStacks();
    if (!built.ok()) {
      return Fail(0, Status::Internal("testbed: " + built.ToString()));
    }

    for (size_t i = 0; i < trace.size(); i++) {
      Status s = Execute(trace[i]);
      if (s.IsUnavailable()) s = HandleCrash();
      if (s.ok()) s = CheapCheck();
      if (s.ok() && cfg_.deep_check_every > 0 &&
          (i + 1) % cfg_.deep_check_every == 0) {
        s = DeepCheck(model_.view());
        if (s.IsUnavailable()) s = HandleCrash();
      }
      if (!s.ok()) return Fail(i, s, &trace[i]);
    }

    // Wrap up: commit the open transaction, then crash once more so every
    // trace exercises recovery, then the final deep verification.
    size_t end = trace.size();
    Status s = Execute(kCommitOp);
    if (s.IsUnavailable()) s = HandleCrash();
    if (s.ok()) s = HandleCrash(/*counted=*/false);
    if (s.ok()) s = DeepCheck(model_.view());
    if (!s.ok()) return Fail(end, s);

    if (Repl()) {
      // The headline oracle: after the final crash + recovery + catch-up the
      // replica must converge to the model's committed view, byte for byte.
      Status c = ReplSync();
      if (c.IsUnavailable()) {
        c = HandleCrash();
        if (c.ok()) c = ReplSync();
      }
      if (!c.ok()) return Fail(end, c);
    }

    const ftl::RegionStats rs = SumRegionStats(*tb_);
    res_.torn_bytes = rs.torn_delta_bytes_dropped;
    res_.quarantined = rs.torn_pages_quarantined;
    res_.fingerprint = Fingerprint();
    return res_;
  }

 private:
  static constexpr Op kCommitOp{.kind = Op::Kind::kCommit};

  /// A power cut that strikes again during the next recovery: it tears that
  /// recovery's `delta`-th mutating flash op (0: none).
  struct Recut {
    uint64_t delta = 0;
    uint64_t seed = 0;
  };

  /// The schedule's stack; kRepl builds it twice and bridges the two with
  /// ReplNodes.
  Status BuildStacks() {
    const ScheduleRow& row = Row(cfg_.schedule);
    workload::StackSpec spec = row.spec;
    // Odd seeds swap a two-region stack's codecs, so a seed sweep fuzzes
    // both placements of deltacodec's kDelta and kDeltaCompress while any
    // single seed stays reproducible.
    if (spec.regions.size() == 2 && (cfg_.seed & 1) != 0) {
      std::swap(spec.regions[0].scheme.codec, spec.regions[1].scheme.codec);
    }
    IPA_ASSIGN_OR_RETURN(tb_, workload::Build(spec));
    if (!Sharded()) {
      for (const auto& part : tb_->parts) {
        tables_.insert(tables_.end(), part.tables.begin(), part.tables.end());
      }
    }
    if (!row.replicated) return Status::OK();
    // The replica is a second private stack of the same shape (its own
    // device, its own WAL), bridged only by the changeset stream the runner
    // ships.
    IPA_ASSIGN_OR_RETURN(replica_, workload::Build(spec));
    IPA_ASSIGN_OR_RETURN(
        repl_primary_,
        repl::ReplNode::Attach(tb_->db.get(), tb_->ts, tb_->parts[0].tables,
                               repl::ReplConfig{.writer = 1, .writable = true}));
    IPA_ASSIGN_OR_RETURN(
        repl_replica_,
        repl::ReplNode::Attach(replica_->db.get(), replica_->ts,
                               replica_->parts[0].tables,
                               repl::ReplConfig{.writer = 2}));
    return Status::OK();
  }

  FuzzResult Fail(size_t op_index, const Status& s, const Op* op = nullptr) {
    res_.ok = false;
    res_.failed_op = op_index;
    res_.error = s.ToString();
    if (op != nullptr) {
      res_.error += " [op " + std::to_string(op_index) + ": " + FormatOp(*op) + "]";
    }
    return res_;
  }

  Status ScanAll(ModelDb::Map* got) {
    for (uint32_t p = 0; p < tb_->parts.size(); p++) {
      for (engine::TableId t : tb_->parts[p].tables) {
        IPA_RETURN_NOT_OK(
            Db(p).Scan(t, [&](engine::Rid rid, std::span<const uint8_t> bytes) {
              (*got)[KeyOf(p, rid)] =
                  std::vector<uint8_t>(bytes.begin(), bytes.end());
              return true;
            }));
      }
    }
    return Status::OK();
  }

  Status CheckEquivalence(const ModelDb::Map& want) {
    ModelDb::Map got;
    IPA_RETURN_NOT_OK(ScanAll(&got));
    return FirstDifference("equivalence", "engine", got, want);
  }

  /// The first tuple in which `got`, what `holder` stores, differs from
  /// `want`, reported by its key and, for a changed tuple, the first
  /// diverging byte.
  static Status FirstDifference(const char* oracle, const char* holder,
                                const ModelDb::Map& got,
                                const ModelDb::Map& want) {
    if (got == want) return Status::OK();
    const std::string tag = std::string(oracle) + ": ";
    for (const auto& [k, v] : want) {
      auto it = got.find(k);
      if (it == got.end()) {
        return Status::Corruption(tag + "tuple " + std::to_string(k) +
                                  " missing from the " + holder);
      }
      if (it->second != v) {
        size_t d = 0;
        while (d < v.size() && d < it->second.size() && it->second[d] == v[d]) d++;
        return Status::Corruption(
            tag + "tuple " + std::to_string(k) + " diverges at byte " +
            std::to_string(d) + " (" + holder + " size " +
            std::to_string(it->second.size()) + ", model size " +
            std::to_string(v.size()) + ")");
      }
    }
    for (const auto& [k, v] : got) {
      if (want.find(k) == want.end()) {
        return Status::Corruption(tag + "phantom tuple " + std::to_string(k) +
                                  " in the " + holder);
      }
    }
    return Status::Corruption(tag + "scans diverge");
  }

  bool Sharded() const { return tb_->sharded != nullptr; }
  bool Repl() const { return replica_ != nullptr; }
  /// A page-mapping FTL backs the tablespace (tb_->pageftl).
  bool Cooked() const { return tb_->pageftl != nullptr; }

  /// Backend stats summed over every region of `s`. One device serves them
  /// all, so the conservation oracle compares device counters against this
  /// sum.
  static ftl::RegionStats SumRegionStats(const workload::Stack& s) {
    ftl::RegionStats sum;
    for (const auto& part : s.parts) ftl::AccumulateStats(sum, part.backend->stats());
    return sum;
  }

  /// Buffer-pool stats summed over every Database of `s`.
  static engine::BufferStats SumBufferStats(workload::Stack& s) {
    engine::BufferStats sum;
    auto add = [&sum](engine::Database& db) {
      AddStatFields(sum, db.buffer_pool().stats(), engine::kBufferStatFields);
    };
    if (s.db) add(*s.db);
    for (auto& part : s.parts) {
      if (part.db) add(*part.db);
    }
    return sum;
  }

  /// Structural audits of `s`: the device, then every region. Delta areas
  /// only exist on NoFTL regions; behind a page-mapping FTL every page body
  /// is an opaque host image.
  static Status AuditStack(const workload::Stack& s) {
    IPA_RETURN_NOT_OK(s.dev->AuditState());
    for (const auto& part : s.parts) {
      IPA_RETURN_NOT_OK(part.backend->Audit());
      if (s.noftl) {
        IPA_RETURN_NOT_OK(AuditMappedDeltaAreas(*s.dev, *s.noftl, part.region));
      }
    }
    return Status::OK();
  }

  /// Satellite of the torn-record handling (docs/DELTA_COMPRESSION.md):
  /// every torn byte-codec record the read path rejects quarantines exactly
  /// one tail, so the two process-wide counters must stay equal forever.
  Status CheckTornCounterConservation() const {
    metrics::Snapshot snap = metrics::Registry::Instance().TakeSnapshot();
    uint64_t rejected = snap.Counter("storage.delta.rejected_torn");
    uint64_t quarantined = snap.Counter("storage.delta.quarantined_tails");
    if (rejected != quarantined) {
      return Status::Corruption(
          "torn-counter conservation: rejected_torn=" +
          std::to_string(rejected) + " != quarantined_tails=" +
          std::to_string(quarantined));
    }
    return Status::OK();
  }

  /// Cheap per-op oracles.
  Status CheapCheck() {
    if (!tb_->dev->powered_on()) {
      return Status::Internal("device left powered off after op handling");
    }
    if (Cooked()) {
      // Every cooked-FTL policy honors the same conservation contract: every
      // device program is a host write or a GC migration, every erase is a
      // GC erase, and no deltas exist below the block interface.
      return CheckPageFtlCounterConservation(
          tb_->dev->stats(), SumRegionStats(*tb_), SumBufferStats(*tb_));
    }
    if (Repl()) {
      if (!replica_->dev->powered_on()) {
        return Status::Internal("replica left powered off after op handling");
      }
      IPA_RETURN_NOT_OK(CheckCounterConservation(replica_->dev->stats(),
                                                 SumRegionStats(*replica_),
                                                 SumBufferStats(*replica_)));
      // Stream conservation: the replica never applies frames the primary
      // did not emit (counters are monotone across both nodes' crashes).
      const repl::ReplStats& ps = repl_primary_->stats();
      const repl::ReplStats& as = repl_replica_->stats();
      if (as.frames_applied > ps.frames_emitted) {
        return Status::Corruption(
            "replication conservation: more frames applied than emitted");
      }
    }
    return CheckCounterConservation(tb_->dev->stats(), SumRegionStats(*tb_),
                                    SumBufferStats(*tb_));
  }

  /// Full oracle battery against `want` (the model view or committed state).
  /// The strict scan in AuditDeltaArea decodes every byte-codec record, so a
  /// torn compressed record that slipped past quarantine fails loudly here.
  Status DeepCheck(const ModelDb::Map& want) {
    IPA_RETURN_NOT_OK(CheckEquivalence(want));
    IPA_RETURN_NOT_OK(AuditStack(*tb_));
    IPA_RETURN_NOT_OK(CheckTornCounterConservation());
    IPA_RETURN_NOT_OK(shadow_.ObserveAndCheck(*tb_->dev));
    if (Repl()) return ReplicaDeepCheck();
    return Status::OK();
  }

  /// An op returned OutOfSpace after possibly mutating state (log reclaim
  /// runs piggy-backed on DML): the engine may hold either the before- or
  /// the after-image. Scan and adopt whichever matches; anything else is a
  /// real divergence.
  Status Reconcile(const std::function<void(ModelDb&)>& apply) {
    ModelDb applied = model_;
    apply(applied);
    ModelDb::Map got;
    IPA_RETURN_NOT_OK(ScanAll(&got));
    if (got == model_.view()) return Status::OK();
    if (got == applied.view()) {
      model_ = std::move(applied);
      return Status::OK();
    }
    return Status::Corruption(
        "out-of-space op left state matching neither the applied nor the "
        "unapplied outcome");
  }

  /// Power loss on `s`: its engine drops all volatile state, then its device
  /// power-cycles.
  static void Crash(workload::Stack& s) {
    if (s.sharded) {
      s.sharded->SimulateCrash();
    } else {
      s.db->SimulateCrash();
    }
    s.dev->PowerCycle();
  }

  /// The crash protocol: discard staged state on both sides, then power-cycle
  /// and recover (possibly several times — a re-armed policy cuts power again
  /// *during* recovery), then verify the committed state deeply. The run's
  /// closing crash is not `counted` (its double crashes are).
  Status HandleCrash(bool counted = true) {
    model_.Crash();
    open_ = false;
    if (counted) res_.crashes++;
    Crash(*tb_);
    IPA_RETURN_NOT_OK(RecoverLoop(*tb_, recut_));
    if (Repl()) IPA_RETURN_NOT_OK(RecoverPrimaryRepl());
    return DeepCheck(model_.committed());
  }

  /// kRepl, after the primary recovered: rebuild its shipping state. The
  /// wire died with it — frames still in flight are dropped, and the next
  /// emitted frame (prev_lsn = kUnknownLsn) pushes the replica into
  /// catch-up, so force the snapshot path eagerly.
  Status RecoverPrimaryRepl() {
    IPA_RETURN_NOT_OK(repl_primary_->RecoverReplState());
    net_.clear();
    force_catchup_ = true;
    return Status::OK();
  }

  /// Recover `s` after a power cut, power-cycling again each time power dies
  /// during recovery. A pending `recut` arms the first attempt.
  Status RecoverLoop(workload::Stack& s, Recut& recut) {
    for (int attempt = 0; attempt < 8; attempt++) {
      flash::PowerLossPolicy p;
      if (recut.delta > 0) {
        p.inject_at_op = recut.delta - 1;
        p.seed = recut.seed;
        recut.delta = 0;
      }
      s.dev->SetPowerLossPolicy(p);
      Status st = s.sharded ? s.sharded->RecoverAfterPowerLoss()
                            : s.db->RecoverAfterPowerLoss();
      if (st.ok()) {
        s.dev->SetPowerLossPolicy(flash::PowerLossPolicy{});
        return Status::OK();
      }
      if (!st.IsUnavailable()) return st;
      res_.crashes++;  // double crash: power died during recovery
      Crash(s);
    }
    return Status::Internal("recovery did not converge after 8 power cycles");
  }

  // -- kRepl shipping ---------------------------------------------------------
  //
  // The runner plays the network: PumpOutbound moves emitted frames onto the
  // in-flight queue, kShip delivers the oldest one, kReplSync drains the
  // stream (snapshot catch-up included) and runs the convergence oracle.
  // Either node can lose power mid-stream; the primary's crash protocol is
  // the usual HandleCrash (plus RecoverPrimaryRepl), the replica's is
  // HandleReplicaCrash — the model is NOT crashed for a replica-only cut.

  void PumpOutbound() {
    while (repl_primary_->outbound_frames() > 0) {
      net_.push_back(repl_primary_->PopOutbound());
    }
  }

  /// Deliver the oldest in-flight frame. Frames stay queued across replica
  /// crashes and transient OutOfSpace rollbacks (re-apply is idempotent); a
  /// chain gap switches to snapshot catch-up.
  Status ShipOne() {
    if (force_catchup_) return RunCatchup();
    if (net_.empty()) return Status::OK();
    auto r = repl_replica_->ApplyFrame(net_.front());
    if (!r.ok()) {
      if (r.status().IsUnavailable()) return HandleReplicaCrash();
      if (r.status().IsOutOfSpace()) {
        // The apply rolled back whole; free replica log space, retry later.
        Status cs = replica_->db->Checkpoint();
        if (cs.IsUnavailable()) return HandleReplicaCrash();
        return Status::OK();
      }
      return r.status();
    }
    switch (r.value()) {
      case repl::ReplNode::Apply::kApplied:
      case repl::ReplNode::Apply::kDuplicate:
      case repl::ReplNode::Apply::kEcho:
        net_.pop_front();
        return Status::OK();
      case repl::ReplNode::Apply::kNeedCatchup:
        return RunCatchup();
      case repl::ReplNode::Apply::kRejectedTorn:
        return Status::Corruption("replica rejected an untorn frame as torn");
    }
    return Status::Internal("unknown apply outcome");
  }

  /// Snapshot-ship catch-up: quiesce the primary (commit the open txn),
  /// build a full-state snapshot, apply it on the replica. Pre-snapshot
  /// frames still in flight drain as duplicates afterwards.
  Status RunCatchup() {
    if (open_) {
      IPA_RETURN_NOT_OK(Execute(kCommitOp));  // Unavailable: primary crash path
      PumpOutbound();
    }
    auto snap = repl_primary_->BuildSnapshot();
    if (!snap.ok()) return snap.status();
    Status s = repl_replica_->ApplySnapshot(snap.value());
    if (s.IsUnavailable()) return HandleReplicaCrash();  // retried: flag stays
    if (s.IsOutOfSpace()) {
      Status cs = replica_->db->Checkpoint();
      if (cs.IsUnavailable()) return HandleReplicaCrash();
      return Status::OK();  // rolled back whole; retried on the next ship
    }
    IPA_RETURN_NOT_OK(s);
    force_catchup_ = false;
    return Status::OK();
  }

  /// Replica-side crash protocol. The primary and the model are unaffected;
  /// the replica recovers from its own WAL (a half-applied frame rolls back)
  /// and rebuilds its repl state from the meta/map tables.
  Status HandleReplicaCrash() {
    res_.crashes++;
    Crash(*replica_);
    IPA_RETURN_NOT_OK(RecoverLoop(*replica_, replica_recut_));
    IPA_RETURN_NOT_OK(repl_replica_->RecoverReplState());
    return ReplicaDeepCheck();
  }

  /// Structural audits on the replica stack. (The logical oracle is
  /// CheckReplicaConvergence, which needs a drained stream.)
  Status ReplicaDeepCheck() {
    IPA_RETURN_NOT_OK(AuditStack(*replica_));
    return rshadow_.ObserveAndCheck(*replica_->dev);
  }

  /// Drain the stream end-to-end (catch-up included), then require the
  /// replica's logical content to match the model's committed view byte for
  /// byte. Replica cuts during the drain are recovered and the drain resumes.
  Status ReplSync() {
    IPA_RETURN_NOT_OK(Execute(kCommitOp));
    PumpOutbound();
    for (int guard = 0; guard < 4096; guard++) {
      if (!force_catchup_ && net_.empty()) {
        Status s = CheckReplicaConvergence();
        if (s.IsUnavailable() && !replica_->dev->powered_on()) {
          IPA_RETURN_NOT_OK(HandleReplicaCrash());
          continue;  // replica recovered; scan again
        }
        return s;
      }
      IPA_RETURN_NOT_OK(ShipOne());
      PumpOutbound();
    }
    return Status::Internal("replication stream did not drain");
  }

  /// The replication oracle: the replica stores origin identities, and every
  /// tuple originated on the primary (writer 1) under its primary rid — so
  /// the replica's logical map, re-keyed by rid, must equal the model's
  /// committed view exactly.
  Status CheckReplicaConvergence() {
    repl::ReplNode::LogicalMap lm;
    IPA_RETURN_NOT_OK(repl_replica_->ScanLogical(&lm));
    ModelDb::Map got;
    for (auto& [key, bytes] : lm) {
      if (key.first != 1) {
        return Status::Corruption("replica holds a foreign-origin tuple");
      }
      got[key.second] = std::move(bytes);
    }
    return FirstDifference("replica convergence", "replica", got,
                           model_.committed());
  }

  /// Maintenance-op region selection: stacks of several regions (sharded,
  /// deltacodec) pick one by the op's `b` draw.
  ftl::RegionId MaintRegion(uint64_t draw) const {
    return tb_->parts[draw % tb_->parts.size()].region;
  }

  // -- Sessions ---------------------------------------------------------------
  //
  // Whether a stack is sharded shows up in Execute only through these helpers
  // and its commit, abort and checkpoint calls. At most one session is open
  // at a time. On an unsharded stack it is one Database transaction. On a
  // sharded stack it is either a fast-path single-partition txn (3 in 4
  // sessions) or a cross-partition txn on the locking path: fast sessions are
  // homed on one partition and only touch its keys, cross sessions see the
  // whole key space and open branches lazily.

  void OpenSession(const Op& op) {
    if (open_) return;
    open_ = true;
    cross_ = Sharded() && op.seed % 4 == 0;
    if (cross_) {
      cross_txn_ = tb_->sharded->BeginCross();
    } else if (Sharded()) {
      txn_ = tb_->sharded->Begin(static_cast<uint32_t>(op.seed >> 32) % 2);
    } else {
      txn_ = {.part = 0, .id = tb_->db->Begin()};
    }
  }

  /// Open the op's session and pick by rank a live key it may touch; false
  /// if there is none. An unsharded op with no live key returns before it
  /// opens a session. A sharded session opens first, because a fast session
  /// draws only from its home partition's keys.
  bool PickKey(const Op& op, uint64_t* key) {
    if (!Sharded() && model_.LiveCount() == 0) return false;
    OpenSession(op);
    if (Sharded() && !cross_) {
      std::vector<uint64_t> keys;
      for (const auto& [k, v] : model_.view()) {
        if (PartOf(k) == txn_.part) keys.push_back(k);
      }
      if (keys.empty()) return false;
      *key = keys[op.a % keys.size()];
      return true;
    }
    if (model_.LiveCount() == 0) return false;
    *key = model_.KeyAt(op.a % model_.LiveCount());
    return true;
  }

  /// The partition and table an insert lands in: any of an unsharded stack's
  /// tables, a fast session's home partition, or the partition a cross
  /// session draws.
  std::pair<uint32_t, engine::TableId> InsertTarget(const Op& op) const {
    if (!Sharded()) return {0, tables_[op.a % tables_.size()]};
    uint32_t p = cross_ ? static_cast<uint32_t>((op.a >> 32) % 2) : txn_.part;
    return {p, tb_->parts[p].tables[op.a % 2]};
  }

  /// Model keys. A sharded stack tags the partition-local rid with its
  /// partition (ShardedDatabase::PackGlobal), so the union of the partitions
  /// compares directly with the model. One Database packs the rid whole, its
  /// tablespace in the top 16 bits, which keeps deltacodec's two tablespaces
  /// apart.
  uint64_t KeyOf(uint32_t p, engine::Rid rid) const {
    return Sharded() ? engine::ShardedDatabase::PackGlobal(p, rid) : rid.Pack();
  }
  uint32_t PartOf(uint64_t key) const {
    return Sharded() ? engine::ShardedDatabase::PartitionOfGlobal(key) : 0;
  }
  engine::Rid RidOf(uint64_t key) const {
    return Sharded() ? engine::ShardedDatabase::RidOfGlobal(key)
                     : engine::Rid::Unpack(key);
  }

  /// Partition `p`'s Database, and the session's transaction on it (a cross
  /// session opens that branch on first use).
  engine::Database& Db(uint32_t p) {
    return Sharded() ? *tb_->parts[p].db : *tb_->db;
  }
  engine::TxnId TxnOn(uint32_t p) {
    return cross_ ? tb_->sharded->Branch(cross_txn_, p) : txn_.id;
  }

  Status Execute(const Op& op) {
    switch (op.kind) {
      case Op::Kind::kInsert: {
        OpenSession(op);
        auto [p, table] = InsertTarget(op);
        std::vector<uint8_t> t = Payload(op.seed, 16 + op.b % 97);
        auto r = Db(p).Insert(TxnOn(p), table, t);
        if (r.ok()) {
          model_.Insert(KeyOf(p, r.value()), std::move(t));
          return Status::OK();
        }
        if (r.status().IsOutOfSpace()) return ReconcileInsert(t);
        return r.status();
      }
      case Op::Kind::kUpdate: {
        uint64_t key = 0;
        if (!PickKey(op, &key)) return Status::OK();
        const auto* tuple = model_.Lookup(key);
        uint32_t len32 = static_cast<uint32_t>(tuple->size());
        uint32_t offset = static_cast<uint32_t>(op.b % len32);
        uint32_t maxlen = std::min<uint32_t>(8, len32 - offset);
        uint32_t len = 1 + static_cast<uint32_t>(op.c % maxlen);
        std::vector<uint8_t> bytes = Payload(op.seed, len);
        uint32_t p = PartOf(key);
        Status s = Db(p).Update(TxnOn(p), RidOf(key), offset, bytes);
        if (s.ok()) {
          model_.Update(key, offset, bytes.data(), len);
          return Status::OK();
        }
        if (s.IsOutOfSpace()) {
          return Reconcile([&](ModelDb& m) {
            m.Update(key, offset, bytes.data(), len);
          });
        }
        return s;
      }
      case Op::Kind::kUpdateResize: {
        uint64_t key = 0;
        if (!PickKey(op, &key)) return Status::OK();
        std::vector<uint8_t> t = Payload(op.seed, 16 + op.b % 97);
        uint32_t p = PartOf(key);
        Status s = Db(p).UpdateResize(TxnOn(p), RidOf(key), t);
        if (s.ok()) {
          model_.Replace(key, std::move(t));
          return Status::OK();
        }
        if (s.IsOutOfSpace()) {
          // A resize that no longer fits its page legitimately fails and
          // leaves the tuple unchanged; reclaim-triggered failures may have
          // applied it. Accept either.
          return Reconcile([&](ModelDb& m) { m.Replace(key, t); });
        }
        return s;
      }
      case Op::Kind::kDelete: {
        uint64_t key = 0;
        if (!PickKey(op, &key)) return Status::OK();
        uint32_t p = PartOf(key);
        Status s = Db(p).Delete(TxnOn(p), RidOf(key));
        if (s.ok()) {
          model_.Erase(key);
          return Status::OK();
        }
        if (s.IsOutOfSpace()) {
          return Reconcile([&](ModelDb& m) { m.Erase(key); });
        }
        return s;
      }
      case Op::Kind::kRead: {
        uint64_t key = 0;
        if (!PickKey(op, &key)) return Status::OK();
        uint32_t p = PartOf(key);
        auto r = Db(p).Read(TxnOn(p), RidOf(key));
        if (!r.ok()) {
          if (r.status().IsOutOfSpace()) return Status::OK();
          return r.status();
        }
        const auto* want = model_.Lookup(key);
        if (r.value() != *want) {
          return Status::Corruption("read divergence at tuple " +
                                    std::to_string(key));
        }
        return Status::OK();
      }
      case Op::Kind::kCommit: {
        if (!open_) return Status::OK();
        Status s = cross_ ? tb_->sharded->CommitCross(cross_txn_)
                          : Db(txn_.part).Commit(txn_.id);
        // The commit record (every branch's, in partition order, with no
        // flash I/O in between) is forced before Commit issues any
        // cleaner/reclaim flash I/O, so the transaction is durable whatever
        // Commit returns afterwards.
        model_.CommitTxn();
        res_.commits++;
        open_ = false;
        if (s.IsOutOfSpace()) return Status::OK();
        return s;
      }
      case Op::Kind::kAbort: {
        if (!open_) return Status::OK();
        Status s;
        for (int i = 0; i < 4; i++) {
          s = cross_ ? tb_->sharded->AbortCross(cross_txn_)
                     : Db(txn_.part).Abort(txn_.id);
          if (!s.IsOutOfSpace()) break;  // CLR-protected: rollback restartable
        }
        if (s.ok()) {
          model_.AbortTxn();
          open_ = false;
        }
        return s;
      }
      case Op::Kind::kScanCheck: {
        Status s = CheckEquivalence(model_.view());
        if (s.IsOutOfSpace()) return Status::OK();
        return s;
      }
      case Op::Kind::kCheckpoint: {
        Status s = Sharded() ? tb_->sharded->Checkpoint() : tb_->db->Checkpoint();
        if (s.IsOutOfSpace()) return Status::OK();
        return s;
      }
      case Op::Kind::kScrub: {
        // A black-box FTL exposes no scrub hook; the closest background
        // maintenance it runs on its own is a GC pass.
        Status s = Cooked() ? tb_->pageftl->CollectOnce()
                            : tb_->noftl->ScrubRegion(MaintRegion(op.b),
                                                      op.a % 4 == 0);
        if (s.IsOutOfSpace()) return Status::OK();
        return s;
      }
      case Op::Kind::kWearLevel: {
        if (Cooked()) {
          return Status::OK();  // cooked FTLs wear-level internally via GC
        }
        uint32_t spread = 2 + static_cast<uint32_t>(op.a % 6);
        Status s = tb_->noftl->WearLevelRegion(MaintRegion(op.b), spread);
        if (s.IsOutOfSpace()) return Status::OK();
        return s;
      }
      case Op::Kind::kPowerCut: {
        // kRepl cuts the replica on odd draws: some later apply-side flash
        // mutation tears.
        bool replica = Repl() && (op.a >> 32) % 2 == 1;
        flash::PowerLossPolicy p;
        p.inject_at_op = op.a % 24;
        p.seed = op.seed;
        (replica ? replica_ : tb_)->dev->SetPowerLossPolicy(p);
        (replica ? replica_recut_ : recut_) = {
            .delta = op.b % 4 == 0 ? 1 + op.c % 6 : 0,
            .seed = op.seed ^ 0xD1B54A32D192ED03ull};
        return Status::OK();
      }
      case Op::Kind::kShip: {
        if (!Repl()) return Status::OK();
        PumpOutbound();
        return ShipOne();
      }
      case Op::Kind::kReplSync: {
        if (!Repl()) return Status::OK();
        return ReplSync();
      }
    }
    return Status::Internal("unknown op kind");
  }

  /// Insert returned OutOfSpace: the rid is unknown, so reconcile by scan
  /// diff — the engine either holds exactly the model view, or the view plus
  /// one new tuple with our payload.
  Status ReconcileInsert(const std::vector<uint8_t>& t) {
    ModelDb::Map got;
    IPA_RETURN_NOT_OK(ScanAll(&got));
    if (got == model_.view()) return Status::OK();
    if (got.size() == model_.view().size() + 1) {
      uint64_t extra = 0;
      size_t extras = 0;
      for (const auto& [k, v] : got) {
        if (model_.view().find(k) == model_.view().end()) {
          extra = k;
          extras++;
        }
      }
      if (extras == 1 && got[extra] == t &&
          std::all_of(model_.view().begin(), model_.view().end(),
                      [&](const auto& kv) {
                        auto it = got.find(kv.first);
                        return it != got.end() && it->second == kv.second;
                      })) {
        model_.Insert(extra, t);
        return Status::OK();
      }
    }
    return Status::Corruption(
        "out-of-space insert left state matching neither outcome");
  }

  uint32_t Fingerprint() const {
    uint32_t crc = 0;
    auto add64 = [&](uint64_t v) {
      uint8_t b[8];
      std::memcpy(b, &v, 8);
      crc = Crc32c(b, 8, crc);
    };
    for (const auto& [k, v] : model_.committed()) {
      add64(k);
      add64(v.size());
      crc = Crc32c(v.data(), v.size(), crc);
    }
    const auto& ds = tb_->dev->stats();
    const ftl::RegionStats rs = SumRegionStats(*tb_);
    for (uint64_t v :
         {res_.commits, res_.crashes, ds.page_programs, ds.delta_programs,
          ds.block_erases, ds.page_refreshes, rs.host_page_writes,
          rs.host_delta_writes, rs.gc_page_migrations,
          rs.torn_pages_quarantined}) {
      add64(v);
    }
    if (Repl()) {
      // Replica-side physical activity and the stream counters are part of
      // the run's identity too.
      const flash::DeviceStats& rds = replica_->dev->stats();
      const ftl::RegionStats rrs = SumRegionStats(*replica_);
      const repl::ReplStats& ps = repl_primary_->stats();
      const repl::ReplStats& as = repl_replica_->stats();
      for (uint64_t v :
           {rds.page_programs, rds.delta_programs, rds.block_erases,
            rrs.host_page_writes, rrs.host_delta_writes, ps.frames_emitted,
            ps.delta_ops, ps.full_ops, ps.foldbacks, as.frames_applied,
            as.duplicates, as.gap_rejected, as.snapshots_applied,
            as.lww_skips}) {
        add64(v);
      }
    }
    return crc;
  }

  FuzzConfig cfg_;
  std::unique_ptr<workload::Stack> tb_;
  std::unique_ptr<workload::Stack> replica_;  // kRepl only
  // After the stacks: the nodes detach their hooks before the Databases die.
  std::unique_ptr<repl::ReplNode> repl_primary_;
  std::unique_ptr<repl::ReplNode> repl_replica_;
  /// Unsharded stacks: every region's tables in order (t0, t1).
  std::vector<engine::TableId> tables_;
  ModelDb model_;
  FlashShadow shadow_;
  FuzzResult res_;
  Recut recut_;

  // The open session (see "Sessions" above): txn_ is the unsharded stack's
  // transaction or a fast session's, cross_txn_ a cross session's.
  bool open_ = false;
  bool cross_ = false;
  engine::ShardedDatabase::Txn txn_;
  engine::ShardedDatabase::CrossTxn cross_txn_;

  // kRepl state: the simulated wire, the catch-up latch, the replica's own
  // re-cut and its ISPP shadow.
  std::deque<std::vector<uint8_t>> net_;
  bool force_catchup_ = false;
  Recut replica_recut_;
  FlashShadow rshadow_;
};

}  // namespace

const char* ScheduleName(Schedule s) {
  return Row(s).name;
}

bool ParseSchedule(const std::string& name, Schedule* out) {
  for (int i = 0; i < kNumSchedules; i++) {
    if (name == Row(static_cast<Schedule>(i)).name) {
      *out = static_cast<Schedule>(i);
      return true;
    }
  }
  return false;
}

std::vector<Op> GenerateOps(const FuzzConfig& cfg) {
  struct Weighted {
    Op::Kind kind;
    uint32_t weight;
  };
  // Insert-heavy warmup populates the store before the main mix takes over.
  static constexpr Weighted kWarmup[] = {
      {Op::Kind::kInsert, 70}, {Op::Kind::kUpdate, 20}, {Op::Kind::kCommit, 10}};
  std::vector<Weighted> main = {
      {Op::Kind::kInsert, 14},     {Op::Kind::kUpdate, 34},
      {Op::Kind::kUpdateResize, 6}, {Op::Kind::kDelete, 6},
      {Op::Kind::kRead, 10},       {Op::Kind::kCommit, 12},
      {Op::Kind::kAbort, 2},       {Op::Kind::kScanCheck, 4},
      {Op::Kind::kCheckpoint, 3},  {Op::Kind::kScrub, 2},
      {Op::Kind::kWearLevel, 2},   {Op::Kind::kPowerCut, 5}};
  const ScheduleRow& row = Row(cfg.schedule);
  if (!row.power_cuts) {
    for (auto& w : main) {
      if (w.kind == Op::Kind::kPowerCut) w.weight = 0;
      if (w.kind == Op::Kind::kUpdate) w.weight += 5;
    }
  }
  if (row.replicated) {
    // Interleave shipping with the DML so the replica applies mid-workload
    // (and power cuts land on either node's flash activity); the periodic
    // sync barrier drains the stream and runs the convergence oracle. The
    // appended entries leave every other schedule's draw sequence untouched.
    main.push_back({Op::Kind::kShip, 20});
    main.push_back({Op::Kind::kReplSync, 3});
  }

  Rng rng(cfg.seed ^
          (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(cfg.schedule) + 1)));
  uint64_t warmup = std::min<uint64_t>(cfg.ops / 8, 24);
  std::vector<Op> ops;
  ops.reserve(cfg.ops);
  for (uint64_t i = 0; i < cfg.ops; i++) {
    const Weighted* table = i < warmup ? kWarmup : main.data();
    size_t entries = i < warmup ? std::size(kWarmup) : main.size();
    uint32_t total = 0;
    for (size_t k = 0; k < entries; k++) total += table[k].weight;
    uint64_t draw = rng.Uniform(total);
    Op op;
    for (size_t k = 0; k < entries; k++) {
      if (draw < table[k].weight) {
        op.kind = table[k].kind;
        break;
      }
      draw -= table[k].weight;
    }
    op.a = rng.Next();
    op.b = rng.Next();
    op.c = rng.Next();
    op.seed = rng.Next();
    ops.push_back(op);
  }
  return ops;
}

FuzzResult ReplayTrace(const FuzzConfig& config, const std::vector<Op>& trace) {
  Runner runner(config);
  return runner.Run(trace);
}

FuzzResult RunFuzz(const FuzzConfig& config) {
  return ReplayTrace(config, GenerateOps(config));
}

std::string FormatOp(const Op& op) {
  std::ostringstream os;
  os << kKindNames[static_cast<int>(op.kind)] << std::hex << " a=" << op.a
     << " b=" << op.b << " c=" << op.c << " seed=" << op.seed;
  return os.str();
}

std::string ReproLine(const FuzzConfig& config) {
  std::ostringstream os;
  os << "ipa_fuzz --schedule " << ScheduleName(config.schedule) << " --seed "
     << config.seed << " --ops " << config.ops << " --deep-check "
     << config.deep_check_every;
  return os.str();
}

}  // namespace ipa::check
