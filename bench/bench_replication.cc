// Replication cost benchmark (docs/REPLICATION.md).
//
// Three deterministic arms over the primary→replica changeset stream:
//
//  * steady: replicated TPC-B with per-commit shipping. Reports the frame
//    mix (delta ops vs full images vs foldbacks), wire bytes per committed
//    logical byte, and the replica's apply write amplification next to the
//    primary's — the paper's WA story extended across the wire: a delta
//    record that fit the IPA budget ships small AND applies small.
//
//  * ship lag: ship every K commits for K in {1, 4, 16, 64}. Reports the
//    maximum outbound queue depth and outstanding wire bytes — the
//    durability exposure window a deployment buys when it batches shipments.
//
//  * catch-up: a cold replica heals either by replaying the full retained
//    frame tail or by one snapshot ship. Reports frames, wire bytes and
//    simulated apply time for both paths (tail replay scales with history,
//    snapshot with live data).
//
// All counters are bit-identical for a fixed seed at any IPA_JOBS, so the
// metrics snapshot is gated against bench/baselines/bench_replication.json.
//
// Usage: bench_replication [--txns N] [--accounts N] [--seed N]
//                          [--metrics-json PATH]
// IPA_SCALE scales --txns.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/crash_sweep.h"
#include "bench/harness.h"
#include "common/metrics.h"

namespace ipa::bench {
namespace {

uint64_t ProgrammedBytes(const SweepNode& n) {
  const flash::DeviceStats& ds = n.stack->dev->stats();
  return ds.bytes_programmed + ds.delta_bytes_programmed;
}

struct WorkloadStats {
  uint64_t commits = 0;        ///< Transaction-phase commits.
  uint64_t logical_bytes = 0;  ///< Committed payload: inserts + patch bytes.
  uint64_t max_queue_frames = 0;
  uint64_t max_queue_bytes = 0;
};

/// Replicated TPC-B (the crash sweep's driver) on `p`, shipping the outbound
/// queue to `r` (when given) after every load batch and every `ship_every`
/// transactions. Frames can also be captured into `sink` (the catch-up arm
/// records the retained tail instead of a live replica).
Status RunWorkload(SweepNode& p, SweepNode* r, uint64_t ship_every,
                   uint64_t txns, uint32_t accounts, uint64_t seed,
                   WorkloadStats* out,
                   std::vector<std::vector<uint8_t>>* sink) {
  uint64_t emitted_at_drain = 0;
  auto drain = [&]() -> Status {
    for (;;) {
      std::vector<uint8_t> w = p.repl->PopOutbound();
      if (w.empty()) break;
      if (sink != nullptr) sink->push_back(w);
      if (r != nullptr) {
        auto a = r->repl->ApplyFrame(w);
        IPA_RETURN_NOT_OK(a.status());
        if (a.value() != repl::ReplNode::Apply::kApplied) {
          return Status::Corruption("live stream frame not applied");
        }
      }
    }
    emitted_at_drain = p.repl->stats().bytes_emitted;
    return Status::OK();
  };
  auto ship = [&](const TpcbStep& step) -> Status {
    if (step.load) return drain();
    if (step.committed) {
      out->commits++;
      out->logical_bytes += kHistoryBytes + 3 * 4;
    }
    out->max_queue_frames =
        std::max(out->max_queue_frames, p.repl->outbound_frames());
    out->max_queue_bytes =
        std::max(out->max_queue_bytes,
                 p.repl->stats().bytes_emitted - emitted_at_drain);
    return (step.txn + 1) % ship_every == 0 ? drain() : Status::OK();
  };

  out->logical_bytes = uint64_t{accounts} * kAccountBytes;
  IPA_ASSIGN_OR_RETURN(TpcbOutcome w,
                       RunTpcb(*p.stack, accounts, txns, seed, ship));
  if (w.crashed) return Status::Internal("primary lost power");
  return drain();
}

int Run(uint64_t txns, uint32_t accounts, uint64_t seed) {
  double scale = workload::BenchScale();
  txns = std::max<uint64_t>(
      8, static_cast<uint64_t>(static_cast<double>(txns) * scale));

  // -- Steady arm: per-commit shipping, live replica.
  SweepNode p, r;
  WorkloadStats w;
  Status s = BuildReplicated({.writer = 1, .writable = true}, &p);
  if (s.ok()) s = BuildReplicated({.writer = 2, .writable = false}, &r);
  if (s.ok()) s = RunWorkload(p, &r, 1, txns, accounts, seed, &w, nullptr);
  if (s.ok()) {
    repl::ReplNode::LogicalMap pm, rm;
    s = p.repl->ScanLogical(&pm);
    if (s.ok()) s = r.repl->ScanLogical(&rm);
    if (s.ok() && pm != rm) s = Status::Corruption("steady arm diverged");
  }
  if (!s.ok()) {
    std::fprintf(stderr, "bench_replication: steady: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  const repl::ReplStats& ps = p.repl->stats();
  const repl::ReplStats& rs = r.repl->stats();
  uint64_t p_prog = ProgrammedBytes(p);
  uint64_t r_prog = ProgrammedBytes(r);

  TablePrinter steady({"arm", "commits", "frames", "wire B", "delta", "full",
                       "foldback", "primary WA", "replica WA", "wire amp"});
  auto wa = [&](uint64_t prog) {
    return w.logical_bytes == 0 ? 0.0
                                : static_cast<double>(prog) /
                                      static_cast<double>(w.logical_bytes);
  };
  steady.AddRow({"steady", std::to_string(w.commits),
                 std::to_string(ps.frames_emitted),
                 std::to_string(ps.bytes_emitted),
                 std::to_string(ps.delta_ops), std::to_string(ps.full_ops),
                 std::to_string(ps.foldbacks), Fmt(wa(p_prog)),
                 Fmt(wa(r_prog)),
                 Fmt(w.logical_bytes == 0
                         ? 0.0
                         : static_cast<double>(ps.bytes_emitted) /
                               static_cast<double>(w.logical_bytes))});
  steady.Print();

  metrics::SetGauge("repl_bench.steady.commits", static_cast<int64_t>(w.commits));
  metrics::SetGauge("repl_bench.steady.frames", static_cast<int64_t>(ps.frames_emitted));
  metrics::SetGauge("repl_bench.steady.wire_bytes", static_cast<int64_t>(ps.bytes_emitted));
  metrics::SetGauge("repl_bench.steady.delta_ops", static_cast<int64_t>(ps.delta_ops));
  metrics::SetGauge("repl_bench.steady.full_ops", static_cast<int64_t>(ps.full_ops));
  metrics::SetGauge("repl_bench.steady.foldbacks", static_cast<int64_t>(ps.foldbacks));
  metrics::SetGauge("repl_bench.steady.frames_applied", static_cast<int64_t>(rs.frames_applied));
  metrics::SetGauge("repl_bench.steady.logical_bytes", static_cast<int64_t>(w.logical_bytes));
  metrics::SetGauge("repl_bench.steady.primary_prog_bytes", static_cast<int64_t>(p_prog));
  metrics::SetGauge("repl_bench.steady.replica_prog_bytes", static_cast<int64_t>(r_prog));

  // -- Ship-lag arm: batch shipments, report the exposure window.
  TablePrinter lag({"ship every", "max queue frames", "max queue bytes"});
  for (uint64_t every : {1ull, 4ull, 16ull, 64ull}) {
    SweepNode bp, br;
    WorkloadStats bw;
    s = BuildReplicated({.writer = 1, .writable = true}, &bp);
    if (s.ok()) s = BuildReplicated({.writer = 2, .writable = false}, &br);
    if (s.ok()) s = RunWorkload(bp, &br, every, txns, accounts, seed, &bw,
                                nullptr);
    if (!s.ok()) {
      std::fprintf(stderr, "bench_replication: lag(%llu): %s\n",
                   static_cast<unsigned long long>(every),
                   s.ToString().c_str());
      return 2;
    }
    lag.AddRow({std::to_string(every), std::to_string(bw.max_queue_frames),
                std::to_string(bw.max_queue_bytes)});
    std::string prefix = "repl_bench.lag." + std::to_string(every);
    metrics::SetGauge(prefix + ".max_queue_frames", static_cast<int64_t>(bw.max_queue_frames));
    metrics::SetGauge(prefix + ".max_queue_bytes", static_cast<int64_t>(bw.max_queue_bytes));
  }
  lag.Print();

  // -- Catch-up arm: retained tail replay vs one snapshot ship.
  SweepNode cp;
  std::vector<std::vector<uint8_t>> tail;
  WorkloadStats cw;
  s = BuildReplicated({.writer = 1, .writable = true}, &cp);
  if (s.ok()) s = RunWorkload(cp, nullptr, 1, txns, accounts, seed, &cw, &tail);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_replication: catchup primary: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  uint64_t tail_bytes = 0;
  for (const auto& f : tail) tail_bytes += f.size();

  SweepNode tr;  // tail-replay replica
  s = BuildReplicated({.writer = 2, .writable = false}, &tr);
  SimTime tail_us = 0;
  if (s.ok()) {
    SimTime start = tr.stack->clock().Now();
    for (const auto& f : tail) {
      auto a = tr.repl->ApplyFrame(f);
      if (!a.ok()) {
        s = a.status();
        break;
      }
      if (a.value() != repl::ReplNode::Apply::kApplied) {
        s = Status::Corruption("tail frame not applied");
        break;
      }
    }
    tail_us = tr.stack->clock().Now() - start;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "bench_replication: tail replay: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  SweepNode sr;  // snapshot replica
  s = BuildReplicated({.writer = 3, .writable = false}, &sr);
  SimTime snap_us = 0;
  uint64_t snap_frames = 0, snap_bytes = 0;
  if (s.ok()) {
    auto snap = cp.repl->BuildSnapshot();
    if (!snap.ok()) {
      s = snap.status();
    } else {
      snap_frames = snap.value().size();
      for (const auto& f : snap.value()) snap_bytes += f.size();
      SimTime start = sr.stack->clock().Now();
      s = sr.repl->ApplySnapshot(snap.value());
      snap_us = sr.stack->clock().Now() - start;
    }
  }
  if (!s.ok()) {
    std::fprintf(stderr, "bench_replication: snapshot: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  // Both catch-up paths must land on the same logical content.
  {
    repl::ReplNode::LogicalMap a, b, c;
    s = cp.repl->ScanLogical(&a);
    if (s.ok()) s = tr.repl->ScanLogical(&b);
    if (s.ok()) s = sr.repl->ScanLogical(&c);
    if (s.ok() && (a != b || a != c)) {
      s = Status::Corruption("catch-up paths diverged");
    }
    if (!s.ok()) {
      std::fprintf(stderr, "bench_replication: catchup verify: %s\n",
                   s.ToString().c_str());
      return 2;
    }
  }

  TablePrinter cu({"catch-up path", "frames", "wire B", "apply sim-us"});
  cu.AddRow({"tail replay", std::to_string(tail.size()),
             std::to_string(tail_bytes), std::to_string(tail_us)});
  cu.AddRow({"snapshot", std::to_string(snap_frames),
             std::to_string(snap_bytes), std::to_string(snap_us)});
  cu.Print();

  metrics::SetGauge("repl_bench.catchup.tail_frames", static_cast<int64_t>(tail.size()));
  metrics::SetGauge("repl_bench.catchup.tail_bytes", static_cast<int64_t>(tail_bytes));
  metrics::SetGauge("repl_bench.catchup.tail_sim_us", static_cast<int64_t>(tail_us));
  metrics::SetGauge("repl_bench.catchup.snap_frames", static_cast<int64_t>(snap_frames));
  metrics::SetGauge("repl_bench.catchup.snap_bytes", static_cast<int64_t>(snap_bytes));
  metrics::SetGauge("repl_bench.catchup.snap_sim_us", static_cast<int64_t>(snap_us));
  return 0;
}

}  // namespace
}  // namespace ipa::bench

namespace {

uint64_t ArgU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);
  ipa::bench::WarnIfDebugBuild();
  uint64_t txns = ArgU64(argc, argv, "--txns", 120);
  uint32_t accounts =
      static_cast<uint32_t>(ArgU64(argc, argv, "--accounts", 64));
  uint64_t seed = ArgU64(argc, argv, "--seed", 42);
  return ipa::bench::Run(txns, accounts, seed);
}
