// Interactive-scale demo driver for the replication subsystem
// (docs/REPLICATION.md). Runs the full lifecycle on simulated flash:
//
//   1. A primary (writer 1) and a replica (writer 2) attach to private
//      engines (the crash sweep's stack, bench/crash_sweep.h); a
//      TPC-B-style workload runs on the primary with per-commit log
//      shipping.
//   2. Mid-run, a shipment is deliberately delivered torn (CRC-truncated) to
//      show the rejection path, and the replica takes a power cut mid-apply
//      to show crash-atomic re-apply.
//   3. A late joiner (writer 3) catches up from a snapshot plus tail replay.
//   4. With --failover, the primary "dies" after the workload; the replica
//      promotes, serves a write of its own, and ships it back to the
//      recovered ex-primary (now applying as a replica would).
//
// Every step prints the version vectors and convergence verdicts, so the
// tool doubles as a smoke probe: exit 0 iff every oracle held (2 on a usage
// error).
//
// Usage: ipa_repl [--txns N] [--accounts N] [--seed N] [--failover]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench/crash_sweep.h"
#include "common/random.h"

namespace {

using ipa::Rng;
using ipa::Status;
using ipa::bench::BuildReplicated;
using ipa::bench::SweepNode;
using ipa::repl::ReplNode;

std::string VvString(const ReplNode& n) {
  std::string out = "{";
  for (const auto& [w, lsn] : n.version_vector().applied) {
    if (out.size() > 1) out += ", ";
    out += "w";
    out += std::to_string(w) + ":" + std::to_string(lsn);
  }
  return out + "}";
}

uint64_t ArgU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

Status ShipAll(SweepNode& from, SweepNode& to, uint64_t* shipped) {
  for (;;) {
    std::vector<uint8_t> w = from.repl->PopOutbound();
    if (w.empty()) return Status::OK();
    auto a = to.repl->ApplyFrame(w);
    IPA_RETURN_NOT_OK(a.status());
    if (a.value() != ReplNode::Apply::kApplied &&
        a.value() != ReplNode::Apply::kDuplicate) {
      return Status::Corruption("live frame not applied");
    }
    if (shipped != nullptr) (*shipped)++;
  }
}

Status Converged(SweepNode& a, SweepNode& b, const char* what) {
  ReplNode::LogicalMap ma, mb;
  IPA_RETURN_NOT_OK(a.repl->ScanLogical(&ma));
  IPA_RETURN_NOT_OK(b.repl->ScanLogical(&mb));
  if (ma != mb) {
    return Status::Corruption(std::string(what) + ": logical maps differ (" +
                              std::to_string(ma.size()) + " vs " +
                              std::to_string(mb.size()) + " tuples)");
  }
  std::printf("  [ok] %s: %zu logical tuples byte-identical, vv %s\n", what,
              ma.size(), VvString(*b.repl).c_str());
  return Status::OK();
}

Status RunDemo(uint64_t txns, uint32_t accounts, uint64_t seed,
               bool failover) {
  SweepNode primary, replica;
  IPA_RETURN_NOT_OK(BuildReplicated({.writer = 1, .writable = true}, &primary));
  IPA_RETURN_NOT_OK(BuildReplicated({.writer = 2, .writable = false}, &replica));
  ipa::engine::Database& db = *primary.stack->db;
  const ipa::engine::TableId account_tbl =
      primary.stack->parts[0].tables[ipa::bench::kAccountTable];
  std::printf("== phase 1: load %u accounts, run %llu txns, ship per commit\n",
              accounts, static_cast<unsigned long long>(txns));

  Rng rng(seed);
  std::vector<uint64_t> rids;
  uint64_t shipped = 0;
  for (uint32_t i = 0; i < accounts; i++) {
    ipa::engine::TxnId txn = db.Begin();
    auto rid = db.Insert(txn, account_tbl, ipa::bench::AccountTuple(i));
    IPA_RETURN_NOT_OK(rid.status());
    rids.push_back(rid.value().Pack());
    IPA_RETURN_NOT_OK(db.Commit(txn));
    IPA_RETURN_NOT_OK(ShipAll(primary, replica, &shipped));
  }

  bool torn_shown = false;
  bool cut_shown = false;
  for (uint64_t t = 0; t < txns; t++) {
    ipa::engine::TxnId txn = db.Begin();
    for (int u = 0; u < 3; u++) {
      uint64_t key = rids[rng.Uniform(rids.size())];
      uint8_t patch[4];
      for (uint8_t& b : patch) b = static_cast<uint8_t>(rng.Next());
      IPA_RETURN_NOT_OK(db.Update(txn, ipa::engine::Rid::Unpack(key),
                                  ipa::bench::kBalanceOffset, patch));
    }
    IPA_RETURN_NOT_OK(db.Commit(txn));

    if (!torn_shown && t == txns / 3) {
      // Deliver the next frame truncated: the CRC frame check must reject
      // it with zero replica state change, then the intact copy applies.
      torn_shown = true;
      std::vector<uint8_t> w = primary.repl->PopOutbound();
      auto torn = replica.repl->ApplyFrame(
          std::span(w.data(), w.size() / 2 + 1));
      IPA_RETURN_NOT_OK(torn.status());
      if (torn.value() != ReplNode::Apply::kRejectedTorn) {
        return Status::Corruption("torn shipment was not rejected");
      }
      auto ok = replica.repl->ApplyFrame(w);
      IPA_RETURN_NOT_OK(ok.status());
      std::printf(
          "  [ok] torn shipment rejected (torn_rejected=%llu), intact copy "
          "applied\n",
          static_cast<unsigned long long>(replica.repl->stats().torn_rejected));
    }
    if (!cut_shown && t == txns / 2) {
      // Power-cut the replica inside the next apply: recovery rolls the
      // half-applied frame back, re-delivery is idempotent.
      cut_shown = true;
      std::vector<uint8_t> w = primary.repl->PopOutbound();
      if (!w.empty()) {
        ipa::flash::PowerLossPolicy policy;
        policy.inject_at_op = 0;
        policy.seed = seed;
        replica.stack->dev->SetPowerLossPolicy(policy);
        auto a = replica.repl->ApplyFrame(w);
        if (a.ok() && a.value() == ReplNode::Apply::kApplied) {
          return Status::Corruption("armed power cut never fired");
        }
        replica.stack->db->SimulateCrash();
        replica.stack->dev->PowerCycle();
        replica.stack->dev->SetPowerLossPolicy(ipa::flash::PowerLossPolicy{});
        IPA_RETURN_NOT_OK(replica.stack->db->RecoverAfterPowerLoss());
        IPA_RETURN_NOT_OK(replica.repl->RecoverReplState());
        auto again = replica.repl->ApplyFrame(w);
        IPA_RETURN_NOT_OK(again.status());
        if (again.value() != ReplNode::Apply::kApplied &&
            again.value() != ReplNode::Apply::kDuplicate) {
          return Status::Corruption("re-apply after power cut failed");
        }
        std::printf(
            "  [ok] replica power cut mid-apply; frame rolled back and "
            "re-applied after recovery\n");
      }
    }
    IPA_RETURN_NOT_OK(ShipAll(primary, replica, &shipped));
  }
  std::printf("  shipped %llu frames (%llu wire bytes, %llu delta ops, %llu "
              "full images)\n",
              static_cast<unsigned long long>(shipped),
              static_cast<unsigned long long>(primary.repl->stats().bytes_emitted),
              static_cast<unsigned long long>(primary.repl->stats().delta_ops),
              static_cast<unsigned long long>(primary.repl->stats().full_ops));
  IPA_RETURN_NOT_OK(Converged(primary, replica, "steady stream"));

  std::printf("== phase 2: late joiner catches up from snapshot\n");
  SweepNode joiner;
  IPA_RETURN_NOT_OK(BuildReplicated({.writer = 3, .writable = false}, &joiner));
  auto snap = primary.repl->BuildSnapshot();
  IPA_RETURN_NOT_OK(snap.status());
  IPA_RETURN_NOT_OK(joiner.repl->ApplySnapshot(snap.value()));
  std::printf("  snapshot: %zu frames\n", snap.value().size());
  IPA_RETURN_NOT_OK(Converged(primary, joiner, "snapshot catch-up"));

  if (failover) {
    std::printf(
        "== phase 3: primary dies, replica promotes, old machine rejoins\n");
    db.SimulateCrash();
    IPA_RETURN_NOT_OK(replica.repl->Promote({}));
    // The promoted node serves writes of its own, under its writer id...
    ipa::engine::Database& rdb = *replica.stack->db;
    ipa::engine::TxnId txn = rdb.Begin();
    std::vector<uint8_t> t(ipa::bench::kAccountBytes, 0x5A);
    auto rid = rdb.Insert(
        txn, replica.stack->parts[0].tables[ipa::bench::kAccountTable], t);
    IPA_RETURN_NOT_OK(rid.status());
    IPA_RETURN_NOT_OK(rdb.Commit(txn));
    std::printf("  promoted writer %u committed its own tuple, vv %s\n",
                replica.repl->writer(), VvString(*replica.repl).c_str());
    // ...while the old machine discards its primary identity and rejoins as
    // a fresh replica, catching up from the new primary's snapshot (a
    // writable node never catches up — failover contract).
    SweepNode rejoin;
    IPA_RETURN_NOT_OK(
        BuildReplicated({.writer = 4, .writable = false}, &rejoin));
    auto snap2 = replica.repl->BuildSnapshot();
    IPA_RETURN_NOT_OK(snap2.status());
    IPA_RETURN_NOT_OK(rejoin.repl->ApplySnapshot(snap2.value()));
    IPA_RETURN_NOT_OK(Converged(replica, rejoin, "post-failover"));
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t txns = ArgU64(argc, argv, "--txns", 48);
  uint32_t accounts =
      static_cast<uint32_t>(ArgU64(argc, argv, "--accounts", 16));
  uint64_t seed = ArgU64(argc, argv, "--seed", 42);
  bool failover = HasFlag(argc, argv, "--failover");
  if (accounts == 0) {
    std::fprintf(stderr, "ipa_repl: --accounts must be at least 1\n");
    return 2;
  }
  Status s = RunDemo(txns, accounts, seed, failover);
  if (!s.ok()) {
    std::fprintf(stderr, "ipa_repl: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("all oracles held\n");
  return 0;
}
