// Replication unit matrix (src/repl): changeset codec hardening, shipper
// capture, idempotent re-apply, torn-shipment rejection, mid-stream catch-up
// vs full replay, failover promotion, multi-writer LWW determinism, and the
// crash protocol on both ends of the stream. docs/REPLICATION.md walks the
// drills these tests automate.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "engine/database.h"
#include "published.h"
#include "repl/changeset.h"
#include "repl/node.h"
#include "workload/testbed.h"

namespace ipa::repl {
namespace {

using engine::Database;
using engine::EngineConfig;
using engine::Rid;
using engine::TxnId;

std::vector<uint8_t> Tuple(size_t n, uint8_t seed) {
  std::vector<uint8_t> t(n);
  for (size_t i = 0; i < n; i++) t[i] = static_cast<uint8_t>(seed + i * 3);
  return t;
}

/// One replication endpoint: its own flash device, NoFTL, database and
/// ReplNode, replicating a single user table. Scheme {n=2, m=3} gives a
/// 6-byte IPA budget, so small updates ship as deltas and larger ones fold
/// back to full images.
struct Node {
  explicit Node(ReplConfig cfg, uint32_t buffer_pages = 32)
      : stack(workload::Build(Spec(buffer_pages)).value()) {
    auto n = ReplNode::Attach(db.get(), stack->ts, {table}, cfg);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    node = std::move(n).value();
  }

  static workload::StackSpec Spec(uint32_t buffer_pages) {
    workload::StackSpec spec;
    spec.geometry = {.channels = 2,
                     .chips_per_channel = 2,
                     .blocks_per_chip = 48,
                     .pages_per_block = 32};
    spec.regions.push_back({ftl::RegionConfig{.name = "main",
                                              .logical_pages = 512,
                                              .ipa_mode = ftl::IpaMode::kSlc},
                            "ts",
                            {.n = 2, .m = 3, .v = 12},
                            {"t"}});
    spec.engine = {.buffer_pages = buffer_pages,
                   .log_capacity_bytes = 1 << 20};
    return spec;
  }

  std::unique_ptr<workload::Stack> stack;
  flash::FlashArray& dev = *stack->dev;
  std::unique_ptr<Database>& db = stack->db;
  engine::TableId table = stack->parts[0].tables[0];
  std::unique_ptr<ReplNode> node;  // after stack: destroyed first (unhooks)

  ReplNode::LogicalMap Logical() const {
    ReplNode::LogicalMap m;
    EXPECT_TRUE(node->ScanLogical(&m).ok());
    return m;
  }

  /// Clean restart: drop volatile engine + repl state, recover both.
  void Restart() {
    db->SimulateCrash();
    dev.PowerCycle();
    ASSERT_TRUE(db->RecoverAfterPowerLoss().ok());
    ASSERT_TRUE(node->RecoverReplState().ok());
  }
};

/// Drain `from`'s outbound queue into `to`. Every frame must land as
/// kApplied or kDuplicate; anything else fails the test.
void ShipAll(Node& from, Node& to) {
  while (from.node->outbound_frames() > 0) {
    std::vector<uint8_t> wire = from.node->PopOutbound();
    auto r = to.node->ApplyFrame(wire);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r.value() == ReplNode::Apply::kApplied ||
                r.value() == ReplNode::Apply::kDuplicate)
        << static_cast<int>(r.value());
  }
}

/// Drain `from`'s outbound queue into a vector (a "network" the test
/// controls: it can drop, duplicate, reorder or tear shipments).
std::vector<std::vector<uint8_t>> Drain(Node& from) {
  std::vector<std::vector<uint8_t>> out;
  while (from.node->outbound_frames() > 0) {
    out.push_back(from.node->PopOutbound());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

Frame SampleFrame() {
  Frame f;
  f.kind = FrameKind::kChangeset;
  f.writer = 7;
  f.lsn = 12345;
  f.prev_lsn = 12000;
  f.vv.applied = {{1, 99}, {7, 12000}};
  ChangeOp a;
  a.kind = ChangeKind::kDelta;
  a.origin = 7;
  a.rid = 0x0001000200000003ull;
  a.table = 0;
  a.offset = 17;
  a.version = 12345;
  a.vwriter = 7;
  a.bytes = {0xAA, 0xBB, 0xCC};
  ChangeOp b;
  b.kind = ChangeKind::kDelete;
  b.origin = 2;
  b.rid = 42;
  b.table = 1;
  b.version = 12345;
  b.vwriter = 7;
  f.ops = {a, b};
  return f;
}

TEST(ChangesetCodec, RoundTrip) {
  Frame f = SampleFrame();
  auto wire = EncodeFrame(f);
  auto d = DecodeFrame(wire);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value(), f);
}

TEST(ChangesetCodec, EveryTruncationRejected) {
  auto wire = EncodeFrame(SampleFrame());
  for (size_t len = 0; len < wire.size(); len++) {
    auto d = DecodeFrame(std::span<const uint8_t>(wire.data(), len));
    EXPECT_FALSE(d.ok()) << "truncation to " << len << " bytes decoded";
    EXPECT_TRUE(d.status().IsCorruption());
  }
}

TEST(ChangesetCodec, EveryByteFlipRejected) {
  auto wire = EncodeFrame(SampleFrame());
  for (size_t i = 0; i < wire.size(); i++) {
    auto torn = wire;
    torn[i] ^= 0x5A;
    auto d = DecodeFrame(torn);
    EXPECT_FALSE(d.ok()) << "flip at byte " << i << " decoded";
  }
}

// ---------------------------------------------------------------------------
// Shipper capture + basic convergence
// ---------------------------------------------------------------------------

TEST(Replication, ShipAndConverge) {
  uint64_t published = Published("repl.ship.foldbacks");
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  std::vector<Rid> rids;
  TxnId txn = p.db->Begin();
  for (int i = 0; i < 20; i++) {
    auto rid = p.db->Insert(txn, p.table, Tuple(64, static_cast<uint8_t>(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_TRUE(p.db->Commit(txn).ok());

  txn = p.db->Begin();
  uint8_t small[2] = {0xEE, 0xFF};            // fits the 6-byte delta budget
  ASSERT_TRUE(p.db->Update(txn, rids[0], 4, small).ok());
  std::vector<uint8_t> big(40, 0x11);         // exceeds it: ships as foldback
  ASSERT_TRUE(p.db->Update(txn, rids[1], 8, big).ok());
  ASSERT_TRUE(p.db->UpdateResize(txn, rids[2], Tuple(100, 77)).ok());
  ASSERT_TRUE(p.db->Delete(txn, rids[3]).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());

  EXPECT_EQ(p.node->stats().frames_emitted, 2u);
  EXPECT_GE(p.node->stats().delta_ops, 1u);
  EXPECT_GE(p.node->stats().foldbacks, 1u);

  ShipAll(p, r);
  EXPECT_EQ(r.node->stats().frames_applied, 2u);
  auto pm = p.Logical();
  EXPECT_EQ(pm.size(), 19u);
  EXPECT_EQ(pm, r.Logical());
  EXPECT_EQ(r.node->version_vector().Of(1), p.node->last_emitted_lsn());

  uint64_t foldbacks = p.node->stats().foldbacks;
  p.node.reset();
  EXPECT_EQ(Published("repl.ship.foldbacks") - published, foldbacks);
}

TEST(Replication, AbortMarkKeepsChainContiguous) {
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  TxnId txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(32, 1)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());

  txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(32, 2)).ok());
  ASSERT_TRUE(p.db->Abort(txn).ok());

  txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(32, 3)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());

  EXPECT_EQ(p.node->stats().abort_marks, 1u);
  ShipAll(p, r);
  EXPECT_EQ(r.node->stats().frames_applied, 3u);  // 2 changesets + 1 mark
  EXPECT_EQ(p.Logical(), r.Logical());
  EXPECT_EQ(p.Logical().size(), 2u);  // the aborted insert never shipped
}

// ---------------------------------------------------------------------------
// Idempotence / torn shipments / gaps
// ---------------------------------------------------------------------------

TEST(Replication, DuplicatedShipmentIsIdempotent) {
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  TxnId txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(48, 9)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  auto frames = Drain(p);
  ASSERT_EQ(frames.size(), 1u);

  auto first = r.node->ApplyFrame(frames[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), ReplNode::Apply::kApplied);
  auto before = r.Logical();
  uint64_t ops_before = r.node->stats().ops_applied;

  auto again = r.node->ApplyFrame(frames[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), ReplNode::Apply::kDuplicate);
  EXPECT_EQ(r.Logical(), before);
  EXPECT_EQ(r.node->stats().ops_applied, ops_before);
  EXPECT_EQ(r.node->stats().duplicates, 1u);
  EXPECT_EQ(before, p.Logical());
}

TEST(Replication, TornShipmentRejectedWithoutStateChange) {
  uint64_t published = Published("repl.apply.rejected_torn");
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  TxnId txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(48, 1)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(48, 2)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  auto frames = Drain(p);
  ASSERT_EQ(frames.size(), 2u);
  auto r0 = r.node->ApplyFrame(frames[0]);
  ASSERT_TRUE(r0.ok());
  ASSERT_EQ(r0.value(), ReplNode::Apply::kApplied);

  auto before_map = r.Logical();
  VersionVector before_vv = r.node->version_vector();

  // A shipment torn mid-transfer: truncated, and separately bit-flipped.
  auto torn = frames[1];
  torn.resize(torn.size() / 2);
  auto res = r.node->ApplyFrame(torn);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), ReplNode::Apply::kRejectedTorn);

  torn = frames[1];
  torn[torn.size() - 1] ^= 0x80;
  res = r.node->ApplyFrame(torn);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), ReplNode::Apply::kRejectedTorn);

  EXPECT_EQ(r.node->stats().torn_rejected, 2u);
  EXPECT_EQ(r.Logical(), before_map);
  EXPECT_EQ(r.node->version_vector(), before_vv);

  // The intact original still applies: rejection left no poisoned state.
  res = r.node->ApplyFrame(frames[1]);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), ReplNode::Apply::kApplied);
  EXPECT_EQ(r.Logical(), p.Logical());

  r.node.reset();
  EXPECT_EQ(Published("repl.apply.rejected_torn") - published, 2u);
}

TEST(Replication, LostShipmentReportsGap) {
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  for (int i = 0; i < 3; i++) {
    TxnId txn = p.db->Begin();
    ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(48, static_cast<uint8_t>(i))).ok());
    ASSERT_TRUE(p.db->Commit(txn).ok());
  }
  auto frames = Drain(p);
  ASSERT_EQ(frames.size(), 3u);
  auto res = r.node->ApplyFrame(frames[0]);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.value(), ReplNode::Apply::kApplied);

  // frames[1] lost in transit: frames[2] must not apply over the hole.
  res = r.node->ApplyFrame(frames[2]);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), ReplNode::Apply::kNeedCatchup);
  EXPECT_EQ(r.node->stats().gap_rejected, 1u);
  EXPECT_EQ(r.Logical().size(), 1u);  // nothing from the gapped frame applied
}

// ---------------------------------------------------------------------------
// Catch-up: snapshot ship + tail replay vs full replay
// ---------------------------------------------------------------------------

TEST(Replication, CatchupFromMidStreamEqualsFullReplay) {
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node full(ReplConfig{.writer = 2});
  Node late(ReplConfig{.writer = 3});

  // Phase 1: inserts, updates and deletes the late replica will never see as
  // frames — only through the snapshot (including delete-unseen coverage).
  std::vector<Rid> rids;
  for (int t = 0; t < 4; t++) {
    TxnId txn = p.db->Begin();
    for (int i = 0; i < 4; i++) {
      auto rid = p.db->Insert(txn, p.table,
                              Tuple(64, static_cast<uint8_t>(t * 16 + i)));
      ASSERT_TRUE(rid.ok());
      rids.push_back(rid.value());
    }
    if (t == 2) {
      uint8_t patch[3] = {1, 2, 3};
      ASSERT_TRUE(p.db->Update(txn, rids[0], 0, patch).ok());
      ASSERT_TRUE(p.db->Delete(txn, rids[1]).ok());
    }
    ASSERT_TRUE(p.db->Commit(txn).ok());
  }
  auto head = Drain(p);
  for (const auto& f : head) {
    auto res = full.node->ApplyFrame(f);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.value(), ReplNode::Apply::kApplied);
  }

  auto snap = p.node->BuildSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Phase 2: the tail both replicas replay as frames.
  for (int t = 0; t < 3; t++) {
    TxnId txn = p.db->Begin();
    uint8_t patch[2] = {static_cast<uint8_t>(0xA0 + t), 0x55};
    ASSERT_TRUE(p.db->Update(txn, rids[4 + t], 6, patch).ok());
    ASSERT_TRUE(p.db->Delete(txn, rids[8 + t]).ok());
    ASSERT_TRUE(p.db->Commit(txn).ok());
  }
  auto tail = Drain(p);
  ASSERT_EQ(tail.size(), 3u);

  // The late replica can't start mid-stream...
  auto res = late.node->ApplyFrame(tail[0]);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), ReplNode::Apply::kNeedCatchup);
  // ...so it takes the snapshot, then replays the tail.
  ASSERT_TRUE(late.node->ApplySnapshot(snap.value()).ok());
  for (const auto& f : tail) {
    res = late.node->ApplyFrame(f);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.value(), ReplNode::Apply::kApplied);
  }
  for (const auto& f : tail) {
    res = full.node->ApplyFrame(f);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.value(), ReplNode::Apply::kApplied);
  }

  // Bit-for-bit: catch-up and full replay agree with the primary and with
  // each other, including the version vectors.
  EXPECT_EQ(p.Logical(), full.Logical());
  EXPECT_EQ(full.Logical(), late.Logical());
  EXPECT_EQ(full.node->version_vector().Of(1), late.node->version_vector().Of(1));
  EXPECT_GE(late.node->stats().snapshots_applied, 1u);
}

TEST(Replication, StaleSnapshotIsIgnored) {
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  TxnId txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(48, 1)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  auto snap = p.node->BuildSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(r.node->ApplySnapshot(snap.value()).ok());
  auto before = r.Logical();
  // Re-applying the same snapshot is a no-op, not a double-apply.
  ASSERT_TRUE(r.node->ApplySnapshot(snap.value()).ok());
  EXPECT_EQ(r.Logical(), before);
  EXPECT_EQ(r.node->stats().snapshots_applied, 1u);
}

// Regression: a replica that already holds an OLDER version of a tuple (from
// an applied frame) must still accept the snapshot's newer image, even when
// the primary restarted in between and lost its in-memory per-key versions.
// Snapshot items are stamped with the snapshot-point version, which dominates
// every version the shipper ever emitted.
TEST(Replication, SnapshotOverwritesStaleTupleAfterPrimaryRestart) {
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  TxnId txn = p.db->Begin();
  auto rid = p.db->Insert(txn, p.table, Tuple(48, 7));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  ShipAll(p, r);  // replica now holds version = insert commit LSN

  // The update's frame is LOST on the wire; then the primary restarts, so
  // its per-key versions recover as zero.
  txn = p.db->Begin();
  uint8_t patch[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(p.db->Update(txn, rid.value(), 0, patch).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  (void)Drain(p);  // discard: lost shipment
  p.Restart();

  auto snap = p.node->BuildSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE(r.node->ApplySnapshot(snap.value()).ok());

  auto got = r.Logical();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.begin()->second[0], 0xDE);  // the updated bytes, not the stale ones
  ReplNode::LogicalMap want;
  ASSERT_TRUE(p.node->ScanLogical(&want).ok());
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

TEST(Replication, PromotePreservesShippedLosesUnshipped) {
  uint64_t published = Published("repl.promotions");
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  auto commit1 = [&](uint8_t seed) {
    TxnId txn = p.db->Begin();
    auto rid = p.db->Insert(txn, p.table, Tuple(48, seed));
    EXPECT_TRUE(rid.ok());
    EXPECT_TRUE(p.db->Commit(txn).ok());
  };
  commit1(1);  // frame A: reaches the replica's queue
  commit1(2);  // frame B: lost with the primary
  commit1(3);  // frame C: reaches the queue, but is unanchored past B
  auto frames = Drain(p);
  ASSERT_EQ(frames.size(), 3u);
  std::vector<std::vector<uint8_t>> pending = {frames[0], frames[2]};

  // Primary dies here. The replica finishes its queue, then serves writes.
  ASSERT_TRUE(r.node->Promote(pending).ok());
  EXPECT_TRUE(r.node->writable());
  auto m = r.Logical();
  EXPECT_EQ(m.size(), 1u);  // A kept; B never shipped; C dropped at the gap
  EXPECT_EQ(m.begin()->second, Tuple(48, 1));

  // The promoted node is a writer: its commits emit frames under writer 2.
  TxnId txn = r.db->Begin();
  ASSERT_TRUE(r.db->Insert(txn, r.table, Tuple(48, 9)).ok());
  ASSERT_TRUE(r.db->Commit(txn).ok());
  EXPECT_EQ(r.node->outbound_frames(), 1u);
  auto d = DecodeFrame(r.node->PopOutbound());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().writer, 2u);
  EXPECT_EQ(d.value().ops.size(), 1u);

  r.node.reset();
  EXPECT_EQ(Published("repl.promotions") - published, 1u);
}

// ---------------------------------------------------------------------------
// Multi-writer last-writer-wins merge
// ---------------------------------------------------------------------------

TEST(Replication, LwwMergeIsOrderIndependent) {
  // The two-primary drill: A and B both writable, shipping full images; C and
  // D are observers applying the cross-traffic in opposite orders.
  uint64_t published = Published("repl.apply.lww_skips");
  Node a(ReplConfig{.writer = 1, .writable = true, .full_images = true});
  Node b(ReplConfig{.writer = 2, .writable = true, .full_images = true});
  Node c(ReplConfig{.writer = 3});
  Node d(ReplConfig{.writer = 4});

  TxnId txn = a.db->Begin();
  ASSERT_TRUE(a.db->Insert(txn, a.table, Tuple(48, 1)).ok());
  ASSERT_TRUE(a.db->Commit(txn).ok());
  auto base = Drain(a);
  ASSERT_EQ(base.size(), 1u);
  for (Node* n : {&b, &c, &d}) {
    auto res = n->node->ApplyFrame(base[0]);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.value(), ReplNode::Apply::kApplied);
  }

  // Concurrent conflicting updates of the same logical tuple on A and B.
  txn = a.db->Begin();
  Rid a_rid;
  a.db->Scan(a.table, [&](Rid rid, std::span<const uint8_t>) {
    a_rid = rid;
    return false;
  });
  ASSERT_TRUE(a.db->UpdateResize(txn, a_rid, Tuple(48, 100)).ok());
  ASSERT_TRUE(a.db->Commit(txn).ok());
  auto fa = Drain(a);
  ASSERT_EQ(fa.size(), 1u);

  txn = b.db->Begin();
  Rid b_rid;
  b.db->Scan(b.table, [&](Rid rid, std::span<const uint8_t>) {
    b_rid = rid;
    return false;
  });
  ASSERT_TRUE(b.db->UpdateResize(txn, b_rid, Tuple(48, 200)).ok());
  ASSERT_TRUE(b.db->Commit(txn).ok());
  auto fb = Drain(b);
  ASSERT_EQ(fb.size(), 1u);

  // Cross-ship: A applies B's frame, B applies A's; C sees A-then-B, D sees
  // B-then-A. Deterministic LWW on (version, writer) must converge all four.
  ASSERT_TRUE(a.node->ApplyFrame(fb[0]).ok());
  ASSERT_TRUE(b.node->ApplyFrame(fa[0]).ok());
  ASSERT_TRUE(c.node->ApplyFrame(fa[0]).ok());
  ASSERT_TRUE(c.node->ApplyFrame(fb[0]).ok());
  ASSERT_TRUE(d.node->ApplyFrame(fb[0]).ok());
  ASSERT_TRUE(d.node->ApplyFrame(fa[0]).ok());

  auto ma = a.Logical();
  EXPECT_EQ(ma, b.Logical());
  EXPECT_EQ(ma, c.Logical());
  EXPECT_EQ(ma, d.Logical());
  ASSERT_EQ(ma.size(), 1u);
  // One of the two images won on every node; which one is fixed by the
  // deterministic (version, writer) comparison, not by arrival order.
  EXPECT_TRUE(ma.begin()->second == Tuple(48, 100) ||
              ma.begin()->second == Tuple(48, 200));
  uint64_t lww_skips = 0;
  for (Node* n : {&a, &b, &c, &d}) {
    lww_skips += n->node->stats().lww_skips;
    n->node.reset();
  }
  EXPECT_GE(lww_skips, 1u);
  EXPECT_EQ(Published("repl.apply.lww_skips") - published, lww_skips);
}

TEST(Replication, LwwDeleteVsUpdateConverges) {
  Node a(ReplConfig{.writer = 1, .writable = true, .full_images = true});
  Node b(ReplConfig{.writer = 2, .writable = true, .full_images = true});

  TxnId txn = a.db->Begin();
  ASSERT_TRUE(a.db->Insert(txn, a.table, Tuple(48, 1)).ok());
  ASSERT_TRUE(a.db->Commit(txn).ok());
  auto base = Drain(a);
  ASSERT_TRUE(b.node->ApplyFrame(base[0]).ok());

  // A deletes the tuple while B updates it.
  Rid a_rid, b_rid;
  a.db->Scan(a.table, [&](Rid rid, std::span<const uint8_t>) {
    a_rid = rid;
    return false;
  });
  b.db->Scan(b.table, [&](Rid rid, std::span<const uint8_t>) {
    b_rid = rid;
    return false;
  });
  txn = a.db->Begin();
  ASSERT_TRUE(a.db->Delete(txn, a_rid).ok());
  ASSERT_TRUE(a.db->Commit(txn).ok());
  txn = b.db->Begin();
  ASSERT_TRUE(b.db->UpdateResize(txn, b_rid, Tuple(48, 200)).ok());
  ASSERT_TRUE(b.db->Commit(txn).ok());

  auto fa = Drain(a);
  auto fb = Drain(b);
  ASSERT_TRUE(a.node->ApplyFrame(fb[0]).ok());
  ASSERT_TRUE(b.node->ApplyFrame(fa[0]).ok());
  // Either the delete or the update won, identically on both nodes.
  EXPECT_EQ(a.Logical(), b.Logical());
}

// ---------------------------------------------------------------------------
// Crash protocol
// ---------------------------------------------------------------------------

TEST(Replication, ReplicaRestartKeepsStreamPosition) {
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  std::vector<Rid> rids;
  TxnId txn = p.db->Begin();
  for (int i = 0; i < 8; i++) {
    auto rid = p.db->Insert(txn, p.table, Tuple(64, static_cast<uint8_t>(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_TRUE(p.db->Commit(txn).ok());
  ShipAll(p, r);

  // Replica restarts: the durable meta/map tables must restore the stream
  // position so the next frame applies without catch-up.
  r.Restart();
  EXPECT_EQ(r.node->version_vector().Of(1), p.node->last_emitted_lsn());

  txn = p.db->Begin();
  uint8_t patch[2] = {9, 9};
  ASSERT_TRUE(p.db->Update(txn, rids[0], 0, patch).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  ShipAll(p, r);
  EXPECT_EQ(p.Logical(), r.Logical());
}

TEST(Replication, PrimaryRestartForcesCatchupThenConverges) {
  Node p(ReplConfig{.writer = 1, .writable = true});
  Node r(ReplConfig{.writer = 2});

  TxnId txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(48, 1)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  ShipAll(p, r);

  // Primary restarts: its emit chain is forgotten, so the next frame ships
  // with prev = kUnknownLsn and the replica must demand a snapshot.
  p.Restart();
  txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(48, 2)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  auto frames = Drain(p);
  ASSERT_EQ(frames.size(), 1u);
  auto res = r.node->ApplyFrame(frames[0]);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), ReplNode::Apply::kNeedCatchup);

  auto snap = p.node->BuildSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE(r.node->ApplySnapshot(snap.value()).ok());
  EXPECT_EQ(p.Logical(), r.Logical());
  EXPECT_EQ(p.Logical().size(), 2u);

  // The chain is re-anchored: subsequent frames apply normally again.
  txn = p.db->Begin();
  ASSERT_TRUE(p.db->Insert(txn, p.table, Tuple(48, 3)).ok());
  ASSERT_TRUE(p.db->Commit(txn).ok());
  ShipAll(p, r);
  EXPECT_EQ(p.Logical(), r.Logical());
}

TEST(Replication, PowerLossMidApplyRollsBackAndReapplies) {
  // Sweep power cuts across the replica's flash mutations while it applies a
  // shipment stream; after each cut, recovery + re-apply must converge. This
  // is the unit-sized version of `crash_sweep --repl`.
  for (uint64_t inject = 0; inject < 6; inject++) {
    Node p(ReplConfig{.writer = 1, .writable = true});
    Node r(ReplConfig{.writer = 2}, /*buffer_pages=*/8);

    std::vector<Rid> rids;
    for (int t = 0; t < 6; t++) {
      TxnId txn = p.db->Begin();
      for (int i = 0; i < 6; i++) {
        auto rid = p.db->Insert(
            txn, p.table, Tuple(300, static_cast<uint8_t>(t * 16 + i)));
        ASSERT_TRUE(rid.ok());
        rids.push_back(rid.value());
      }
      if (t > 2) {
        uint8_t patch[2] = {static_cast<uint8_t>(t), 0xAB};
        ASSERT_TRUE(p.db->Update(txn, rids[t], 3, patch).ok());
      }
      ASSERT_TRUE(p.db->Commit(txn).ok());
    }
    auto frames = Drain(p);

    flash::PowerLossPolicy pol;
    pol.inject_at_op = inject;
    pol.seed = 0xBEEF + inject;
    r.dev.SetPowerLossPolicy(pol);

    bool cut = false;
    for (const auto& f : frames) {
      auto res = r.node->ApplyFrame(f);
      if (!res.ok()) {
        // Power died mid-apply: torn flash state + rolled-back frame.
        ASSERT_TRUE(res.status().IsUnavailable()) << res.status().ToString();
        cut = true;
        r.db->SimulateCrash();
        r.dev.PowerCycle();
        r.dev.SetPowerLossPolicy(flash::PowerLossPolicy{});
        ASSERT_TRUE(r.db->RecoverAfterPowerLoss().ok());
        ASSERT_TRUE(r.node->RecoverReplState().ok());
        // Crash-atomicity: re-shipping the same frame is always safe. It
        // lands as kApplied (rolled back) or kDuplicate (commit survived).
        auto again = r.node->ApplyFrame(f);
        ASSERT_TRUE(again.ok()) << again.status().ToString();
        ASSERT_TRUE(again.value() == ReplNode::Apply::kApplied ||
                    again.value() == ReplNode::Apply::kDuplicate);
      } else {
        ASSERT_EQ(res.value(), ReplNode::Apply::kApplied);
      }
    }
    if (!cut) {
      // No flash mutation reached the injection index; later sweep points
      // would not either, so stop here. The first points must fire, or the
      // sweep is vacuous.
      ASSERT_GE(inject, 3u) << "apply stream produced too few flash ops";
      break;
    }
    EXPECT_EQ(p.Logical(), r.Logical()) << "inject_at_op=" << inject;
  }
}

}  // namespace
}  // namespace ipa::repl
