// Integration tests for the engine: transactions, the IPA flush path through
// the buffer pool, cleaners, checkpoints, rollback and crash recovery.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "engine/database.h"
#include "workload/testbed.h"

namespace ipa::engine {
namespace {

struct TestDb {
  explicit TestDb(uint32_t buffer_pages = 64,
                  storage::Scheme scheme = {.n = 2, .m = 3, .v = 12},
                  double dirty_threshold = 0.125,
                  double log_reclaim = 0.375,
                  uint64_t logical_pages = 2048)
      : stack(workload::Build(Spec(buffer_pages, scheme, dirty_threshold,
                                   log_reclaim, logical_pages))
                  .value()) {}

  static workload::StackSpec Spec(uint32_t buffer_pages, storage::Scheme scheme,
                                  double dirty_threshold, double log_reclaim,
                                  uint64_t logical_pages) {
    workload::StackSpec spec;
    spec.geometry = {.channels = 2,
                     .chips_per_channel = 2,
                     .blocks_per_chip = 48,
                     .pages_per_block = 32};
    ftl::RegionConfig rc{
        .name = "main",
        .logical_pages = logical_pages,
        .ipa_mode = scheme.enabled() ? ftl::IpaMode::kSlc : ftl::IpaMode::kOff};
    spec.regions.push_back({rc, "ts", scheme, {"t"}});
    spec.engine = {.buffer_pages = buffer_pages,
                   .dirty_flush_threshold = dirty_threshold,
                   .log_reclaim_threshold = log_reclaim,
                   .log_capacity_bytes = 1 << 20};
    return spec;
  }

  std::unique_ptr<workload::Stack> stack;
  std::unique_ptr<Database>& db = stack->db;
  ftl::NoFtl& noftl = *stack->noftl;
  TableId table = stack->parts[0].tables[0];
  ftl::RegionId region = stack->region;
};

std::vector<uint8_t> Tuple(size_t n, uint8_t seed) {
  std::vector<uint8_t> t(n);
  for (size_t i = 0; i < n; i++) t[i] = static_cast<uint8_t>(seed + i * 3);
  return t;
}

TEST(DatabaseTest, InsertReadCommit) {
  TestDb t;
  TxnId txn = t.db->Begin();
  auto rid = t.db->Insert(txn, t.table, Tuple(48, 1));
  ASSERT_TRUE(rid.ok());
  auto read = t.db->Read(txn, rid.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Tuple(48, 1));
  ASSERT_TRUE(t.db->Commit(txn).ok());
  EXPECT_EQ(t.db->txn_stats().commits, 1u);
}

TEST(DatabaseTest, UpdatePersistsAcrossEviction) {
  TestDb t(/*buffer_pages=*/8);
  TxnId txn = t.db->Begin();
  std::vector<Rid> rids;
  for (int i = 0; i < 40; i++) {
    auto rid = t.db->Insert(txn, t.table, Tuple(200, static_cast<uint8_t>(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  uint8_t patch[2] = {0xAB, 0xCD};
  ASSERT_TRUE(t.db->Update(txn, rids[0], 4, patch).ok());
  ASSERT_TRUE(t.db->Commit(txn).ok());

  // Thrash the buffer so rids[0]'s page is evicted and refetched.
  TxnId txn2 = t.db->Begin();
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(t.db->Read(txn2, rids[i % 40]).ok());
  }
  auto read = t.db->Read(txn2, rids[0]);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value()[4], 0xAB);
  EXPECT_EQ(read.value()[5], 0xCD);
  ASSERT_TRUE(t.db->Commit(txn2).ok());
}

TEST(DatabaseTest, SmallUpdatesFlushAsInPlaceAppends) {
  TestDb t(/*buffer_pages=*/16);
  TxnId txn = t.db->Begin();
  std::vector<Rid> rids;
  for (int i = 0; i < 60; i++) {
    auto rid = t.db->Insert(txn, t.table, Tuple(160, static_cast<uint8_t>(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_TRUE(t.db->Commit(txn).ok());
  ASSERT_TRUE(t.db->Checkpoint().ok());  // everything on flash, clean

  // One small update per transaction; pages get cleaned/evicted between.
  uint64_t before_ipa = t.db->buffer_pool().stats().ipa_flushes;
  for (int round = 0; round < 3; round++) {
    TxnId u = t.db->Begin();
    uint8_t v = static_cast<uint8_t>(round);
    ASSERT_TRUE(t.db->Update(u, rids[round], 0, {&v, 1}).ok());
    ASSERT_TRUE(t.db->Commit(u).ok());
    ASSERT_TRUE(t.db->Checkpoint().ok());  // force a flush
  }
  EXPECT_GT(t.db->buffer_pool().stats().ipa_flushes, before_ipa);
  EXPECT_GT(t.noftl.region_stats(t.region).host_delta_writes, 0u);
}

TEST(DatabaseTest, AbortRollsBackAllOps) {
  TestDb t;
  TxnId setup = t.db->Begin();
  auto rid = t.db->Insert(setup, t.table, Tuple(64, 5));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(t.db->Commit(setup).ok());

  TxnId txn = t.db->Begin();
  uint8_t patch[4] = {9, 9, 9, 9};
  ASSERT_TRUE(t.db->Update(txn, rid.value(), 0, patch).ok());
  auto rid2 = t.db->Insert(txn, t.table, Tuple(32, 77));
  ASSERT_TRUE(rid2.ok());
  ASSERT_TRUE(t.db->Delete(txn, rid.value()).ok());
  ASSERT_TRUE(t.db->Abort(txn).ok());

  TxnId check = t.db->Begin();
  auto read = t.db->Read(check, rid.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Tuple(64, 5));           // update + delete undone
  EXPECT_FALSE(t.db->Read(check, rid2.value()).ok());  // insert undone
  ASSERT_TRUE(t.db->Commit(check).ok());
}

TEST(DatabaseTest, RollbackAfterFlushReadsBackFromFlash) {
  // Steal: a dirty page with uncommitted data is flushed (as an IPA append),
  // evicted, and the transaction then aborts — undo must work on the
  // re-fetched page (the paper's Section 6.2 rollback walkthrough).
  TestDb t(/*buffer_pages=*/8);
  TxnId setup = t.db->Begin();
  auto rid = t.db->Insert(setup, t.table, Tuple(64, 5));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(t.db->Commit(setup).ok());
  ASSERT_TRUE(t.db->Checkpoint().ok());

  TxnId txn = t.db->Begin();
  uint8_t patch[2] = {0xAA, 0xBB};
  ASSERT_TRUE(t.db->Update(txn, rid.value(), 0, patch).ok());
  // Evict everything (steal) while txn is open.
  ASSERT_TRUE(t.db->buffer_pool().FlushAll().ok());
  t.db->buffer_pool().DropAllNoFlush();
  ASSERT_TRUE(t.db->Abort(txn).ok());

  TxnId check = t.db->Begin();
  auto read = t.db->Read(check, rid.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Tuple(64, 5));
  ASSERT_TRUE(t.db->Commit(check).ok());
}

TEST(DatabaseTest, OnlyTransactionsFromBeginRecordLatency) {
  TestDb t;
  TxnId txn = t.db->Begin();
  ASSERT_TRUE(t.db->Insert(txn, t.table, Tuple(16, 1)).ok());
  ASSERT_TRUE(t.db->Commit(txn).ok());
  // An id Begin never handed out: the first record logged under it opens it.
  TxnId stray = txn + 100;
  ASSERT_TRUE(t.db->Insert(stray, t.table, Tuple(16, 2)).ok());
  ASSERT_TRUE(t.db->Commit(stray).ok());
  EXPECT_EQ(t.db->txn_stats().commits, 2u);
  EXPECT_EQ(t.db->txn_stats().txn_latency.count(), 1u);
}

// Redo of an aborted transaction's records and CLRs must rebuild the page
// that the rollback left, byte for byte: slot directory, free space and
// PageLSN included.
TEST(DatabaseTest, RedoOfRolledBackPageMatchesRollback) {
  TestDb t;
  TxnId setup = t.db->Begin();
  auto a = t.db->Insert(setup, t.table, Tuple(64, 5));
  auto b = t.db->Insert(setup, t.table, Tuple(80, 6));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(t.db->Commit(setup).ok());
  ASSERT_TRUE(t.db->Checkpoint().ok());
  PageId page = a.value().page;
  ASSERT_EQ(b.value().page, page);

  TxnId txn = t.db->Begin();
  uint8_t patch[3] = {0xA1, 0xA2, 0xA3};
  ASSERT_TRUE(t.db->Update(txn, a.value(), 7, patch).ok());
  ASSERT_TRUE(t.db->UpdateResize(txn, b.value(), Tuple(120, 7)).ok());
  auto c = t.db->Insert(txn, t.table, Tuple(40, 8));
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().page, page);
  ASSERT_TRUE(t.db->Delete(txn, a.value()).ok());
  ASSERT_TRUE(t.db->Abort(txn).ok());

  BufferPool& pool = t.db->buffer_pool();
  auto frame = pool.Fix(page);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame.value()->dirty);  // the rollback never reached flash
  const uint32_t page_size = t.db->config().page_size;
  std::vector<uint8_t> rolled_back(frame.value()->data(),
                                   frame.value()->data() + page_size);
  pool.Unfix(frame.value(), false);

  t.db->SimulateCrash();
  ASSERT_TRUE(t.db->Recover().ok());
  frame = pool.Fix(page);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(std::vector<uint8_t>(frame.value()->data(), frame.value()->data() + page_size),
            rolled_back);
  pool.Unfix(frame.value(), false);
}

TEST(DatabaseTest, LockConflictsDetected) {
  TestDb t;
  TxnId a = t.db->Begin();
  TxnId b = t.db->Begin();
  auto rid = t.db->Insert(a, t.table, Tuple(16, 0));
  ASSERT_TRUE(rid.ok());
  // b cannot read a's uncommitted insert (X lock held by a).
  EXPECT_TRUE(t.db->Read(b, rid.value()).status().IsBusy());
  ASSERT_TRUE(t.db->Commit(a).ok());
  EXPECT_TRUE(t.db->Read(b, rid.value()).ok());
  // Shared lock by b blocks exclusive by c.
  TxnId c = t.db->Begin();
  uint8_t v = 1;
  EXPECT_TRUE(t.db->Update(c, rid.value(), 0, {&v, 1}).IsBusy());
  ASSERT_TRUE(t.db->Commit(b).ok());
  EXPECT_TRUE(t.db->Update(c, rid.value(), 0, {&v, 1}).ok());
  ASSERT_TRUE(t.db->Commit(c).ok());
}

TEST(DatabaseTest, CrashRecoveryRedoesCommittedWork) {
  TestDb t;
  TxnId txn = t.db->Begin();
  std::vector<Rid> rids;
  for (int i = 0; i < 30; i++) {
    auto rid = t.db->Insert(txn, t.table, Tuple(100, static_cast<uint8_t>(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  uint8_t patch[3] = {1, 2, 3};
  ASSERT_TRUE(t.db->Update(txn, rids[7], 10, patch).ok());
  ASSERT_TRUE(t.db->Commit(txn).ok());

  // Crash before any flush: all data only in log + buffer.
  t.db->SimulateCrash();
  ASSERT_TRUE(t.db->Recover().ok());

  TxnId check = t.db->Begin();
  for (int i = 0; i < 30; i++) {
    auto read = t.db->Read(check, rids[i]);
    ASSERT_TRUE(read.ok()) << i;
    auto expect = Tuple(100, static_cast<uint8_t>(i));
    if (i == 7) {
      expect[10] = 1;
      expect[11] = 2;
      expect[12] = 3;
    }
    EXPECT_EQ(read.value(), expect) << i;
  }
  ASSERT_TRUE(t.db->Commit(check).ok());
}

TEST(DatabaseTest, CrashRecoveryUndoesLoserTransactions) {
  TestDb t;
  TxnId setup = t.db->Begin();
  auto rid = t.db->Insert(setup, t.table, Tuple(64, 9));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(t.db->Commit(setup).ok());

  TxnId loser = t.db->Begin();
  uint8_t patch[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(t.db->Update(loser, rid.value(), 0, patch).ok());
  // Steal: flush the dirty page (forces the update's log record durable).
  ASSERT_TRUE(t.db->buffer_pool().FlushAll().ok());
  // Crash without commit.
  t.db->SimulateCrash();
  ASSERT_TRUE(t.db->Recover().ok());

  TxnId check = t.db->Begin();
  auto read = t.db->Read(check, rid.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Tuple(64, 9));
  ASSERT_TRUE(t.db->Commit(check).ok());
}

TEST(DatabaseTest, RecoveryIsIdempotent) {
  TestDb t;
  TxnId txn = t.db->Begin();
  auto rid = t.db->Insert(txn, t.table, Tuple(50, 1));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(t.db->Commit(txn).ok());
  t.db->SimulateCrash();
  ASSERT_TRUE(t.db->Recover().ok());
  t.db->SimulateCrash();
  ASSERT_TRUE(t.db->Recover().ok());
  TxnId check = t.db->Begin();
  auto read = t.db->Read(check, rid.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Tuple(50, 1));
  ASSERT_TRUE(t.db->Commit(check).ok());
}

TEST(DatabaseTest, CheckpointTruncatesLog) {
  TestDb t;
  TxnId txn = t.db->Begin();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(t.db->Insert(txn, t.table, Tuple(100, 0)).ok());
  }
  ASSERT_TRUE(t.db->Commit(txn).ok());
  uint64_t used_before = t.db->wal().UsedBytes();
  ASSERT_TRUE(t.db->Checkpoint().ok());
  EXPECT_LT(t.db->wal().UsedBytes(), used_before);
}

TEST(DatabaseTest, EagerLogReclamationTriggersCheckpoints) {
  TestDb t(/*buffer_pages=*/64, {.n = 2, .m = 3, .v = 12},
           /*dirty_threshold=*/0.125, /*log_reclaim=*/0.01);
  TxnId txn = t.db->Begin();
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(t.db->Insert(txn, t.table, Tuple(120, 0)).ok());
  }
  ASSERT_TRUE(t.db->Commit(txn).ok());
  EXPECT_GT(t.db->checkpoints_taken(), 0u);
}

TEST(DatabaseTest, EagerCleanerFlushesInBackground) {
  TestDb t(/*buffer_pages=*/32);
  TxnId txn = t.db->Begin();
  for (int i = 0; i < 120; i++) {
    ASSERT_TRUE(t.db->Insert(txn, t.table, Tuple(300, 0)).ok());
  }
  ASSERT_TRUE(t.db->Commit(txn).ok());
  EXPECT_GT(t.db->buffer_pool().stats().cleaner_runs, 0u);
}

TEST(DatabaseTest, ScanVisitsAllLiveTuples) {
  TestDb t;
  TxnId txn = t.db->Begin();
  std::vector<Rid> rids;
  for (int i = 0; i < 25; i++) {
    auto rid = t.db->Insert(txn, t.table, Tuple(80, static_cast<uint8_t>(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_TRUE(t.db->Delete(txn, rids[3]).ok());
  ASSERT_TRUE(t.db->Commit(txn).ok());
  int seen = 0;
  ASSERT_TRUE(t.db->Scan(t.table, [&](Rid, std::span<const uint8_t>) {
                   seen++;
                   return true;
                 }).ok());
  EXPECT_EQ(seen, 24);
}

TEST(DatabaseTest, MoveRelocatesGrownTuple) {
  TestDb t;
  TxnId txn = t.db->Begin();
  auto rid = t.db->Insert(txn, t.table, Tuple(100, 1));
  ASSERT_TRUE(rid.ok());
  auto moved = t.db->Move(txn, rid.value(), Tuple(500, 2));
  ASSERT_TRUE(moved.ok());
  auto read = t.db->Read(txn, moved.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Tuple(500, 2));
  EXPECT_FALSE(t.db->Read(txn, rid.value()).ok());
  ASSERT_TRUE(t.db->Commit(txn).ok());
}

// A grown tuple that cannot fit in its page even after compaction fails
// cleanly: the old tuple and its neighbours stay readable and nothing is
// logged.
TEST(DatabaseTest, ResizeThatCannotFitLeavesPageAndLogAlone) {
  TestDb t;
  TxnId txn = t.db->Begin();
  std::vector<Rid> rids;
  for (uint8_t i = 0; i < 3; i++) {
    auto rid = t.db->Insert(txn, t.table, Tuple(900, i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_EQ(rids[0].page, rids[2].page);
  const Lsn end = t.db->wal().end_lsn();

  Status s = t.db->UpdateResize(txn, rids[1], Tuple(4096, 9));
  EXPECT_TRUE(s.IsOutOfSpace()) << s.ToString();
  EXPECT_EQ(t.db->wal().end_lsn(), end);
  for (uint8_t i = 0; i < 3; i++) {
    auto read = t.db->Read(txn, rids[i]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), Tuple(900, i));
  }
  ASSERT_TRUE(t.db->Commit(txn).ok());
}

TEST(DatabaseTest, UpdateTracesRecorded) {
  TestDb t(/*buffer_pages=*/16);
  // Rebuild with recording on.
  EngineConfig ec;
  ec.page_size = 4096;
  ec.buffer_pages = 16;
  ec.record_update_sizes = true;
  ec.log_capacity_bytes = 1 << 20;
  Database db(&t.noftl, ec);
  auto ts = db.CreateTablespace("ts", t.region, {.n = 2, .m = 3, .v = 12});
  ASSERT_TRUE(ts.ok());
  auto table = db.CreateTable("traced", ts.value());
  ASSERT_TRUE(table.ok());

  TxnId txn = db.Begin();
  auto rid = db.Insert(txn, table.value(), Tuple(64, 1));
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(db.Commit(txn).ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  TxnId u = db.Begin();
  uint8_t v = 0x42;
  ASSERT_TRUE(db.Update(u, rid.value(), 0, {&v, 1}).ok());
  ASSERT_TRUE(db.Commit(u).ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  const auto& traces = db.buffer_pool().update_traces();
  auto it = traces.find(table.value());
  ASSERT_NE(it, traces.end());
  EXPECT_GE(it->second.net.total(), 1u);
  EXPECT_EQ(it->second.net.ValueAtPercentile(50), 1u);  // 1 net byte changed
}

TEST(DatabaseTest, DropTableTrimsFlashAndBlocksAccess) {
  TestDb t;
  TxnId txn = t.db->Begin();
  std::vector<Rid> rids;
  for (int i = 0; i < 30; i++) {
    auto rid = t.db->Insert(txn, t.table, Tuple(200, static_cast<uint8_t>(i)));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_TRUE(t.db->Commit(txn).ok());
  ASSERT_TRUE(t.db->Checkpoint().ok());
  ASSERT_TRUE(t.noftl.IsMapped(t.region, rids[0].page.lba()));

  ASSERT_TRUE(t.db->DropTable(t.table).ok());
  // Flash space reclaimed...
  EXPECT_FALSE(t.noftl.IsMapped(t.region, rids[0].page.lba()));
  // ...catalog detached...
  int seen = 0;
  ASSERT_TRUE(t.db->Scan(t.table, [&](Rid, std::span<const uint8_t>) {
                  seen++;
                  return true;
                }).ok());
  EXPECT_EQ(seen, 0);
  // ...double drop rejected.
  EXPECT_TRUE(t.db->DropTable(t.table).IsInvalidArgument());
}

TEST(DatabaseTest, TablespaceCapacityExhaustionSurfacesCleanly) {
  // A tiny tablespace: inserts must fail with OutOfSpace, not corrupt state.
  TestDb t(/*buffer_pages=*/32, {.n = 2, .m = 3, .v = 12},
           /*dirty_threshold=*/0.125, /*log_reclaim=*/0.375,
           /*logical_pages=*/24);
  TxnId txn = t.db->Begin();
  Status last = Status::OK();
  int inserted = 0;
  for (int i = 0; i < 5000 && last.ok(); i++) {
    auto rid = t.db->Insert(txn, t.table, Tuple(300, 1));
    last = rid.status();
    if (last.ok()) inserted++;
  }
  EXPECT_TRUE(last.IsOutOfSpace());
  EXPECT_GT(inserted, 50);
  // Existing data still readable.
  int seen = 0;
  ASSERT_TRUE(t.db->Scan(t.table, [&](Rid, std::span<const uint8_t>) {
                  seen++;
                  return true;
                }).ok());
  EXPECT_EQ(seen, inserted);
}

}  // namespace
}  // namespace ipa::engine
