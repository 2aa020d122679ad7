// Tests for the shared-nothing sharded engine (docs/SHARDING.md): partition
// map boundaries, the lock-free single-partition fast path, cross-partition
// fallback to locking, group commit, per-worker WAL recovery, and the
// sequential-vs-threaded determinism contract.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "engine/sharded_database.h"
#include "workload/testbed.h"
#include "workload/tpcb.h"

namespace ipa::engine {
namespace {

using workload::MakeShardedTestbed;
using workload::MakeTestbed;
using workload::ShardedTestbed;
using workload::ShardedTestbedConfig;

std::vector<uint8_t> Tuple(size_t n, uint8_t seed) {
  std::vector<uint8_t> t(n);
  for (size_t i = 0; i < n; i++) t[i] = static_cast<uint8_t>(seed + i * 3);
  return t;
}

ShardedTestbedConfig SmallConfig(uint32_t workers, bool threaded = false) {
  ShardedTestbedConfig c;
  c.workers = workers;
  c.threaded = threaded;
  c.base.db_pages = 512;
  c.base.scheme = {.n = 2, .m = 3, .v = 12};
  return c;
}

/// One table per partition, created partition-by-partition.
std::vector<TableId> MakeTables(ShardedTestbed& bed) {
  std::vector<TableId> tables;
  for (auto& part : bed.parts) {
    auto t = part.db->CreateTable("t", part.ts);
    EXPECT_TRUE(t.ok());
    tables.push_back(t.value());
  }
  return tables;
}

// ---------------------------------------------------------------------------
// Partition map
// ---------------------------------------------------------------------------

Rid MakeRid(uint16_t slot, uint64_t lba) {
  Rid r;
  r.page = PageId(0, lba);
  r.slot = slot;
  return r;
}

TEST(PartitionMapTest, GlobalKeyRoundTripsAtBoundaries) {
  // Rid (ts always 0 in partition-local spaces) packs into 48 bits; the
  // partition tag rides in the top 16. Exercise the extremes of both.
  const Rid rids[] = {
      MakeRid(0, 0),
      MakeRid(0xFFFF, 0),           // max slot
      MakeRid(0, 0xFFFFFFFF),       // max lba
      MakeRid(0xFFFF, 0xFFFFFFFF),  // both
      MakeRid(7, 123456),
  };
  const uint32_t parts[] = {0, 1, 7, 15, 0xFFFF};
  for (Rid rid : rids) {
    for (uint32_t p : parts) {
      uint64_t g = ShardedDatabase::PackGlobal(p, rid);
      EXPECT_EQ(ShardedDatabase::PartitionOfGlobal(g), p);
      Rid back = ShardedDatabase::RidOfGlobal(g);
      EXPECT_EQ(back.page.tablespace(), 0u);
      EXPECT_EQ(back.slot, rid.slot);
      EXPECT_EQ(back.page.lba(), rid.page.lba());
    }
  }
}

TEST(PartitionMapTest, KeyHashCoversAllPartitionsEvenly) {
  auto bed = MakeShardedTestbed(SmallConfig(4)).value();
  std::vector<uint64_t> hits(4, 0);
  for (uint64_t key = 0; key < 4000; ++key) {
    uint32_t p = bed->sharded->PartitionOfKey(key);
    ASSERT_LT(p, 4u);
    hits[p]++;
  }
  // SplitMix64 scatters a contiguous key range; no partition should be
  // starved or hot by more than ~2x of fair share.
  for (uint64_t h : hits) {
    EXPECT_GT(h, 500u);
    EXPECT_LT(h, 2000u);
  }
  // Boundary keys hash somewhere valid.
  EXPECT_LT(bed->sharded->PartitionOfKey(0), 4u);
  EXPECT_LT(bed->sharded->PartitionOfKey(UINT64_MAX), 4u);
}

TEST(PartitionMapTest, RejectsNonDividingWorkerCount) {
  EXPECT_FALSE(MakeShardedTestbed(SmallConfig(3)).ok());
  EXPECT_FALSE(MakeShardedTestbed(SmallConfig(0)).ok());
  EXPECT_TRUE(MakeShardedTestbed(SmallConfig(16)).ok());
}

// ---------------------------------------------------------------------------
// workers = 1 reproduces the unsharded testbed bit for bit (docs/SHARDING.md)
// ---------------------------------------------------------------------------

/// Everything a run leaves behind on one device: counters, time and media.
struct DeviceImage {
  flash::DeviceStats dev;
  ftl::RegionStats region;
  SimTime now = 0;
  uint32_t media_crc = 0;  ///< CRC32C of every programmed page and its OOB.
};

DeviceImage Image(const flash::FlashArray& dev, const ftl::RegionStats& region,
                  SimTime now) {
  DeviceImage img{dev.AggregateStats(), region, now, 0};
  for (flash::Ppn ppn = 0; ppn < dev.geometry().total_pages(); ppn++) {
    const flash::PageState& ps = dev.page_state(ppn);
    img.media_crc = Crc32c(ps.data.data(), ps.data.size(), img.media_crc);
    img.media_crc = Crc32c(ps.oob.data(), ps.oob.size(), img.media_crc);
  }
  return img;
}

void ExpectSameImage(const DeviceImage& a, const DeviceImage& b) {
  const flash::DeviceStats& x = a.dev;
  const flash::DeviceStats& y = b.dev;
  EXPECT_EQ(x.page_reads, y.page_reads);
  EXPECT_EQ(x.page_programs, y.page_programs);
  EXPECT_EQ(x.delta_programs, y.delta_programs);
  EXPECT_EQ(x.block_erases, y.block_erases);
  EXPECT_EQ(x.bytes_read, y.bytes_read);
  EXPECT_EQ(x.bytes_programmed, y.bytes_programmed);
  EXPECT_EQ(x.delta_bytes_programmed, y.delta_bytes_programmed);
  EXPECT_EQ(x.page_refreshes, y.page_refreshes);
  const ftl::RegionStats& r = a.region;
  const ftl::RegionStats& q = b.region;
  EXPECT_EQ(r.host_reads, q.host_reads);
  EXPECT_EQ(r.host_page_writes, q.host_page_writes);
  EXPECT_EQ(r.host_delta_writes, q.host_delta_writes);
  EXPECT_EQ(r.delta_bytes_written, q.delta_bytes_written);
  EXPECT_EQ(r.delta_fallbacks, q.delta_fallbacks);
  EXPECT_EQ(r.gc_page_migrations, q.gc_page_migrations);
  EXPECT_EQ(r.gc_erases, q.gc_erases);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.media_crc, b.media_crc);
}

TEST(ShardedEngineTest, OneWorkerReproducesUnshardedTestbed) {
  workload::TpcbConfig wc;
  wc.accounts_per_branch = 4000;
  workload::TestbedConfig c;
  c.db_pages = workload::Tpcb(nullptr, wc, workload::SingleTablespace(0))
                   .EstimatedPages(c.page_size);
  c.scheme = {.n = 2, .m = 4, .v = 12};

  auto flat = MakeTestbed(c).value();
  ShardedTestbedConfig sc;
  sc.workers = 1;
  sc.base = c;
  auto bed = MakeShardedTestbed(sc).value();
  ShardedTestbed::Part& part = bed->parts[0];

  workload::Tpcb a(flat->db.get(), wc, flat->ts_map());
  workload::Tpcb b(part.db.get(), wc, workload::SingleTablespace(part.ts));
  ASSERT_TRUE(a.Load().ok());
  ASSERT_TRUE(b.Load().ok());
  for (uint64_t txns : {3000, 5000}) {  // 3000, then 8000 in total
    ASSERT_TRUE(workload::RunTransactions(a, txns).ok());
    ASSERT_TRUE(workload::RunTransactions(b, txns).ok());
    ExpectSameImage(
        Image(*flat->dev, flat->backend_stats(), flat->clock().Now()),
        Image(*bed->dev, bed->region_stats(0), part.db->sim_clock().Now()));
  }
  EXPECT_GT(flat->backend_stats().gc_erases, 0u) << "GC must run";
}

// ---------------------------------------------------------------------------
// Fast path vs locking path
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, SinglePartitionTxnsNeverTouchLockManager) {
  auto bed = MakeShardedTestbed(SmallConfig(2)).value();
  auto tables = MakeTables(*bed);
  for (uint32_t p = 0; p < 2; ++p) {
    auto t = bed->sharded->Begin(p);
    auto rid = bed->parts[p].db->Insert(t.id, tables[p], Tuple(64, 1));
    ASSERT_TRUE(rid.ok());
    ASSERT_TRUE(bed->parts[p].db->Read(t.id, rid.value()).ok());
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
  // The shared-nothing claim, asserted literally: zero lock-table traffic.
  EXPECT_EQ(bed->parts[0].db->lock_manager().acquires(), 0u);
  EXPECT_EQ(bed->parts[1].db->lock_manager().acquires(), 0u);
}

TEST(ShardedEngineTest, CrossPartitionTxnTakesLocksAndConflicts) {
  auto bed = MakeShardedTestbed(SmallConfig(2)).value();
  auto tables = MakeTables(*bed);

  // Seed one row per partition (fast path).
  std::vector<Rid> seeded;
  for (uint32_t p = 0; p < 2; ++p) {
    auto t = bed->sharded->Begin(p);
    seeded.push_back(bed->parts[p].db->Insert(t.id, tables[p], Tuple(64, 7)).value());
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
  uint64_t base0 = bed->parts[0].db->lock_manager().acquires();

  // A cross-partition transfer touches both partitions on the locking path.
  auto cross = bed->sharded->BeginCross();
  EXPECT_EQ(bed->sharded->active_cross_txns(), 1u);
  uint8_t patch[4] = {1, 2, 3, 4};
  for (uint32_t p = 0; p < 2; ++p) {
    TxnId br = bed->sharded->Branch(cross, p);
    ASSERT_TRUE(bed->parts[p].db->Update(br, seeded[p], 0, patch).ok());
  }
  EXPECT_GT(bed->parts[0].db->lock_manager().acquires(), base0);

  // While a cross txn is open, new single-partition txns fall back to
  // locking — and actually conflict with the cross txn's X locks.
  auto t0 = bed->sharded->Begin(0);
  Status s = bed->parts[0].db->Update(t0.id, seeded[0], 0, patch);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  ASSERT_TRUE(bed->sharded->Abort(t0).ok());

  ASSERT_TRUE(bed->sharded->CommitCross(cross).ok());
  EXPECT_EQ(bed->sharded->active_cross_txns(), 0u);

  // With the cross txn gone, fast-path txns skip the lock table again.
  uint64_t after = bed->parts[0].db->lock_manager().acquires();
  auto t1 = bed->sharded->Begin(0);
  ASSERT_TRUE(bed->parts[0].db->Update(t1.id, seeded[0], 0, patch).ok());
  ASSERT_TRUE(bed->sharded->Commit(t1).ok());
  EXPECT_EQ(bed->parts[0].db->lock_manager().acquires(), after);
}

TEST(ShardedEngineTest, AbortCrossRollsBackAllBranches) {
  auto bed = MakeShardedTestbed(SmallConfig(2)).value();
  auto tables = MakeTables(*bed);
  std::vector<Rid> seeded;
  for (uint32_t p = 0; p < 2; ++p) {
    auto t = bed->sharded->Begin(p);
    seeded.push_back(bed->parts[p].db->Insert(t.id, tables[p], Tuple(64, 9)).value());
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }

  auto cross = bed->sharded->BeginCross();
  uint8_t patch[4] = {0xAA, 0xBB, 0xCC, 0xDD};
  for (uint32_t p = 0; p < 2; ++p) {
    TxnId br = bed->sharded->Branch(cross, p);
    ASSERT_TRUE(bed->parts[p].db->Update(br, seeded[p], 0, patch).ok());
  }
  ASSERT_TRUE(bed->sharded->AbortCross(cross).ok());

  for (uint32_t p = 0; p < 2; ++p) {
    auto t = bed->sharded->Begin(p);
    auto read = bed->parts[p].db->Read(t.id, seeded[p]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), Tuple(64, 9)) << "partition " << p;
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, GroupCommitDefersForceAndCrashLosesBatch) {
  ShardedTestbedConfig cfg = SmallConfig(1);
  cfg.group_commit_ops = 4;
  cfg.log_force_us = 50;
  auto bed = MakeShardedTestbed(cfg).value();
  auto tables = MakeTables(*bed);
  Database& db = *bed->parts[0].db;

  // Three commits: all deferred, WAL not yet durable through their records.
  std::vector<Rid> rids;
  for (int i = 0; i < 3; ++i) {
    auto t = bed->sharded->Begin(0);
    rids.push_back(db.Insert(t.id, tables[0], Tuple(64, uint8_t(i))).value());
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
  EXPECT_EQ(db.pending_commit_forces(), 3u);
  EXPECT_LT(db.wal().durable_lsn(), db.wal().end_lsn());

  // A crash now loses the whole deferred batch (real group-commit risk).
  bed->sharded->SimulateCrash();
  ASSERT_TRUE(bed->sharded->Recover().ok());
  for (const Rid& rid : rids) {
    auto t = bed->sharded->Begin(0);
    EXPECT_FALSE(db.Read(t.id, rid).ok());
    ASSERT_TRUE(bed->sharded->Abort(t).ok());
  }

  // Four commits: the fourth closes the batch and forces all of them.
  rids.clear();
  for (int i = 0; i < 4; ++i) {
    auto t = bed->sharded->Begin(0);
    rids.push_back(db.Insert(t.id, tables[0], Tuple(64, uint8_t(0x40 + i))).value());
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
  EXPECT_EQ(db.pending_commit_forces(), 0u);
  EXPECT_EQ(db.wal().durable_lsn(), db.wal().end_lsn());
  bed->sharded->SimulateCrash();
  ASSERT_TRUE(bed->sharded->Recover().ok());
  for (int i = 0; i < 4; ++i) {
    auto t = bed->sharded->Begin(0);
    auto read = db.Read(t.id, rids[i]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), Tuple(64, uint8_t(0x40 + i)));
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
}

TEST(ShardedEngineTest, GroupCommitWindowForcesOldBatch) {
  ShardedTestbedConfig cfg = SmallConfig(1);
  cfg.group_commit_ops = 1000;  // never force by count
  cfg.group_commit_window_us = 200;
  cfg.log_force_us = 50;
  auto bed = MakeShardedTestbed(cfg).value();
  auto tables = MakeTables(*bed);
  Database& db = *bed->parts[0].db;

  auto t1 = bed->sharded->Begin(0);
  ASSERT_TRUE(db.Insert(t1.id, tables[0], Tuple(64, 1)).ok());
  ASSERT_TRUE(bed->sharded->Commit(t1).ok());
  EXPECT_EQ(db.pending_commit_forces(), 1u);

  // Let simulated time pass the window; the next commit triggers the force.
  db.sim_clock().Advance(1000);
  auto t2 = bed->sharded->Begin(0);
  ASSERT_TRUE(db.Insert(t2.id, tables[0], Tuple(64, 2)).ok());
  ASSERT_TRUE(bed->sharded->Commit(t2).ok());
  EXPECT_EQ(db.pending_commit_forces(), 0u);
  EXPECT_EQ(db.wal().durable_lsn(), db.wal().end_lsn());
}

TEST(ShardedEngineTest, EpochBarrierClosesEveryPartitionsBatch) {
  ShardedTestbedConfig cfg = SmallConfig(4);
  cfg.group_commit_ops = 100;
  cfg.log_force_us = 50;
  auto bed = MakeShardedTestbed(cfg).value();
  auto tables = MakeTables(*bed);
  for (uint32_t p = 0; p < 4; ++p) {
    auto t = bed->sharded->Begin(p);
    ASSERT_TRUE(bed->parts[p].db->Insert(t.id, tables[p], Tuple(64, 3)).ok());
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
    EXPECT_EQ(bed->parts[p].db->pending_commit_forces(), 1u);
  }
  SimTime epoch = bed->sharded->EpochBarrier();
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(bed->parts[p].db->pending_commit_forces(), 0u);
    EXPECT_EQ(bed->parts[p].db->wal().durable_lsn(),
              bed->parts[p].db->wal().end_lsn());
    // Every partition clock resumes from the common epoch.
    EXPECT_EQ(bed->parts[p].db->sim_clock().Now(), epoch);
  }
  EXPECT_EQ(bed->clock().Now(), epoch);
}

// ---------------------------------------------------------------------------
// Recovery across per-worker WALs
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, RecoveryReplaysEachPartitionsWal) {
  auto bed = MakeShardedTestbed(SmallConfig(4)).value();
  auto tables = MakeTables(*bed);

  // Per partition: one committed row, one uncommitted row.
  std::vector<Rid> committed(4), uncommitted(4);
  for (uint32_t p = 0; p < 4; ++p) {
    auto t = bed->sharded->Begin(p);
    committed[p] =
        bed->parts[p].db->Insert(t.id, tables[p], Tuple(64, uint8_t(p))).value();
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
  std::vector<ShardedDatabase::Txn> open;
  for (uint32_t p = 0; p < 4; ++p) {
    auto t = bed->sharded->Begin(p);
    uncommitted[p] =
        bed->parts[p].db->Insert(t.id, tables[p], Tuple(64, uint8_t(0x80 + p)))
            .value();
    open.push_back(t);
  }

  bed->sharded->SimulateCrash();
  ASSERT_TRUE(bed->sharded->Recover().ok());

  for (uint32_t p = 0; p < 4; ++p) {
    auto t = bed->sharded->Begin(p);
    auto read = bed->parts[p].db->Read(t.id, committed[p]);
    ASSERT_TRUE(read.ok()) << "partition " << p;
    EXPECT_EQ(read.value(), Tuple(64, uint8_t(p)));
    EXPECT_FALSE(bed->parts[p].db->Read(t.id, uncommitted[p]).ok())
        << "loser txn row survived in partition " << p;
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
}

TEST(ShardedEngineTest, PowerLossRemountReassemblesAllPartitions) {
  auto bed = MakeShardedTestbed(SmallConfig(2)).value();
  auto tables = MakeTables(*bed);
  std::vector<Rid> rids;
  for (uint32_t p = 0; p < 2; ++p) {
    auto t = bed->sharded->Begin(p);
    for (int i = 0; i < 8; ++i) {
      rids.push_back(
          bed->parts[p].db->Insert(t.id, tables[p], Tuple(64, uint8_t(p * 8 + i)))
              .value());
    }
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
  bed->sharded->EpochBarrier();

  // Device-level power loss: both partitions' regions remount (torn-write
  // scan) before their ARIES restarts replay the WAL tails.
  bed->dev->PowerCycle();
  bed->sharded->SimulateCrash();
  ASSERT_TRUE(bed->sharded->RecoverAfterPowerLoss().ok());

  size_t idx = 0;
  for (uint32_t p = 0; p < 2; ++p) {
    auto t = bed->sharded->Begin(p);
    for (int i = 0; i < 8; ++i, ++idx) {
      auto read = bed->parts[p].db->Read(t.id, rids[idx]);
      ASSERT_TRUE(read.ok()) << "partition " << p << " row " << i;
      EXPECT_EQ(read.value(), Tuple(64, uint8_t(p * 8 + i)));
    }
    ASSERT_TRUE(bed->sharded->Commit(t).ok());
  }
}

// ---------------------------------------------------------------------------
// Determinism: sequential == threaded, run-to-run stable
// ---------------------------------------------------------------------------

struct RunResult {
  SimTime epoch = 0;
  std::vector<uint64_t> commits;
  std::vector<uint64_t> host_page_writes;
  std::vector<std::vector<uint8_t>> row0;
};

RunResult RunWorkload(bool threaded) {
  ShardedTestbedConfig cfg = SmallConfig(4, threaded);
  cfg.group_commit_ops = 8;
  cfg.log_force_us = 20;
  auto bed = MakeShardedTestbed(cfg).value();
  auto tables = MakeTables(*bed);

  // Each partition runs its own deterministic stream of 40 txns on its
  // worker; streams interleave arbitrarily on the wall clock but must not
  // affect each other's simulated results. Each worker writes only its own
  // slot of `first_rid`.
  std::vector<Rid> first_rid(4);
  for (uint32_t p = 0; p < 4; ++p) {
    Database* db = bed->parts[p].db.get();
    TableId table = tables[p];
    auto* sharded = bed->sharded.get();
    Rid* first = &first_rid[p];
    bed->sharded->Submit(p, [db, table, p, sharded, first] {
      std::vector<Rid> rids;
      for (int i = 0; i < 40; ++i) {
        auto t = sharded->Begin(p);
        if (i % 4 == 3 && !rids.empty()) {
          uint8_t patch[8] = {uint8_t(i), uint8_t(p), 3, 4, 5, 6, 7, 8};
          ASSERT_TRUE(db->Update(t.id, rids[i % rids.size()], 0, patch).ok());
        } else {
          auto rid = db->Insert(t.id, table, Tuple(120, uint8_t(p * 40 + i)));
          ASSERT_TRUE(rid.ok());
          rids.push_back(rid.value());
        }
        ASSERT_TRUE(sharded->Commit(t).ok());
      }
      *first = rids[0];
    });
  }
  RunResult r;
  r.epoch = bed->sharded->EpochBarrier();
  for (uint32_t p = 0; p < 4; ++p) {
    r.commits.push_back(bed->parts[p].db->txn_stats().commits);
    r.host_page_writes.push_back(bed->region_stats(p).host_page_writes);
    auto t = bed->sharded->Begin(p);
    auto read = bed->parts[p].db->Read(t.id, first_rid[p]);
    EXPECT_TRUE(read.ok());
    r.row0.push_back(read.value());
    EXPECT_TRUE(bed->sharded->Commit(t).ok());
  }
  return r;
}

TEST(ShardedEngineTest, ThreadedRunIsBitIdenticalToSequential) {
  RunResult seq = RunWorkload(/*threaded=*/false);
  RunResult par = RunWorkload(/*threaded=*/true);
  EXPECT_EQ(seq.epoch, par.epoch);
  EXPECT_EQ(seq.commits, par.commits);
  EXPECT_EQ(seq.host_page_writes, par.host_page_writes);
  EXPECT_EQ(seq.row0, par.row0);

  // And run-to-run stable in threaded mode.
  RunResult par2 = RunWorkload(/*threaded=*/true);
  EXPECT_EQ(par.epoch, par2.epoch);
  EXPECT_EQ(par.commits, par2.commits);
  EXPECT_EQ(par.host_page_writes, par2.host_page_writes);
}

TEST(ShardedEngineTest, LanesOverlapAcrossWorkers) {
  // The same total number of buffer-missing reads takes much less simulated
  // time on 4 workers than on 1: one host stream waits out each sync read
  // latency serially, while 4 workers' waits overlap on their own lanes.
  // (Write-heavy streams would NOT show this — background cleaner writes
  // are async and already saturate chip parallelism at one worker.)
  auto run = [](uint32_t workers) {
    ShardedTestbedConfig cfg = SmallConfig(workers);
    // Buffer far smaller than the per-partition working set: cycling reads
    // under LRU miss every time, so the read phase is all sync flash reads.
    // Non-eager cleaning keeps background async writes from contaminating
    // the chip queues the reads are measured against.
    cfg.base.buffer_fraction = 0.0;
    cfg.base.min_buffer_pages = 8;
    cfg.base.dirty_flush_threshold = 1.0;
    cfg.base.log_reclaim_threshold = 1.0;
    auto bed = MakeShardedTestbed(cfg).value();
    auto tables = MakeTables(*bed);
    std::vector<std::vector<Rid>> rids(workers);
    for (uint32_t p = 0; p < workers; ++p) {
      bed->sharded->Submit(p, [&bed, &tables, &rids, p, workers] {
        for (int i = 0; i < 256 / int(workers); ++i) {
          auto t = bed->sharded->Begin(p);
          auto rid =
              bed->parts[p].db->Insert(t.id, tables[p], Tuple(1024, uint8_t(i)));
          ASSERT_TRUE(rid.ok());
          rids[p].push_back(rid.value());
          ASSERT_TRUE(bed->sharded->Commit(t).ok());
        }
      });
    }
    // One warm-up round absorbs the loader's leftover async chip backlog
    // (identical per chip at every worker count) into the epoch, so the
    // measured phase is pure sync-read latency.
    auto read_round = [&](uint32_t p) {
      auto t = bed->sharded->Begin(p);
      for (const Rid& rid : rids[p]) {
        ASSERT_TRUE(bed->parts[p].db->Read(t.id, rid).ok());
      }
      ASSERT_TRUE(bed->sharded->Commit(t).ok());
    };
    for (uint32_t p = 0; p < workers; ++p) {
      bed->sharded->Submit(p, [&read_round, p] { read_round(p); });
    }
    SimTime warmed = bed->sharded->EpochBarrier();

    for (uint32_t p = 0; p < workers; ++p) {
      bed->sharded->Submit(p, [&read_round, p] {
        read_round(p);
        read_round(p);
      });
    }
    return bed->sharded->EpochBarrier() - warmed;  // read-phase duration
  };
  SimTime one = run(1);
  SimTime four = run(4);
  EXPECT_LT(four * 2, one) << "4 workers should cut simulated read time >2x";
}

}  // namespace
}  // namespace ipa::engine
