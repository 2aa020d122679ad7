// Property tests: randomized workloads with crashes at random points.
//
// A reference model (std::map of committed tuples) tracks what a correct
// database must contain. The engine runs random transactions — insert,
// small update, resize, delete, commit or abort — over IPA-enabled pages
// with random crash points; after every Recover() the engine's contents
// must equal the reference exactly.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "workload/testbed.h"

namespace ipa::engine {
namespace {

struct Fixture {
  explicit Fixture(uint32_t buffer_pages, storage::Scheme scheme)
      : stack(workload::Build(Spec(buffer_pages, scheme)).value()) {}

  static workload::StackSpec Spec(uint32_t buffer_pages, storage::Scheme scheme) {
    workload::StackSpec spec;
    spec.geometry = {.channels = 2,
                     .chips_per_channel = 2,
                     .blocks_per_chip = 96,
                     .pages_per_block = 32};
    ftl::RegionConfig rc{
        .name = "fuzz",
        .logical_pages = 4096,
        .ipa_mode = scheme.enabled() ? ftl::IpaMode::kSlc : ftl::IpaMode::kOff};
    spec.regions.push_back({rc, "t", scheme, {"fuzz"}});
    spec.engine.buffer_pages = buffer_pages;
    spec.engine.log_capacity_bytes = 8 << 20;
    spec.engine.log_reclaim_threshold = 0.5;
    return spec;
  }

  std::unique_ptr<workload::Stack> stack;
  std::unique_ptr<Database>& db = stack->db;
  TableId table = stack->parts[0].tables[0];
};

using Reference = std::map<uint64_t, std::vector<uint8_t>>;  // rid.Pack -> bytes

void VerifyAgainstReference(Database& db, TableId table, const Reference& ref) {
  // Every committed tuple present with exact content; nothing extra.
  Reference found;
  ASSERT_TRUE(db.Scan(table, [&](Rid rid, std::span<const uint8_t> t) {
                  found[rid.Pack()] = {t.begin(), t.end()};
                  return true;
                })
                  .ok());
  ASSERT_EQ(found.size(), ref.size());
  for (const auto& [key, bytes] : ref) {
    auto it = found.find(key);
    ASSERT_NE(it, found.end()) << "missing rid " << key;
    ASSERT_EQ(it->second, bytes) << "content mismatch at rid " << key;
  }
}

class CrashFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CrashFuzz, RandomOpsWithCrashesMatchReference) {
  uint64_t seed = 1000 + GetParam();
  Rng rng(seed);
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  Fixture fx(/*buffer_pages=*/24, scheme);  // tiny pool: constant steal
  Reference committed;

  for (int txn_round = 0; txn_round < 350; txn_round++) {
    TxnId txn = fx.db->Begin();
    Reference local = committed;  // what this txn will commit
    bool ok = true;
    int ops = 1 + static_cast<int>(rng.Uniform(5));
    for (int op = 0; op < ops && ok; op++) {
      double p = rng.NextDouble();
      if (p < 0.4 || local.empty()) {
        // Insert.
        std::vector<uint8_t> t(20 + rng.Uniform(120));
        for (auto& b : t) b = static_cast<uint8_t>(rng.Next());
        auto rid = fx.db->Insert(txn, fx.table, t);
        ASSERT_TRUE(rid.ok()) << rid.status().ToString();
        local[rid.value().Pack()] = t;
      } else {
        // Pick a random existing tuple.
        auto it = local.begin();
        std::advance(it, static_cast<long>(rng.Uniform(local.size())));
        Rid rid = Rid::Unpack(it->first);
        if (p < 0.75) {
          // Small in-place update (1-3 bytes).
          uint32_t len = 1 + static_cast<uint32_t>(rng.Uniform(3));
          uint32_t off = static_cast<uint32_t>(
              rng.Uniform(it->second.size() - len + 1));
          std::vector<uint8_t> patch(len);
          for (auto& b : patch) b = static_cast<uint8_t>(rng.Next());
          ASSERT_TRUE(fx.db->Update(txn, rid, off, patch).ok());
          std::copy(patch.begin(), patch.end(), it->second.begin() + off);
        } else if (p < 0.9) {
          // Resize.
          std::vector<uint8_t> t(20 + rng.Uniform(160));
          for (auto& b : t) b = static_cast<uint8_t>(rng.Next());
          Status s = fx.db->UpdateResize(txn, rid, t);
          if (s.IsOutOfSpace()) continue;  // page-bound grow: skip op
          ASSERT_TRUE(s.ok()) << s.ToString();
          it->second = t;
        } else {
          // Delete.
          ASSERT_TRUE(fx.db->Delete(txn, rid).ok());
          local.erase(it);
        }
      }
    }

    double outcome = rng.NextDouble();
    if (outcome < 0.70) {
      ASSERT_TRUE(fx.db->Commit(txn).ok());
      committed = std::move(local);
    } else if (outcome < 0.85) {
      ASSERT_TRUE(fx.db->Abort(txn).ok());
    } else {
      // Crash mid-transaction (sometimes with dirty stolen pages).
      if (rng.Chance(0.5)) {
        ASSERT_TRUE(fx.db->buffer_pool().FlushAll().ok());
      }
      fx.db->SimulateCrash();
      ASSERT_TRUE(fx.db->Recover().ok());
      VerifyAgainstReference(*fx.db, fx.table, committed);
    }

    if (txn_round % 37 == 36) {
      ASSERT_TRUE(fx.db->Checkpoint().ok());
    }
  }

  // Final crash + recovery, then full verification.
  fx.db->SimulateCrash();
  ASSERT_TRUE(fx.db->Recover().ok());
  VerifyAgainstReference(*fx.db, fx.table, committed);
  EXPECT_GT(committed.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzz, ::testing::Range(0, 8));

TEST(RecoveryEdgeTest, CrashDuringLoadThenRecoverEmpty) {
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  Fixture fx(16, scheme);
  TxnId txn = fx.db->Begin();
  for (int i = 0; i < 50; i++) {
    std::vector<uint8_t> t(100, static_cast<uint8_t>(i));
    ASSERT_TRUE(fx.db->Insert(txn, fx.table, t).ok());
  }
  // No commit; crash.
  fx.db->SimulateCrash();
  ASSERT_TRUE(fx.db->Recover().ok());
  int count = 0;
  ASSERT_TRUE(fx.db->Scan(fx.table, [&](Rid, std::span<const uint8_t>) {
                  count++;
                  return true;
                }).ok());
  EXPECT_EQ(count, 0);
}

TEST(RecoveryEdgeTest, CrashDuringRecoveryIsRestartable) {
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  Fixture fx(16, scheme);
  TxnId a = fx.db->Begin();
  std::vector<uint8_t> t(80, 0x42);
  auto rid = fx.db->Insert(a, fx.table, t);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(fx.db->Commit(a).ok());
  TxnId b = fx.db->Begin();
  uint8_t patch[2] = {1, 2};
  ASSERT_TRUE(fx.db->Update(b, rid.value(), 0, patch).ok());
  ASSERT_TRUE(fx.db->buffer_pool().FlushAll().ok());
  fx.db->SimulateCrash();
  ASSERT_TRUE(fx.db->Recover().ok());
  // Crash immediately after recovery (its CLRs are in the log now).
  fx.db->SimulateCrash();
  ASSERT_TRUE(fx.db->Recover().ok());
  TxnId check = fx.db->Begin();
  auto read = fx.db->Read(check, rid.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), t);
  ASSERT_TRUE(fx.db->Commit(check).ok());
}

}  // namespace
}  // namespace ipa::engine
