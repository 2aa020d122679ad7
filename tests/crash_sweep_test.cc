// End-to-end power-loss sweep: re-executes a TPC-B style workload with a
// crash injected at every recorded mutating flash op, then checks that
// recovery preserves exactly the committed transactions and never serves a
// torn delta. See docs/CRASH_TESTING.md for the injection model.

#include "bench/crash_sweep.h"

#include <gtest/gtest.h>

#include <utility>

namespace ipa {
namespace bench {
namespace {

CrashSweepConfig SmallConfig() {
  CrashSweepConfig cfg;
  cfg.txns = 40;
  cfg.accounts = 32;
  cfg.max_points = 160;
  cfg.seed = 42;
  cfg.scale_with_env = false;  // deterministic regardless of IPA_SCALE
  return cfg;
}

// Raw fixed-slot appends, and the byte codec whose variable-length
// compressed records a torn program must leave quarantined, not decoded.
TEST(CrashSweep, EveryInjectionPointRecovers) {
  const std::pair<storage::DeltaCodec, uint32_t> kCodecs[] = {
      {storage::DeltaCodec::kRaw, 4293142694u},
      {storage::DeltaCodec::kDeltaCompress, 1947486183u},
  };
  for (const auto& [codec, fingerprint] : kCodecs) {
    SCOPED_TRACE(storage::DeltaCodecName(codec));
    CrashSweepConfig cfg = SmallConfig();
    cfg.codec = codec;
    auto result = RunCrashSweep(cfg);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const CrashSweepReport& rep = result.value();

    ASSERT_GT(rep.total_ops, 0u);
    ASSERT_FALSE(rep.points.empty());
    for (const CrashSweepPoint& p : rep.points) {
      EXPECT_TRUE(p.ok) << "inject_at=" << p.inject_at << ": " << p.error;
    }
    EXPECT_EQ(rep.failures, 0u);
    // Most points hit an op the workload actually issues, so power loss
    // fires.
    EXPECT_GT(rep.crashes, 0u);

    // The sweep must exercise the torn-write detection path, not just clean
    // crashes: at least one point should drop torn bytes or quarantine a
    // page.
    uint64_t torn_bytes = 0, quarantined = 0;
    for (const CrashSweepPoint& p : rep.points) {
      torn_bytes += p.torn_bytes;
      quarantined += p.quarantined;
    }
    EXPECT_GT(torn_bytes + quarantined, 0u);
    EXPECT_EQ(rep.Fingerprint(), fingerprint);
  }
}

// Same sweep behind the conventional page-mapping FTL: crashes tear host
// programs, GC migrations, lazy block erases and OOB reverse-map entries
// instead of delta appends, and Mount() rebuilds the L2P map from media.
TEST(CrashSweep, PageFtlEveryInjectionPointRecovers) {
  CrashSweepConfig cfg = SmallConfig();
  cfg.backend = workload::Backend::kPageFtlCostBenefit;
  auto result = RunCrashSweep(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CrashSweepReport& rep = result.value();

  ASSERT_GT(rep.total_ops, 0u);
  for (const CrashSweepPoint& p : rep.points) {
    EXPECT_TRUE(p.ok) << "inject_at=" << p.inject_at << ": " << p.error;
  }
  EXPECT_EQ(rep.failures, 0u);
  EXPECT_GT(rep.crashes, 0u);

  // Page-FTL crash handling has no torn deltas to drop (write_delta is
  // structurally impossible); detection shows up as quarantined pages whose
  // OOB entry committed before the body.
  uint64_t torn_bytes = 0, quarantined = 0;
  for (const CrashSweepPoint& p : rep.points) {
    torn_bytes += p.torn_bytes;
    quarantined += p.quarantined;
  }
  EXPECT_EQ(torn_bytes, 0u);
  EXPECT_GT(quarantined, 0u);
  EXPECT_EQ(rep.Fingerprint(), 690492440u);
}

TEST(CrashSweep, PageFtlDeterministicAcrossJobCounts) {
  CrashSweepConfig cfg = SmallConfig();
  cfg.backend = workload::Backend::kPageFtlGreedy;
  cfg.max_points = 96;

  cfg.jobs = 1;
  auto serial = RunCrashSweep(cfg);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  cfg.jobs = 8;
  auto parallel = RunCrashSweep(cfg);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial.value().Fingerprint(), parallel.value().Fingerprint());
  EXPECT_EQ(serial.value().Fingerprint(), 3782988911u);
  EXPECT_EQ(serial.value().failures, 0u);
}

TEST(CrashSweep, DeterministicAcrossJobCounts) {
  CrashSweepConfig cfg = SmallConfig();
  cfg.max_points = 96;

  cfg.jobs = 1;
  auto serial = RunCrashSweep(cfg);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  cfg.jobs = 8;
  auto parallel = RunCrashSweep(cfg);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  const CrashSweepReport& a = serial.value();
  const CrashSweepReport& b = parallel.value();
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); i++) {
    EXPECT_EQ(a.points[i].inject_at, b.points[i].inject_at);
    EXPECT_EQ(a.points[i].crashed, b.points[i].crashed);
    EXPECT_EQ(a.points[i].ok, b.points[i].ok);
    EXPECT_EQ(a.points[i].commits, b.points[i].commits);
    EXPECT_EQ(a.points[i].torn_bytes, b.points[i].torn_bytes);
    EXPECT_EQ(a.points[i].quarantined, b.points[i].quarantined);
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), 762142446u);
}

// ---------------------------------------------------------------------------
// Replicated sweep (CrashSweepConfig::repl): power cuts at every apply-side
// flash op on the replica, torn-delivery + primary power cut at every
// shipment boundary, byte-exact convergence verification per point.
// ---------------------------------------------------------------------------

CrashSweepConfig SmallReplConfig() {
  CrashSweepConfig cfg;
  cfg.txns = 24;
  cfg.accounts = 24;
  cfg.max_points = 72;
  cfg.seed = 42;
  cfg.scale_with_env = false;
  cfg.repl = true;
  return cfg;
}

TEST(ReplSweep, EveryPointConverges) {
  auto result = RunCrashSweep(SmallReplConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CrashSweepReport& rep = result.value();

  ASSERT_GT(rep.total_ops, 0u);
  ASSERT_GT(rep.shipments, 0u);
  ASSERT_FALSE(rep.points.empty());
  uint64_t replica_points = 0, shipment_points = 0;
  for (const CrashSweepPoint& p : rep.points) {
    EXPECT_TRUE(p.ok) << (p.shipment ? "shipment " : "apply-op ")
                      << p.inject_at << ": " << p.error;
    EXPECT_TRUE(p.crashed) << (p.shipment ? "shipment " : "apply-op ")
                           << p.inject_at << " never engaged";
    (p.shipment ? shipment_points : replica_points)++;
  }
  EXPECT_EQ(rep.failures, 0u);
  // The subsample must preserve the mix: both drill kinds exercised.
  EXPECT_GT(replica_points, 0u);
  EXPECT_GT(shipment_points, 0u);
  EXPECT_EQ(rep.Fingerprint(), 351856204u);
}

TEST(ReplSweep, DeterministicAcrossJobCounts) {
  CrashSweepConfig cfg = SmallReplConfig();
  cfg.max_points = 48;

  cfg.jobs = 1;
  auto serial = RunCrashSweep(cfg);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  cfg.jobs = 8;
  auto parallel = RunCrashSweep(cfg);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  const CrashSweepReport& a = serial.value();
  const CrashSweepReport& b = parallel.value();
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); i++) {
    EXPECT_EQ(a.points[i].shipment, b.points[i].shipment);
    EXPECT_EQ(a.points[i].inject_at, b.points[i].inject_at);
    EXPECT_EQ(a.points[i].crashed, b.points[i].crashed);
    EXPECT_EQ(a.points[i].ok, b.points[i].ok);
    EXPECT_EQ(a.points[i].commits, b.points[i].commits);
    EXPECT_EQ(a.points[i].frames, b.points[i].frames);
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), 726479903u);
  EXPECT_EQ(a.failures, 0u);
}

// With no accounts the workload has no rid to update: both modes refuse the
// config instead of dividing by zero in the update-key draw.
TEST(CrashSweep, ZeroAccountsIsInvalidArgument) {
  for (CrashSweepConfig cfg : {SmallConfig(), SmallReplConfig()}) {
    SCOPED_TRACE(cfg.repl ? "replicated" : "single node");
    cfg.accounts = 0;
    auto result = RunCrashSweep(cfg);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
  }
}

}  // namespace
}  // namespace bench
}  // namespace ipa
