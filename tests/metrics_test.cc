// Tests for the unified observability layer (src/common/metrics.h): sharded
// counter merge under concurrent writers, snapshot determinism independent of
// thread count, trace-span time attribution, the stable JSON schema
// round-trip, the CompareSnapshots regression check that backs
// tools/bench_compare, and the owners that publish their stats structs when
// they discard them. LatencyStats percentile edge cases ride along since
// bench tables lean on them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/stats.h"
#include "engine/database.h"
#include "flash/flash_array.h"
#include "ftl/noftl.h"
#include "ftl/page_ftl.h"
#include "net/admission.h"
#include "repl/node.h"
#include "workload/testbed.h"
#include "workload/tpcb.h"

namespace ipa::metrics {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Instance().ResetForTest(); }
  void TearDown() override { Registry::Instance().ResetForTest(); }
};

TEST_F(MetricsTest, CounterGaugeHistogramBasics) {
  Counter c("test.basics.counter");
  Gauge g("test.basics.gauge");
  Histogram h("test.basics.hist");

  c.Inc();
  c.Add(41);
  g.Set(-7);
  h.Record(0);
  h.Record(1);
  h.Record(1000);

  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("test.basics.counter"), 42u);

  const MetricValue* gv = snap.Find("test.basics.gauge");
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->type, Type::kGauge);
  EXPECT_EQ(gv->gauge, -7);

  const MetricValue* hv = snap.Find("test.basics.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->type, Type::kHistogram);
  EXPECT_EQ(hv->hist.count, 3u);
  EXPECT_EQ(hv->hist.sum, 1001u);
  EXPECT_EQ(hv->hist.max, 1000u);
  EXPECT_DOUBLE_EQ(hv->hist.Mean(), 1001.0 / 3.0);
}

TEST_F(MetricsTest, ReinternedHandleSharesCell) {
  Counter a("test.shared.cell");
  Counter b("test.shared.cell");
  a.Inc();
  b.Add(9);
  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("test.shared.cell"), 10u);
}

// Shard merge under concurrent writers: every thread writes through its own
// thread-local shard, threads retire at join, and the snapshot must see the
// exact global sum. Runs under the `tsan` ctest label.
TEST_F(MetricsTest, ConcurrentWritersMergeExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kIncrements = 20000;
  Counter c("test.concurrent.counter");
  Histogram h("test.concurrent.hist");

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    pool.emplace_back([&, t] {
      Counter local("test.concurrent.counter");  // re-intern on purpose
      for (uint64_t i = 0; i < kIncrements; i++) {
        (i % 2 ? c : local).Inc();
        h.Record(static_cast<uint64_t>(t) * kIncrements + i);
      }
    });
  }
  for (auto& th : pool) th.join();

  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("test.concurrent.counter"), kThreads * kIncrements);
  const MetricValue* hv = snap.Find("test.concurrent.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->hist.count, kThreads * kIncrements);
}

// A snapshot taken while writer threads are still live (shards not yet
// retired) must still fold their cells in.
TEST_F(MetricsTest, SnapshotSeesLiveShards) {
  Counter c("test.live.counter");
  std::atomic<bool> wrote{false};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    c.Add(5);
    wrote.store(true);
    while (!done.load()) std::this_thread::yield();
  });
  while (!wrote.load()) std::this_thread::yield();
  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("test.live.counter"), 5u);
  done.store(true);
  writer.join();
}

// The serialized snapshot must not depend on how work was spread over
// threads — the IPA_JOBS=1 vs IPA_JOBS=8 bit-identical contract.
TEST_F(MetricsTest, SnapshotJsonIndependentOfThreadCount) {
  auto run = [](unsigned jobs) {
    Registry::Instance().ResetForTest();
    Counter c("test.determinism.counter");
    Histogram h("test.determinism.hist");
    constexpr uint64_t kTotal = 24000;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < jobs; t++) {
      pool.emplace_back([&, t] {
        for (uint64_t i = t; i < kTotal; i += jobs) {
          c.Add(3);
          h.Record(i);
        }
      });
    }
    for (auto& th : pool) th.join();
    return Registry::Instance().TakeSnapshot().ToJson();
  };
  std::string one = run(1);
  std::string eight = run(8);
  EXPECT_EQ(one, eight);
}

TEST_F(MetricsTest, SpanAttributesSimTimeWithSelfExclusion) {
  SimClock clock;
  SpanSite outer_site("test.span.outer");
  SpanSite inner_site("test.span.inner");
  {
    ScopedSpan outer(outer_site, &clock);
    clock.Advance(10);
    {
      ScopedSpan inner(inner_site, &clock);
      clock.Advance(5);
    }
    clock.Advance(3);
  }
  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("trace.test.span.outer.calls"), 1u);
  EXPECT_EQ(snap.Counter("trace.test.span.outer.sim_us"), 18u);
  EXPECT_EQ(snap.Counter("trace.test.span.outer.self_us"), 13u);
  EXPECT_EQ(snap.Counter("trace.test.span.inner.calls"), 1u);
  EXPECT_EQ(snap.Counter("trace.test.span.inner.sim_us"), 5u);
  EXPECT_EQ(snap.Counter("trace.test.span.inner.self_us"), 5u);
}

TEST_F(MetricsTest, SpanWithoutClockCountsCallsOnly) {
  SpanSite site("test.span.noclock");
  { IPA_TRACE_SPAN("test.span.macro"); }
  { ScopedSpan s(site, nullptr); }
  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("trace.test.span.noclock.calls"), 1u);
  EXPECT_EQ(snap.Counter("trace.test.span.noclock.sim_us"), 0u);
  EXPECT_EQ(snap.Counter("trace.test.span.macro.calls"), 1u);
}

TEST_F(MetricsTest, JsonRoundTripPreservesSnapshot) {
  Counter c("test.roundtrip.counter");
  Gauge g("test.roundtrip.gauge");
  Histogram h("test.roundtrip.hist");
  c.Add(123456789);
  g.Set(-42);
  for (uint64_t v : {0ull, 1ull, 7ull, 4096ull, 1ull << 40}) h.Record(v);

  Snapshot snap = Registry::Instance().TakeSnapshot();
  Snapshot parsed;
  ASSERT_TRUE(ParseSnapshotJson(snap.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.metrics.size(), snap.metrics.size());
  EXPECT_EQ(parsed.ToJson(), snap.ToJson());

  CompareReport rep = CompareSnapshots(snap, parsed);
  EXPECT_TRUE(rep.ok()) << (rep.diffs.empty() ? "" : rep.diffs[0]);
}

TEST_F(MetricsTest, WriteSnapshotJsonFileRoundTrip) {
  Counter c("test.file.counter");
  c.Add(7);
  Snapshot snap = Registry::Instance().TakeSnapshot();

  std::string path =
      ::testing::TempDir() + "/metrics_test_roundtrip.json";
  ASSERT_TRUE(WriteSnapshotJson(snap, path));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  Snapshot parsed;
  ASSERT_TRUE(ParseSnapshotJson(text, &parsed).ok());
  EXPECT_EQ(parsed.Counter("test.file.counter"), 7u);
  EXPECT_FALSE(WriteSnapshotJson(snap, "/nonexistent-dir/metrics.json"));
}

TEST_F(MetricsTest, ParseRejectsGarbageAndWrongSchema) {
  Snapshot out;
  EXPECT_FALSE(ParseSnapshotJson("not json", &out).ok());
  EXPECT_FALSE(
      ParseSnapshotJson("{\"schema\": \"something-else\", \"metrics\": []}",
                        &out)
          .ok());
}

// The regression check behind tools/bench_compare: deterministic metrics
// diff exactly, histograms within a relative tolerance.
TEST_F(MetricsTest, CompareDetectsInjectedRegression) {
  Counter c("test.compare.counter");
  Histogram h("test.compare.hist");
  c.Add(100);
  for (uint64_t i = 0; i < 1000; i++) h.Record(i);
  Snapshot baseline = Registry::Instance().TakeSnapshot();

  Snapshot same = baseline;
  EXPECT_TRUE(CompareSnapshots(baseline, same).ok());

  // Injected counter regression: exact mismatch, always a diff.
  Snapshot worse = baseline;
  for (MetricValue& m : worse.metrics) {
    if (m.name == "test.compare.counter") m.value += 1;
  }
  CompareReport rep = CompareSnapshots(baseline, worse);
  EXPECT_FALSE(rep.ok());
  ASSERT_FALSE(rep.diffs.empty());
  EXPECT_NE(rep.diffs[0].find("test.compare.counter"), std::string::npos);

  // Histogram drift inside the tolerance passes, outside fails.
  Snapshot drift = baseline;
  for (MetricValue& m : drift.metrics) {
    if (m.name == "test.compare.hist") m.hist.sum += m.hist.sum / 50;  // +2%
  }
  EXPECT_TRUE(CompareSnapshots(baseline, drift, {.histogram_tolerance = 0.05})
                  .ok());
  EXPECT_FALSE(
      CompareSnapshots(baseline, drift, {.histogram_tolerance = 0.01}).ok());

  // A latency-max regression alone (count and mean unchanged) is a diff.
  Snapshot worse_max = baseline;
  for (MetricValue& m : worse_max.metrics) {
    if (m.name == "test.compare.hist") m.hist.max *= 2;
  }
  CompareReport max_rep = CompareSnapshots(baseline, worse_max);
  EXPECT_FALSE(max_rep.ok());
  ASSERT_FALSE(max_rep.diffs.empty());
  EXPECT_NE(max_rep.diffs[0].find("histogram max"), std::string::npos);
}

TEST_F(MetricsTest, CompareHandlesMissingNewAndIgnoredMetrics) {
  Counter a("test.compare2.a");
  Counter b("test.compare2.noise.b");
  a.Inc();
  b.Inc();
  Snapshot baseline = Registry::Instance().TakeSnapshot();

  // A metric present in the baseline but missing from the current run.
  Snapshot current = baseline;
  std::erase_if(current.metrics,
                [](const MetricValue& m) { return m.name == "test.compare2.a"; });
  EXPECT_FALSE(CompareSnapshots(baseline, current).ok());

  // New metrics are a note, not a failure. Snapshot::Find binary-searches,
  // so insertion must keep the name-sorted invariant.
  Snapshot extra = baseline;
  MetricValue nv;
  nv.name = "test.compare2.new";
  nv.value = 1;
  extra.metrics.insert(
      std::lower_bound(extra.metrics.begin(), extra.metrics.end(), nv.name,
                       [](const MetricValue& m, const std::string& n) {
                         return m.name < n;
                       }),
      nv);
  CompareReport rep = CompareSnapshots(baseline, extra);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.notes.empty());

  // Ignored prefixes suppress diffs entirely.
  Snapshot noisy = baseline;
  for (MetricValue& m : noisy.metrics) {
    if (m.name == "test.compare2.noise.b") m.value += 99;
  }
  EXPECT_FALSE(CompareSnapshots(baseline, noisy).ok());
  CompareOptions opts;
  opts.ignore_prefixes = {"test.compare2.noise."};
  EXPECT_TRUE(CompareSnapshots(baseline, noisy, opts).ok());
}

TEST_F(MetricsTest, HistogramValueMergeAndPercentiles) {
  HistogramValue a, b;
  a.count = 2;
  a.sum = 10;
  a.max = 8;
  a.buckets[4] = 2;  // two samples in [8, 15]
  b.count = 1;
  b.sum = 100;
  b.max = 100;
  b.buckets[7] = 1;  // one sample in [64, 127]
  a.Merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 110u);
  EXPECT_EQ(a.max, 100u);
  // p50 lands in the [8,15] bucket, p100 in the [64,127] bucket.
  EXPECT_EQ(a.PercentileUpperBound(50), 15u);
  EXPECT_EQ(a.PercentileUpperBound(100), 127u);

  HistogramValue empty;
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
  EXPECT_EQ(empty.PercentileUpperBound(99), 0u);

  // The last bucket (bit_width 64) is unbounded above; its upper bound must
  // saturate instead of computing 1<<64.
  HistogramValue top;
  top.count = 1;
  top.sum = UINT64_MAX;
  top.max = UINT64_MAX;
  top.buckets[64] = 1;
  EXPECT_EQ(top.PercentileUpperBound(100), UINT64_MAX);
}

// A name interned under one type must not hand that type's index to another
// type's accessor: the id spaces have different capacities, so doing so reads
// or writes out of bounds. The mismatched handle routes to a dead cell and
// the original metric keeps its value.
TEST_F(MetricsTest, TypeCollisionRoutesToDeadCell) {
  Counter c("test.typeclash.metric");
  c.Add(5);

  Histogram clash("test.typeclash.metric");
  clash.Record(123);  // dead cell: must not corrupt anything
  Gauge gclash("test.typeclash.metric");
  gclash.Set(-1);

  Snapshot snap = Registry::Instance().TakeSnapshot();
  const MetricValue* m = snap.Find("test.typeclash.metric");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->type, Type::kCounter);
  EXPECT_EQ(m->value, 5u);
}

// ---------------------------------------------------------------------------
// Owned counts: each owner publishes its stats struct when it discards it
// ---------------------------------------------------------------------------

// An owner that publishes in its destructor must be neither copyable nor
// movable: a copy, or a moved-from shell, would publish the counts twice.
template <typename T>
constexpr bool kPinned = !std::is_copy_constructible_v<T> && !std::is_copy_assignable_v<T> &&
                         !std::is_move_constructible_v<T> && !std::is_move_assignable_v<T>;
static_assert(kPinned<flash::FlashArray>);
static_assert(kPinned<ftl::NoFtl>);
static_assert(kPinned<ftl::PageFtl>);
static_assert(kPinned<engine::BufferPool>);
static_assert(kPinned<engine::Database>);
static_assert(kPinned<engine::Wal>);
static_assert(kPinned<repl::ReplNode>);
static_assert(kPinned<net::AdmissionController>);

// The bench harness's measurement phase: a TPC-B stack is reset after its
// warm-up (bench/harness.cc) and destroyed after the run. Every published
// counter must then hold exactly the struct value read before the reset plus
// the value read before destruction: no event lost, none counted twice.
TEST_F(MetricsTest, OwnersPublishEachCountOnceAtResetAndDestruction) {
  workload::TpcbConfig wc;
  wc.accounts_per_branch = 1000;
  workload::Tpcb sizing(nullptr, wc, workload::SingleTablespace(0));
  workload::TestbedConfig tc;
  tc.db_pages = sizing.EstimatedPages(4096);
  tc.scheme = {.n = 2, .m = 4, .v = 12};
  tc.growth_headroom = 8.0;  // room for the history table until GC starts
  auto built = workload::MakeTestbed(tc);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<workload::Testbed> bed = std::move(built).value();
  workload::Tpcb tpcb(bed->db.get(), wc, bed->ts_map());
  ASSERT_TRUE(tpcb.Load().ok());
  ASSERT_TRUE(bed->db->Checkpoint().ok());
  ASSERT_TRUE(workload::RunTransactions(tpcb, 4000).ok());

  const ftl::RegionStats region0 = bed->backend_stats();
  const engine::BufferStats buffer0 = bed->db->buffer_pool().stats();
  const engine::TxnStats txn0 = bed->db->txn_stats();
  bed->ResetBackendStats();
  bed->db->buffer_pool().ResetStats();
  bed->db->ResetTxnStats();
  // Reset published what it discarded; the live owners hold the rest.
  EXPECT_EQ(Registry::Instance().TakeSnapshot().Counter("db.commits"), txn0.commits);
  EXPECT_EQ(Registry::Instance().TakeSnapshot().Find("flash.page_reads"), nullptr);

  ASSERT_TRUE(workload::RunTransactions(tpcb, 3000).ok());
  ASSERT_TRUE(bed->db->Checkpoint().ok());
  const ftl::RegionStats region1 = bed->backend_stats();
  const engine::BufferStats buffer1 = bed->db->buffer_pool().stats();
  const engine::TxnStats txn1 = bed->db->txn_stats();
  const engine::WalStats wal = bed->db->wal().stats();
  const uint64_t checkpoints = bed->db->checkpoints_taken();
  const flash::DeviceStats dev = bed->dev->AggregateStats();
  bed.reset();

  Snapshot snap = Registry::Instance().TakeSnapshot();
  auto expect = [&snap](const std::string& name, uint64_t want) {
    const MetricValue* m = snap.Find(name);
    ASSERT_NE(m, nullptr) << name << " was not published";
    EXPECT_EQ(m->value, want) << name;
  };
  for (const auto& f : flash::kDeviceStatFields) {
    if (f.metric) expect(f.metric, dev.*f.field);
  }
  for (const auto& f : ftl::kRegionStatFields) {
    if (f.noftl) expect(std::string("ftl.") + f.noftl, region0.*f.field + region1.*f.field);
  }
  auto map_updates = [](const ftl::RegionStats& s) {
    return s.host_page_writes + s.gc_page_migrations + s.wear_level_migrations +
           s.torn_pages_quarantined + s.trims;
  };
  expect("ftl.map_updates", map_updates(region0) + map_updates(region1));
  for (const auto& f : engine::kBufferStatFields) {
    expect(f.metric, buffer0.*f.field + buffer1.*f.field);
  }
  for (const auto& f : engine::kTxnStatFields) expect(f.metric, txn0.*f.field + txn1.*f.field);
  for (const auto& f : engine::kWalStatFields) expect(f.metric, wal.*f.field);
  expect("db.checkpoints", checkpoints);

  // Both sides of the reset reached both write paths, GC and the cleaner.
  for (const ftl::RegionStats* s : {&region0, &region1}) {
    EXPECT_GT(s->host_page_writes, 0u);
    EXPECT_GT(s->host_delta_writes, 0u);
    EXPECT_GT(s->gc_page_migrations, 0u);
    EXPECT_GT(s->gc_erases, 0u);
  }
  EXPECT_GT(buffer0.cleaner_runs, 0u);
  EXPECT_GT(buffer1.cleaner_runs, 0u);
  EXPECT_GT(wal.bytes_truncated, 0u);
}

// LatencyStats (common/stats.h) percentile edge cases: the bench tables rely
// on its linear-below-1ms / logarithmic-above bucketing.
TEST(LatencyStatsTest, PercentileEdgeCases) {
  LatencyStats empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.MeanMicros(), 0.0);
  EXPECT_EQ(empty.PercentileMicros(50), 0u);

  LatencyStats one;
  one.Add(17);
  EXPECT_EQ(one.PercentileMicros(0), 17u);
  EXPECT_EQ(one.PercentileMicros(50), 17u);
  EXPECT_EQ(one.PercentileMicros(100), 17u);
  EXPECT_EQ(one.MaxMicros(), 17u);

  // Linear region (<1ms) is exact.
  LatencyStats lin;
  for (uint64_t v = 1; v <= 100; v++) lin.Add(v);
  EXPECT_EQ(lin.PercentileMicros(50), 50u);
  EXPECT_EQ(lin.PercentileMicros(99), 99u);
  EXPECT_EQ(lin.PercentileMicros(100), 100u);

  // Log region (>=1ms): the reported percentile is the power-of-two bucket's
  // lower bound — within 2x below the true value. Max is tracked exactly.
  LatencyStats log;
  log.Add(5000);
  log.Add(50000);
  EXPECT_GE(log.PercentileMicros(100), 25000u);
  EXPECT_LE(log.PercentileMicros(100), 50000u);
  EXPECT_EQ(log.MaxMicros(), 50000u);
  EXPECT_GE(log.PercentileMicros(40), 2500u);
  EXPECT_LE(log.PercentileMicros(40), 5000u);

  // Merge preserves count/sum/max.
  LatencyStats m;
  m.Merge(one);
  m.Merge(log);
  EXPECT_EQ(m.count(), 3u);
  EXPECT_EQ(m.MaxMicros(), 50000u);
}

}  // namespace
}  // namespace ipa::metrics
