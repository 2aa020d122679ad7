// Tests for the unified observability layer (src/common/metrics.h): exact
// merge under concurrent publishers, snapshot determinism independent of
// thread count, trace-span time attribution, the stable JSON schema
// round-trip, the CompareSnapshots regression check that backs
// tools/bench_compare, and the owners (stacks and workload drivers) that
// publish their counts when they discard them. LatencyStats percentile edge
// cases ride along since bench tables lean on them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/stats.h"
#include "engine/database.h"
#include "flash/flash_array.h"
#include "ftl/noftl.h"
#include "ftl/page_ftl.h"
#include "net/admission.h"
#include "published.h"
#include "repl/node.h"
#include "workload/linkbench.h"
#include "workload/tatp.h"
#include "workload/testbed.h"
#include "workload/tpcb.h"
#include "workload/tpcc.h"
#include "workload/tpch_lite.h"

namespace ipa::metrics {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Instance().ResetForTest(); }
  void TearDown() override { Registry::Instance().ResetForTest(); }
};

LatencyStats Latencies(std::initializer_list<uint64_t> samples) {
  LatencyStats h;
  for (uint64_t v : samples) h.Add(v);
  return h;
}

TEST_F(MetricsTest, CounterGaugeHistogramBasics) {
  AddCounter("test.basics.counter", 1);
  AddCounter("test.basics.counter", 41);  // adds up
  SetGauge("test.basics.gauge", 3);
  SetGauge("test.basics.gauge", -7);  // last write wins
  PublishHistogram("test.basics.hist", Latencies({0, 1}));
  PublishHistogram("test.basics.hist", Latencies({1000}));  // merges

  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("test.basics.counter"), 42u);
  EXPECT_FALSE(snap.Find("test.basics.counter")->hist.has_value());

  const MetricValue* gv = snap.Find("test.basics.gauge");
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->type, Type::kGauge);
  EXPECT_EQ(gv->gauge, -7);
  EXPECT_FALSE(gv->hist.has_value());

  const MetricValue* hv = snap.Find("test.basics.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->type, Type::kHistogram);
  ASSERT_TRUE(hv->hist.has_value());
  EXPECT_EQ(hv->hist->count(), 3u);
  EXPECT_EQ(hv->hist->sum(), 1001u);
  EXPECT_EQ(hv->hist->MaxMicros(), 1000u);
  EXPECT_DOUBLE_EQ(hv->hist->MeanMicros(), 1001.0 / 3.0);
}

// Every way of publishing a counter lands in the one cell its name holds:
// AddCounter, several counters under one lock, and an owner's stats struct.
TEST_F(MetricsTest, ReinternedHandleSharesCell) {
  struct Owned {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  static constexpr StatField<Owned> kOwnedFields[] = {
      {&Owned::hits, "test.shared.cell"},
      {&Owned::misses, nullptr},  // unpublished field
  };
  AddCounter("test.shared.cell", 1);
  Registry::Instance().AddCounters({{"test.shared.cell", 2}, {"test.shared.other", 5}});
  PublishStats(Owned{.hits = 7, .misses = 100}, kOwnedFields);

  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("test.shared.cell"), 10u);
  EXPECT_EQ(snap.Counter("test.shared.other"), 5u);
  EXPECT_EQ(snap.metrics.size(), 2u);
}

// Concurrent publishers: every thread publishes a counter, a histogram and a
// span every 1000 samples while another thread takes snapshots, and the
// final snapshot must see the exact global sums. Runs under the `tsan` ctest
// label.
TEST_F(MetricsTest, ConcurrentWritersMergeExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kIncrements = 20000;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) (void)Registry::Instance().TakeSnapshot();
  });
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    pool.emplace_back([t] {
      SimClock clock;
      LatencyStats h;
      for (uint64_t i = 0; i < kIncrements; i++) {
        h.Add(static_cast<uint64_t>(t) * kIncrements + i);
        if ((i + 1) % 1000 == 0) {
          AddCounter("test.concurrent.counter", 1000);
          PublishHistogram("test.concurrent.hist", h);
          h.Reset();
          ScopedSpan span("test.concurrent.span", &clock);
          clock.Advance(2);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  done.store(true);
  reader.join();

  constexpr uint64_t kSamples = kThreads * kIncrements;
  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("test.concurrent.counter"), kSamples);
  const MetricValue* hv = snap.Find("test.concurrent.hist");
  ASSERT_NE(hv, nullptr);
  ASSERT_TRUE(hv->hist.has_value());
  EXPECT_EQ(hv->hist->count(), kSamples);
  EXPECT_EQ(hv->hist->sum(), kSamples * (kSamples - 1) / 2);  // 0..kSamples-1
  EXPECT_EQ(hv->hist->MaxMicros(), kSamples - 1);
  constexpr uint64_t kSpans = kSamples / 1000;
  EXPECT_EQ(snap.Counter("trace.test.concurrent.span.calls"), kSpans);
  EXPECT_EQ(snap.Counter("trace.test.concurrent.span.sim_us"), 2 * kSpans);
  EXPECT_EQ(snap.Counter("trace.test.concurrent.span.self_us"), 2 * kSpans);
}

// The serialized snapshot must not depend on how work was spread over
// threads — the IPA_JOBS=1 vs IPA_JOBS=8 bit-identical contract.
TEST_F(MetricsTest, SnapshotJsonIndependentOfThreadCount) {
  auto run = [](unsigned jobs) {
    Registry::Instance().ResetForTest();
    constexpr uint64_t kTotal = 24000;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < jobs; t++) {
      pool.emplace_back([jobs, t] {
        LatencyStats h;
        uint64_t count = 0;
        for (uint64_t i = t; i < kTotal; i += jobs) {
          count += 3;
          h.Add(i);
        }
        AddCounter("test.determinism.counter", count);
        PublishHistogram("test.determinism.hist", h);
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
  {
    ScopedSpan outer("test.span.outer", &clock);
    clock.Advance(10);
    {
      ScopedSpan inner("test.span.inner", &clock);
      clock.Advance(5);
      // A span publishes when it closes, not before.
      EXPECT_EQ(Registry::Instance().TakeSnapshot().Find("trace.test.span.inner.calls"),
                nullptr);
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
  { ScopedSpan s("test.span.noclock", nullptr); }
  { ScopedSpan s("test.span.noclock", nullptr); }
  Snapshot snap = Registry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.Counter("trace.test.span.noclock.calls"), 2u);
  // Both time names are published, at 0.
  ASSERT_NE(snap.Find("trace.test.span.noclock.sim_us"), nullptr);
  ASSERT_NE(snap.Find("trace.test.span.noclock.self_us"), nullptr);
  EXPECT_EQ(snap.Counter("trace.test.span.noclock.sim_us"), 0u);
  EXPECT_EQ(snap.Counter("trace.test.span.noclock.self_us"), 0u);
}

TEST_F(MetricsTest, JsonRoundTripPreservesSnapshot) {
  AddCounter("test.roundtrip.counter", 123456789);
  SetGauge("test.roundtrip.gauge", -42);
  // Samples below 1 ms land in 1 us buckets, the rest in power-of-two ms ones.
  const LatencyStats h = Latencies({0, 1, 7, 7, 999, 4096, 1ull << 40});
  PublishHistogram("test.roundtrip.hist", h);

  Snapshot snap = Registry::Instance().TakeSnapshot();
  std::string json = snap.ToJson();
  // 4096 us is in [4 ms, 8 ms): bucket 1000 + 2.
  EXPECT_NE(json.find("\"buckets\": [[0, 1], [1, 1], [7, 2], [999, 1], [1002, 1], "),
            std::string::npos)
      << json;
  Snapshot parsed;
  ASSERT_TRUE(ParseSnapshotJson(json, &parsed).ok());
  EXPECT_EQ(parsed.metrics.size(), snap.metrics.size());
  EXPECT_EQ(parsed.ToJson(), json);
  const MetricValue* hv = parsed.Find("test.roundtrip.hist");
  ASSERT_NE(hv, nullptr);
  ASSERT_TRUE(hv->hist.has_value());
  EXPECT_EQ(Describe(*hv->hist), Describe(h));

  CompareReport rep = CompareSnapshots(snap, parsed);
  EXPECT_TRUE(rep.ok()) << (rep.diffs.empty() ? "" : rep.diffs[0]);
}

TEST_F(MetricsTest, WriteSnapshotJsonFileRoundTrip) {
  AddCounter("test.file.counter", 7);
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

  auto parse_metric = [&out](const std::string& metric) {
    return ParseSnapshotJson(
        "{\"schema\": \"ipa-metrics-v1\", \"metrics\": [" + metric + "]}", &out);
  };
  // A number needs a digit: a lone '-' must not read as 0.
  EXPECT_TRUE(parse_metric(R"({"name": "c", "type": "counter", "value": 0})").ok());
  EXPECT_FALSE(parse_metric(R"({"name": "c", "type": "counter", "value": -})").ok());
  EXPECT_FALSE(parse_metric(R"({"name": "g", "type": "gauge", "value": -})").ok());
  // Bucket indexes stop at LatencyStats::kBuckets.
  auto histogram = [](size_t bucket) {
    return R"({"name": "h", "type": "histogram", "count": 1, "sum": 1, "max": 1, )"
           R"("buckets": [[)" + std::to_string(bucket) + ", 1]]}";
  };
  EXPECT_TRUE(parse_metric(histogram(LatencyStats::kBuckets - 1)).ok());
  EXPECT_EQ(out.metrics[0].hist->bucket(LatencyStats::kBuckets - 1), 1u);
  EXPECT_FALSE(parse_metric(histogram(LatencyStats::kBuckets)).ok());
}

/// `h` with its sum and max replaced, as a doctored snapshot file carries it.
LatencyStats WithSumAndMax(const LatencyStats& h, uint64_t sum, uint64_t max) {
  std::vector<std::pair<size_t, uint64_t>> buckets;
  for (size_t b = 0; b < LatencyStats::kBuckets; b++) {
    if (h.bucket(b) != 0) buckets.emplace_back(b, h.bucket(b));
  }
  return LatencyStats::FromParts(h.count(), sum, max, buckets);
}

// The regression check behind tools/bench_compare: deterministic metrics
// diff exactly, histograms within a relative tolerance.
TEST_F(MetricsTest, CompareDetectsInjectedRegression) {
  AddCounter("test.compare.counter", 100);
  LatencyStats h;
  for (uint64_t i = 0; i < 1000; i++) h.Add(i);
  PublishHistogram("test.compare.hist", h);
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
    if (m.name == "test.compare.hist") {
      m.hist = WithSumAndMax(*m.hist, h.sum() + h.sum() / 50, h.MaxMicros());  // +2%
    }
  }
  EXPECT_TRUE(CompareSnapshots(baseline, drift, {.histogram_tolerance = 0.05})
                  .ok());
  EXPECT_FALSE(
      CompareSnapshots(baseline, drift, {.histogram_tolerance = 0.01}).ok());

  // A latency-max regression alone (count and mean unchanged) is a diff.
  Snapshot worse_max = baseline;
  for (MetricValue& m : worse_max.metrics) {
    if (m.name == "test.compare.hist") m.hist = WithSumAndMax(*m.hist, h.sum(), 2 * h.MaxMicros());
  }
  CompareReport max_rep = CompareSnapshots(baseline, worse_max);
  EXPECT_FALSE(max_rep.ok());
  ASSERT_FALSE(max_rep.diffs.empty());
  EXPECT_NE(max_rep.diffs[0].find("histogram max"), std::string::npos);
}

TEST_F(MetricsTest, CompareHandlesMissingNewAndIgnoredMetrics) {
  AddCounter("test.compare2.a", 1);
  AddCounter("test.compare2.noise.b", 1);
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

// The registry's histogram value is a LatencyStats: two publishes under one
// name merge, and percentiles read the merged buckets.
TEST_F(MetricsTest, HistogramValueMergeAndPercentiles) {
  PublishHistogram("test.histmerge.hist", Latencies({8, 8}));  // two samples in the 8 us bucket
  PublishHistogram("test.histmerge.hist", Latencies({100000}));  // one in [64 ms, 128 ms)

  Snapshot snap = Registry::Instance().TakeSnapshot();
  const MetricValue* hv = snap.Find("test.histmerge.hist");
  ASSERT_NE(hv, nullptr);
  ASSERT_TRUE(hv->hist.has_value());
  const LatencyStats& h = *hv->hist;
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 100016u);
  EXPECT_EQ(h.MaxMicros(), 100000u);
  // p50 lands in the 8 us bucket, p100 at the lower bound of [64 ms, 128 ms).
  EXPECT_EQ(h.PercentileMicros(50), 8u);
  EXPECT_EQ(h.PercentileMicros(100), 64000u);

  // The largest sample's percentile is its power-of-two bucket's lower
  // bound, which must not overflow (a wrapped product would be small).
  LatencyStats top;
  top.Add(UINT64_MAX);
  EXPECT_EQ(top.MaxMicros(), UINT64_MAX);
  EXPECT_EQ(top.sum(), UINT64_MAX);
  EXPECT_GT(top.PercentileMicros(100), UINT64_MAX / 2);
}

// A name keeps the type of its first publication: a publication of another
// type under that name is dropped (with a one-time warning) and the original
// metric keeps its value.
TEST_F(MetricsTest, TypeCollisionDropsThePublication) {
  AddCounter("test.typeclash.metric", 5);

  // Dropped: must not corrupt anything.
  PublishHistogram("test.typeclash.metric", Latencies({123}));
  SetGauge("test.typeclash.metric", -1);

  // And the other way round: a histogram keeps its samples.
  PublishHistogram("test.typeclash.hist", Latencies({7}));
  AddCounter("test.typeclash.hist", 9);

  Snapshot snap = Registry::Instance().TakeSnapshot();
  const MetricValue* m = snap.Find("test.typeclash.metric");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->type, Type::kCounter);
  EXPECT_EQ(m->value, 5u);
  const MetricValue* h = snap.Find("test.typeclash.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->type, Type::kHistogram);
  EXPECT_EQ(Describe(*h->hist), Describe(Latencies({7})));
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
static_assert(kPinned<workload::Tpcb>);
static_assert(kPinned<workload::Tpcc>);
static_assert(kPinned<workload::Tatp>);
static_assert(kPinned<workload::Linkbench>);
static_assert(kPinned<workload::TpchLite>);

// The bench harness's measurement phase: a TPC-B stack is reset after its
// warm-up (bench/harness.cc) and destroyed after the run. Every published
// counter and latency histogram must then hold exactly the struct value read
// before the reset plus the value read before destruction: no event or
// sample lost, none counted twice.
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
  // The warm buffer pool serves every read since the reset: read a page
  // through the FTL so that both sides of the reset have read latencies.
  std::vector<uint8_t> page(bed->backend->page_size());
  ASSERT_TRUE(bed->backend->ReadPage(0, page.data()).ok());
  const ftl::RegionStats region1 = bed->backend_stats();
  const engine::BufferStats buffer1 = bed->db->buffer_pool().stats();
  const engine::TxnStats txn1 = bed->db->txn_stats();
  const engine::WalStats wal = bed->db->wal().stats();
  const uint64_t checkpoints = bed->db->checkpoints_taken();
  const flash::DeviceStats dev = bed->dev->AggregateStats();

  // Each latency histogram, with the struct histograms read before the reset
  // and before destruction.
  struct Latency {
    const char* metric;
    const LatencyStats& before_reset;
    const LatencyStats& after_reset;
  };
  const Latency latencies[] = {
      {"ftl.read_latency_us", region0.read_latency, region1.read_latency},
      {"ftl.write_latency_us", region0.write_latency, region1.write_latency},
      {"ftl.delta_write_latency_us", region0.delta_write_latency,
       region1.delta_write_latency},
      {"db.txn_latency_us", txn0.txn_latency, txn1.txn_latency},
  };
  // The live owners still hold every sample since the reset.
  for (const Latency& l : latencies) {
    EXPECT_EQ(Describe(PublishedHistogram(l.metric)), Describe(l.before_reset)) << l.metric;
  }
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
  for (const Latency& l : latencies) {
    LatencyStats want = l.before_reset;
    want.Merge(l.after_reset);
    EXPECT_EQ(Describe(PublishedHistogram(l.metric)), Describe(want)) << l.metric;
    // Both sides of the reset took samples.
    EXPECT_GT(l.before_reset.count(), 0u) << l.metric;
    EXPECT_GT(l.after_reset.count(), 0u) << l.metric;
  }

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

/// Sum and count of the published counters whose names start with `prefix`.
std::pair<uint64_t, size_t> PublishedUnder(const std::string& prefix) {
  uint64_t sum = 0;
  size_t names = 0;
  for (const MetricValue& m : Registry::Instance().TakeSnapshot().metrics) {
    if (m.name.rfind(prefix, 0) != 0) continue;
    sum += m.value;
    names++;
  }
  return {sum, names};
}

// A workload driver counts its mix in a member and publishes it once, when it
// is destroyed: every mix name, summing to the transactions it ran. A driver
// built with a null database only to size a stack publishes no name.
TEST_F(MetricsTest, DriversPublishTheirMixOnceAtDestruction) {
  workload::LinkbenchConfig lc;
  lc.nodes = 3000;
  uint64_t db_pages = 0;
  {
    workload::Linkbench sizing(nullptr, lc, workload::SingleTablespace(0));
    db_pages = sizing.EstimatedPages(8192);
    (void)workload::Tpcb(nullptr, {}, workload::SingleTablespace(0)).EstimatedPages(4096);
    (void)workload::Tpcc(nullptr, {}, workload::SingleTablespace(0)).EstimatedPages(4096);
    (void)workload::Tatp(nullptr, {}, workload::SingleTablespace(0)).EstimatedPages(4096);
    (void)workload::TpchLite(nullptr, {}, workload::SingleTablespace(0)).EstimatedPages(4096);
  }
  EXPECT_TRUE(Registry::Instance().TakeSnapshot().metrics.empty());

  workload::TestbedConfig tc;
  tc.db_pages = db_pages;
  tc.scheme = {.n = 2, .m = 100, .v = 14};
  tc.page_size = 8192;
  auto built = workload::MakeTestbed(tc);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<workload::Testbed> bed = std::move(built).value();
  constexpr uint64_t kTxns = 500;
  {
    workload::Linkbench lb(bed->db.get(), lc, bed->ts_map());
    ASSERT_TRUE(lb.Load().ok());
    ASSERT_TRUE(workload::RunTransactions(lb, kTxns).ok());
    // The live driver holds its counts.
    EXPECT_EQ(PublishedUnder("workload.").second, 0u);
  }
  EXPECT_EQ(PublishedUnder("workload.linkbench."), std::make_pair(kTxns, size_t{10}));
  // No other driver name, and destroying the stack adds no workload count.
  bed.reset();
  EXPECT_EQ(PublishedUnder("workload."), std::make_pair(kTxns, size_t{10}));
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
  EXPECT_EQ(m.sum(), 55017u);
  EXPECT_EQ(m.MaxMicros(), 50000u);
  EXPECT_DOUBLE_EQ(m.MeanMicros(), 55017.0 / 3.0);
}

}  // namespace
}  // namespace ipa::metrics
