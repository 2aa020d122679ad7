// Test helper: what owners have published to the metrics registry.
//
// Owners (flash device, FTLs, engine, replication, admission) count events
// and latencies in their own stats structs and add them to the registry only
// when they discard them: at a stats reset and at destruction
// (docs/METRICS.md). A test reads a counter or histogram before it builds an
// owner and again after destroying it; the difference is what that owner
// published.

#pragma once

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/stats.h"

namespace ipa {

/// Registry value of counter `name`; 0 while no owner has published it.
inline uint64_t Published(const std::string& name) {
  return metrics::Registry::Instance().TakeSnapshot().Counter(name);
}

/// Registry histogram `name`; empty while no owner has published it.
inline LatencyStats PublishedHistogram(const std::string& name) {
  metrics::Snapshot snap = metrics::Registry::Instance().TakeSnapshot();
  const metrics::MetricValue* m = snap.Find(name);
  return m && m->hist ? *m->hist : LatencyStats{};
}

/// "count/sum/max" and the non-empty [bucket, samples] pairs of `h`, so one
/// EXPECT_EQ compares two histograms whole and prints them readably.
inline std::string Describe(const LatencyStats& h) {
  std::string out = std::to_string(h.count()) + "/" + std::to_string(h.sum()) + "/" +
                    std::to_string(h.MaxMicros());
  for (size_t b = 0; b < LatencyStats::kBuckets; b++) {
    if (h.bucket(b) == 0) continue;
    out += " [" + std::to_string(b) + ", " + std::to_string(h.bucket(b)) + "]";
  }
  return out;
}

}  // namespace ipa
