// Statistics primitives: counters, latency accumulators and percentile
// trackers used to produce the paper's tables (host I/O counts, GC activity,
// response times, update-size CDFs).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ipa {

/// One counter of a plain stats struct and the metric name it is published
/// under, or nullptr for a counter that is kept but not published. An owner
/// lists its struct's counters once and drives both the field-wise sum and
/// metrics::PublishStats from that list (docs/METRICS.md).
template <typename Stats>
struct StatField {
  uint64_t Stats::*field;
  const char* metric;
};

/// into += from over every field of `fields`.
template <typename Stats, size_t N>
void AddStatFields(Stats& into, const Stats& from, const StatField<Stats> (&fields)[N]) {
  for (const StatField<Stats>& f : fields) into.*f.field += from.*f.field;
}

/// Accumulates latency samples (simulated microseconds) and reports mean and
/// selected percentiles. Stores a bounded histogram with 1us buckets below
/// 1ms and logarithmic buckets above, so memory stays constant. It is also
/// the metrics registry's histogram type (docs/METRICS.md).
class LatencyStats {
 public:
  static constexpr size_t kLinearBuckets = 1000;  // 0..999us, 1us each
  static constexpr size_t kLogBuckets = 64;       // >=1ms, power-of-two
  /// Bucket i < kLinearBuckets holds i us; kLinearBuckets + j holds
  /// [2^j ms, 2^(j+1) ms).
  static constexpr size_t kBuckets = kLinearBuckets + kLogBuckets;

  /// Rebuilds a histogram from its exported parts (metrics JSON import):
  /// `buckets` holds (bucket index < kBuckets, samples) pairs.
  static LatencyStats FromParts(uint64_t count, uint64_t sum, uint64_t max,
                                const std::vector<std::pair<size_t, uint64_t>>& buckets);

  void Add(uint64_t micros);
  void Merge(const LatencyStats& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  double MeanMicros() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  double MeanMillis() const { return MeanMicros() / 1000.0; }
  uint64_t MaxMicros() const { return max_; }
  /// Samples in bucket i < kBuckets.
  uint64_t bucket(size_t i) const {
    return i < kLinearBuckets ? linear_[i] : log_[i - kLinearBuckets];
  }

  /// p in [0,100]; approximate via the internal histogram.
  uint64_t PercentileMicros(double p) const;

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  std::vector<uint64_t> linear_ = std::vector<uint64_t>(kLinearBuckets, 0);
  std::vector<uint64_t> log_ = std::vector<uint64_t>(kLogBuckets, 0);
};

/// Records integer samples (e.g. changed bytes per flushed page) and answers
/// CDF / percentile queries exactly. Intended for update-size analyses
/// (Table 1, Table 11, Figures 7-10); sample counts there are modest.
class SampleDistribution {
 public:
  void Add(uint32_t value) {
    counts_[value]++;
    total_++;
  }
  void Merge(const SampleDistribution& other);

  uint64_t total() const { return total_; }

  /// Fraction of samples <= value, in [0,1].
  double CdfAt(uint32_t value) const;

  /// The percentile rank of `value`: 100 * CdfAt(value).
  double PercentileOf(uint32_t value) const { return 100.0 * CdfAt(value); }

  /// Smallest value v such that CdfAt(v) >= p/100.
  uint32_t ValueAtPercentile(double p) const;

  double Mean() const;

  /// Distinct (value, count) pairs in ascending value order.
  std::vector<std::pair<uint32_t, uint64_t>> Points() const;

 private:
  std::map<uint32_t, uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Pretty-print helper: 1234567 -> "1 234 567" (matching the paper's tables).
std::string FormatThousands(uint64_t v);

/// Relative change in percent: 100*(now-base)/base; returns 0 for base==0.
double RelPercent(double base, double now);

}  // namespace ipa
