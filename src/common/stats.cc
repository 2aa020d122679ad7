#include "common/stats.h"

#include <bit>
#include <cmath>

namespace ipa {

LatencyStats LatencyStats::FromParts(
    uint64_t count, uint64_t sum, uint64_t max,
    const std::vector<std::pair<size_t, uint64_t>>& buckets) {
  LatencyStats h;
  h.count_ = count;
  h.sum_ = sum;
  h.max_ = max;
  for (const auto& [i, n] : buckets) {
    (i < kLinearBuckets ? h.linear_[i] : h.log_[i - kLinearBuckets]) = n;
  }
  return h;
}

void LatencyStats::Add(uint64_t micros) {
  count_++;
  sum_ += micros;
  max_ = std::max(max_, micros);
  if (micros < kLinearBuckets) {
    linear_[micros]++;
  } else {
    // Bucket i holds [2^i ms, 2^(i+1) ms) measured from 1ms upward.
    uint64_t ms = micros / 1000;
    size_t idx = std::min<size_t>(kLogBuckets - 1, std::bit_width(ms) - 1);
    log_[idx]++;
  }
}

void LatencyStats::Merge(const LatencyStats& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  for (size_t i = 0; i < kLinearBuckets; i++) linear_[i] += other.linear_[i];
  for (size_t i = 0; i < kLogBuckets; i++) log_[i] += other.log_[i];
}

void LatencyStats::Reset() {
  count_ = sum_ = max_ = 0;
  std::fill(linear_.begin(), linear_.end(), 0);
  std::fill(log_.begin(), log_.end(), 0);
}

uint64_t LatencyStats::PercentileMicros(double p) const {
  if (count_ == 0) return 0;
  uint64_t target = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kLinearBuckets; i++) {
    seen += linear_[i];
    if (seen >= target) return i;
  }
  for (size_t i = 0; i < kLogBuckets; i++) {
    seen += log_[i];
    if (seen >= target) return (1ull << i) * 1000;
  }
  return max_;
}

void SampleDistribution::Merge(const SampleDistribution& other) {
  for (const auto& [v, c] : other.counts_) counts_[v] += c;
  total_ += other.total_;
}

double SampleDistribution::CdfAt(uint32_t value) const {
  if (total_ == 0) return 0.0;
  uint64_t below = 0;
  for (const auto& [v, c] : counts_) {
    if (v > value) break;
    below += c;
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

uint32_t SampleDistribution::ValueAtPercentile(double p) const {
  if (total_ == 0) return 0;
  uint64_t target = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(total_)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (const auto& [v, c] : counts_) {
    seen += c;
    if (seen >= target) return v;
  }
  return counts_.rbegin()->first;
}

double SampleDistribution::Mean() const {
  if (total_ == 0) return 0.0;
  double sum = 0;
  for (const auto& [v, c] : counts_) sum += static_cast<double>(v) * static_cast<double>(c);
  return sum / static_cast<double>(total_);
}

std::vector<std::pair<uint32_t, uint64_t>> SampleDistribution::Points() const {
  return {counts_.begin(), counts_.end()};
}

std::string FormatThousands(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int since = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (since == 3) {
      out.push_back(' ');
      since = 0;
    }
    out.push_back(*it);
    since++;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

double RelPercent(double base, double now) {
  if (base == 0.0) return 0.0;
  return 100.0 * (now - base) / base;
}

}  // namespace ipa
