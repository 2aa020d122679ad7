// Admission control and backpressure for the serving layer
// (docs/SERVING.md).
//
// Each partition gets a bounded budget of admitted-but-unfinished requests.
// When the emulated flash device saturates, the partition's worker drains
// more slowly than requests arrive, the inflight count hits the budget, and
// further requests are shed immediately with RStatus::kRetry plus a backoff
// hint — so overload degrades into bounded queueing delay for the admitted
// requests instead of a collapsing tail.
//
// Thread contract: TryAdmit may be called from the transport thread while
// Complete runs on partition workers; counters are atomics. The deterministic
// bench (ServeSim) calls both from the owning partition's stream processor.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace ipa::net {

class AdmissionController {
 public:
  struct Config {
    /// Max admitted-but-unfinished requests per partition.
    uint32_t inflight_budget = 64;
    /// Backoff hint returned with RETRY, scaled by how far past the budget
    /// the queue is (hint = base * depth / budget).
    uint32_t base_retry_hint_us = 200;
  };

  AdmissionController(uint32_t partitions, Config cfg);
  /// Publishes admitted() and shed() to the metrics registry.
  ~AdmissionController();
  // A copy would publish twice.
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  uint32_t partitions() const { return static_cast<uint32_t>(depth_.size()); }
  const Config& config() const { return cfg_; }

  /// Reserve an inflight slot on `part`. False = shed (slot not taken).
  bool TryAdmit(uint32_t part);

  /// Release a slot taken by TryAdmit (request finished or dropped).
  void Complete(uint32_t part);

  uint32_t depth(uint32_t part) const {
    return depth_[part].v.load(std::memory_order_relaxed);
  }

  /// Suggested client backoff for a request shed on `part` right now.
  uint32_t RetryHintUs(uint32_t part) const;

  uint64_t admitted() const { return admitted_.load(std::memory_order_relaxed); }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) Cell {
    std::atomic<uint32_t> v{0};
  };

  Config cfg_;
  std::vector<Cell> depth_;
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace ipa::net
