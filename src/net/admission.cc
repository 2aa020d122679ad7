#include "net/admission.h"

#include <algorithm>

#include "common/metrics.h"

namespace ipa::net {

AdmissionController::AdmissionController(uint32_t partitions, Config cfg)
    : cfg_(cfg), depth_(partitions) {
  if (cfg_.inflight_budget == 0) cfg_.inflight_budget = 1;
}

AdmissionController::~AdmissionController() {
  metrics::AddCounter("serve.admitted", admitted());
  metrics::AddCounter("serve.shed", shed());
}

bool AdmissionController::TryAdmit(uint32_t part) {
  std::atomic<uint32_t>& d = depth_[part].v;
  // The transport thread is the only admitter per partition stream, so a
  // load+store (rather than a CAS loop) cannot overshoot the budget.
  if (d.load(std::memory_order_relaxed) >= cfg_.inflight_budget) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  d.fetch_add(1, std::memory_order_relaxed);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AdmissionController::Complete(uint32_t part) {
  depth_[part].v.fetch_sub(1, std::memory_order_relaxed);
}

uint32_t AdmissionController::RetryHintUs(uint32_t part) const {
  uint32_t d = std::max(depth(part), cfg_.inflight_budget);
  uint64_t hint = static_cast<uint64_t>(cfg_.base_retry_hint_us) * d /
                  cfg_.inflight_budget;
  return static_cast<uint32_t>(std::min<uint64_t>(hint, 10'000'000));
}

}  // namespace ipa::net
