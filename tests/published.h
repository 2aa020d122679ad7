// Test helper: what owners have published to the metrics registry.
//
// Owners (flash device, FTLs, engine, replication, admission) count events
// in their own stats structs and add them to the registry only when they
// discard them: at a stats reset and at destruction (docs/METRICS.md). A
// test reads a counter before it builds an owner and again after destroying
// it; the difference is what that owner published.

#pragma once

#include <cstdint>
#include <string>

#include "common/metrics.h"

namespace ipa {

/// Registry value of counter `name`; 0 while no owner has published it.
inline uint64_t Published(const std::string& name) {
  return metrics::Registry::Instance().TakeSnapshot().Counter(name);
}

}  // namespace ipa
