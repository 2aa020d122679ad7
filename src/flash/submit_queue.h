// Per-worker flash submission lanes (docs/SHARDING.md).
//
// A FlashLane is one worker's private view of the device: commands issued
// through a lane reserve chip/channel time against lane-local shadow state
// and a lane-local clock, and are queued as reservations instead of touching
// the shared timing arrays. FlashArray::DrainLanes() later merges all queued
// reservations in (issue tick, lane id, sequence) order and replays them
// against the shared chip/channel busy state — so the merged schedule is
// independent of the chronological order in which worker threads happened to
// call into the device, and service-time reservations from different workers
// overlap on the simulated clock.
//
// Thread-safety contract: each lane is owned by exactly one submitter at a
// time, lanes are bound to disjoint chip sets, error injection rates are
// zero, and no PowerLossPolicy is armed while more than one thread submits.
// DrainLanes() and lane creation/binding must run with submitters quiesced.

#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_clock.h"
#include "flash/flash_array.h"

namespace ipa::flash {

/// One worker's batched submission queue. Created and owned by a FlashArray
/// (FlashArray::CreateLane); workers advance the lane clock for CPU time and
/// read per-lane DeviceStats, the device fills in everything else.
class FlashLane {
 public:
  uint32_t id() const { return id_; }

  /// Lane-local simulated clock: the worker's notion of "now". Sync commands
  /// advance it to their (provisional) completion; DrainLanes() re-syncs it
  /// to the merged epoch time.
  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }

  /// Operation counters for commands submitted through this lane. Not merged
  /// into FlashArray::stats(); see FlashArray::AggregateStats().
  const DeviceStats& stats() const { return stats_; }

  /// Reservations queued since the last DrainLanes().
  size_t pending_ops() const { return pending_.size(); }

 private:
  friend class FlashArray;

  /// One queued command: everything DrainLanes() needs to replay its timing
  /// against the shared busy state.
  struct Reservation {
    SimTime issue = 0;   ///< Lane-clock tick at submission (merge key).
    uint64_t seq = 0;    ///< Per-lane submission sequence (merge tie-break).
    uint32_t chip = 0;
    uint64_t pre_bytes = 0;
    uint64_t op_us = 0;
    uint64_t post_bytes = 0;
    bool sync = false;
  };

  explicit FlashLane(uint32_t id) : id_(id) {}

  uint32_t id_;
  SimClock clock_;
  uint64_t next_seq_ = 0;
  std::vector<Reservation> pending_;
  /// Shadow busy state: this lane's private view of chip / channel
  /// availability, reseeded from the shared state at every drain.
  std::vector<SimTime> chip_busy_;
  std::vector<SimTime> channel_busy_;
  DeviceStats stats_;
};

}  // namespace ipa::flash
