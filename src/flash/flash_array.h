// The emulated NAND flash device.
//
// FlashArray models a multi-channel, multi-chip raw NAND device with:
//  * ISPP program semantics — programming can only increase cell charge,
//    i.e. data bits can only transition 1 -> 0. An erased page is all 0xFF.
//    A program that would require any 0 -> 1 transition is rejected.
//  * program_delta — the paper's write_delta primitive (Section 7): program a
//    byte sub-range of an already-programmed page. Legal iff the ISPP rule
//    holds for that range and, on MLC, only on LSB pages (Appendix C.2).
//  * per-block erase with wear accounting; in-order initial programming of
//    pages within an MLC block (manufacturer requirement, Appendix C.2);
//  * bit-error injection: retention leakage (0 -> 1 in stored data, visible
//    on later reads) and MLC program interference from delta appends, which
//    lands only in the still-erased regions of neighboring-wordline pages;
//  * a deterministic service-time model: per-chip and per-channel queueing
//    against a simulated clock, distinguishing LSB/MSB program latency and
//    cheap delta programs.
//
// FlashArray knows nothing about databases: it stores bytes and enforces
// flash physics. The NoFTL layer (src/ftl) builds mapping/GC on top.
//
// Each programmed page holds a shared, immutable PageImage (page_image.h):
// ReadImage hands it out and ProgramImage stores the caller's image, both
// without copying. Every command that changes stored bytes in place (a
// delta or ISPP re-program, a refresh, a torn program or erase, a
// retention or interference flip) copies a shared image first, so an image
// once handed out never changes.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"
#include "common/stats.h"
#include "common/status.h"
#include "flash/geometry.h"
#include "flash/page_image.h"
#include "flash/timing.h"

namespace ipa::flash {

class FlashLane;  // submit_queue.h

/// Bit-error injection configuration. All rates are per-operation
/// probabilities; 0 disables the mechanism.
struct ErrorModel {
  /// Probability that one stored 0-bit leaks to 1 during a page read
  /// (retention error; persists in the array until rewritten).
  double retention_flip_per_read = 0.0;
  /// Probability, per neighboring-wordline page, that a delta append on an
  /// MLC LSB page flips one bit in that neighbor's still-erased region
  /// (program interference, Appendix C.2).
  double interference_flip_per_delta = 0.0;
  uint64_t seed = 0x5EED;
};

/// Power-loss fault injection (crash testing, docs/CRASH_TESTING.md). When
/// armed, the policy picks one mutating operation (ProgramPage /
/// ProgramDelta / EraseBlock) and cuts power *mid-way through it*, leaving
/// realistic torn state behind; the device then fails every command with
/// Status::Unavailable until PowerCycle().
struct PowerLossPolicy {
  static constexpr uint64_t kNever = ~0ull;
  /// Cut power during the mutating op with this 0-based index, counted from
  /// the moment the policy was set. The index is consumed even when the op
  /// is rejected by validation (a refused command draws no program current,
  /// so nothing tears); kNever disables deterministic injection.
  uint64_t inject_at_op = kNever;
  /// Independently, each valid mutating op loses power with this probability.
  double per_op_probability = 0.0;
  /// Seeds the torn-state shape (tear offset, in-flight word bits, OOB
  /// ordering) and the probabilistic trigger.
  uint64_t seed = 0x70FF;
};

/// Raw operation counters maintained by the device.
struct DeviceStats {
  uint64_t page_reads = 0;
  uint64_t page_programs = 0;
  uint64_t page_programs_lsb = 0;  ///< page_programs on LSB (or SLC) pages.
  uint64_t page_programs_msb = 0;  ///< page_programs on MLC MSB pages.
  uint64_t delta_programs = 0;
  uint64_t block_erases = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_programmed = 0;        ///< Full-page program payloads.
  uint64_t delta_bytes_programmed = 0;  ///< write_delta payloads only.
  uint64_t ispp_rejections = 0;         ///< Programs rejected for 0->1 transitions.
  uint64_t interference_flips = 0;
  uint64_t retention_flips = 0;
  uint64_t page_refreshes = 0;  ///< Correct-and-Refresh reprograms.
  uint64_t power_loss_injections = 0;  ///< Ops torn by the PowerLossPolicy.
  uint64_t torn_page_programs = 0;
  uint64_t torn_delta_programs = 0;
  uint64_t torn_erases = 0;
};

/// Completion report of one device operation under the timing model.
struct IoTiming {
  SimTime submitted = 0;
  SimTime completed = 0;
  uint64_t LatencyUs() const { return completed - submitted; }
};

/// State of one physical flash page (exposed for tests / introspection).
/// An erase drops `data` and empties `oob`, keeping the OOB's capacity.
struct PageState {
  PageImage data;            ///< Null == erased (reads as 0xFF).
  std::vector<uint8_t> oob;  ///< Empty == erased OOB.
  uint8_t program_count = 0;  ///< Program operations since the last erase.

  bool IsErased() const { return program_count == 0; }
};

/// Every DeviceStats counter and the metric it is published under
/// (docs/METRICS.md); page_programs is published split by page type.
inline constexpr StatField<DeviceStats> kDeviceStatFields[] = {
    {&DeviceStats::page_reads, "flash.page_reads"},
    {&DeviceStats::page_programs, nullptr},
    {&DeviceStats::page_programs_lsb, "flash.page_programs.lsb"},
    {&DeviceStats::page_programs_msb, "flash.page_programs.msb"},
    {&DeviceStats::delta_programs, "flash.delta_programs"},
    {&DeviceStats::block_erases, "flash.block_erases"},
    {&DeviceStats::bytes_read, "flash.bytes_read"},
    {&DeviceStats::bytes_programmed, "flash.bytes_programmed"},
    {&DeviceStats::delta_bytes_programmed, "flash.delta_bytes_programmed"},
    {&DeviceStats::ispp_rejections, "flash.ispp_rejections"},
    {&DeviceStats::interference_flips, "flash.bit_errors.interference"},
    {&DeviceStats::retention_flips, "flash.bit_errors.retention"},
    {&DeviceStats::page_refreshes, "flash.page_refreshes"},
    {&DeviceStats::power_loss_injections, "flash.power_loss_injections"},
    {&DeviceStats::torn_page_programs, nullptr},
    {&DeviceStats::torn_delta_programs, nullptr},
    {&DeviceStats::torn_erases, nullptr},
};

/// Field-wise sum of device counters (lane aggregation).
inline void AccumulateStats(DeviceStats& into, const DeviceStats& from) {
  AddStatFields(into, from, kDeviceStatFields);
}

class FlashArray {
 public:
  /// If `clock` is null the device owns a private clock.
  FlashArray(const Geometry& geometry, const TimingModel& timing,
             const ErrorModel& errors = {}, SimClock* clock = nullptr);
  /// Publishes AggregateStats() to the metrics registry.
  ~FlashArray();
  // Lanes hold this instance's address, and a copy would publish twice.
  FlashArray(const FlashArray&) = delete;
  FlashArray& operator=(const FlashArray&) = delete;

  const Geometry& geometry() const { return geo_; }
  const TimingModel& timing() const { return timing_; }
  SimClock& clock() { return *clock_; }
  /// Counters for commands issued outside any lane. With lanes bound, each
  /// lane keeps its own DeviceStats until aggregated — see AggregateStats().
  const DeviceStats& stats() const { return stats_; }
  /// stats() plus every lane's counters (live totals for sharded stacks).
  DeviceStats AggregateStats() const;
  /// Publish AggregateStats() to the metrics registry, then zero the device
  /// counters and every lane's counters.
  void ResetStats();

  // -- Batched submission lanes (submit_queue.h, docs/SHARDING.md) ----------

  /// Create a lane owned by this device. Its clock and shadow busy state are
  /// seeded from the shared state at the time of the call.
  FlashLane* CreateLane();

  /// Route every command that targets one of `chips` through `lane`: timing
  /// is reserved against the lane's shadow state and queued for DrainLanes()
  /// instead of the shared clock. A chip can be bound to at most one lane.
  void BindLaneToChips(FlashLane* lane, const std::vector<uint32_t>& chips);

  /// Epoch barrier: merge all queued reservations in (issue tick, lane id,
  /// sequence) order — independent of cross-lane submission order — replay
  /// them against the shared chip/channel busy state, then advance the shared
  /// clock and every lane clock to the common epoch time, which is returned.
  /// Callers must quiesce lane submitters first.
  SimTime DrainLanes();

  // -- Data path ------------------------------------------------------------
  // Every command optionally reports its timing. `sync` operations advance
  // the shared clock to their completion (the caller blocks on the I/O);
  // async operations only reserve chip/channel time, so later operations
  // queue behind them — used for background GC / cleaner writes.

  /// Read a full page into `out` (geometry().page_size bytes).
  Status ReadPage(Ppn ppn, uint8_t* out, IoTiming* t = nullptr, bool sync = true);

  /// ReadPage without the copy: `out` shares the stored image (an erased
  /// page gives an all-0xFF image). Timing and counters are ReadPage's.
  Status ReadImage(Ppn ppn, PageImage* out, IoTiming* t = nullptr, bool sync = true);

  /// Initial (or ISPP-compatible re-)program of a full page, optionally with
  /// OOB content. The page's program budget (max_programs_per_page) is
  /// consumed. MLC blocks require initial programs in increasing page order.
  Status ProgramPage(Ppn ppn, const uint8_t* data, const uint8_t* oob = nullptr,
                     uint32_t oob_len = 0, IoTiming* t = nullptr, bool sync = true);

  /// ProgramPage that stores `image` itself instead of a copy of its bytes.
  Status ProgramImage(Ppn ppn, PageImage image, const uint8_t* oob = nullptr,
                      uint32_t oob_len = 0, IoTiming* t = nullptr, bool sync = true);

  /// write_delta (Section 7): append `len` bytes at `offset` of an already
  /// programmed page using ISPP. Rejected on MLC MSB pages, on exhausted
  /// program budgets, and on any 0->1 bit transition.
  Status ProgramDelta(Ppn ppn, uint32_t offset, const uint8_t* delta, uint32_t len,
                      IoTiming* t = nullptr, bool sync = true);

  /// Append bytes into the OOB area under the same ISPP rules. Coalesced
  /// with the data-path operation it accompanies: no extra simulated time.
  Status ProgramOob(Ppn ppn, uint32_t offset, const uint8_t* bytes, uint32_t len);

  /// Read the OOB area (transferred together with the page; free).
  Status ReadOob(Ppn ppn, uint8_t* out, uint32_t len);

  /// Erase a block: all pages become 0xFF, wear counter increments.
  Status EraseBlock(Pbn pbn, IoTiming* t = nullptr, bool sync = true);

  /// Correct-and-Refresh (Cai et al., discussed in the paper's Section 2.3):
  /// re-program a page *in place* with `data`, restoring charge levels that
  /// leaked over time. Legal only when every bit transition is 1 -> 0 (the
  /// ISPP rule) — which holds for retention errors, since those flip 0 -> 1.
  /// Does not consume the page's append budget (maintenance operation).
  Status RefreshPage(Ppn ppn, const uint8_t* data, IoTiming* t = nullptr,
                     bool sync = true);

  // -- Power-loss fault injection --------------------------------------------

  /// Arm (or, with a default-constructed policy, disarm) power-loss
  /// injection. Resets the policy RNG and the mutating-op counter, so
  /// `inject_at_op` indices are relative to this call.
  void SetPowerLossPolicy(const PowerLossPolicy& policy);

  /// Restore power after an injected loss. Torn on-media state persists —
  /// only volatile device state (chip/channel queues) resets. Idempotent.
  void PowerCycle();

  bool powered_on() const { return powered_on_; }

  /// Mutating ops (ProgramPage / ProgramDelta / EraseBlock) attempted since
  /// the policy was last set — the crash sweep's injection-index space.
  uint64_t mutation_ops() const { return mutation_ops_; }

  // -- Introspection ----------------------------------------------------------

  /// Structural audit of the device state (differential-checker oracle):
  /// per-page storage invariants that must hold across every program, erase
  /// and torn power-loss path — data allocated iff the page was programmed,
  /// buffer sizes match the geometry, program budgets respected, and no
  /// programmed page sits above its block's in-order frontier. Returns
  /// Corruption describing the first violation.
  Status AuditState() const;

  const PageState& page_state(Ppn ppn) const;
  /// XOR `mask` into stored byte `offset` of a programmed page, as a bit
  /// error would (tests). Images read before keep their bytes.
  Status CorruptBits(Ppn ppn, uint32_t offset, uint8_t mask);
  /// Home of the images the array makes; FTLs take private copies from it.
  PageImagePool& image_pool() { return images_; }
  uint32_t EraseCount(Pbn pbn) const;
  uint64_t TotalEraseOps() const { return stats_.block_erases; }
  /// Highest erase count across all blocks (wear skew indicator).
  uint32_t MaxEraseCount() const;

 private:
  struct BlockState {
    std::vector<PageState> pages;
    uint32_t erase_count = 0;
    /// Highest page index that received its initial program since the last
    /// erase; -1 if none. Enforces in-order programming on MLC.
    int32_t highest_programmed = -1;
  };

  struct ChipState {
    SimTime busy_until = 0;
  };

  Status CheckPpn(Ppn ppn) const;
  BlockState& BlockRef(Pbn pbn);
  const BlockState& BlockRef(Pbn pbn) const;
  PageState& PageRef(Ppn ppn);
  /// The page's stored bytes for an in-place change, unshared first.
  uint8_t* Writable(PageState& page) { return page.data.MakeWritable(images_); }
  /// ProgramPage / ProgramImage; `image` is null for the copying call.
  Status Program(Ppn ppn, const uint8_t* data, PageImage* image, const uint8_t* oob,
                 uint32_t oob_len, IoTiming* t, bool sync);

  /// Lane the chip is bound to, or null for the shared (legacy) path.
  FlashLane* LaneOf(uint32_t chip);
  /// Counter sink for a command on `chip`: its lane's stats, or stats_.
  DeviceStats& StatsFor(uint32_t chip);
  uint32_t ChipOf(Ppn ppn) const {
    return static_cast<uint32_t>(ppn / geo_.pages_per_chip());
  }

  /// Reserve chip+channel time for an operation; fills `t`. Routed to the
  /// chip's lane when one is bound (reservation queued for DrainLanes()).
  void Occupy(uint32_t chip, uint64_t pre_transfer_bytes, uint64_t op_us,
              uint64_t post_transfer_bytes, bool sync, IoTiming* t);
  void OccupyLane(FlashLane& lane, uint32_t chip, uint64_t pre_transfer_bytes,
                  uint64_t op_us, uint64_t post_transfer_bytes, bool sync,
                  IoTiming* t);

  void MaybeInjectRetention(PageState& page);
  void MaybeInjectInterference(Ppn lsb_ppn);

  /// Consume the next mutating-op index; true if power is lost during it.
  bool DrawPowerLoss();
  /// Program a torn image of target[0..len) into stored[0..len): a random
  /// prefix lands completely, the in-flight 32-bit word gets a random subset
  /// of its pending 1->0 transitions, the rest stays untouched.
  void ApplyTornProgram(uint8_t* stored, const uint8_t* target, uint32_t len);
  /// ISPP-merge an OOB image (bits can only clear) — torn programs that
  /// sequence OOB before data commit it fully before power dies.
  void MergeOob(PageState& page, const uint8_t* oob, uint32_t oob_len);

  Geometry geo_;
  TimingModel timing_;
  ErrorModel errors_;
  std::unique_ptr<SimClock> owned_clock_;
  SimClock* clock_;
  Rng rng_;
  DeviceStats stats_;
  PageImagePool images_;
  PageImage erased_;  ///< All 0xFF: what an erased page reads as.
  std::vector<BlockState> blocks_;       // flat, chip-major
  std::vector<ChipState> chips_;
  std::vector<SimTime> channel_busy_;    // per channel

  std::vector<std::unique_ptr<FlashLane>> lanes_;
  std::vector<FlashLane*> lane_of_chip_;  // empty until a lane is bound

  PowerLossPolicy power_policy_;
  Rng power_rng_{0x70FF};
  // Atomic so concurrent lane submitters can check power / count mutating
  // ops without racing (relaxed: ordering carried by the lane protocol).
  std::atomic<bool> powered_on_{true};
  std::atomic<uint64_t> mutation_ops_{0};
};

}  // namespace ipa::flash
