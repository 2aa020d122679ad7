#include "flash/flash_array.h"

#include <algorithm>
#include <cstring>

#include "common/metrics.h"
#include "flash/submit_queue.h"

namespace ipa::flash {

FlashArray::FlashArray(const Geometry& geometry, const TimingModel& timing,
                       const ErrorModel& errors, SimClock* clock)
    : geo_(geometry),
      timing_(timing),
      errors_(errors),
      rng_(errors.seed),
      images_(geometry.page_size),
      erased_(images_.Take()) {
  std::memset(erased_.mutable_data(), 0xFF, geo_.page_size);
  if (clock) {
    clock_ = clock;
  } else {
    owned_clock_ = std::make_unique<SimClock>();
    clock_ = owned_clock_.get();
  }
  blocks_.resize(geo_.total_blocks());
  chips_.resize(geo_.total_chips());
  channel_busy_.assign(geo_.channels, 0);
}

FlashArray::~FlashArray() {
  metrics::PublishStats(AggregateStats(), kDeviceStatFields);
}

DeviceStats FlashArray::AggregateStats() const {
  DeviceStats total = stats_;
  for (const auto& lane : lanes_) AccumulateStats(total, lane->stats_);
  return total;
}

void FlashArray::ResetStats() {
  metrics::PublishStats(AggregateStats(), kDeviceStatFields);
  stats_ = DeviceStats{};
  for (auto& lane : lanes_) lane->stats_ = DeviceStats{};
}

FlashLane* FlashArray::CreateLane() {
  auto lane = std::unique_ptr<FlashLane>(
      new FlashLane(static_cast<uint32_t>(lanes_.size())));
  lane->clock_.AdvanceTo(clock_->Now());
  lane->chip_busy_.resize(chips_.size());
  for (size_t c = 0; c < chips_.size(); c++) {
    lane->chip_busy_[c] = chips_[c].busy_until;
  }
  lane->channel_busy_ = channel_busy_;
  lanes_.push_back(std::move(lane));
  return lanes_.back().get();
}

void FlashArray::BindLaneToChips(FlashLane* lane,
                                 const std::vector<uint32_t>& chips) {
  if (lane_of_chip_.empty()) lane_of_chip_.assign(geo_.total_chips(), nullptr);
  for (uint32_t chip : chips) lane_of_chip_[chip] = lane;
}

FlashLane* FlashArray::LaneOf(uint32_t chip) {
  return lane_of_chip_.empty() ? nullptr : lane_of_chip_[chip];
}

DeviceStats& FlashArray::StatsFor(uint32_t chip) {
  FlashLane* lane = LaneOf(chip);
  return lane ? lane->stats_ : stats_;
}

SimTime FlashArray::DrainLanes() {
  struct Item {
    SimTime issue;
    uint32_t lane;
    uint64_t seq;
    uint32_t chip;
    uint64_t pre_bytes, op_us, post_bytes;
    bool sync;
  };
  std::vector<Item> items;
  for (const auto& lane : lanes_) {
    for (const FlashLane::Reservation& r : lane->pending_) {
      items.push_back({r.issue, lane->id_, r.seq, r.chip, r.pre_bytes, r.op_us,
                       r.post_bytes, r.sync});
    }
  }
  // The merge key is built only from lane-local values (issue tick on the
  // lane clock, lane id, per-lane sequence), so the replayed schedule cannot
  // depend on the chronological order in which threads called the device.
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.issue != b.issue) return a.issue < b.issue;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.seq < b.seq;
  });

  std::vector<SimTime> lane_sync(lanes_.size(), 0);
  for (const Item& it : items) {
    // Same service-time model as Occupy(), with the lane-local issue tick
    // standing in for "now".
    uint32_t channel = it.chip / geo_.chips_per_channel;
    SimTime chan_free = std::max(channel_busy_[channel], it.issue);
    SimTime after_cmd = chan_free + timing_.command_overhead_us +
                        timing_.TransferUs(it.pre_bytes);
    SimTime chip_free = std::max(chips_[it.chip].busy_until, after_cmd);
    SimTime after_op = chip_free + it.op_us;
    SimTime chan_free2 = std::max(channel_busy_[channel], after_op);
    SimTime complete = chan_free2 + timing_.TransferUs(it.post_bytes);
    channel_busy_[channel] = std::max(after_cmd, complete);
    chips_[it.chip].busy_until = after_op;
    if (it.sync) lane_sync[it.lane] = std::max(lane_sync[it.lane], complete);
  }

  SimTime epoch = clock_->Now();
  for (const auto& lane : lanes_) {
    epoch = std::max({epoch, lane->clock_.Now(), lane_sync[lane->id_]});
  }
  clock_->AdvanceTo(epoch);
  for (auto& lane : lanes_) {
    lane->pending_.clear();
    lane->next_seq_ = 0;
    lane->clock_.AdvanceTo(epoch);
    for (size_t c = 0; c < chips_.size(); c++) {
      lane->chip_busy_[c] = chips_[c].busy_until;
    }
    lane->channel_busy_ = channel_busy_;
  }
  return epoch;
}

Status FlashArray::CheckPpn(Ppn ppn) const {
  if (ppn >= geo_.total_pages()) {
    return Status::InvalidArgument("ppn out of range");
  }
  return Status::OK();
}

FlashArray::BlockState& FlashArray::BlockRef(Pbn pbn) { return blocks_[pbn]; }
const FlashArray::BlockState& FlashArray::BlockRef(Pbn pbn) const {
  return blocks_[pbn];
}

PageState& FlashArray::PageRef(Ppn ppn) {
  BlockState& b = blocks_[BlockOf(geo_, ppn)];
  if (b.pages.empty()) b.pages.resize(geo_.pages_per_block);
  return b.pages[ppn % geo_.pages_per_block];
}

const PageState& FlashArray::page_state(Ppn ppn) const {
  static const PageState kErased{};
  const BlockState& b = blocks_[BlockOf(geo_, ppn)];
  if (b.pages.empty()) return kErased;
  return b.pages[ppn % geo_.pages_per_block];
}

Status FlashArray::CorruptBits(Ppn ppn, uint32_t offset, uint8_t mask) {
  IPA_RETURN_NOT_OK(CheckPpn(ppn));
  PageState& page = PageRef(ppn);
  if (page.data.empty() || offset >= geo_.page_size) {
    return Status::InvalidArgument("no stored byte to corrupt");
  }
  Writable(page)[offset] ^= mask;
  return Status::OK();
}

uint32_t FlashArray::EraseCount(Pbn pbn) const { return blocks_[pbn].erase_count; }

uint32_t FlashArray::MaxEraseCount() const {
  uint32_t mx = 0;
  for (const auto& b : blocks_) mx = std::max(mx, b.erase_count);
  return mx;
}

void FlashArray::Occupy(uint32_t chip, uint64_t pre_transfer_bytes, uint64_t op_us,
                        uint64_t post_transfer_bytes, bool sync, IoTiming* t) {
  if (FlashLane* lane = LaneOf(chip)) {
    OccupyLane(*lane, chip, pre_transfer_bytes, op_us, post_transfer_bytes,
               sync, t);
    return;
  }
  uint32_t channel = chip / geo_.chips_per_channel;
  SimTime now = clock_->Now();
  SimTime start = now;

  // Command + (for programs) data download over the channel.
  SimTime chan_free = std::max(channel_busy_[channel], now);
  SimTime after_cmd = chan_free + timing_.command_overhead_us +
                      timing_.TransferUs(pre_transfer_bytes);
  // Array operation on the chip.
  SimTime chip_free = std::max(chips_[chip].busy_until, after_cmd);
  SimTime after_op = chip_free + op_us;
  // (For reads) data upload over the channel.
  SimTime chan_free2 = std::max(channel_busy_[channel], after_op);
  SimTime complete = chan_free2 + timing_.TransferUs(post_transfer_bytes);

  channel_busy_[channel] = std::max(after_cmd, complete);
  chips_[chip].busy_until = after_op;

  if (t) {
    t->submitted = start;
    t->completed = complete;
  }
  if (sync) {
    clock_->AdvanceTo(complete);
  } else if (timing_.max_async_backlog_us > 0 &&
             complete > now + timing_.max_async_backlog_us) {
    // Bounded outstanding I/O: the background submitter stalls until its
    // request fits the backlog window.
    clock_->AdvanceTo(complete - timing_.max_async_backlog_us);
  }
}

void FlashArray::OccupyLane(FlashLane& lane, uint32_t chip,
                            uint64_t pre_transfer_bytes, uint64_t op_us,
                            uint64_t post_transfer_bytes, bool sync,
                            IoTiming* t) {
  // Occupy()'s service-time model against the lane's shadow state and clock.
  // The completion computed here is provisional — DrainLanes() replays the
  // reservation against the shared state for the authoritative schedule.
  uint32_t channel = chip / geo_.chips_per_channel;
  SimTime now = lane.clock_.Now();

  SimTime chan_free = std::max(lane.channel_busy_[channel], now);
  SimTime after_cmd = chan_free + timing_.command_overhead_us +
                      timing_.TransferUs(pre_transfer_bytes);
  SimTime chip_free = std::max(lane.chip_busy_[chip], after_cmd);
  SimTime after_op = chip_free + op_us;
  SimTime chan_free2 = std::max(lane.channel_busy_[channel], after_op);
  SimTime complete = chan_free2 + timing_.TransferUs(post_transfer_bytes);

  lane.channel_busy_[channel] = std::max(after_cmd, complete);
  lane.chip_busy_[chip] = after_op;
  lane.pending_.push_back({now, lane.next_seq_++, chip, pre_transfer_bytes,
                           op_us, post_transfer_bytes, sync});

  if (t) {
    t->submitted = now;
    t->completed = complete;
  }
  if (sync) {
    lane.clock_.AdvanceTo(complete);
  } else if (timing_.max_async_backlog_us > 0 &&
             complete > now + timing_.max_async_backlog_us) {
    lane.clock_.AdvanceTo(complete - timing_.max_async_backlog_us);
  }
}

void FlashArray::SetPowerLossPolicy(const PowerLossPolicy& policy) {
  power_policy_ = policy;
  power_rng_.Seed(policy.seed);
  mutation_ops_ = 0;
}

void FlashArray::PowerCycle() {
  powered_on_ = true;
  // Volatile controller state (queued commands) is gone; the media keeps
  // whatever torn state the loss left behind.
  SimTime now = clock_->Now();
  for (auto& chip : chips_) chip.busy_until = now;
  for (auto& chan : channel_busy_) chan = now;
  for (auto& lane : lanes_) {
    lane->pending_.clear();
    lane->next_seq_ = 0;
    lane->clock_.AdvanceTo(now);
    lane->chip_busy_.assign(chips_.size(), now);
    lane->channel_busy_.assign(channel_busy_.size(), now);
  }
}

bool FlashArray::DrawPowerLoss() {
  uint64_t op = mutation_ops_++;
  if (op == power_policy_.inject_at_op) return true;
  return power_policy_.per_op_probability > 0.0 &&
         power_rng_.Chance(power_policy_.per_op_probability);
}

void FlashArray::ApplyTornProgram(uint8_t* stored, const uint8_t* target,
                                  uint32_t len) {
  // A random prefix of the payload finished its ISPP pulses before the
  // supply collapsed.
  uint32_t tear = static_cast<uint32_t>(power_rng_.Uniform(len + 1));
  for (uint32_t i = 0; i < tear; i++) stored[i] &= target[i];
  // The 32-bit word in flight completed an arbitrary subset of its pending
  // 1 -> 0 transitions — ISPP only adds charge, so no bit can rise.
  uint32_t word_end = std::min(len, (tear & ~3u) + 4);
  for (uint32_t i = tear; i < word_end; i++) {
    uint8_t pending = static_cast<uint8_t>(stored[i] & ~target[i]);
    uint8_t cleared = static_cast<uint8_t>(pending & power_rng_.Next());
    stored[i] = static_cast<uint8_t>(stored[i] & ~cleared);
  }
}

void FlashArray::MergeOob(PageState& page, const uint8_t* oob, uint32_t oob_len) {
  if (!oob || oob_len == 0) return;
  if (page.oob.empty()) page.oob.assign(geo_.oob_size, 0xFF);
  for (uint32_t i = 0; i < oob_len; i++) page.oob[i] &= oob[i];
}

void FlashArray::MaybeInjectRetention(PageState& page) {
  if (errors_.retention_flip_per_read <= 0.0 || page.data.empty()) return;
  if (!rng_.Chance(errors_.retention_flip_per_read)) return;
  // Charge leakage: a programmed 0-bit drifts back to 1. Pick a random
  // position; if that bit is 0, flip it (persistently, in the array).
  size_t byte = rng_.Uniform(page.data.size());
  unsigned bit = static_cast<unsigned>(rng_.Uniform(8));
  if ((page.data[byte] & (1u << bit)) == 0) {
    Writable(page)[byte] |= static_cast<uint8_t>(1u << bit);
    stats_.retention_flips++;
  }
}

void FlashArray::MaybeInjectInterference(Ppn lsb_ppn) {
  if (errors_.interference_flip_per_delta <= 0.0) return;
  if (geo_.cell_type != CellType::kMlc) return;  // negligible on SLC / 3D NAND
  PageAddress a = FromPpn(geo_, lsb_ppn);
  uint32_t w = WordlineOf(geo_, a.page);
  // Interference couples into the MSB pages of the adjacent wordlines
  // (Appendix C.2). Voltage shifts materialize as bit errors only where four
  // threshold levels must be distinguished *and* the cells are still erased
  // (the page's own delta area); fully programmed body cells are stable.
  for (int dw = -1; dw <= 1; dw += 2) {
    int64_t nw = static_cast<int64_t>(w) + dw;
    if (nw < 0) continue;
    uint32_t msb = static_cast<uint32_t>(2 * nw) + 3;
    if (msb >= geo_.pages_per_block) continue;
    Ppn npn = ToPpn(geo_, {a.chip, a.block, msb});
    PageState& neighbor = PageRef(npn);
    if (neighbor.IsErased() || neighbor.data.empty()) continue;
    if (!rng_.Chance(errors_.interference_flip_per_delta)) continue;
    // Flip one random *erased* (still-1) bit: the coupled cell picks up
    // charge, so a 1 drifts towards 0. Programmed (0) cells are already at a
    // high charge level and stay stable; sample until a 1-bit is found.
    for (int attempt = 0; attempt < 64; attempt++) {
      size_t byte = rng_.Uniform(neighbor.data.size());
      unsigned bit = static_cast<unsigned>(rng_.Uniform(8));
      if (neighbor.data[byte] & (1u << bit)) {
        Writable(neighbor)[byte] &= static_cast<uint8_t>(~(1u << bit));
        stats_.interference_flips++;
        break;
      }
    }
  }
}

Status FlashArray::ReadPage(Ppn ppn, uint8_t* out, IoTiming* t, bool sync) {
  PageImage image;
  IPA_RETURN_NOT_OK(ReadImage(ppn, &image, t, sync));
  std::memcpy(out, image.data(), geo_.page_size);
  return Status::OK();
}

Status FlashArray::ReadImage(Ppn ppn, PageImage* out, IoTiming* t, bool sync) {
  if (!powered_on_) return Status::Unavailable("flash device is powered off");
  IPA_RETURN_NOT_OK(CheckPpn(ppn));
  PageState& page = PageRef(ppn);
  MaybeInjectRetention(page);
  *out = page.data.empty() ? erased_ : page.data;
  PageAddress a = FromPpn(geo_, ppn);
  uint32_t chip = a.chip;
  Occupy(chip, 0, timing_.read_us, geo_.page_size, sync, t);
  DeviceStats& st = StatsFor(chip);
  st.page_reads++;
  st.bytes_read += geo_.page_size;
  return Status::OK();
}

Status FlashArray::ProgramPage(Ppn ppn, const uint8_t* data, const uint8_t* oob,
                               uint32_t oob_len, IoTiming* t, bool sync) {
  return Program(ppn, data, nullptr, oob, oob_len, t, sync);
}

Status FlashArray::ProgramImage(Ppn ppn, PageImage image, const uint8_t* oob,
                                uint32_t oob_len, IoTiming* t, bool sync) {
  const uint8_t* data = image.data();
  return Program(ppn, data, &image, oob, oob_len, t, sync);
}

Status FlashArray::Program(Ppn ppn, const uint8_t* data, PageImage* image,
                           const uint8_t* oob, uint32_t oob_len, IoTiming* t,
                           bool sync) {
  if (!powered_on_) return Status::Unavailable("flash device is powered off");
  bool lose_power = DrawPowerLoss();
  IPA_RETURN_NOT_OK(CheckPpn(ppn));
  PageAddress a = FromPpn(geo_, ppn);
  BlockState& blk = BlockRef(BlockOf(geo_, ppn));
  if (blk.pages.empty()) blk.pages.resize(geo_.pages_per_block);
  PageState& page = blk.pages[a.page];

  // Validate fully before touching media: a rejected command never draws
  // program current, so it cannot tear (and stays atomic for the caller).
  if (page.program_count >= geo_.max_programs_per_page) {
    return Status::NotSupported("page program budget exhausted (NOP limit)");
  }
  bool initial = page.IsErased();
  if (initial) {
    // Initial program. MLC requires in-order programming within the block.
    if (geo_.cell_type != CellType::kSlc &&
        static_cast<int32_t>(a.page) <= blk.highest_programmed) {
      return Status::NotSupported("MLC requires in-order page programming");
    }
  } else {
    // ISPP re-program: every bit may only go 1 -> 0.
    const uint8_t* stored = page.data.data();
    for (uint32_t i = 0; i < geo_.page_size; i++) {
      if ((data[i] & stored[i]) != data[i]) {
        StatsFor(a.chip).ispp_rejections++;
        return Status::NotSupported("re-program requires 0->1 transition (ISPP)");
      }
    }
  }
  uint32_t merged_oob = (oob && oob_len > 0) ? std::min(oob_len, geo_.oob_size) : 0;
  if (merged_oob > 0 && !page.oob.empty()) {
    for (uint32_t i = 0; i < merged_oob; i++) {
      if ((oob[i] & page.oob[i]) != oob[i]) {
        StatsFor(a.chip).ispp_rejections++;
        return Status::NotSupported("OOB re-program requires 0->1 transition");
      }
    }
  }

  if (initial) {
    blk.highest_programmed =
        std::max(blk.highest_programmed, static_cast<int32_t>(a.page));
  }

  if (lose_power) {
    // The controller sequences OOB and data in either order; on a loss only
    // whatever already ran is on media.
    bool oob_first = merged_oob > 0 && power_rng_.Chance(0.5);
    if (oob_first) MergeOob(page, oob, merged_oob);
    if (initial) {
      page.data = images_.Take();
      std::memset(page.data.mutable_data(), 0xFF, geo_.page_size);
    }
    ApplyTornProgram(Writable(page), data, geo_.page_size);
    page.program_count++;
    powered_on_ = false;
    stats_.power_loss_injections++;
    stats_.torn_page_programs++;
    return Status::Unavailable("power loss during page program");
  }

  // An erased page ANDed with `data` is `data`, and a re-program passed the
  // ISPP check, so the page stores exactly `data`.
  page.data = image ? std::move(*image) : images_.Copy(data);
  page.program_count++;
  MergeOob(page, oob, merged_oob);

  bool lsb = IsLsbPage(geo_, a.page);
  uint64_t prog_us = lsb ? timing_.program_lsb_us : timing_.program_msb_us;
  Occupy(a.chip, geo_.page_size, prog_us, 0, sync, t);
  DeviceStats& st = StatsFor(a.chip);
  st.page_programs++;
  (lsb ? st.page_programs_lsb : st.page_programs_msb)++;
  st.bytes_programmed += geo_.page_size;
  return Status::OK();
}

Status FlashArray::ProgramDelta(Ppn ppn, uint32_t offset, const uint8_t* delta,
                                uint32_t len, IoTiming* t, bool sync) {
  if (!powered_on_) return Status::Unavailable("flash device is powered off");
  bool lose_power = DrawPowerLoss();
  IPA_RETURN_NOT_OK(CheckPpn(ppn));
  if (len == 0) return Status::InvalidArgument("empty delta");
  if (offset + len > geo_.page_size) {
    return Status::InvalidArgument("delta exceeds page bounds");
  }
  PageAddress a = FromPpn(geo_, ppn);
  if (geo_.cell_type == CellType::kMlc && !IsLsbPage(geo_, a.page)) {
    // Appendix C.2: MSB pages must always be written out-of-place.
    return Status::NotSupported("write_delta not allowed on MLC MSB pages");
  }
  PageState& page = PageRef(ppn);
  if (page.IsErased()) {
    return Status::InvalidArgument("write_delta targets an erased page");
  }
  if (page.program_count >= geo_.max_programs_per_page) {
    return Status::NotSupported("page program budget exhausted (NOP limit)");
  }
  const uint8_t* stored = page.data.data();
  for (uint32_t i = 0; i < len; i++) {
    if ((delta[i] & stored[offset + i]) != delta[i]) {
      StatsFor(a.chip).ispp_rejections++;
      return Status::NotSupported("delta requires 0->1 transition (ISPP)");
    }
  }
  if (lose_power) {
    ApplyTornProgram(Writable(page) + offset, delta, len);
    page.program_count++;
    powered_on_ = false;
    stats_.power_loss_injections++;
    stats_.torn_delta_programs++;
    return Status::Unavailable("power loss during delta program");
  }
  std::memcpy(Writable(page) + offset, delta, len);
  page.program_count++;

  MaybeInjectInterference(ppn);

  Occupy(a.chip, len, timing_.program_delta_us, 0, sync, t);
  DeviceStats& st = StatsFor(a.chip);
  st.delta_programs++;
  st.delta_bytes_programmed += len;
  return Status::OK();
}

Status FlashArray::ProgramOob(Ppn ppn, uint32_t offset, const uint8_t* bytes,
                              uint32_t len) {
  if (!powered_on_) return Status::Unavailable("flash device is powered off");
  IPA_RETURN_NOT_OK(CheckPpn(ppn));
  if (offset + len > geo_.oob_size) {
    return Status::InvalidArgument("OOB write exceeds OOB size");
  }
  PageState& page = PageRef(ppn);
  if (page.oob.empty()) page.oob.assign(geo_.oob_size, 0xFF);
  for (uint32_t i = 0; i < len; i++) {
    if ((bytes[i] & page.oob[offset + i]) != bytes[i]) {
      StatsFor(ChipOf(ppn)).ispp_rejections++;
      return Status::NotSupported("OOB delta requires 0->1 transition (ISPP)");
    }
    page.oob[offset + i] = bytes[i];
  }
  return Status::OK();
}

Status FlashArray::ReadOob(Ppn ppn, uint8_t* out, uint32_t len) {
  if (!powered_on_) return Status::Unavailable("flash device is powered off");
  IPA_RETURN_NOT_OK(CheckPpn(ppn));
  if (len > geo_.oob_size) return Status::InvalidArgument("OOB read too long");
  const PageState& page = page_state(ppn);
  if (page.oob.empty()) {
    std::memset(out, 0xFF, len);
  } else {
    std::memcpy(out, page.oob.data(), len);
  }
  return Status::OK();
}

Status FlashArray::RefreshPage(Ppn ppn, const uint8_t* data, IoTiming* t,
                               bool sync) {
  if (!powered_on_) return Status::Unavailable("flash device is powered off");
  IPA_RETURN_NOT_OK(CheckPpn(ppn));
  PageState& page = PageRef(ppn);
  if (page.IsErased()) {
    return Status::InvalidArgument("refresh of an erased page");
  }
  const uint8_t* stored = page.data.data();
  for (uint32_t i = 0; i < geo_.page_size; i++) {
    if ((data[i] & stored[i]) != data[i]) {
      StatsFor(ChipOf(ppn)).ispp_rejections++;
      return Status::NotSupported("refresh requires 0->1 transition (ISPP)");
    }
  }
  std::memcpy(Writable(page), data, geo_.page_size);
  PageAddress a = FromPpn(geo_, ppn);
  bool lsb = IsLsbPage(geo_, a.page);
  Occupy(a.chip, geo_.page_size,
         lsb ? timing_.program_lsb_us : timing_.program_msb_us, 0, sync, t);
  StatsFor(a.chip).page_refreshes++;
  return Status::OK();
}

Status FlashArray::AuditState() const {
  auto fail = [](Pbn pbn, uint32_t page, const char* what) {
    return Status::Corruption("flash audit: block " + std::to_string(pbn) +
                              " page " + std::to_string(page) + ": " + what);
  };
  for (Pbn pbn = 0; pbn < blocks_.size(); pbn++) {
    const BlockState& blk = blocks_[pbn];
    if (!blk.pages.empty() && blk.pages.size() != geo_.pages_per_block) {
      return fail(pbn, 0, "page vector does not match the geometry");
    }
    if (blk.highest_programmed >= static_cast<int32_t>(geo_.pages_per_block)) {
      return fail(pbn, 0, "in-order frontier beyond the block");
    }
    for (uint32_t p = 0; p < blk.pages.size(); p++) {
      const PageState& ps = blk.pages[p];
      if (ps.IsErased() != ps.data.empty()) {
        return fail(pbn, p, "program count disagrees with stored data");
      }
      if (!ps.data.empty() && ps.data.size() != geo_.page_size) {
        return fail(pbn, p, "stored data is not page-sized");
      }
      if (!ps.oob.empty() && ps.oob.size() != geo_.oob_size) {
        return fail(pbn, p, "stored OOB is not oob-sized");
      }
      if (ps.program_count > geo_.max_programs_per_page) {
        return fail(pbn, p, "program budget exceeded");
      }
      if (!ps.IsErased() &&
          static_cast<int32_t>(p) > blk.highest_programmed) {
        return fail(pbn, p, "programmed page above the in-order frontier");
      }
    }
  }
  return Status::OK();
}

Status FlashArray::EraseBlock(Pbn pbn, IoTiming* t, bool sync) {
  if (!powered_on_) return Status::Unavailable("flash device is powered off");
  bool lose_power = DrawPowerLoss();
  if (pbn >= geo_.total_blocks()) {
    return Status::InvalidArgument("pbn out of range");
  }
  BlockState& blk = blocks_[pbn];
  if (lose_power) {
    // Partial erase: charge drained from some cells but not others, so the
    // block reads as garbage biased towards 1 (erased). Program counters are
    // kept — the block was NOT erased and refuses initial programs until a
    // successful re-erase.
    for (auto& page : blk.pages) {
      if (!page.data.empty()) {
        uint8_t* data = Writable(page);
        for (uint32_t i = 0; i < geo_.page_size; i++) {
          data[i] |= static_cast<uint8_t>(power_rng_.Next());
        }
      }
      for (auto& b : page.oob) b |= static_cast<uint8_t>(power_rng_.Next());
    }
    blk.erase_count++;
    powered_on_ = false;
    stats_.power_loss_injections++;
    stats_.torn_erases++;
    return Status::Unavailable("power loss during block erase");
  }
  // The last handle of a dropped image returns it to its pool, so
  // reprogramming allocates nothing once the pools are warm.
  for (PageState& page : blk.pages) {
    page.data.reset();
    page.oob.clear();
    page.program_count = 0;
  }
  blk.erase_count++;
  blk.highest_programmed = -1;
  uint32_t chip = static_cast<uint32_t>(pbn / geo_.blocks_per_chip);
  Occupy(chip, 0, timing_.erase_us, 0, sync, t);
  StatsFor(chip).block_erases++;
  return Status::OK();
}

}  // namespace ipa::flash
