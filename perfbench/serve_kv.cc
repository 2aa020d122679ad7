// serve-kv: 20k keys through net::KvService on a 4-partition
// ShardedDatabase (NoFTL + IPA [2x4], group commit of 8 ops / 1 ms, 100 us
// log force). Zipf 0.8, 50% writes (5% of them deletes), values of
// 64-1024 B. Open-loop Poisson arrivals on the simulated clock; every
// request is encoded and decoded as a real frame, passes admission control
// and is acknowledged only after its batch's log force. All partitions are
// driven from this thread, one after another (threaded driving spreads the
// wall times 2x run to run).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "net/admission.h"
#include "net/kv_service.h"
#include "net/loadgen.h"
#include "net/protocol.h"
#include "workload/testbed.h"

namespace perfbench {
namespace {

using namespace ipa;
using net::Op;
using net::RStatus;

constexpr uint32_t kPartitions = 4;
constexpr uint64_t kKeys = 20000;
constexpr double kZipfTheta = 0.8;
constexpr double kWriteFraction = 0.5;
constexpr double kDeleteFraction = 0.05;  // of writes
constexpr uint32_t kValueMin = 64, kValueMax = 1024;
constexpr uint32_t kCpuUsPerRequest = 20;
/// Per-partition admission budget: deep enough (200 ms at the reference
/// rate) that checkpoint and GC stalls queue rather than shed.
constexpr uint32_t kInflightBudget = 512;
constexpr uint32_t kBatchOps = 8;
constexpr uint32_t kRetryHintUs = 200;
/// The fixed open-loop rate of the measured window.
constexpr double kRefRate = 10000;
/// Requests per wall second the window is sized for.
constexpr double kNominalOpsPerS = 110000;
/// Arrivals per SLO probe and per warm-up chunk.
constexpr uint64_t kSloArrivals = 4000;
constexpr uint64_t kWarmupChunk = 5000;
constexpr uint64_t kWarmupCapChunks = 200;
/// Ack time of an admitted request whose batch has not been forced yet.
constexpr SimTime kUnforced = ~0ull;

struct Arrival {
  SimTime at = 0;
  Op op = Op::kGet;
  uint64_t key = 0;
  uint32_t vlen = 0;
  uint64_t seq = 0;  ///< Per-key write sequence (PUT only).
};

struct RequestResult {
  SimTime at = 0, resp = 0;
  RStatus status = RStatus::kOk;
  uint64_t bytes = 0;
  SimTime queue_wait = 0, force_wait = 0;
  uint64_t wall_ns = 0;
};

/// Oracle entry: the last acknowledged write of a key.
struct Expect {
  uint64_t seq = 0;
  uint32_t len = 0;
};

class ServeBench final : public Instance {
 public:
  Status Setup(uint64_t seed, Tracer* tracer) override;
  void PrintShape(uint64_t ops) const override {
    std::printf("# db pages %llu, buffer pages %llu (%u partitions), "
                "%llu requests per window\n",
                static_cast<unsigned long long>(db_pages_),
                static_cast<unsigned long long>(bed_->buffer_pages_per_part *
                                                kPartitions),
                kPartitions, static_cast<unsigned long long>(ops));
  }
  /// Two open-loop phases at the reference rate (one per window half).
  Result<Window> Measure(uint64_t ops, Tracer* tracer) override;
  Result<bool> Probe(double rate, uint64_t seed) override;
  /// Audit, then crash, recover and verify every acknowledged write.
  Status Check() override;

 private:
  /// One open-loop phase of `n` Poisson arrivals at `rate`. Fills `w` (when
  /// not null) with the phase's per-request samples; `lag` is how far the
  /// slowest partition ends behind the last arrival.
  Status Phase(double rate, uint64_t n, Window* w, SimTime* lag);
  Counters Snap();
  Arrival Draw(SimTime at);
  Status Process(uint32_t p, const std::vector<uint64_t>& idx,
                 const std::vector<Arrival>& arr, std::vector<RequestResult>* res,
                 uint64_t* forces);
  Status CheckGet(uint64_t key, RStatus rs, const net::Frame& resp);
  Status Audit();
  /// Simulated crash after the last phase: recovery must keep every
  /// acknowledged write and no deleted key.
  Status CrashAndVerify();

  std::vector<std::unique_ptr<TracedDevice>> traced_;  ///< Outlive bed_.
  std::unique_ptr<workload::ShardedTestbed> bed_;
  std::unique_ptr<net::KvService> kv_;
  std::unique_ptr<net::AdmissionController> ac_;
  Tracer* tracer_ = nullptr;
  uint64_t db_pages_ = 0;
  Rng rng_;
  std::unique_ptr<ZipfianGenerator> zipf_;
  std::unordered_map<uint64_t, uint64_t> next_seq_;
  std::unordered_map<uint64_t, Expect> expected_;
  std::vector<std::deque<SimTime>> inflight_;
};

uint32_t PreloadLen(uint64_t key) {
  return kValueMin + static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull >> 40) %
                                           (kValueMax - kValueMin + 1));
}

Status ServeBench::Setup(uint64_t seed, Tracer* tracer) {
  tracer_ = tracer;
  rng_.Seed(seed);
  zipf_ = std::make_unique<ZipfianGenerator>(kKeys, kZipfTheta);
  storage::Scheme scheme{.n = 2, .m = 4, .v = 12};
  workload::ShardedTestbedConfig sc;
  sc.workers = kPartitions;
  sc.threaded = false;
  // bench_serve's sizing: three times the raw key/value bytes.
  db_pages_ =
      std::max<uint64_t>(512, kKeys * ((kValueMin + kValueMax) / 2 + 40) / 4096 * 3);
  sc.base.db_pages = db_pages_;
  sc.base.scheme = scheme;
  sc.base.buffer_fraction = 0.5;
  sc.group_commit_ops = kBatchOps;
  sc.group_commit_window_us = 1000;
  sc.log_force_us = 100;
  IPA_ASSIGN_OR_RETURN(bed_, workload::MakeShardedTestbed(sc));

  std::vector<net::KvService::PartitionConfig> pcs;
  for (auto& part : bed_->parts) {
    ftl::FtlBackend* dev = bed_->noftl->region_device(part.region);
    if (tracer) {
      traced_.push_back(
          std::make_unique<TracedDevice>(dev, tracer, &part.db->sim_clock()));
      dev = traced_.back().get();
    }
    IPA_ASSIGN_OR_RETURN(engine::TablespaceId ts,
                         part.db->CreateTablespaceOn("bench", dev, scheme));
    pcs.push_back({part.db.get(), ts});
  }
  IPA_ASSIGN_OR_RETURN(kv_, net::KvService::Create(pcs));
  ac_ = std::make_unique<net::AdmissionController>(
      kPartitions, net::AdmissionController::Config{
                       .inflight_budget = kInflightBudget,
                       .base_retry_hint_us = kRetryHintUs});
  inflight_.assign(kPartitions, {});

  for (uint64_t k = 0; k < kKeys; ++k) {
    uint32_t p = kv_->PartitionOfKey(k);
    RStatus rs = kv_->Put(p, net::kAutoCommit, k, net::ValueBytes(k, 0, PreloadLen(k)));
    if (rs != RStatus::kOk) {
      return Status::Internal(std::string("preload PUT: ") + net::StatusName(rs));
    }
    expected_[k] = {0, PreloadLen(k)};
  }
  for (uint32_t p = 0; p < kPartitions; ++p) kv_->ForceLog(p);
  IPA_RETURN_NOT_OK(bed_->sharded->Checkpoint());
  bed_->sharded->EpochBarrier();

  // Warm up at the reference rate until GC runs.
  for (uint64_t c = 0; bed_->dev->AggregateStats().block_erases == 0; ++c) {
    if (c == kWarmupCapChunks) return Status::Internal("warm-up: GC never started");
    SimTime lag = 0;
    IPA_RETURN_NOT_OK(Phase(kRefRate, kWarmupChunk, nullptr, &lag));
  }
  return Status::OK();
}

Counters ServeBench::Snap() {
  Counters c;
  c.dev = bed_->dev->AggregateStats();
  for (uint32_t p = 0; p < kPartitions; ++p) {
    c.AddRegion(bed_->region_stats(p));
    c.AddDb(*bed_->parts[p].db);
  }
  return c;
}

Arrival ServeBench::Draw(SimTime at) {
  Arrival a;
  a.at = at;
  a.key = zipf_->Next(rng_);
  if (!rng_.Chance(kWriteFraction)) {
    a.op = Op::kGet;
  } else if (rng_.Chance(kDeleteFraction)) {
    a.op = Op::kDelete;
  } else {
    a.op = Op::kPut;
    a.seq = ++next_seq_[a.key];
    a.vlen = kValueMin +
             static_cast<uint32_t>(rng_.Uniform(kValueMax - kValueMin + 1));
  }
  return a;
}

Status ServeBench::CheckGet(uint64_t key, RStatus rs, const net::Frame& resp) {
  auto it = expected_.find(key);
  if (rs == RStatus::kNotFound) {
    if (it != expected_.end()) return Status::Corruption("GET lost an acknowledged key");
    return Status::OK();
  }
  if (rs != RStatus::kOk) return Status::OK();  // counted as failed
  if (it == expected_.end()) {
    return Status::Corruption("GET returned a value for a deleted key");
  }
  if (resp.payload != net::ValueBytes(key, it->second.seq, it->second.len)) {
    return Status::Corruption("GET value differs from the last acknowledged write");
  }
  return Status::OK();
}

Status ServeBench::Process(uint32_t p, const std::vector<uint64_t>& idx,
                           const std::vector<Arrival>& arr,
                           std::vector<RequestResult>* res, uint64_t* forces) {
  engine::Database& db = kv_->db(p);
  SimClock& clock = db.sim_clock();
  engine::Lsn durable = db.wal().durable_lsn();
  net::FrameDecoder server_dec, client_dec;
  struct Pending {
    uint64_t i;
    SimTime done;
    uint64_t wall_begin;
  };
  std::vector<Pending> batch;
  std::deque<SimTime>& inflight = inflight_[p];

  auto force = [&] {
    if (batch.empty()) return;
    {
      SpanScope s(tracer_, SpanKind::kForceLog, clock);
      kv_->ForceLog(p);  // ack-after-force: no response before durability
    }
    SimTime ft = clock.Now();
    uint64_t wall = WallNs();
    for (const Pending& b : batch) {
      RequestResult& r = (*res)[b.i];
      r.resp = ft;
      r.force_wait = ft - b.done;
      r.wall_ns = wall - b.wall_begin;
    }
    for (size_t k = inflight.size() - batch.size(); k < inflight.size(); ++k) {
      inflight[k] = ft;
    }
    batch.clear();
  };
  auto count_force = [&] {
    if (db.wal().durable_lsn() != durable) {
      durable = db.wal().durable_lsn();
      (*forces)++;
    }
  };

  std::vector<uint8_t> wire, resp, value;
  net::Frame req_frame, resp_frame;
  for (uint64_t i : idx) {
    const Arrival& a = arr[i];
    RequestResult& r = (*res)[i];
    r.at = a.at;
    if (tracer_) tracer_->BeginOp();
    // The server went idle before this arrival: close the open batch, as
    // the epoll loop does at the end of an event-drain iteration.
    if (a.at > clock.Now()) {
      force();
      count_force();
    }
    uint64_t wall_begin = WallNs();
    while (!inflight.empty() && inflight.front() <= a.at) {
      inflight.pop_front();
      ac_->Complete(p);
    }

    wire.clear();
    {
      SpanScope s(tracer_, SpanKind::kEncode, clock);
      std::vector<uint8_t> payload =
          a.op == Op::kGet   ? net::GetPayload(net::kAutoCommit, a.key)
          : a.op == Op::kPut ? net::PutPayload(net::kAutoCommit, a.key,
                                               net::ValueBytes(a.key, a.seq, a.vlen))
                             : net::DeletePayload(net::kAutoCommit, a.key);
      net::EncodeFrame(static_cast<uint8_t>(a.op), i, payload, &wire);
    }
    r.bytes = wire.size();
    if (!ac_->TryAdmit(p)) {
      r.status = RStatus::kRetry;
      r.resp = a.at;
      resp.clear();
      net::EncodeFrame(static_cast<uint8_t>(RStatus::kRetry), i,
                       net::RetryPayload(ac_->RetryHintUs(p)), &resp);
      r.bytes += resp.size();
      if (tracer_) tracer_->EndOp(a.at, a.at);
      continue;
    }
    r.queue_wait = clock.Now() > a.at ? clock.Now() - a.at : 0;
    clock.AdvanceTo(a.at);
    SimTime sim_begin = clock.Now();

    net::Request req;
    {
      SpanScope s(tracer_, SpanKind::kDecode, clock);
      server_dec.Feed(wire);
      if (server_dec.Poll(&req_frame) != net::FrameDecoder::Next::kFrame ||
          !net::ParseRequest(req_frame, &req)) {
        return Status::Internal("request frame did not decode");
      }
    }
    value.clear();
    {
      SpanScope s(tracer_, SpanKind::kKvCall, clock);
      if (req.op == Op::kGet) {
        r.status = kv_->Get(p, net::kAutoCommit, req.key, &value);
      } else if (req.op == Op::kPut) {
        r.status = kv_->Put(p, net::kAutoCommit, req.key, req.value);
      } else {
        r.status = kv_->Delete(p, net::kAutoCommit, req.key);
      }
    }
    clock.Advance(kCpuUsPerRequest);
    resp.clear();
    {
      SpanScope s(tracer_, SpanKind::kEncode, clock);
      net::EncodeFrame(static_cast<uint8_t>(r.status), i,
                       r.status == RStatus::kOk ? std::span<const uint8_t>(value)
                                                : std::span<const uint8_t>(),
                       &resp);
    }
    {
      SpanScope s(tracer_, SpanKind::kDecode, clock);
      client_dec.Feed(resp);
      if (client_dec.Poll(&resp_frame) != net::FrameDecoder::Next::kFrame) {
        return Status::Internal("response frame did not decode");
      }
    }
    r.bytes += resp.size();
    count_force();
    inflight.push_back(kUnforced);
    batch.push_back({i, clock.Now(), wall_begin});
    if (batch.size() >= kBatchOps) {
      force();
      count_force();
    }
    if (tracer_) tracer_->EndOp(sim_begin, clock.Now());

    // Oracle of acknowledged writes (outside the op span: not system work).
    if (a.op == Op::kGet) {
      IPA_RETURN_NOT_OK(CheckGet(a.key, r.status, resp_frame));
    } else if (a.op == Op::kPut && r.status == RStatus::kOk) {
      expected_[a.key] = {a.seq, a.vlen};
    } else if (a.op == Op::kDelete) {
      if (r.status == RStatus::kNotFound && expected_.count(a.key)) {
        return Status::Corruption("DELETE missed an acknowledged key");
      }
      if (r.status == RStatus::kOk) expected_.erase(a.key);
    }
  }
  force();
  count_force();
  return Status::OK();
}

Status ServeBench::Phase(double rate, uint64_t n, Window* w, SimTime* lag) {
  SimTime t0 = bed_->sharded->EpochBarrier();
  std::vector<Arrival> arr;
  arr.reserve(n);
  double t = 0;
  for (uint64_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng_.NextDouble()) / rate * 1e6;
    arr.push_back(Draw(t0 + static_cast<SimTime>(t)));
  }
  SimTime end = t0 + static_cast<SimTime>(t);
  std::vector<std::vector<uint64_t>> per_part(kPartitions);
  for (uint64_t i = 0; i < n; ++i) {
    per_part[kv_->PartitionOfKey(arr[i].key)].push_back(i);
  }
  std::vector<RequestResult> res(n);
  uint64_t forces = 0;
  *lag = 0;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    IPA_RETURN_NOT_OK(Process(p, per_part[p], arr, &res, &forces));
    SimTime now = kv_->db(p).sim_clock().Now();
    *lag = std::max<SimTime>(*lag, now > end ? now - end : 0);
  }
  SimTime t1 = bed_->sharded->EpochBarrier();
  if (!w) return Status::OK();

  w->sim_us += std::max<SimTime>(t1, end) - t0;
  w->forces += forces;
  for (const RequestResult& r : res) {
    w->attempted++;
    w->wire_bytes += r.bytes;
    if (r.status == RStatus::kOk || r.status == RStatus::kNotFound) {
      w->completed++;
      w->sim_lat_us.push_back(static_cast<double>(r.resp - r.at));
      w->queue_wait_us.push_back(static_cast<double>(r.queue_wait));
      w->force_wait_us.push_back(static_cast<double>(r.force_wait));
      w->wall_lat_ns.push_back(static_cast<double>(r.wall_ns));
    } else {
      w->failed++;
      if (r.status == RStatus::kRetry) w->shed++;
    }
  }
  return Status::OK();
}

Result<bool> ServeBench::Probe(double rate, uint64_t) {
  Window w;
  SimTime lag = 0;
  IPA_RETURN_NOT_OK(Phase(rate, kSloArrivals, &w, &lag));
  // A shed or failed request misses the limit.
  std::vector<double> lat = w.sim_lat_us;
  lat.resize(w.attempted, HUGE_VAL);
  return ReportProbe(rate, Summarize(std::move(lat), true).p99,
                     static_cast<double>(lag), w.shed, kSloP99Us);
}

Result<Window> ServeBench::Measure(uint64_t ops, Tracer* tracer) {
  Window w;
  Counters before = Snap();
  if (tracer) tracer->set_active(true);
  uint64_t wall0 = WallNs();
  SimTime lag = 0;
  Status s = Phase(kRefRate, ops / 2, &w, &lag);
  w.first_half = Minus(Snap(), before);
  if (s.ok()) s = Phase(kRefRate, ops - ops / 2, &w, &lag);
  w.wall_s = static_cast<double>(WallNs() - wall0) / 1e9;
  if (tracer) tracer->set_active(false);
  IPA_RETURN_NOT_OK(s);
  w.delta = Minus(Snap(), before);
  return w;
}

Status ServeBench::Check() {
  IPA_RETURN_NOT_OK(Audit());
  IPA_RETURN_NOT_OK(CrashAndVerify());
  return Audit();
}

Status ServeBench::CrashAndVerify() {
  bed_->sharded->EpochBarrier();
  bed_->sharded->SimulateCrash();
  IPA_RETURN_NOT_OK(bed_->sharded->RecoverAfterPowerLoss());
  IPA_RETURN_NOT_OK(kv_->RebuildIndexes());
  std::vector<uint8_t> v;
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint32_t p = kv_->PartitionOfKey(k);
    v.clear();
    RStatus rs = kv_->Get(p, net::kAutoCommit, k, &v);
    auto it = expected_.find(k);
    if (it == expected_.end()) {
      if (rs != RStatus::kNotFound) {
        return Status::Corruption("after recovery: deleted key " +
                                  std::to_string(k) + " is back");
      }
    } else if (rs != RStatus::kOk ||
               v != net::ValueBytes(k, it->second.seq, it->second.len)) {
      return Status::Corruption("after recovery: acknowledged write of key " +
                                std::to_string(k) + " lost");
    }
  }
  return Status::OK();
}

Status ServeBench::Audit() {
  for (uint32_t p = 0; p < kPartitions; ++p) {
    IPA_RETURN_NOT_OK(bed_->noftl->region_device(bed_->parts[p].region)->Audit());
  }
  return Status::OK();
}

}  // namespace

WorkloadDef ServeKv() {
  WorkloadDef def;
  def.nominal_ops_per_s = kNominalOpsPerS;
  def.ladder = GeometricLadder(250, 80000);
  def.make = [] { return std::make_unique<ServeBench>(); };
  return def;
}

}  // namespace perfbench
