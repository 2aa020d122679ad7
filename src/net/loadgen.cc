#include "net/loadgen.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/sim_clock.h"

namespace ipa::net {

namespace {

/// Ack-time placeholder for admitted requests whose batch has not forced yet:
/// never <= any arrival time, so the request stays counted as inflight.
constexpr SimTime kUnforced = ~0ull;

/// Partition-count-independent preload value length (SplitMix64 of the key),
/// so every sharding layout preloads byte-identical tuples.
uint32_t PreloadLen(const LoadgenConfig& cfg, uint64_t key) {
  uint64_t h = key;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return cfg.value_min +
         static_cast<uint32_t>(h % (cfg.value_max - cfg.value_min + 1));
}

}  // namespace

std::vector<uint8_t> ValueBytes(uint64_t key, uint64_t seq, uint32_t len) {
  if (len < 8) len = 8;
  std::vector<uint8_t> v;
  v.reserve(len);
  PutU64(&v, seq);
  Rng fill((key + 1) * 0x9E3779B97F4A7C15ull ^ (seq + 1));
  while (v.size() < len) {
    uint64_t x = fill.Next();
    for (int i = 0; i < 8 && v.size() < len; ++i) {
      v.push_back(static_cast<uint8_t>(x >> (8 * i)));
    }
  }
  return v;
}

ServeSim::ServeSim(engine::ShardedDatabase* sdb, KvService* kv,
                   AdmissionController* ac, const LoadgenConfig& cfg)
    : sdb_(sdb), kv_(kv), ac_(ac), cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.value_min < 8) cfg_.value_min = 8;
  if (cfg_.value_max < cfg_.value_min) cfg_.value_max = cfg_.value_min;
  if (cfg_.batch_ops == 0) cfg_.batch_ops = 1;
  if (cfg_.clients == 0) cfg_.clients = 1;
  zipf_ = std::make_unique<ZipfianGenerator>(cfg_.keys, cfg_.zipf_theta);
  parts_.resize(kv_->partitions());
}

Status ServeSim::Preload() {
  std::vector<std::vector<uint64_t>> keys_of(parts_.size());
  for (uint64_t k = 0; k < cfg_.keys; ++k) {
    keys_of[kv_->PartitionOfKey(k)].push_back(k);
  }
  std::vector<Status> st(parts_.size(), Status::OK());
  for (uint32_t p = 0; p < parts_.size(); ++p) {
    sdb_->Submit(p, [this, p, &keys_of, &st] {
      PartState& ps = parts_[p];
      for (uint64_t k : keys_of[p]) {
        RStatus rs =
            kv_->Put(p, kAutoCommit, k, ValueBytes(k, 0, PreloadLen(cfg_, k)));
        if (rs != RStatus::kOk) {
          st[p] = Status::Internal(std::string("preload PUT failed: ") +
                                   StatusName(rs));
          return;
        }
        ps.expected[k] = 0;
      }
      kv_->ForceLog(p);
    });
  }
  sdb_->EpochBarrier();
  for (const Status& s : st) IPA_RETURN_NOT_OK(s);
  IPA_RETURN_NOT_OK(sdb_->Checkpoint());
  sdb_->EpochBarrier();
  return Status::OK();
}

ServeSim::Arrival ServeSim::DrawRequest(Rng& rng) {
  Arrival a;
  a.key = zipf_->Next(rng);
  if (!rng.Chance(cfg_.write_fraction)) {
    a.op = static_cast<uint8_t>(Op::kGet);
  } else if (rng.Chance(cfg_.delete_fraction)) {
    a.op = static_cast<uint8_t>(Op::kDelete);
  } else {
    a.op = static_cast<uint8_t>(Op::kPut);
    a.seq = ++next_seq_[a.key];
    a.vlen = cfg_.value_min + static_cast<uint32_t>(rng.Uniform(
                                  cfg_.value_max - cfg_.value_min + 1));
  }
  return a;
}

Status ServeSim::ProcessStream(uint32_t p, const std::vector<Arrival>& arr,
                               std::vector<Outcome>* out) {
  PartState& ps = parts_[p];
  SimClock& clock = kv_->db(p).sim_clock();
  FrameDecoder dec;
  std::vector<uint64_t> batch;  // outcome indices awaiting the batch's ack

  auto force = [&] {
    if (batch.empty()) return;
    kv_->ForceLog(p);  // ack-after-force: no response before durability
    SimTime ft = clock.Now();
    for (uint64_t oi : batch) (*out)[oi].resp = ft;
    for (size_t i = ps.inflight.size() - batch.size(); i < ps.inflight.size();
         ++i) {
      ps.inflight[i] = ft;
    }
    batch.clear();
  };

  std::vector<uint8_t> wire;
  std::vector<uint8_t> got;
  for (const Arrival& a : arr) {
    // The server went idle before this arrival: flush the open batch the way
    // the epoll loop forces at the end of an event-drain iteration.
    if (a.at > clock.Now()) force();
    while (!ps.inflight.empty() && ps.inflight.front() <= a.at) {
      ps.inflight.pop_front();
      ac_->Complete(p);
    }

    Outcome& o = (*out)[a.idx];
    o.at = a.at;

    // The real protocol runs on the hot path: encode the request frame,
    // stream it through a FrameDecoder, parse the payload.
    Op op = static_cast<Op>(a.op);
    std::vector<uint8_t> payload =
        op == Op::kGet    ? GetPayload(kAutoCommit, a.key)
        : op == Op::kPut  ? PutPayload(kAutoCommit, a.key,
                                       ValueBytes(a.key, a.seq, a.vlen))
                          : DeletePayload(kAutoCommit, a.key);
    wire.clear();
    EncodeFrame(a.op, /*request_id=*/a.idx, payload, &wire);
    o.req_bytes = static_cast<uint32_t>(wire.size());

    if (!ac_->TryAdmit(p)) {
      o.status = static_cast<uint8_t>(RStatus::kRetry);
      o.resp = a.at;  // shed replies come straight off the transport thread
      o.hint_us = ac_->RetryHintUs(p);
      o.resp_bytes = static_cast<uint32_t>(FrameBytes(4));
      continue;
    }

    clock.AdvanceTo(a.at);
    dec.Feed(wire);
    Frame f;
    if (dec.Poll(&f) != FrameDecoder::Next::kFrame) {
      return Status::Internal("loadgen emitted an undecodable frame");
    }
    Request req;
    if (!ParseRequest(f, &req)) {
      return Status::Internal("loadgen emitted an unparseable request");
    }

    RStatus rs;
    uint64_t resp_payload = 0;
    if (req.op == Op::kGet) {
      got.clear();
      rs = kv_->Get(p, kAutoCommit, req.key, &got);
      if (rs == RStatus::kOk) {
        resp_payload = got.size();
        auto it = ps.expected.find(req.key);
        if (it == ps.expected.end()) {
          return Status::Corruption("GET returned a value for an unwritten key");
        }
        if (got != ValueBytes(req.key, it->second,
                              static_cast<uint32_t>(got.size()))) {
          return Status::Corruption("GET value mismatch vs last committed write");
        }
      } else if (rs == RStatus::kNotFound && ps.expected.count(req.key)) {
        return Status::Corruption("GET lost a committed key");
      }
    } else if (req.op == Op::kPut) {
      rs = kv_->Put(p, kAutoCommit, req.key, req.value);
      if (rs == RStatus::kOk) ps.expected[req.key] = a.seq;
    } else {
      rs = kv_->Delete(p, kAutoCommit, req.key);
      if (rs == RStatus::kOk) {
        ps.expected.erase(req.key);
      } else if (rs == RStatus::kNotFound && ps.expected.count(req.key)) {
        return Status::Corruption("DELETE missed a committed key");
      }
    }
    clock.Advance(cfg_.cpu_us_per_request);

    o.status = static_cast<uint8_t>(rs);
    o.resp_bytes = static_cast<uint32_t>(FrameBytes(resp_payload));
    ps.inflight.push_back(kUnforced);
    batch.push_back(a.idx);
    if (batch.size() >= cfg_.batch_ops) force();
  }
  force();
  return Status::OK();
}

void ServeSim::Accumulate(const std::vector<Outcome>& outcomes,
                          PhaseResult* r) {
  for (const Outcome& o : outcomes) {
    r->issued++;
    r->bytes_in += o.req_bytes;
    r->bytes_out += o.resp_bytes;
    switch (static_cast<RStatus>(o.status)) {
      case RStatus::kOk:
      case RStatus::kNotFound: {
        uint64_t lat = o.resp - o.at;
        r->completed++;
        r->lat.Add(lat);
        break;
      }
      case RStatus::kRetry:
        r->shed++;
        break;
      default:
        r->errors++;
        break;
    }
  }
}

Result<PhaseResult> ServeSim::RunClosedLoop(const std::string& name,
                                            uint64_t target_completed) {
  PhaseResult r;
  r.name = name;
  SimTime t0 = sdb_->EpochBarrier();

  struct Client {
    SimTime next = 0;
    bool retry = false;
    Arrival pending;
  };
  std::vector<Client> clients(cfg_.clients);
  for (Client& c : clients) c.next = t0;

  uint64_t rounds = 0;
  while (r.completed < target_completed) {
    std::vector<Arrival> arrivals;
    arrivals.reserve(clients.size());
    for (uint32_t ci = 0; ci < clients.size(); ++ci) {
      Client& c = clients[ci];
      Arrival a = c.retry ? c.pending : DrawRequest(rng_);
      a.at = c.next;
      a.idx = ci;
      arrivals.push_back(a);
    }

    std::vector<Outcome> outcomes(arrivals.size());
    std::vector<std::vector<Arrival>> per_part(parts_.size());
    for (const Arrival& a : arrivals) {
      per_part[kv_->PartitionOfKey(a.key)].push_back(a);
    }
    for (auto& stream : per_part) {
      std::stable_sort(stream.begin(), stream.end(),
                       [](const Arrival& x, const Arrival& y) {
                         return x.at < y.at;
                       });
    }
    std::vector<Status> st(parts_.size(), Status::OK());
    for (uint32_t p = 0; p < parts_.size(); ++p) {
      if (per_part[p].empty()) continue;
      sdb_->Submit(p, [this, p, &per_part, &outcomes, &st] {
        st[p] = ProcessStream(p, per_part[p], &outcomes);
      });
    }
    sdb_->Barrier();
    for (const Status& s : st) IPA_RETURN_NOT_OK(s);
    Accumulate(outcomes, &r);

    for (uint32_t ci = 0; ci < clients.size(); ++ci) {
      Client& c = clients[ci];
      const Outcome& o = outcomes[ci];
      if (o.status == static_cast<uint8_t>(RStatus::kRetry)) {
        c.retry = true;
        c.pending = arrivals[ci];
        c.next = o.at + o.hint_us;
      } else {
        c.retry = false;
        c.next = o.resp + cfg_.think_us;
      }
    }
    if (++rounds % 16 == 0) sdb_->EpochBarrier();
  }

  SimTime t1 = sdb_->EpochBarrier();
  r.sim_us = t1 - t0;
  r.offered_tps = r.sim_us == 0 ? 0.0
                                : static_cast<double>(r.issued) /
                                      (static_cast<double>(r.sim_us) / 1e6);
  metrics::PublishHistogram("serve.request_us", r.lat);
  return r;
}

Result<PhaseResult> ServeSim::RunOpenLoop(const std::string& name,
                                          double rate_tps,
                                          uint64_t duration_us) {
  if (rate_tps <= 0) {
    return Status::InvalidArgument("open-loop rate must be positive");
  }
  PhaseResult r;
  r.name = name;
  SimTime t0 = sdb_->EpochBarrier();

  struct Conn {
    bool slow = false;
    SimTime slow_until = 0;
    uint32_t backlog = 0;  ///< Responses queued while the peer isn't reading.
  };
  std::vector<Conn> active;
  auto fresh_conn = [&](SimTime now) {
    Conn c;
    if (rng_.Chance(cfg_.slow_fraction)) {
      c.slow = true;
      c.slow_until = now + cfg_.slow_window_us;
    }
    r.conn_opens++;
    return c;
  };
  for (uint32_t i = 0; i < cfg_.clients; ++i) active.push_back(fresh_conn(t0));

  // Generate the full Poisson arrival schedule up front (driver-side, one
  // Rng), modelling churn, slow windows and output-cap connection drops.
  std::vector<Arrival> arrivals;
  double t_rel = 0;
  while (true) {
    t_rel += -std::log(1.0 - rng_.NextDouble()) / rate_tps * 1e6;
    if (t_rel >= static_cast<double>(duration_us)) break;
    if (arrivals.size() >= cfg_.max_open_arrivals) {
      r.truncated = true;
      break;
    }
    SimTime at = t0 + static_cast<SimTime>(t_rel);

    uint32_t slot = static_cast<uint32_t>(rng_.Uniform(active.size()));
    if (rng_.Chance(cfg_.churn_per_arrival)) {
      r.conn_closes++;
      active[slot] = fresh_conn(at);
    }
    Conn& c = active[slot];
    if (c.slow && at >= c.slow_until) {
      c.slow = false;
      c.backlog = 0;
    }
    if (c.slow && ++c.backlog > cfg_.conn_response_cap) {
      // The server's per-connection output buffer cap fired: the connection
      // is dropped (the peer reconnects) and this request dies with it.
      r.conn_drops++;
      r.conn_closes++;
      r.dropped_arrivals++;
      active[slot] = fresh_conn(at);
      continue;
    }

    Arrival a = DrawRequest(rng_);
    a.at = at;
    a.idx = arrivals.size();
    arrivals.push_back(a);
  }

  std::vector<Outcome> outcomes(arrivals.size());
  std::vector<std::vector<Arrival>> per_part(parts_.size());
  for (const Arrival& a : arrivals) {
    per_part[kv_->PartitionOfKey(a.key)].push_back(a);
  }
  std::vector<Status> st(parts_.size(), Status::OK());
  for (uint32_t p = 0; p < parts_.size(); ++p) {
    if (per_part[p].empty()) continue;
    sdb_->Submit(p, [this, p, &per_part, &outcomes, &st] {
      st[p] = ProcessStream(p, per_part[p], &outcomes);
    });
  }
  sdb_->Barrier();
  for (const Status& s : st) IPA_RETURN_NOT_OK(s);
  Accumulate(outcomes, &r);

  SimTime t1 = sdb_->EpochBarrier();
  // Underload leaves the servers idle before the phase deadline; overload
  // drains the backlog past it. Goodput divides by the later of the two.
  r.sim_us = std::max<uint64_t>(t1 - t0, duration_us);
  r.offered_tps = static_cast<double>(arrivals.size() + r.dropped_arrivals) /
                  (static_cast<double>(duration_us) / 1e6);
  metrics::PublishHistogram("serve.request_us", r.lat);
  return r;
}

}  // namespace ipa::net
