// Serving-layer load generator and gate (docs/SERVING.md).
//
// Three modes:
//
//  * Default (simulation): drives the full serving stack in-process on the
//    simulated clock via net::ServeSim — closed-loop capacity calibration,
//    then open-loop Poisson phases at 0.5x ("steady") and 2x ("burst") the
//    measured capacity, with Zipfian keys, variable payloads, connection
//    churn and slow-client injection. Reports p50/p99/p999 and goodput per
//    phase through ipa-metrics-v1, and (unless --no-gates) enforces the
//    overload contract: the burst MUST shed (RETRY count > 0) while the p99
//    of accepted requests stays within --slo-mult of the steady phase.
//    Bit-identical across runs, IPA_JOBS, and --sequential vs threaded.
//
//  * --soak: time-budgeted power-cut soak (sequential engine). It runs
//    iterations until --time-budget-s expires (at least two). Each
//    iteration builds a fresh testbed and runs acknowledged traffic (ack =
//    group-commit force). Every other iteration arms PowerLossPolicy, cuts
//    power mid-request and recovers (SimulateCrash -> PowerCycle ->
//    RecoverAfterPowerLoss -> RebuildIndexes); the others run to the end
//    and force every partition. Both verify that no acknowledged commit was
//    lost and every surviving value is byte-exact, length included. Exits 1
//    on any violation, or if no iteration was cut or none ran clean.
//
//  * --connect HOST:PORT: a real TCP client for CI's serve-smoke job:
//    closed-loop mix, an interactive transaction, a pipelined overload burst
//    (expects RETRY responses with --expect-shed), and a poisoned-frame
//    probe that must draw one kError frame followed by a clean close.
//
// Usage: bench_serve [--workers N] [--sequential] [--seed N] [--keys N]
//   [--clients N] [--zipf T] [--write-frac F] [--delete-frac F]
//   [--value-min N] [--value-max N] [--cpu-us N] [--inflight-budget N]
//   [--batch N] [--retry-hint-us N] [--closed-target N] [--steady-ms N]
//   [--burst-ms N] [--slo-mult X] [--no-gates]
//   [--soak --time-budget-s N --soak-ops N]
//   [--connect H:P --conns N --requests N --burst N --expect-shed]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/harness.h"
#include "common/bytes.h"
#include "common/metrics.h"
#include "common/random.h"
#include "net/kv_service.h"
#include "net/loadgen.h"
#include "net/protocol.h"
#include "workload/testbed.h"

namespace ipa::bench {
namespace {

using net::kAutoCommit;
using net::RStatus;

struct ServeBed {
  std::unique_ptr<workload::ShardedTestbed> bed;
  std::unique_ptr<net::KvService> kv;
};

Result<ServeBed> BuildBed(uint32_t workers, bool threaded, uint64_t keys,
                          uint32_t value_avg) {
  workload::ShardedTestbedConfig sc;
  sc.workers = workers;
  sc.threaded = threaded;
  sc.base.db_pages =
      std::max<uint64_t>(512, keys * (value_avg + 40) / 4096 * 3);
  sc.base.scheme = storage::Scheme{.n = 2, .m = 4, .v = 12};
  sc.base.buffer_fraction = 0.5;
  sc.group_commit_ops = 8;
  sc.group_commit_window_us = 1000;
  sc.log_force_us = 100;
  ServeBed out;
  IPA_ASSIGN_OR_RETURN(out.bed, MakeShardedTestbed(sc));
  std::vector<net::KvService::PartitionConfig> pcs;
  for (auto& p : out.bed->parts) pcs.push_back({p.db.get(), p.ts});
  IPA_ASSIGN_OR_RETURN(out.kv, net::KvService::Create(pcs));
  return out;
}

// ---------------------------------------------------------------------------
// Simulation mode
// ---------------------------------------------------------------------------

struct SimOptions {
  uint32_t workers = 4;
  bool threaded = true;
  net::LoadgenConfig lc;
  uint64_t closed_target = 0;
  uint64_t steady_us = 0;
  uint64_t burst_us = 0;
  double slo_mult = 25.0;
  bool gates = true;
};

void ReportPhase(TablePrinter* table, const net::PhaseResult& r,
                 uint64_t* fingerprint) {
  uint64_t p50 = r.lat.PercentileMicros(50);
  uint64_t p99 = r.lat.PercentileMicros(99);
  uint64_t p999 = r.lat.PercentileMicros(99.9);
  table->AddRow({r.name, Fmt(r.offered_tps, 0), std::to_string(r.issued),
                 std::to_string(r.completed), std::to_string(r.shed),
                 std::to_string(r.errors), std::to_string(p50),
                 std::to_string(p99), std::to_string(p999),
                 Fmt(r.goodput_tps(), 0),
                 Fmt(static_cast<double>(r.bytes_in + r.bytes_out) / 1e6),
                 std::to_string(r.conn_drops)});

  std::string prefix = "serve." + r.name;
  metrics::SetGauge(prefix + ".offered_tps", static_cast<int64_t>(r.offered_tps));
  metrics::SetGauge(prefix + ".issued", static_cast<int64_t>(r.issued));
  metrics::SetGauge(prefix + ".completed", static_cast<int64_t>(r.completed));
  metrics::SetGauge(prefix + ".shed", static_cast<int64_t>(r.shed));
  metrics::SetGauge(prefix + ".errors", static_cast<int64_t>(r.errors));
  metrics::SetGauge(prefix + ".p50_us", static_cast<int64_t>(p50));
  metrics::SetGauge(prefix + ".p99_us", static_cast<int64_t>(p99));
  metrics::SetGauge(prefix + ".p999_us", static_cast<int64_t>(p999));
  metrics::SetGauge(prefix + ".goodput_tps", static_cast<int64_t>(r.goodput_tps()));
  metrics::SetGauge(prefix + ".sim_us", static_cast<int64_t>(r.sim_us));
  metrics::SetGauge(prefix + ".conn_drops", static_cast<int64_t>(r.conn_drops));
  metrics::SetGauge(prefix + ".bytes_in", static_cast<int64_t>(r.bytes_in));
  metrics::SetGauge(prefix + ".bytes_out", static_cast<int64_t>(r.bytes_out));

  // FNV-1a over the phase's observable numbers: one scalar that differs if
  // ANY result drifts — the cheap cross-run/IPA_JOBS determinism witness.
  for (uint64_t v : {r.issued, r.completed, r.shed, r.errors, r.bytes_in,
                     r.bytes_out, r.sim_us, p50, p99, p999, r.conn_drops,
                     r.dropped_arrivals}) {
    *fingerprint ^= v;
    *fingerprint *= 0x100000001B3ull;
  }
}

int RunSim(const SimOptions& opt) {
  auto bed_or = BuildBed(opt.workers, opt.threaded, opt.lc.keys,
                         (opt.lc.value_min + opt.lc.value_max) / 2);
  if (!bed_or.ok()) {
    std::fprintf(stderr, "bench_serve: testbed: %s\n",
                 bed_or.status().ToString().c_str());
    return 1;
  }
  ServeBed sb = std::move(bed_or.value());
  net::AdmissionController ac(
      opt.workers, {.inflight_budget = opt.lc.inflight_budget,
                    .base_retry_hint_us = opt.lc.base_retry_hint_us});
  net::ServeSim sim(sb.bed->sharded.get(), sb.kv.get(), &ac, opt.lc);

  if (Status s = sim.Preload(); !s.ok()) {
    std::fprintf(stderr, "bench_serve: preload: %s\n", s.ToString().c_str());
    return 1;
  }

  auto closed = sim.RunClosedLoop("closed", opt.closed_target);
  if (!closed.ok()) {
    std::fprintf(stderr, "bench_serve: closed loop: %s\n",
                 closed.status().ToString().c_str());
    return 1;
  }
  double capacity = closed.value().goodput_tps();
  if (capacity <= 0) {
    std::fprintf(stderr, "bench_serve: measured zero capacity\n");
    return 1;
  }

  auto steady = sim.RunOpenLoop("steady", 0.5 * capacity, opt.steady_us);
  if (!steady.ok()) {
    std::fprintf(stderr, "bench_serve: steady phase: %s\n",
                 steady.status().ToString().c_str());
    return 1;
  }
  auto burst = sim.RunOpenLoop("burst", 2.0 * capacity, opt.burst_us);
  if (!burst.ok()) {
    std::fprintf(stderr, "bench_serve: burst phase: %s\n",
                 burst.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "Serving: %u partition(s), %llu keys, zipf %.2f, budget %u/part,\n"
      "batch %u; closed-loop capacity calibration, then open-loop Poisson\n"
      "at 0.5x and 2x capacity (docs/SERVING.md).\n\n",
      opt.workers, static_cast<unsigned long long>(opt.lc.keys),
      opt.lc.zipf_theta, opt.lc.inflight_budget, opt.lc.batch_ops);

  TablePrinter table({"phase", "offered tps", "issued", "done", "shed", "err",
                      "p50 us", "p99 us", "p999 us", "goodput", "wire MB",
                      "drops"});
  uint64_t fingerprint = 0xCBF29CE484222325ull;
  ReportPhase(&table, closed.value(), &fingerprint);
  ReportPhase(&table, steady.value(), &fingerprint);
  ReportPhase(&table, burst.value(), &fingerprint);
  table.Print();

  metrics::SetGauge("serve.capacity_tps", static_cast<int64_t>(capacity));
  metrics::SetGauge("serve.fingerprint", static_cast<int64_t>(fingerprint >> 1));
  std::printf("\ncapacity %s tps, fingerprint %016llx\n", Fmt(capacity, 0).c_str(),
              static_cast<unsigned long long>(fingerprint));
  for (const net::PhaseResult* r :
       {&closed.value(), &steady.value(), &burst.value()}) {
    if (r->truncated) {
      std::printf("note: phase %s hit the %llu-arrival cap; offered load was "
                  "truncated\n",
                  r->name.c_str(),
                  static_cast<unsigned long long>(net::kMaxOpenArrivals));
    }
  }

  if (!opt.gates) return 0;
  int rc = 0;
  uint64_t total_errors = closed.value().errors + steady.value().errors +
                          burst.value().errors;
  if (total_errors != 0) {
    std::fprintf(stderr, "bench_serve: GATE: %llu request errors\n",
                 static_cast<unsigned long long>(total_errors));
    rc = 1;
  }
  if (burst.value().shed == 0) {
    std::fprintf(stderr,
                 "bench_serve: GATE: 2x-capacity burst shed nothing — "
                 "admission control is not engaging\n");
    rc = 1;
  }
  uint64_t steady_p99 = std::max<uint64_t>(steady.value().lat.PercentileMicros(99), 100);
  uint64_t burst_p99 = burst.value().lat.PercentileMicros(99);
  if (static_cast<double>(burst_p99) >
      opt.slo_mult * static_cast<double>(steady_p99)) {
    std::fprintf(stderr,
                 "bench_serve: GATE: burst p99 %llu us exceeds %.1fx steady "
                 "p99 %llu us — accepted-request SLO violated under overload\n",
                 static_cast<unsigned long long>(burst_p99), opt.slo_mult,
                 static_cast<unsigned long long>(steady_p99));
    rc = 1;
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Power-cut soak mode
// ---------------------------------------------------------------------------

struct SoakOptions {
  uint32_t workers = 4;
  uint64_t keys = 2000;
  uint64_t ops = 20000;
  uint64_t seed = 1;
  uint64_t time_budget_s = 20;
};

/// Value length of key `k`'s preloaded value (write sequence 0).
uint32_t SoakPreloadLen(uint64_t k) {
  return static_cast<uint32_t>(64 + k % 193);
}

/// One soak iteration; with `arm_cut`, a power cut ends its traffic.
Status SoakIteration(const SoakOptions& opt, uint64_t seed, bool arm_cut,
                     uint64_t* crashes, uint64_t* keys_verified,
                     uint64_t* acked_commits) {
  IPA_ASSIGN_OR_RETURN(ServeBed sb,
                       BuildBed(opt.workers, /*threaded=*/false, opt.keys, 160));
  engine::ShardedDatabase& sdb = *sb.bed->sharded;
  net::KvService& kv = *sb.kv;

  // Preload; everything forced + checkpointed counts as acknowledged.
  for (uint64_t k = 0; k < opt.keys; ++k) {
    uint32_t p = kv.PartitionOfKey(k);
    if (kv.Put(p, kAutoCommit, k, net::ValueBytes(k, 0, SoakPreloadLen(k))) !=
        RStatus::kOk) {
      return Status::Internal("soak preload PUT failed");
    }
  }
  for (uint32_t p = 0; p < opt.workers; ++p) kv.ForceLog(p);
  sdb.EpochBarrier();
  IPA_RETURN_NOT_OK(sdb.Checkpoint());
  sdb.EpochBarrier();

  std::unordered_map<uint64_t, uint64_t> acked, committed;
  for (uint64_t k = 0; k < opt.keys; ++k) acked[k] = committed[k] = 0;

  // Arm the probabilistic power cut: some flash program/erase mid-soak will
  // tear, and every op after it fails Unavailable until the power cycle.
  // Over the default 20,000 ops it practically always fires.
  if (arm_cut) {
    flash::PowerLossPolicy pol;
    pol.per_op_probability = 0.001;
    pol.seed = seed * 0x9E3779B97F4A7C15ull + 1;
    sb.bed->dev->SetPowerLossPolicy(pol);
  }

  Rng rng(seed);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> pending(opt.workers);
  std::vector<uint32_t> batch(opt.workers, 0);
  uint64_t next_seq = 1;
  // Every PUT's value length, by write sequence; entry 0 is unused (the
  // preload's lengths depend on the key).
  std::vector<uint32_t> put_len(1, 0);
  auto value_len = [&](uint64_t k, uint64_t s) {
    return s == 0 ? SoakPreloadLen(k) : put_len[s];
  };
  bool crashed = false;
  for (uint64_t i = 0; i < opt.ops; ++i) {
    uint64_t k = rng.Uniform(opt.keys);
    uint32_t p = kv.PartitionOfKey(k);
    RStatus rs;
    if (rng.Chance(0.7)) {
      uint64_t s = next_seq++;
      put_len.push_back(64 + static_cast<uint32_t>(rng.Uniform(192)));
      rs = kv.Put(p, kAutoCommit, k, net::ValueBytes(k, s, put_len[s]));
      if (rs == RStatus::kOk) {
        committed[k] = s;
        pending[p].push_back({k, s});
      } else if (rs == RStatus::kUnavailable) {
        // The cut landed inside this PUT. Its commit record may or may not
        // have reached the durable WAL prefix (group commit can auto-force
        // mid-op), so the outcome is legitimately in doubt: admit the
        // attempted sequence as a legal post-recovery state for this key.
        committed[k] = std::max(committed[k], s);
      }
    } else {
      std::vector<uint8_t> got;
      rs = kv.Get(p, kAutoCommit, k, &got);
      if (rs == RStatus::kOk) {
        uint64_t s = committed[k];
        if (got != net::ValueBytes(k, s, value_len(k, s))) {
          return Status::Corruption("soak GET mismatch vs last committed PUT");
        }
      } else if (rs == RStatus::kNotFound) {
        return Status::Corruption("soak GET lost a preloaded key");
      }
    }
    if (rs == RStatus::kUnavailable) {
      crashed = true;  // the power cut landed mid-request
      break;
    }
    if (rs != RStatus::kOk) {
      return Status::Internal(std::string("soak op failed: ") +
                              net::StatusName(rs));
    }
    if (++batch[p] >= 8) {
      // Group-commit force = the acknowledgement point: only now do the
      // batch's commits count as promised to clients.
      kv.ForceLog(p);
      batch[p] = 0;
      for (auto& [kk, ss] : pending[p]) acked[kk] = std::max(acked[kk], ss);
      pending[p].clear();
      (*acked_commits)++;
    }
  }

  if (crashed) {
    (*crashes)++;
    sdb.SimulateCrash();
    sb.bed->dev->PowerCycle();
    sb.bed->dev->SetPowerLossPolicy(flash::PowerLossPolicy{});
    IPA_RETURN_NOT_OK(sdb.RecoverAfterPowerLoss());
    IPA_RETURN_NOT_OK(kv.RebuildIndexes());
  } else {
    sb.bed->dev->SetPowerLossPolicy(flash::PowerLossPolicy{});
    for (uint32_t p = 0; p < opt.workers; ++p) kv.ForceLog(p);
    sdb.EpochBarrier();
    acked = committed;  // everything forced: all commits are acknowledged
  }

  // No acknowledged commit may be lost; no phantom state may appear; every
  // surviving value must be byte-exact, length included, for its embedded
  // sequence number.
  for (uint64_t k = 0; k < opt.keys; ++k) {
    uint32_t p = kv.PartitionOfKey(k);
    std::vector<uint8_t> got;
    RStatus rs = kv.Get(p, kAutoCommit, k, &got);
    if (rs != RStatus::kOk || got.size() < 8) {
      return Status::Corruption("soak: key missing after recovery");
    }
    uint64_t s = DecodeU64(got.data());
    if (s < acked[k]) {
      return Status::Corruption("soak: acknowledged commit lost by recovery");
    }
    if (s > committed[k]) {
      return Status::Corruption("soak: phantom write sequence after recovery");
    }
    if (got != net::ValueBytes(k, s, value_len(k, s))) {
      return Status::Corruption("soak: value bytes corrupt after recovery");
    }
    (*keys_verified)++;
  }
  uint64_t indexed = 0;
  for (uint32_t p = 0; p < opt.workers; ++p) {
    IPA_ASSIGN_OR_RETURN(uint64_t n, kv.KeyCount(p));
    indexed += n;
  }
  if (indexed != opt.keys) {
    return Status::Corruption("soak: rebuilt index key count mismatch");
  }
  return Status::OK();
}

int RunSoak(const SoakOptions& opt) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(opt.time_budget_s);
  uint64_t iterations = 0, crashes = 0, keys_verified = 0, acked_commits = 0;
  uint64_t seed = opt.seed;
  while (iterations < 2 || std::chrono::steady_clock::now() < deadline) {
    Status s = SoakIteration(opt, seed++, /*arm_cut=*/iterations % 2 == 0,
                             &crashes, &keys_verified, &acked_commits);
    if (!s.ok()) {
      std::fprintf(stderr, "bench_serve: soak iteration %llu (seed %llu): %s\n",
                   static_cast<unsigned long long>(iterations),
                   static_cast<unsigned long long>(seed - 1),
                   s.ToString().c_str());
      return 1;
    }
    iterations++;
  }
  uint64_t clean = iterations - crashes;
  metrics::SetGauge("serve.soak.iterations", static_cast<int64_t>(iterations));
  metrics::SetGauge("serve.soak.crashes", static_cast<int64_t>(crashes));
  metrics::SetGauge("serve.soak.clean_iterations", static_cast<int64_t>(clean));
  metrics::SetGauge("serve.soak.keys_verified", static_cast<int64_t>(keys_verified));
  metrics::SetGauge("serve.soak.acked_batches", static_cast<int64_t>(acked_commits));
  std::printf(
      "soak: %llu iterations, %llu power cuts survived, %llu clean, "
      "%llu keys verified, %llu acked batches\n",
      static_cast<unsigned long long>(iterations),
      static_cast<unsigned long long>(crashes),
      static_cast<unsigned long long>(clean),
      static_cast<unsigned long long>(keys_verified),
      static_cast<unsigned long long>(acked_commits));
  if (crashes == 0) {
    std::fprintf(stderr,
                 "bench_serve: soak never triggered a power cut — raise "
                 "--soak-ops\n");
    return 1;
  }
  if (clean == 0) {
    std::fprintf(stderr, "bench_serve: soak never ran an iteration without a cut\n");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// TCP client mode (CI serve-smoke)
// ---------------------------------------------------------------------------

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint32_t conns = 8;
  uint64_t requests = 2000;
  uint32_t burst = 256;  ///< Pipelined requests per connection.
  bool expect_shed = false;
};

int Dial(const std::string& host, uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{.tv_sec = 30, .tv_usec = 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

struct ClientConn {
  int fd = -1;
  net::FrameDecoder dec;
};

/// Read one frame; false on timeout/EOF/poison.
bool ReadFrame(ClientConn& c, net::Frame* out) {
  while (true) {
    switch (c.dec.Poll(out)) {
      case net::FrameDecoder::Next::kFrame:
        return true;
      case net::FrameDecoder::Next::kFatal:
        return false;
      case net::FrameDecoder::Next::kNeedMore:
        break;
    }
    uint8_t buf[16384];
    ssize_t n = read(c.fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    c.dec.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
  }
}

bool SendRequest(ClientConn& c, uint8_t op, uint64_t id,
                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire;
  net::EncodeFrame(op, id, payload, &wire);
  return WriteAll(c.fd, wire);
}

int RunClient(const ClientOptions& opt) {
  std::vector<ClientConn> conns(opt.conns);
  for (auto& c : conns) {
    c.fd = Dial(opt.host, opt.port);
    if (c.fd < 0) {
      std::fprintf(stderr, "bench_serve: connect %s:%u failed\n",
                   opt.host.c_str(), opt.port);
      return 1;
    }
  }

  uint64_t ok = 0, not_found = 0, retry = 0, other = 0;
  uint64_t id = 1;

  // Closed-loop mix: alternate PUT/GET round-robin across connections.
  for (uint64_t i = 0; i < opt.requests; ++i) {
    ClientConn& c = conns[i % conns.size()];
    uint64_t key = i % 1000;
    uint64_t rid = id++;
    bool put = (i & 1) != 0;
    std::vector<uint8_t> payload;
    if (put) {
      payload = net::PutPayload(kAutoCommit, key,
                                net::ValueBytes(key, i, 64 + key % 129));
    } else {
      payload = net::GetPayload(kAutoCommit, key);
    }
    if (!SendRequest(c, static_cast<uint8_t>(put ? net::Op::kPut : net::Op::kGet),
                     rid, payload)) {
      std::fprintf(stderr, "bench_serve: send failed at request %llu\n",
                   static_cast<unsigned long long>(i));
      return 1;
    }
    net::Frame f;
    if (!ReadFrame(c, &f) || f.request_id != rid) {
      std::fprintf(stderr, "bench_serve: bad/missing response at request %llu\n",
                   static_cast<unsigned long long>(i));
      return 1;
    }
    switch (static_cast<RStatus>(f.op)) {
      case RStatus::kOk: ok++; break;
      case RStatus::kNotFound: not_found++; break;
      case RStatus::kRetry: retry++; break;
      default: other++; break;
    }
  }

  // One interactive transaction end to end.
  {
    ClientConn& c = conns[0];
    uint64_t key = 5;
    uint64_t rid = id++;
    if (!SendRequest(c, static_cast<uint8_t>(net::Op::kBegin), rid,
                     net::BeginPayload(key))) {
      return 1;
    }
    net::Frame f;
    if (!ReadFrame(c, &f) || f.request_id != rid ||
        f.op != static_cast<uint8_t>(RStatus::kOk) || f.payload.size() != 8) {
      std::fprintf(stderr, "bench_serve: BEGIN failed\n");
      return 1;
    }
    uint64_t txn = DecodeU64(f.payload.data());
    rid = id++;
    if (!SendRequest(c, static_cast<uint8_t>(net::Op::kPut), rid,
                     net::PutPayload(txn, key, net::ValueBytes(key, 1, 64))) ||
        !ReadFrame(c, &f) || f.request_id != rid ||
        f.op != static_cast<uint8_t>(RStatus::kOk)) {
      std::fprintf(stderr, "bench_serve: txn PUT failed\n");
      return 1;
    }
    rid = id++;
    if (!SendRequest(c, static_cast<uint8_t>(net::Op::kCommit), rid,
                     net::TxnPayload(txn)) ||
        !ReadFrame(c, &f) || f.request_id != rid ||
        f.op != static_cast<uint8_t>(RStatus::kOk)) {
      std::fprintf(stderr, "bench_serve: COMMIT failed\n");
      return 1;
    }
  }

  // Overload burst: pipeline `burst` PUTs per connection, then drain. The
  // server must answer every request — most beyond the inflight budget with
  // RETRY — and stay in sync.
  uint64_t burst_retry = 0;
  for (auto& c : conns) {
    std::vector<uint8_t> wire;
    std::unordered_set<uint64_t> want;
    for (uint32_t i = 0; i < opt.burst; ++i) {
      uint64_t key = 1000 + i;
      uint64_t rid = id++;
      want.insert(rid);
      net::EncodeFrame(
          static_cast<uint8_t>(net::Op::kPut), rid,
          net::PutPayload(kAutoCommit, key, net::ValueBytes(key, i, 64)),
          &wire);
    }
    if (!WriteAll(c.fd, wire)) {
      std::fprintf(stderr, "bench_serve: burst send failed\n");
      return 1;
    }
    while (!want.empty()) {
      net::Frame f;
      if (!ReadFrame(c, &f)) {
        std::fprintf(stderr,
                     "bench_serve: burst: %zu responses missing on a conn\n",
                     want.size());
        return 1;
      }
      if (want.erase(f.request_id) != 1) {
        std::fprintf(stderr, "bench_serve: burst: unexpected request_id\n");
        return 1;
      }
      if (f.op == static_cast<uint8_t>(RStatus::kRetry)) burst_retry++;
    }
  }

  // Poisoned frame: garbage bytes must draw exactly one kError frame and a
  // server-side close — and must not have desynced anything else.
  {
    ClientConn c;
    c.fd = Dial(opt.host, opt.port);
    if (c.fd < 0) return 1;
    std::vector<uint8_t> garbage(24, 0xA5);
    if (!WriteAll(c.fd, garbage)) return 1;
    net::Frame f;
    if (!ReadFrame(c, &f) || f.op != static_cast<uint8_t>(RStatus::kError)) {
      std::fprintf(stderr, "bench_serve: poison probe: no kError frame\n");
      return 1;
    }
    uint8_t b;
    if (read(c.fd, &b, 1) != 0) {
      std::fprintf(stderr, "bench_serve: poison probe: server kept the "
                           "connection open\n");
      return 1;
    }
    close(c.fd);
  }

  for (auto& c : conns) close(c.fd);

  std::printf(
      "client: %llu requests ok=%llu notfound=%llu retry=%llu other=%llu; "
      "burst retries=%llu\n",
      static_cast<unsigned long long>(opt.requests),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(not_found),
      static_cast<unsigned long long>(retry),
      static_cast<unsigned long long>(other),
      static_cast<unsigned long long>(burst_retry));
  metrics::SetGauge("client.ok", static_cast<int64_t>(ok));
  metrics::SetGauge("client.retry", static_cast<int64_t>(retry + burst_retry));
  if (other != 0) {
    std::fprintf(stderr, "bench_serve: %llu unexpected response statuses\n",
                 static_cast<unsigned long long>(other));
    return 1;
  }
  if (opt.expect_shed && burst_retry == 0) {
    std::fprintf(stderr,
                 "bench_serve: expected the burst to be shed, saw 0 RETRY\n");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  double scale = workload::BenchScale();
  SimOptions sim;
  sim.lc.keys = std::max<uint64_t>(2000, static_cast<uint64_t>(20000 * scale));
  sim.closed_target =
      std::max<uint64_t>(1000, static_cast<uint64_t>(12000 * scale));
  sim.steady_us =
      std::max<uint64_t>(50000, static_cast<uint64_t>(400000 * scale));
  sim.burst_us =
      std::max<uint64_t>(25000, static_cast<uint64_t>(200000 * scale));

  SoakOptions soak;
  soak.keys = std::max<uint64_t>(500, static_cast<uint64_t>(2000 * scale));
  soak.ops = std::max<uint64_t>(4000, static_cast<uint64_t>(20000 * scale));

  ClientOptions client;
  bool soak_mode = false, client_mode = false;

  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) != 0) return nullptr;
      if (arg.size() > n && arg[n] == '=') return arg.c_str() + n + 1;
      if (arg.size() == n && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--workers")) {
      sim.workers = soak.workers = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--sequential") {
      sim.threaded = false;
    } else if (const char* v = value("--seed")) {
      sim.lc.seed = soak.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--keys")) {
      sim.lc.keys = soak.keys = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--clients")) {
      sim.lc.clients = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--zipf")) {
      sim.lc.zipf_theta = std::atof(v);
    } else if (const char* v = value("--write-frac")) {
      sim.lc.write_fraction = std::atof(v);
    } else if (const char* v = value("--delete-frac")) {
      sim.lc.delete_fraction = std::atof(v);
    } else if (const char* v = value("--value-min")) {
      sim.lc.value_min = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--value-max")) {
      sim.lc.value_max = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--cpu-us")) {
      sim.lc.cpu_us_per_request = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--inflight-budget")) {
      sim.lc.inflight_budget = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--batch")) {
      sim.lc.batch_ops = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--retry-hint-us")) {
      sim.lc.base_retry_hint_us = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--closed-target")) {
      sim.closed_target = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--steady-ms")) {
      sim.steady_us = std::strtoull(v, nullptr, 10) * 1000;
    } else if (const char* v = value("--burst-ms")) {
      sim.burst_us = std::strtoull(v, nullptr, 10) * 1000;
    } else if (const char* v = value("--slo-mult")) {
      sim.slo_mult = std::atof(v);
    } else if (arg == "--no-gates") {
      sim.gates = false;
    } else if (arg == "--soak") {
      soak_mode = true;
    } else if (const char* v = value("--time-budget-s")) {
      soak.time_budget_s = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--soak-ops")) {
      soak.ops = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--connect")) {
      client_mode = true;
      std::string hp = v;
      size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "bench_serve: --connect needs HOST:PORT\n");
        return 2;
      }
      client.host = hp.substr(0, colon);
      client.port = static_cast<uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else if (const char* v = value("--conns")) {
      client.conns = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--requests")) {
      client.requests = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--burst")) {
      client.burst = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--expect-shed") {
      client.expect_shed = true;
    }
  }

  if (client_mode) return RunClient(client);
  WarnIfDebugBuild();
  if (soak_mode) return RunSoak(soak);
  return RunSim(sim);
}

}  // namespace
}  // namespace ipa::bench

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);
  return ipa::bench::Main(argc, argv);
}
