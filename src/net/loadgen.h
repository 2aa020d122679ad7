// Closed- and open-loop load generation against the serving stack, on the
// simulated clock (docs/SERVING.md).
//
// ServeSim drives a KvService over an engine::ShardedDatabase the way the
// epoll server does — per-partition request streams, admission control with
// RETRY shedding, batched execution with one group-commit log force per
// batch, responses acknowledged only after the force — but entirely
// in-process and in simulated time, so every run is bit-identical for a
// fixed seed: across repeats, across IPA_JOBS, and across threaded vs
// sequential partition drivers.
//
// The wire protocol runs on the hot path: each simulated request is encoded
// into a real frame and parsed by a FrameDecoder. Responses are not encoded;
// each is sized with FrameBytes, so reported goodput bytes are still true
// wire bytes.
//
// Closed loop: `clients` virtual clients each keep one request outstanding
// with no think time; shed requests are retried after the server's hint.
// Open loop: Poisson arrivals at a configured rate over a churning
// connection pool with Zipfian key popularity and variable payload sizes —
// the production-traffic model. Slow clients stop draining responses for a
// window; connections whose response backlog passes the cap are dropped.
//
// Built-in oracle: every partition worker tracks the sequence number and
// length of the last acknowledged write per key and verifies GET payloads
// byte-for-byte, length included, so a serving-layer run is also a
// correctness check of the engine underneath.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "engine/sharded_database.h"
#include "net/admission.h"
#include "net/kv_service.h"

namespace ipa::net {

struct LoadgenConfig {
  uint64_t seed = 42;
  uint32_t clients = 64;
  uint64_t keys = 20000;
  double zipf_theta = 0.8;
  uint32_t value_min = 64;   ///< Clamped to >= 8 (values embed a write seq).
  uint32_t value_max = 1024;
  double write_fraction = 0.5;
  double delete_fraction = 0.05;  ///< Of writes.
  uint32_t cpu_us_per_request = 20;

  // Server-side knobs mirrored from the epoll server.
  uint32_t inflight_budget = 32;  ///< Per-partition admitted-request budget.
  uint32_t batch_ops = 8;         ///< Requests per group-commit force.
  uint32_t base_retry_hint_us = 200;
};

/// Hard cap on generated open-loop arrivals per phase; hitting it is
/// reported in PhaseResult::truncated (never silent).
inline constexpr uint64_t kMaxOpenArrivals = 500000;

struct PhaseResult {
  std::string name;
  double offered_tps = 0;
  uint64_t issued = 0;      ///< Requests put on the wire (incl. retries).
  uint64_t completed = 0;   ///< kOk + kNotFound responses.
  uint64_t shed = 0;        ///< kRetry responses from admission control.
  uint64_t errors = 0;      ///< kError / kUnavailable responses.
  uint64_t conn_opens = 0, conn_closes = 0;
  uint64_t conn_drops = 0;          ///< Slow connections dropped.
  uint64_t dropped_arrivals = 0;    ///< Arrivals discarded with their conn.
  uint64_t bytes_in = 0, bytes_out = 0;
  uint64_t sim_us = 0;
  bool truncated = false;
  LatencyStats lat;  ///< Accepted (completed) requests only.

  double goodput_tps() const {
    return sim_us == 0 ? 0.0
                       : static_cast<double>(completed) /
                             (static_cast<double>(sim_us) / 1e6);
  }
};

/// Deterministic value bytes for (key, seq): [seq u64][pseudo-random fill].
/// `len` is clamped to >= 8. Shared with the soak driver's oracle.
/// Every prefix of 8 bytes or more is itself the value of a shorter `len`,
/// so an oracle must check the length it expects, not the length it got.
std::vector<uint8_t> ValueBytes(uint64_t key, uint64_t seq, uint32_t len);

class ServeSim {
 public:
  /// `sdb`, `kv` and `ac` are borrowed; `ac` must cover kv->partitions().
  ServeSim(engine::ShardedDatabase* sdb, KvService* kv,
           AdmissionController* ac, const LoadgenConfig& cfg);

  /// Write the initial `cfg.keys` keys (seq 0) and checkpoint to a steady
  /// on-flash state. Call once before the first phase.
  Status Preload();

  // A phase that succeeds publishes its PhaseResult::lat to the metrics
  // histogram `serve.request_us` before returning.

  /// Closed loop: run until ~`target_completed` requests finished.
  Result<PhaseResult> RunClosedLoop(const std::string& name,
                                    uint64_t target_completed);

  /// Open loop: Poisson arrivals at `rate_tps` for `duration_us` simulated
  /// time. The phase processes every generated arrival even if that takes
  /// longer than `duration_us` on the servers' clocks (overload backlog).
  Result<PhaseResult> RunOpenLoop(const std::string& name, double rate_tps,
                                  uint64_t duration_us);

 private:
  struct Arrival {
    SimTime at = 0;
    uint8_t op = 0;  ///< Op::kGet / kPut / kDelete.
    uint64_t key = 0;
    uint32_t vlen = 0;
    uint64_t seq = 0;    ///< Per-key write sequence (writes only).
    uint64_t idx = 0;    ///< Index into the phase's outcome array.
  };

  struct Outcome {
    SimTime at = 0;
    SimTime resp = 0;
    uint8_t status = 0;  ///< RStatus byte.
    uint32_t req_bytes = 0;
    uint32_t resp_bytes = 0;
    uint32_t hint_us = 0;  ///< Backoff hint on kRetry outcomes.
  };

  struct PartState {
    /// Ack times of admitted-but-unretired requests (the queue-depth model
    /// admission control runs against). ~0 until the batch's log force.
    std::deque<SimTime> inflight;
    /// Oracle: the last acknowledged write per key.
    struct Written {
      uint64_t seq = 0;
      uint32_t len = 0;  ///< ValueBytes length (>= 8).
    };
    std::unordered_map<uint64_t, Written> expected;
  };

  Arrival DrawRequest(Rng& rng);
  /// Run one partition's arrival stream: admission, execution, group-commit
  /// forces, oracle checks. Runs on partition p's worker thread.
  Status ProcessStream(uint32_t p, const std::vector<Arrival>& arr,
                       std::vector<Outcome>* out);
  void Accumulate(const std::vector<Outcome>& outcomes, PhaseResult* r);

  engine::ShardedDatabase* sdb_;
  KvService* kv_;
  AdmissionController* ac_;
  LoadgenConfig cfg_;
  std::unique_ptr<ZipfianGenerator> zipf_;
  Rng rng_;
  std::unordered_map<uint64_t, uint64_t> next_seq_;
  std::vector<PartState> parts_;
};

}  // namespace ipa::net
