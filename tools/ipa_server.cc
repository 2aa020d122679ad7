// ipa_server: the network front end of the simulated flash database
// (docs/SERVING.md).
//
// Assembles a sharded emulator testbed (workload/testbed.h), preloads a key
// range, and serves the length-prefixed binary KV protocol (net/protocol.h)
// over loopback TCP through the epoll transport (net/epoll_server.h), with
// per-partition admission control. SIGTERM/SIGINT trigger the clean-shutdown
// path: open transactions abort, group-commit batches force, sockets close,
// and the process exits 0 — CI's serve-smoke job asserts exactly that.
//
// Readiness: once serving, the line "ipa_server: listening on HOST:PORT" is
// printed and flushed; scripts wait for it before starting clients.
//
// Usage: ipa_server [--port N] [--workers N] [--keys N] [--inflight-budget N]
//                   [--retry-hint-us N] [--conn-out-cap BYTES]
//                   [--max-open-txns N] [--sequential] [--metrics-json PATH]

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "net/epoll_server.h"
#include "net/kv_service.h"
#include "net/loadgen.h"
#include "workload/testbed.h"

namespace {
ipa::net::EpollServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->Stop();  // async-signal-safe
}
}  // namespace

namespace ipa {
namespace {

int Main(int argc, char** argv) {
  uint16_t port = 0;
  uint32_t workers = 4;
  uint64_t keys = 20000;
  uint32_t inflight_budget = 32;
  uint32_t retry_hint_us = 200;
  uint32_t conn_out_cap = 1u << 20;
  uint32_t max_open_txns = 1024;
  bool threaded = true;

  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) != 0) return nullptr;
      if (arg.size() > n && arg[n] == '=') return arg.c_str() + n + 1;
      if (arg.size() == n && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--port")) {
      port = static_cast<uint16_t>(std::atoi(v));
    } else if (const char* v = value("--workers")) {
      workers = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--keys")) {
      keys = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--inflight-budget")) {
      inflight_budget = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--retry-hint-us")) {
      retry_hint_us = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--conn-out-cap")) {
      conn_out_cap = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--max-open-txns")) {
      max_open_txns = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--sequential") {
      threaded = false;
    } else if (arg == "--metrics-json") {
      i++;  // consumed by metrics::InitFromArgs
    }
  }

  // Testbed sized for the preload range plus update churn.
  workload::ShardedTestbedConfig sc;
  sc.workers = workers;
  sc.threaded = threaded;
  sc.base.db_pages = std::max<uint64_t>(512, keys * 700 / 4096 * 3);
  sc.base.scheme = storage::Scheme{.n = 2, .m = 4, .v = 12};
  sc.base.buffer_fraction = 0.5;
  sc.group_commit_ops = 8;
  sc.group_commit_window_us = 1000;
  sc.log_force_us = 100;
  auto bed_or = workload::MakeShardedTestbed(sc);
  if (!bed_or.ok()) {
    std::fprintf(stderr, "ipa_server: testbed: %s\n",
                 bed_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<workload::ShardedTestbed> bed = std::move(bed_or.value());

  std::vector<net::KvService::PartitionConfig> pcs;
  for (auto& part : bed->parts) {
    pcs.push_back({part.db.get(), part.ts});
  }
  auto kv_or = net::KvService::Create(pcs);
  if (!kv_or.ok()) {
    std::fprintf(stderr, "ipa_server: kv service: %s\n",
                 kv_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::KvService> kv = std::move(kv_or.value());

  // Preload so smoke-test GETs have something to hit.
  std::vector<std::vector<uint64_t>> keys_of(workers);
  for (uint64_t k = 0; k < keys; ++k) {
    keys_of[kv->PartitionOfKey(k)].push_back(k);
  }
  std::vector<bool> load_ok(workers, true);
  for (uint32_t p = 0; p < workers; ++p) {
    net::KvService* kvp = kv.get();
    bed->sharded->Submit(p, [p, kvp, &keys_of, &load_ok] {
      for (uint64_t k : keys_of[p]) {
        if (kvp->Put(p, net::kAutoCommit, k,
                     net::ValueBytes(k, 0, 64 + k % 193)) != net::RStatus::kOk) {
          load_ok[p] = false;
          return;
        }
      }
      kvp->ForceLog(p);
    });
  }
  bed->sharded->EpochBarrier();
  for (uint32_t p = 0; p < workers; ++p) {
    if (!load_ok[p]) {
      std::fprintf(stderr, "ipa_server: preload failed on partition %u\n", p);
      return 1;
    }
  }
  if (Status s = bed->sharded->Checkpoint(); !s.ok()) {
    std::fprintf(stderr, "ipa_server: checkpoint: %s\n", s.ToString().c_str());
    return 1;
  }
  bed->sharded->EpochBarrier();

  net::AdmissionController ac(
      workers, {.inflight_budget = inflight_budget,
                .base_retry_hint_us = retry_hint_us});
  net::EpollServer::Config cfg;
  cfg.port = port;
  cfg.conn_out_cap = conn_out_cap;
  cfg.max_open_txns = max_open_txns;
  net::EpollServer server(bed->sharded.get(), kv.get(), &ac, cfg);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "ipa_server: start: %s\n", s.ToString().c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("ipa_server: %u partition(s), %llu keys preloaded, budget %u\n",
              workers, static_cast<unsigned long long>(keys), inflight_budget);
  std::printf("ipa_server: listening on %s:%u\n", cfg.bind_addr.c_str(),
              server.port());
  std::fflush(stdout);

  Status s = server.Run();
  g_server = nullptr;
  if (!s.ok()) {
    std::fprintf(stderr, "ipa_server: %s\n", s.ToString().c_str());
    return 1;
  }

  const net::EpollServer::Stats& st = server.stats();
  metrics::SetGauge("server.conns_accepted", static_cast<int64_t>(st.accepted));
  metrics::SetGauge("server.requests", static_cast<int64_t>(st.requests));
  metrics::SetGauge("server.responses", static_cast<int64_t>(st.responses));
  metrics::SetGauge("server.shed", static_cast<int64_t>(st.shed));
  metrics::SetGauge("server.bad_requests", static_cast<int64_t>(st.bad_requests));
  metrics::SetGauge("server.protocol_fatal", static_cast<int64_t>(st.protocol_fatal));
  metrics::SetGauge("server.dropped_slow", static_cast<int64_t>(st.dropped_slow));
  metrics::SetGauge("server.dropped_flooded", static_cast<int64_t>(st.dropped_flooded));
  metrics::SetGauge("server.txn_aborted_on_close", static_cast<int64_t>(st.txn_aborted_on_close));
  std::printf(
      "ipa_server: shutdown complete (conns %llu, requests %llu, responses "
      "%llu, shed %llu, bad %llu, fatal %llu, slow-dropped %llu, "
      "flood-dropped %llu, orphan-txns-aborted %llu)\n",
      static_cast<unsigned long long>(st.accepted),
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.responses),
      static_cast<unsigned long long>(st.shed),
      static_cast<unsigned long long>(st.bad_requests),
      static_cast<unsigned long long>(st.protocol_fatal),
      static_cast<unsigned long long>(st.dropped_slow),
      static_cast<unsigned long long>(st.dropped_flooded),
      static_cast<unsigned long long>(st.txn_aborted_on_close));
  return 0;
}

}  // namespace
}  // namespace ipa

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);
  return ipa::Main(argc, argv);
}
