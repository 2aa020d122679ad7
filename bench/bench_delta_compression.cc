// Delta-record codec sweep (docs/DELTA_COMPRESSION.md).
//
// Three deterministic arms over the DeltaCodec knob:
//
//  * codec x budget: TPC-B under every codec at two delta-area budgets.
//    Reports in-place appends per page writeback (how many folds the area
//    absorbs before the page goes out of place), device write amplification,
//    encoded bytes per append and the IPA share of host writes. The headline
//    self-check pins the tentpole claim: at the default [2x4] budget,
//    delta+compress takes STRICTLY more appends per writeback AND STRICTLY
//    less device WA than the fixed-slot raw format, or the bench exits 2.
//
//  * scan mix, larger than RAM: the TPC-H-lite scan/analytics mix with the
//    dataset grown 8x past the buffer pool (RunConfig::dataset_multiplier).
//    Reports throughput, read p99 and WA for raw vs delta+compress — the
//    regime where eviction pressure makes every absorbed writeback count.
//
//  * wire: the replicated TPC-B pair with changeset wire compression off vs
//    on (ReplConfig::compress_wire). Reports wire bytes per committed
//    logical byte and verifies byte-exact convergence under both settings.
//
// All counters are bit-identical for a fixed seed at any IPA_JOBS, so the
// metrics snapshot is gated against bench/baselines/bench_delta_compression.json.
//
// Usage: bench_delta_compression [--txns N] [--seed N] [--metrics-json PATH]
// IPA_SCALE scales transaction counts; IPA_DATASET further multiplies the
// scan-mix dataset (composes with the built-in 8x).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/crash_sweep.h"
#include "bench/harness.h"
#include "common/metrics.h"
#include "common/random.h"
#include "storage/page_format.h"

namespace ipa::bench {
namespace {

constexpr storage::DeltaCodec kCodecs[] = {storage::DeltaCodec::kRaw,
                                           storage::DeltaCodec::kDelta,
                                           storage::DeltaCodec::kDeltaCompress};

/// Stable gauge-name fragment per codec ("raw" / "delta" / "compress").
const char* CodecKey(storage::DeltaCodec c) {
  switch (c) {
    case storage::DeltaCodec::kRaw: return "raw";
    case storage::DeltaCodec::kDelta: return "delta";
    case storage::DeltaCodec::kDeltaCompress: return "compress";
  }
  return "?";
}

int64_t Milli(double v) { return static_cast<int64_t>(v * 1000.0); }

struct CodecPoint {
  double appends_per_wb = 0;  ///< host delta writes per host page write
  double wa = 0;              ///< device write amplification
  double bytes_per_append = 0;
  RunResult r;
};

Result<CodecPoint> RunCodecPoint(const storage::Scheme& scheme,
                                 storage::DeltaCodec codec, Wl wl,
                                 double dataset, uint64_t txns, uint64_t seed) {
  RunConfig cfg;
  cfg.workload = wl;
  cfg.scheme = scheme;
  cfg.scheme.codec = static_cast<uint8_t>(codec);
  cfg.txns = txns;
  cfg.seed = seed;
  cfg.dataset_multiplier = dataset;
  cfg.record_update_sizes = true;  // WA needs net-changed-bytes tracking
  IPA_ASSIGN_OR_RETURN(RunResult r, RunWorkload(cfg));
  CodecPoint p;
  p.r = r;
  // A run that absorbs EVERY writeback has zero page writes; clamp the
  // denominator so the ratio stays finite (and still strictly ordered).
  p.appends_per_wb = static_cast<double>(r.host_delta_writes) /
                     static_cast<double>(std::max<uint64_t>(
                         r.host_page_writes, 1));
  p.wa = r.WriteAmplification();
  p.bytes_per_append = r.host_delta_writes == 0
                           ? 0.0
                           : static_cast<double>(r.delta_bytes_written) /
                                 static_cast<double>(r.host_delta_writes);
  return p;
}

void EmitPointGauges(const std::string& prefix, const CodecPoint& p) {
  metrics::SetGauge(prefix + ".appends_per_wb_x1000", Milli(p.appends_per_wb));
  metrics::SetGauge(prefix + ".wa_x1000", Milli(p.wa));
  metrics::SetGauge(prefix + ".bytes_per_append_x1000", Milli(p.bytes_per_append));
  metrics::SetGauge(prefix + ".host_page_writes", static_cast<int64_t>(p.r.host_page_writes));
  metrics::SetGauge(prefix + ".host_delta_writes", static_cast<int64_t>(p.r.host_delta_writes));
  metrics::SetGauge(prefix + ".delta_bytes", static_cast<int64_t>(p.r.delta_bytes_written));
  metrics::SetGauge(prefix + ".gc_erases", static_cast<int64_t>(p.r.gc_erases));
}

// ---------------------------------------------------------------------------
// Wire arm: a replicated pair of crash-sweep stacks per compression setting,
// running a shortened mini TPC-B whose rows are mostly zero padding.
// ---------------------------------------------------------------------------

struct WireOutcome {
  uint64_t commits = 0;
  uint64_t logical_bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t frames = 0;
};

Status RunWirePair(bool compress, uint64_t txns, uint32_t accounts,
                   uint64_t seed, WireOutcome* out) {
  SweepNode p, r;
  IPA_RETURN_NOT_OK(BuildReplicated(
      {.writer = 1, .writable = true, .compress_wire = compress}, &p));
  IPA_RETURN_NOT_OK(BuildReplicated(
      {.writer = 2, .writable = false, .compress_wire = compress}, &r));
  engine::Database& db = *p.stack->db;
  const std::vector<engine::TableId>& tables = p.stack->parts[0].tables;
  Rng rng(seed);
  std::vector<uint64_t> rids;

  auto drain = [&]() -> Status {
    for (;;) {
      std::vector<uint8_t> w = p.repl->PopOutbound();
      if (w.empty()) return Status::OK();
      out->wire_bytes += w.size();
      out->frames++;
      auto a = r.repl->ApplyFrame(w);
      IPA_RETURN_NOT_OK(a.status());
      if (a.value() != repl::ReplNode::Apply::kApplied) {
        return Status::Corruption("wire arm frame not applied");
      }
    }
  };

  for (uint32_t i = 0; i < accounts; i++) {
    engine::TxnId txn = db.Begin();
    // Realistic record shape: a few live fields up front, zero padding
    // behind (TPC-B's 100-byte account row is mostly filler) — this is what
    // the wire LZ pass earns its keep on.
    std::vector<uint8_t> t(kAccountBytes, 0);
    for (uint32_t j = 0; j < 12; j++) {
      t[j] = static_cast<uint8_t>(i * 7u + j * 13u + 1u);
    }
    IPA_ASSIGN_OR_RETURN(engine::Rid rid,
                         db.Insert(txn, tables[kAccountTable], t));
    rids.push_back(rid.Pack());
    out->logical_bytes += kAccountBytes;
    IPA_RETURN_NOT_OK(db.Commit(txn));
    IPA_RETURN_NOT_OK(drain());
  }
  for (uint64_t t = 0; t < txns; t++) {
    engine::TxnId txn = db.Begin();
    for (int u = 0; u < 3; u++) {
      uint64_t key = rids[rng.Uniform(rids.size())];
      uint8_t patch[4];
      for (uint8_t& b : patch) b = static_cast<uint8_t>(rng.Next());
      IPA_RETURN_NOT_OK(
          db.Update(txn, engine::Rid::Unpack(key), kBalanceOffset, patch));
    }
    std::vector<uint8_t> h(kHistoryBytes, 0);
    for (uint32_t j = 0; j < 8; j++) h[j] = static_cast<uint8_t>(rng.Next());
    IPA_RETURN_NOT_OK(db.Insert(txn, tables[kHistoryTable], h).status());
    IPA_RETURN_NOT_OK(db.Commit(txn));
    out->commits++;
    out->logical_bytes += kHistoryBytes + 3 * 4;
    IPA_RETURN_NOT_OK(drain());
    if ((t + 1) % 16 == 0) IPA_RETURN_NOT_OK(db.Checkpoint());
  }
  IPA_RETURN_NOT_OK(drain());

  // Convergence oracle: compression must be invisible to the applied state.
  repl::ReplNode::LogicalMap pm, rm;
  IPA_RETURN_NOT_OK(p.repl->ScanLogical(&pm));
  IPA_RETURN_NOT_OK(r.repl->ScanLogical(&rm));
  if (pm != rm) return Status::Corruption("wire arm diverged");
  return Status::OK();
}

int Run(uint64_t txns, uint64_t seed) {
  // -- Arm 1: codec x budget on TPC-B.
  const storage::Scheme kBudgets[] = {{.n = 2, .m = 4, .v = 12},
                                      {.n = 2, .m = 8, .v = 16}};
  TablePrinter sweep({"scheme", "codec", "appends/wb", "WA", "B/append",
                      "IPA %", "page wr", "delta wr"});
  CodecPoint def_raw, def_compress;  // self-check inputs: default budget
  for (const storage::Scheme& scheme : kBudgets) {
    for (storage::DeltaCodec codec : kCodecs) {
      auto p = RunCodecPoint(scheme, codec, Wl::kTpcb, 1.0, txns, seed);
      if (!p.ok()) {
        std::fprintf(stderr, "bench_delta_compression: tpcb [%ux%u] %s: %s\n",
                     scheme.n, scheme.m, storage::DeltaCodecName(codec),
                     p.status().ToString().c_str());
        return 2;
      }
      std::string name = "[";
      name += std::to_string(scheme.n) + "x" + std::to_string(scheme.m) + "]";
      sweep.AddRow({name, storage::DeltaCodecName(codec),
                    Fmt(p.value().appends_per_wb), Fmt(p.value().wa),
                    Fmt(p.value().bytes_per_append),
                    Fmt(p.value().r.ipa_share_pct, 1),
                    std::to_string(p.value().r.host_page_writes),
                    std::to_string(p.value().r.host_delta_writes)});
      EmitPointGauges("delta_bench.tpcb." + std::to_string(scheme.n) + "x" +
                          std::to_string(scheme.m) + "." + CodecKey(codec),
                      p.value());
      if (&scheme == &kBudgets[0]) {
        if (codec == storage::DeltaCodec::kRaw) def_raw = p.value();
        if (codec == storage::DeltaCodec::kDeltaCompress) {
          def_compress = p.value();
        }
      }
    }
  }
  sweep.Print();

  // -- Arm 2: scan mix, dataset 8x the buffer pool.
  TablePrinter scan({"codec", "tps", "read p99 ms", "WA", "appends/wb"});
  for (storage::DeltaCodec codec :
       {storage::DeltaCodec::kRaw, storage::DeltaCodec::kDeltaCompress}) {
    auto p = RunCodecPoint(kBudgets[0], codec, Wl::kScanMix, 8.0,
                           std::max<uint64_t>(txns / 2, 8), seed);
    if (!p.ok()) {
      std::fprintf(stderr, "bench_delta_compression: scanmix %s: %s\n",
                   storage::DeltaCodecName(codec),
                   p.status().ToString().c_str());
      return 2;
    }
    scan.AddRow({storage::DeltaCodecName(codec), Fmt(p.value().r.throughput_tps),
                 Fmt(p.value().r.read_p99_ms), Fmt(p.value().wa),
                 Fmt(p.value().appends_per_wb)});
    std::string prefix = std::string("delta_bench.scanmix.") + CodecKey(codec);
    EmitPointGauges(prefix, p.value());
    metrics::SetGauge(prefix + ".read_p99_us",
                      static_cast<int64_t>(p.value().r.read_p99_ms * 1000.0));
    metrics::SetGauge(prefix + ".commits", static_cast<int64_t>(p.value().r.commits));
  }
  scan.Print();

  // -- Arm 3: changeset wire compression off vs on.
  TablePrinter wire({"wire", "commits", "frames", "wire B", "wire amp"});
  uint64_t plain_bytes = 0, lz_bytes = 0;
  for (bool compress : {false, true}) {
    WireOutcome w;
    Status s = RunWirePair(compress, std::max<uint64_t>(txns / 16, 8), 64,
                           seed, &w);
    if (!s.ok()) {
      std::fprintf(stderr, "bench_delta_compression: wire(%d): %s\n",
                   compress ? 1 : 0, s.ToString().c_str());
      return 2;
    }
    (compress ? lz_bytes : plain_bytes) = w.wire_bytes;
    wire.AddRow({compress ? "compressed" : "plain", std::to_string(w.commits),
                 std::to_string(w.frames), std::to_string(w.wire_bytes),
                 Fmt(w.logical_bytes == 0
                         ? 0.0
                         : static_cast<double>(w.wire_bytes) /
                               static_cast<double>(w.logical_bytes))});
    std::string prefix =
        std::string("delta_bench.wire.") + (compress ? "lz" : "plain");
    metrics::SetGauge(prefix + ".bytes", static_cast<int64_t>(w.wire_bytes));
    metrics::SetGauge(prefix + ".frames", static_cast<int64_t>(w.frames));
  }
  wire.Print();

  // -- Self-checks: the tentpole claims, enforced on every run.
  int rc = 0;
  if (def_compress.appends_per_wb <= def_raw.appends_per_wb) {
    std::fprintf(stderr,
                 "SELF-CHECK FAIL: delta+compress appends/wb %.3f <= raw "
                 "%.3f at [2x4]\n",
                 def_compress.appends_per_wb, def_raw.appends_per_wb);
    rc = 2;
  }
  if (def_compress.wa >= def_raw.wa) {
    std::fprintf(stderr,
                 "SELF-CHECK FAIL: delta+compress WA %.3f >= raw %.3f at "
                 "[2x4]\n",
                 def_compress.wa, def_raw.wa);
    rc = 2;
  }
  if (lz_bytes >= plain_bytes) {
    std::fprintf(stderr,
                 "SELF-CHECK FAIL: compressed wire %llu B >= plain %llu B\n",
                 static_cast<unsigned long long>(lz_bytes),
                 static_cast<unsigned long long>(plain_bytes));
    rc = 2;
  }
  if (rc == 0) {
    std::printf("self-check OK: appends/wb %.2f -> %.2f, WA %.2f -> %.2f, "
                "wire %llu -> %llu B\n",
                def_raw.appends_per_wb, def_compress.appends_per_wb,
                def_raw.wa, def_compress.wa,
                static_cast<unsigned long long>(plain_bytes),
                static_cast<unsigned long long>(lz_bytes));
  }
  return rc;
}

}  // namespace
}  // namespace ipa::bench

namespace {

uint64_t ArgU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);
  ipa::bench::WarnIfDebugBuild();
  uint64_t txns = ArgU64(argc, argv, "--txns", 0);
  if (txns == 0) txns = ipa::bench::DefaultTxns(ipa::bench::Wl::kTpcb) / 4;
  uint64_t seed = ArgU64(argc, argv, "--seed", 42);
  return ipa::bench::Run(txns, seed);
}
