// perfbench: the repo benchmark. Runs one workload and prints every metric
// by name and unit, one per line, then a JSON object with all of them as the
// last line. Exits non-zero when any correctness check fails.
//
//   perfbench --workload <tpcb-ipa-ecc|linkbench-streamftl|serve-kv>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//
// --trace 0 reports the end-to-end metrics (wall metrics single-threaded,
// tracing off). --trace 1 runs the workload once untraced and once with
// every tablespace device wrapped in a span-recording TracedDevice, checks
// that both runs produced identical simulated results, and reports the
// per-layer metrics of the traced run plus the tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintSamples(const char* what, const Percentiles& p, const char* unit) {
  std::printf("# %s: n=%llu p50=%.3f p99=%.3f p%g=%.3f %s\n", what,
              static_cast<unsigned long long>(p.count), p.p50, p.p99,
              p.top_pct, p.top, unit);
}

std::vector<Metric> EndToEnd(const Outcome& o) {
  // Wall figures are medians over the repetitions, so one repetition slowed
  // by something else on the machine does not move them.
  std::vector<double> setup, rate, p50, p99;
  for (const Window& w : o.reps) {
    std::vector<double> lat = w.wall_lat_ns;
    for (double& x : lat) x /= 1000.0;  // ns -> us
    Percentiles wall = Summarize(std::move(lat));
    PrintSamples("wall latency per op", wall, "us");
    std::printf("# repetition: setup %.3f s, %.1f ops/s over %.3f s\n",
                w.setup_s, static_cast<double>(w.completed) / w.wall_s,
                w.wall_s);
    setup.push_back(w.setup_s);
    rate.push_back(static_cast<double>(w.completed) / w.wall_s);
    p50.push_back(wall.p50);
    p99.push_back(wall.p99);
  }
  // Simulated figures are identical in every repetition (checked by the
  // caller), so the first one speaks for all.
  const Window& w0 = o.reps.front();
  Percentiles sim = Summarize(w0.sim_lat_us, true);
  PrintSamples("sim latency per op", sim, "us");
  double ops = static_cast<double>(w0.completed);
  double half = static_cast<double>(w0.completed / 2);
  const Counters& d = w0.delta;
  std::printf("# flash bytes per op by window half: %.1f, %.1f B/op\n",
              FlashBytesPerOp(w0.first_half, half),
              FlashBytesPerOp(Minus(d, w0.first_half), ops - half));
  std::printf("# failed: %llu of %llu attempted\n",
              static_cast<unsigned long long>(w0.failed),
              static_cast<unsigned long long>(w0.attempted));
  return {
      {"setup_s", Median(setup), "s"},
      {"wall_ops_per_s", Median(rate), "ops/s"},
      {"wall_p50_us", Median(p50), "us"},
      {"wall_p99_us", Median(p99), "us"},
      {"sim_ops_per_s", ops / (static_cast<double>(w0.sim_us) / 1e6), "ops/s"},
      {"sim_p50_us", sim.p50, "us"},
      {"sim_p99_us", sim.p99, "us"},
      {"flash_bytes_per_op", FlashBytesPerOp(d, ops), "B/op"},
      {"erases_per_kop", static_cast<double>(d.dev.block_erases) * 1000.0 / ops,
       "1/kop"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
}

std::vector<Metric> PerLayer(const Outcome& o) {
  const Window& base = o.reps.front();  // untraced
  const Window& traced = o.reps.back();
  std::vector<Metric> m = o.layer;
  AddCounterMetrics(traced, &m);
  Percentiles wall = Summarize(base.wall_lat_ns);
  Percentiles sim = Summarize(base.sim_lat_us, true);
  m.push_back({"slo_rate_ops_per_s", o.slo_rate, "ops/s"});
  m.push_back({"op.samples", static_cast<double>(sim.count), "count"});
  m.push_back({"op.wall_top_pct", wall.top_pct, "%"});
  m.push_back({"op.wall_top_us", wall.top / 1000.0, "us"});
  m.push_back({"op.sim_top_pct", sim.top_pct, "%"});
  m.push_back({"op.sim_top_us", sim.top, "us"});
  m.push_back({"trace.overhead_s", traced.wall_s - base.wall_s, "s"});
  m.push_back({"trace.overhead_pct",
               100.0 * (traced.wall_s - base.wall_s) / base.wall_s, "%"});
  return m;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tpcb-ipa-ecc|linkbench-streamftl|"
               "serve-kv> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <file>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = static_cast<uint32_t>(std::atoi(v.c_str()));
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--spans-out") {
      opt.spans_out = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds == 0) return Usage();

  WorkloadDef def;
  if (opt.workload == "tpcb-ipa-ecc") {
    def = TpcbIpaEcc();
  } else if (opt.workload == "linkbench-streamftl") {
    def = LinkbenchStreamFtl();
  } else if (opt.workload == "serve-kv") {
    def = ServeKv();
  } else {
    return Usage();
  }
  Outcome o = Run(def, opt);

  // Simulated results and flash counters must repeat exactly across the
  // repetitions, traced or not: the tracer wraps devices without effect.
  if (o.error.empty()) {
    for (const Window& w : o.reps) {
      if (w.Fingerprint() != o.reps.front().Fingerprint()) {
        o.error = opt.trace
                      ? "traced run diverged from the untraced run"
                      : "repetitions of the same seed diverged";
      }
    }
  }
  uint64_t attempted = 0, failed = 0;
  for (const Window& w : o.reps) {
    attempted += w.attempted;
    failed += w.failed;
  }
  std::vector<Metric> metrics;
  if (o.error.empty()) metrics = opt.trace ? PerLayer(o) : EndToEnd(o);
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) o.error = "metric " + m.name + " is not finite";
  }
  if (!o.error.empty()) metrics.clear();
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!o.error.empty()) std::printf("# CHECK FAILED: %s\n", o.error.c_str());

  std::string json = "{\"correct\": ";
  json += o.error.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + JsonEscape(metrics[i].name) +
            "\": {\"value\": " + num + ", \"unit\": \"" +
            JsonEscape(metrics[i].unit) + "\"}";
  }
  json += "}";
  if (!o.error.empty()) json += ", \"error\": \"" + JsonEscape(o.error) + "\"";
  json += "}";
  std::printf("%s\n", json.c_str());
  return o.error.empty() ? 0 : 1;
}
