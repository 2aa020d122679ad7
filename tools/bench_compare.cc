// bench_compare: diff two ipa-metrics-v1 JSON snapshots.
//
//   bench_compare BASELINE CURRENT [--tolerance F] [--ignore PREFIX]...
//
// Deterministic metrics (counters, gauges) must match exactly; histogram
// count/mean/max drift is allowed within --tolerance (a finite relative
// value >= 0, default 0.05).
// --ignore excludes metric-name prefixes (repeatable), e.g. wall-clock noise.
//
// Exit status: 0 when snapshots match, 1 on any diff, 2 on usage/I-O errors.
// This is the comparison step of the CI perf-regression gate (see
// docs/METRICS.md and .github/workflows/ci.yml perf-gate).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/metrics.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_compare BASELINE.json CURRENT.json"
               " [--tolerance F] [--ignore PREFIX]...\n");
  return 2;
}

/// A finite number >= 0 spanning all of `text`.
bool ParseTolerance(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out) && *out >= 0;
}

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool LoadSnapshot(const char* path, ipa::metrics::Snapshot* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path);
    return false;
  }
  ipa::Status s = ipa::metrics::ParseSnapshotJson(text, out);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path, s.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  ipa::metrics::CompareOptions opts;

  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--tolerance") == 0) {
      if (i + 1 >= argc || !ParseTolerance(argv[++i], &opts.histogram_tolerance)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--ignore") == 0) {
      if (i + 1 >= argc) return Usage();
      opts.ignore_prefixes.emplace_back(argv[++i]);
    } else if (argv[i][0] == '-') {
      return Usage();
    } else if (!baseline_path) {
      baseline_path = argv[i];
    } else if (!current_path) {
      current_path = argv[i];
    } else {
      return Usage();
    }
  }
  if (!baseline_path || !current_path) return Usage();

  ipa::metrics::Snapshot baseline, current;
  if (!LoadSnapshot(baseline_path, &baseline)) return 2;
  if (!LoadSnapshot(current_path, &current)) return 2;

  ipa::metrics::CompareReport rep =
      ipa::metrics::CompareSnapshots(baseline, current, opts);
  for (const std::string& n : rep.notes) {
    std::printf("note: %s\n", n.c_str());
  }
  if (!rep.ok()) {
    std::fprintf(stderr, "bench_compare: %zu diff(s) vs %s\n",
                 rep.diffs.size(), baseline_path);
    for (const std::string& d : rep.diffs) {
      std::fprintf(stderr, "  %s\n", d.c_str());
    }
    return 1;
  }
  std::printf("bench_compare: %s matches baseline (%zu metrics)\n",
              current_path, current.metrics.size());
  return 0;
}
