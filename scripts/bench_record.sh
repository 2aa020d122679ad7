#!/usr/bin/env bash
# Record how fast one checkout runs, as one entry of a BENCH_<n>.json file.
#
# Usage: scripts/bench_record.sh OUT LABEL [SRC [BUILD]]
#
# Measures the checkout at SRC (default: this repository) with the binaries
# in BUILD (default: SRC/build, a Release build of all targets):
#   - wall_s: the wall time of bench_table07_tpcb_emulator,
#     bench_table12_backend_compare, bench_serve --seed 7,
#     ipa_fuzz --seeds 8 --ops 250 and crash_sweep --points 300, each run
#     once at IPA_SCALE=1 IPA_JOBS=1;
#   - micro_ns: every bench_micro_ops benchmark, in ns per iteration (the
#     median of 3 repetitions);
#   - perfbench: the end-to-end line of each workload in SRC/BENCHMARK.json
#     (seed 1, 15 s, --trace 0). perfbench/run.py builds it under SRC. A run
#     that fails its build or correctness check stops the script (exit 1).
#   - profile: each perfbench workload's ten functions with the most self
#     time, in percent, from scripts/profile_perfbench.sh (a statically
#     linked gprof histogram, C library included; built under
#     SRC/build-profile), and under profile_samples the number of samples
#     that histogram holds (at least 500, summed over repeated runs).
#   - copies: each perfbench workload's five call sites with the most bytes
#     in memcpy/memmove copies of 1 KiB or more, and under copy_bytes the
#     total, from scripts/copy_tally.sh;
#   - machine: the CPU model and count, the compiler, and whether the CPU has
#     the features the CRC32C, ECC and page-diff kernels are chosen by
#     (sse4.2, popcnt, avx2): results depend on them.
# The entry is stored under "runs"."LABEL" in OUT, which keeps any other
# labels already there. Record a change and its parent on one machine, one
# after the other:
#
#   scripts/bench_record.sh BENCH_<n>.json parent ../parent
#   scripts/bench_record.sh BENCH_<n>.json change
#
# Wall times depend on the machine, so the file is a record, not a gate.
# Each side runs once, minutes apart from the other, so judge a speed claim
# from alternating parent/change runs of perfbench/run.py instead.
set -eu

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  sed -n '4p' "$0" | sed 's/^# //' >&2
  exit 2
fi
OUT=$(realpath -m "$1")
LABEL=$2
SRC=$(realpath "${3:-$(dirname "$0")/..}")
BUILD=$(realpath "${4:-$SRC/build}")

for bin in bench/bench_table07_tpcb_emulator bench/bench_table12_backend_compare \
           bench/bench_serve bench/bench_micro_ops tools/ipa_fuzz tools/crash_sweep; do
  if [ ! -x "$BUILD/$bin" ]; then
    echo "bench_record: missing $BUILD/$bin (build it first)" >&2
    exit 2
  fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# timed NAME CMD...: run CMD once, discard its output, log its start and end.
timed() {
  name=$1
  shift
  echo "== $name" >&2
  start=$(date +%s.%N)
  IPA_SCALE=1 IPA_JOBS=1 "$@" > /dev/null
  end=$(date +%s.%N)
  echo "$name $start $end" >> "$TMP/wall.txt"
}
timed bench_table07_tpcb_emulator "$BUILD/bench/bench_table07_tpcb_emulator"
timed bench_table12_backend_compare "$BUILD/bench/bench_table12_backend_compare"
timed bench_serve "$BUILD/bench/bench_serve" --seed 7
timed ipa_fuzz "$BUILD/tools/ipa_fuzz" --seeds 8 --ops 250
timed crash_sweep "$BUILD/tools/crash_sweep" --points 300

echo "== bench_micro_ops" >&2
"$BUILD/bench/bench_micro_ops" --benchmark_format=json --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true > "$TMP/micro.json"

for w in $(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
           "$SRC/BENCHMARK.json"); do
  echo "== perfbench $w" >&2
  # run.py exits non-zero when the build or a correctness check fails; such a
  # run is not a record.
  if ! (cd "$SRC" && python3 perfbench/run.py --workload "$w" --seed 1 --seconds 15 \
          --trace 0) > "$TMP/perfbench-$w.out"; then
    echo "bench_record: perfbench $w failed: $(tail -n 1 "$TMP/perfbench-$w.out")" >&2
    exit 1
  fi
  tail -n 1 "$TMP/perfbench-$w.out" > "$TMP/perfbench-$w.json"
  echo "== profile $w" >&2
  "$(dirname "$0")/profile_perfbench.sh" "$w" "$SRC" > "$TMP/profile-$w.txt"
  echo "== copy tally $w" >&2
  "$(dirname "$0")/copy_tally.sh" "$w" "$SRC" > "$TMP/copies-$w.txt"
done

commit=$(git -C "$SRC" describe --always --dirty 2> /dev/null || echo unknown)
compiler=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt")
python3 - "$OUT" "$LABEL" "$TMP" "$commit" "$compiler" <<'PY'
import glob, json, os, platform, subprocess, sys, time

out, label, tmp, commit, compiler = sys.argv[1:]
record = {"schema": "ipa-bench-record-v1", "runs": {}}
if os.path.exists(out):
    with open(out) as f:
        record = json.load(f)

wall = {}
with open(os.path.join(tmp, "wall.txt")) as f:
    for line in f:
        name, start, end = line.split()
        wall[name] = round(float(end) - float(start), 3)

to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
with open(os.path.join(tmp, "micro.json")) as f:
    micro = {b["run_name"]: round(b["real_time"] * to_ns[b["time_unit"]], 1)
             for b in json.load(f)["benchmarks"] if b["aggregate_name"] == "median"}

perfbench = {}
for path in sorted(glob.glob(os.path.join(tmp, "perfbench-*.json"))):
    name = os.path.basename(path)[len("perfbench-"):-len(".json")]
    with open(path) as f:
        line = json.load(f)
    perfbench[name] = {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        **{k: round(v["value"], 3) for k, v in line["metrics"].items()},
    }

profile, profile_samples = {}, {}
for path in sorted(glob.glob(os.path.join(tmp, "profile-*.txt"))):
    name = os.path.basename(path)[len("profile-"):-len(".txt")]
    top, body = [], False
    with open(path) as f:
        for line in f:
            if line.startswith("# samples:"):
                profile_samples[name] = int(line.split()[2])
            if not body:
                body = line.split()[-1:] == ["name"]
                continue
            # % time, cumulative s, self s, then the function name (no call
            # counts: the profile is a histogram alone).
            fields = line.split(None, 3)
            if len(fields) == 4:
                top.append({"fn": fields[3].strip(), "self_pct": float(fields[0])})
    profile[name] = top[:10]

copies, copy_bytes = {}, {}
for path in sorted(glob.glob(os.path.join(tmp, "copies-*.txt"))):
    name = os.path.basename(path)[len("copies-"):-len(".txt")]
    sites = []
    with open(path) as f:
        for line in f:
            if line.startswith("# copy tally"):
                copy_bytes[name] = int(line.split(":")[1].split()[0])
                continue
            # bytes, calls, share, then the function (copy_tally.sh's table).
            fields = line.split(None, 3)
            if len(fields) == 4 and fields[0].isdigit():
                sites.append({"site": fields[3].strip(), "bytes": int(fields[0]),
                              "calls": int(fields[1]),
                              "share_pct": float(fields[2].rstrip("%"))})
    copies[name] = sites[:5]

cpu = platform.processor()
flags = set()
try:
    with open("/proc/cpuinfo") as f:
        lines = f.readlines()
    cpu = next(l.split(":", 1)[1].strip() for l in lines if l.startswith("model name"))
    flags = set(next(l.split(":", 1)[1].split() for l in lines if l.startswith("flags")))
except (OSError, StopIteration):
    pass
# The CPU features the CRC32C, ECC and page-diff kernels are chosen by.
features = {name: flag in flags
            for name, flag in (("sse4.2", "sse4_2"), ("popcnt", "popcnt"), ("avx2", "avx2"))}
version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
record["runs"][label] = {
    "commit": commit,
    "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "machine": {"cpu": cpu, "cpus": os.cpu_count(), "features": features,
                "compiler": version.stdout.splitlines()[0] if version.stdout else compiler},
    "wall_s": wall,
    "micro_ns": micro,
    "perfbench": perfbench,
    "profile": profile,
    "profile_samples": profile_samples,
    "copies": copies,
    "copy_bytes": copy_bytes,
}
with open(out, "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
print(f"bench_record: wrote runs.{label} to {out}", file=sys.stderr)
PY
