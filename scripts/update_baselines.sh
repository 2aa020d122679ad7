#!/usr/bin/env bash
# Regenerate the CI perf-gate baselines under bench/baselines/.
#
# Run after a change that intentionally shifts the simulated I/O profile,
# commit the result, and explain the shift in the PR. The snapshots are
# deterministic (bit-identical for any IPA_JOBS), so a diff here is a real
# behavior change, never thread-scheduling noise.
#
# Usage: scripts/update_baselines.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

BUILD=${1:-build}
for bin in bench/bench_table02_ipl_vs_ipa bench/bench_table07_tpcb_emulator \
           bench/bench_table12_backend_compare bench/bench_scaleup \
           bench/bench_serve bench/bench_replication \
           bench/bench_delta_compression tools/crash_sweep \
           bench/bench_table06_tpcb_openssd bench/bench_ablation_maintenance \
           tools/ipa_fuzz; do
  if [ ! -x "$BUILD/$bin" ]; then
    echo "update_baselines: missing $BUILD/$bin (build it first)" >&2
    exit 2
  fi
done

mkdir -p bench/baselines
export IPA_SCALE=0.1 IPA_JOBS=4

echo "== table02_ipl_vs_ipa"
"$BUILD/bench/bench_table02_ipl_vs_ipa" \
  --metrics-json bench/baselines/table02_ipl_vs_ipa.json > /dev/null
echo "== table07_tpcb_emulator"
"$BUILD/bench/bench_table07_tpcb_emulator" \
  --metrics-json bench/baselines/table07_tpcb_emulator.json > /dev/null
echo "== table12_backend_compare"
"$BUILD/bench/bench_table12_backend_compare" \
  --metrics-json bench/baselines/table12_backend_compare.json > /dev/null
echo "== bench_scaleup"
"$BUILD/bench/bench_scaleup" --workers 1,4 --min-speedup 3 \
  --metrics-json bench/baselines/bench_scaleup.json > /dev/null
echo "== bench_serve"
"$BUILD/bench/bench_serve" --seed 7 \
  --metrics-json bench/baselines/bench_serve.json > /dev/null
echo "== bench_replication"
"$BUILD/bench/bench_replication" \
  --metrics-json bench/baselines/bench_replication.json > /dev/null
echo "== bench_delta_compression"
"$BUILD/bench/bench_delta_compression" \
  --metrics-json bench/baselines/bench_delta_compression.json > /dev/null
echo "== crash_sweep"
"$BUILD/tools/crash_sweep" --points 300 \
  --metrics-json bench/baselines/crash_sweep.json > /dev/null

echo "== table06_tpcb_openssd"
"$BUILD/bench/bench_table06_tpcb_openssd" \
  --metrics-json bench/baselines/table06_tpcb_openssd.json > /dev/null
echo "== ablation_maintenance"
"$BUILD/bench/bench_ablation_maintenance" \
  --metrics-json bench/baselines/ablation_maintenance.json > /dev/null
echo "== ipa_fuzz"
"$BUILD/tools/ipa_fuzz" --seeds 8 --ops 2000 \
  --metrics-json bench/baselines/ipa_fuzz.json > /dev/null

git status --short bench/baselines/
