#!/usr/bin/env bash
# Flat CPU profile of one perfbench workload, C library included.
#
# Usage: scripts/profile_perfbench.sh WORKLOAD [SRC]
#
# Builds perfbench's CMake package (perfbench/CMakeLists.txt) from the
# checkout at SRC (default: this repository) into SRC/build-profile as a
# Release build linked with -pg -static, runs WORKLOAD at seed 1 for 15 s
# with tracing off, and prints gprof's flat profile: the header and the top
# 15 functions by self time. A run whose timed work is short yields few
# samples (tpcb-ipa-ecc: about 60), so the script repeats the run and sums
# the histograms with gprof -s until they hold at least 500 samples; the
# header line "# samples: N from R runs" gives the count.
#
# Only the link uses -pg. The code is compiled without mcount calls, so the
# profile is gprof's program-counter histogram alone: no call counts, and no
# instrumentation overhead inflating small functions. Linking statically puts
# memcpy, memset and malloc into the sampled text; a dynamically linked -pg
# build samples the executable alone and leaves the C library's time out of
# its profile.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  sed -n '4p' "$0" | sed 's/^# //' >&2
  exit 2
fi
WORKLOAD=$1
SRC=$(realpath "${2:-$(dirname "$0")/..}")
BUILD=$SRC/build-profile

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -S "$SRC/perfbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXE_LINKER_FLAGS="-pg -static" > /dev/null
fi
cmake --build "$BUILD" --target perfbench -j 4 > /dev/null

MIN_SAMPLES=500

# samples: the number of histogram samples in RUN/gmon.sum, from the flat
# profile's self seconds and the seconds one sample counts as.
samples() {
  gprof -b -p "$BUILD/perfbench" "$RUN/gmon.sum" | awk '
    /^Each sample counts as/ { period = $5 }
    body && NF >= 4 { total += $3 }
    $NF == "name" { body = 1 }
    END { printf "%d\n", period ? total / period + 0.5 : 0 }'
}

# gprof reads gmon.out from the directory the program ran in, and gprof -s
# writes the sum of its inputs there as gmon.sum.
RUN=$(mktemp -d)
trap 'rm -rf "$RUN"' EXIT
runs=0
count=0
while [ "$count" -lt "$MIN_SAMPLES" ]; do
  (cd "$RUN" && "$BUILD/perfbench" --workload "$WORKLOAD" --seed 1 --seconds 15 \
     --trace 0 > perfbench.out) || {
    echo "profile_perfbench: perfbench $WORKLOAD failed: $(tail -n 1 "$RUN/perfbench.out")" >&2
    exit 1
  }
  if [ -f "$RUN/gmon.sum" ]; then
    (cd "$RUN" && gprof -s "$BUILD/perfbench" gmon.sum gmon.out)
  else
    mv "$RUN/gmon.out" "$RUN/gmon.sum"
  fi
  runs=$((runs + 1))
  last=$count
  count=$(samples)
  if [ "$count" -le "$last" ]; then
    echo "profile_perfbench: run $runs of $WORKLOAD added no samples" >&2
    exit 1
  fi
done
echo "# perfbench $WORKLOAD: $(git -C "$SRC" describe --always --dirty 2> /dev/null || echo unknown)"
echo "# samples: $count from $runs runs"
# The flat profile's header runs through its column-names line ("... name").
gprof -b -p "$BUILD/perfbench" "$RUN/gmon.sum" | awk '
  !body { print; if ($NF == "name") body = 1; next }
  NF && n < 15 { print; n++ }'
