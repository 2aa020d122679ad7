#!/usr/bin/env bash
# Where one workload's large memory copies come from, by call site.
#
# Usage: scripts/copy_tally.sh WORKLOAD [SRC]
#
# Builds a small LD_PRELOAD library that interposes memcpy and memmove and
# counts every copy of 1 KiB or more, keyed by its return address, then runs
# the checkout at SRC (default: this repository) under it:
#   - a perfbench WORKLOAD (BENCHMARK.json) runs the dynamically linked
#     perfbench binary at seed 1 for 15 s with tracing off; perfbench/run.py
#     builds it under SRC/.bench_build;
#   - WORKLOAD table12 runs SRC/build/bench/bench_table12_backend_compare at
#     IPA_SCALE=1 IPA_JOBS=1 (a Release build of SRC must exist).
# It resolves each return address to its function with addr2line, sums the
# sites by function, and prints the total bytes copied, then the ten top
# sites: bytes, calls and share of the total. Copies inlined by the compiler
# (fixed sizes) never reach the library, and neither do copies inside the C
# library.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  sed -n '4p' "$0" | sed 's/^# //' >&2
  exit 2
fi
WORKLOAD=$1
SRC=$(realpath "${2:-$(dirname "$0")/..}")

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/tally.c" <<'C'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

/* Open-addressed table of call sites; the programs run single-threaded. */
enum { kSlots = 1 << 14, kMinBytes = 1024 };
static struct { void* site; unsigned long long bytes, calls; } sites[kSlots];
typedef void* (*copy_fn)(void*, const void*, size_t);
static copy_fn real_memcpy, real_memmove;

static void note(void* site, size_t n) {
  if (n < kMinBytes) return;
  size_t h = ((uintptr_t)site >> 2) % kSlots;
  for (size_t i = 0; i < kSlots; i++, h = (h + 1) % kSlots) {
    if (sites[h].site == site || !sites[h].site) {
      sites[h].site = site;
      sites[h].bytes += n;
      sites[h].calls++;
      return;
    }
  }
}

/* dlsym may copy while it resolves: those copies go byte by byte. */
static copy_fn resolve(copy_fn* fn, const char* name) {
  static int resolving;
  if (!*fn && !resolving) {
    resolving = 1;
    *fn = (copy_fn)dlsym(RTLD_NEXT, name);
    resolving = 0;
  }
  return *fn;
}

static void* bytewise(void* d, const void* s, size_t n) {
  unsigned char* dst = d;
  const unsigned char* src = s;
  if (dst < src) {
    for (size_t i = 0; i < n; i++) dst[i] = src[i];
  } else {
    for (size_t i = n; i > 0; i--) dst[i - 1] = src[i - 1];
  }
  return d;
}

void* memcpy(void* d, const void* s, size_t n) {
  note(__builtin_return_address(0), n);
  copy_fn f = resolve(&real_memcpy, "memcpy");
  return f ? f(d, s, n) : bytewise(d, s, n);
}

void* memmove(void* d, const void* s, size_t n) {
  note(__builtin_return_address(0), n);
  copy_fn f = resolve(&real_memmove, "memmove");
  return f ? f(d, s, n) : bytewise(d, s, n);
}

/* One line per site: object file, offset in it, bytes, calls. */
__attribute__((destructor)) static void report(void) {
  const char* path = getenv("COPY_TALLY_OUT");
  FILE* out = path ? fopen(path, "w") : NULL;
  if (!out) return;
  for (size_t h = 0; h < kSlots; h++) {
    if (!sites[h].site) continue;
    Dl_info info;
    if (dladdr(sites[h].site, &info) && info.dli_fname) {
      fprintf(out, "%s 0x%lx %llu %llu\n", info.dli_fname,
              (unsigned long)((uintptr_t)sites[h].site - (uintptr_t)info.dli_fbase),
              sites[h].bytes, sites[h].calls);
    }
  }
  fclose(out);
}
C
cc -O2 -shared -fPIC -o "$TMP/tally.so" "$TMP/tally.c" -ldl

if [ "$WORKLOAD" = table12 ]; then
  BIN=$SRC/build/bench/bench_table12_backend_compare
  if [ ! -x "$BIN" ]; then
    echo "copy_tally: missing $BIN (build $SRC first)" >&2
    exit 2
  fi
  (cd "$TMP" && IPA_SCALE=1 IPA_JOBS=1 LD_PRELOAD="$TMP/tally.so" \
     COPY_TALLY_OUT="$TMP/sites.txt" "$BIN" > /dev/null)
else
  # A one-second run builds the binary the measured run then uses.
  (cd "$SRC" && python3 perfbench/run.py --workload "$WORKLOAD" --seed 1 --seconds 1 \
     --trace 0 > /dev/null)
  BIN=$SRC/.bench_build/perfbench/perfbench
  LD_PRELOAD="$TMP/tally.so" COPY_TALLY_OUT="$TMP/sites.txt" \
    "$BIN" --workload "$WORKLOAD" --seed 1 --seconds 15 --trace 0 > /dev/null
fi

# Resolve each site to its function (return addresses, so one byte back
# lands inside the call), then sum by function.
while read -r file offset bytes calls; do
  fn=$(addr2line -f -C -e "$file" "$(printf '0x%x' $((offset - 1)))" | head -n 1)
  if [ "$fn" = "??" ]; then fn="$(basename "$file")+$offset"; fi
  printf '%s\t%s\t%s\n' "$bytes" "$calls" "$fn"
done < "$TMP/sites.txt" > "$TMP/resolved.txt"

python3 - "$TMP/resolved.txt" "$WORKLOAD" <<'PY'
import collections, sys

path, workload = sys.argv[1], sys.argv[2]
bytes_by, calls_by = collections.Counter(), collections.Counter()
with open(path) as f:
    for line in f:
        b, c, fn = line.rstrip("\n").split("\t", 2)
        bytes_by[fn] += int(b)
        calls_by[fn] += int(c)
total = sum(bytes_by.values())
print(f"# copy tally {workload}: {total} bytes in copies of >= 1 KiB")
print(f"{'bytes':>14} {'calls':>10} {'share':>7}  site")
for fn, b in bytes_by.most_common(10):
    share = 100.0 * b / total if total else 0.0
    print(f"{b:>14} {calls_by[fn]:>10} {share:>6.1f}%  {fn}")
PY
