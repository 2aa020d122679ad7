#!/usr/bin/env bash
# Exit-code contract test for tools/bench_compare: 0 on a matching snapshot,
# 1 on an injected regression, 2 on unreadable or malformed input and on a
# bad --tolerance. Registered as a ctest
# (see tools/CMakeLists.txt); usage: bench_compare_test.sh /path/to/bench_compare
set -u

BIN=${1:?usage: bench_compare_test.sh /path/to/bench_compare}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/baseline.json" <<'EOF'
{
  "schema": "ipa-metrics-v1",
  "metrics": [
    {"name": "flash.page_programs.lsb", "type": "counter", "value": 1200},
    {"name": "ftl.gc.page_migrations", "type": "counter", "value": 34},
    {"name": "crash_sweep.fingerprint", "type": "gauge", "value": 3817851012},
    {"name": "ftl.write_latency_us", "type": "histogram", "count": 100, "sum": 40000, "max": 900, "buckets": [[300, 59], [535, 40], [900, 1]]}
  ]
}
EOF

fail=0
check() {
  local want=$1 got=$2 what=$3
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $what: expected exit $want, got $got" >&2
    fail=1
  else
    echo "ok: $what (exit $got)"
  fi
}

# Identical snapshots match.
cp "$TMP/baseline.json" "$TMP/same.json"
"$BIN" "$TMP/baseline.json" "$TMP/same.json" > /dev/null
check 0 $? "identical snapshots"

# An injected counter regression fails loudly.
sed 's/"value": 1200/"value": 1300/' "$TMP/baseline.json" > "$TMP/regressed.json"
out=$("$BIN" "$TMP/baseline.json" "$TMP/regressed.json" 2>&1)
check 1 $? "injected counter regression"
case "$out" in
  *flash.page_programs.lsb*) echo "ok: diff names the regressed counter" ;;
  *) echo "FAIL: diff output does not name the counter: $out" >&2; fail=1 ;;
esac

# Histogram drift within tolerance passes; beyond it fails.
sed 's/"sum": 40000/"sum": 40800/' "$TMP/baseline.json" > "$TMP/drift.json"
"$BIN" "$TMP/baseline.json" "$TMP/drift.json" > /dev/null
check 0 $? "2% histogram drift within default tolerance"
"$BIN" --tolerance 0.01 "$TMP/baseline.json" "$TMP/drift.json" > /dev/null 2>&1
check 1 $? "2% histogram drift beyond --tolerance 0.01"

# --ignore suppresses a prefixed diff.
"$BIN" --ignore flash. "$TMP/baseline.json" "$TMP/regressed.json" > /dev/null
check 0 $? "--ignore flash. suppresses the diff"

# A tolerance must be a number >= 0.
"$BIN" --tolerance 0 "$TMP/baseline.json" "$TMP/same.json" > /dev/null
check 0 $? "--tolerance 0 on identical snapshots"
for tol in -1 abc; do
  "$BIN" --tolerance "$tol" "$TMP/baseline.json" "$TMP/same.json" > /dev/null 2>&1
  check 2 $? "--tolerance $tol"
done

# Unreadable input is a usage/I-O error.
"$BIN" "$TMP/baseline.json" "$TMP/missing.json" > /dev/null 2>&1
check 2 $? "missing input file"

# So is a number without digits: a lone '-' must not read as 0.
sed 's/"value": 1200/"value": -/' "$TMP/baseline.json" > "$TMP/nodigits.json"
"$BIN" "$TMP/baseline.json" "$TMP/nodigits.json" > /dev/null 2>&1
check 2 $? "counter value without digits"

exit $fail
