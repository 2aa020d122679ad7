#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles the engine from
src/) into .bench_build/perfbench; later calls only rebuild what changed.
The benchmark's own output is passed through; the last line printed is one
JSON object with the keys correct, attempted, failed and metrics, where
metrics holds the end-to-end metrics named in BENCHMARK.json (--trace 0) or
the per-layer ones (--trace 1). Exits non-zero when the build fails, a
correctness check fails or a declared metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, '.bench_build', 'perfbench')
# Per-run limit for the measurement itself (the build is not counted).
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f'perfbench: {msg}', file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, 'src', 'engine', 'database.h')):
        fail('engine sources (src/) not found next to perfbench/')
    if not os.path.exists(os.path.join(BUILD, 'CMakeCache.txt')):
        cmd = ['cmake', '-S', HERE, '-B', BUILD, '-DCMAKE_BUILD_TYPE=Release']
        if shutil.which('ninja'):
            cmd += ['-G', 'Ninja']
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail('cmake configure failed')
    cmd = ['cmake', '--build', BUILD, '--target', 'perfbench', '-j', '4']
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail('build failed')


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--workload', required=True)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=int, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        spec = json.load(f)
    if args.workload not in [w['name'] for w in spec['workloads']]:
        fail(f'unknown workload {args.workload}')
    build()

    cmd = [os.path.join(BUILD, 'perfbench'), '--workload', args.workload,
           '--seed', str(args.seed), '--seconds', str(args.seconds),
           '--trace', str(args.trace)]
    if args.trace:
        cmd += ['--spans-out',
                os.path.join(BUILD, f'spans-{args.workload}.tsv')]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f'run exceeded {RUN_TIMEOUT_S} s')
    lines = proc.stdout.rstrip('\n').split('\n')
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f'no result line (exit code {proc.returncode})')

    if not report['correct']:
        print(json.dumps({'correct': False, 'attempted': report['attempted'],
                          'failed': report['failed'], 'metrics': {}}))
        sys.exit(1)
    kind = 'per_layer' if args.trace else 'end_to_end'
    metrics = {}
    for m in spec[kind]:
        got = report['metrics'].get(m['name'])
        if got is None:
            fail(f'metric {m["name"]} missing')
        if got['unit'] != m['unit']:
            fail(f'metric {m["name"]} has unit {got["unit"]}, '
                 f'BENCHMARK.json says {m["unit"]}')
        metrics[m['name']] = got
    print(json.dumps({'correct': True, 'attempted': report['attempted'],
                      'failed': report['failed'], 'metrics': metrics}))
    sys.exit(0 if proc.returncode == 0 else 1)


if __name__ == '__main__':
    main()
