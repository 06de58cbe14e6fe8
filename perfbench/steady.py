#!/usr/bin/env python3
"""Steadiness check: runs every workload of BENCHMARK.json repeatedly in
fresh processes, untraced, and prints for every end-to-end metric the
median, the quartiles, the interquartile range as a share of the median
(the spread that BENCHMARK.json's bounds are held against) and the
max/min spread.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--runs 10] [--seed-base 1]

Run r uses seed `seed-base + r` and BENCHMARK.json's run_seconds. The
order of the workloads alternates between rounds (forward, then
reversed), so host drift does not always fall on the same workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    a = p.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    failed = {w: [] for w in workloads}
    for r in range(a.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            res = run_once(w, a.seed_base + r, bench["run_seconds"])
            failed[w].append((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {r + 1}/{a.runs} {w}: attempted {res['attempted']} failed {res['failed']}",
                  file=sys.stderr, flush=True)

    print(f"{'workload':<8} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8} {'bound':>6}")
    for w in workloads:
        for name, v in values[w].items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            iqr = (q3 - q1) / abs(med) if med else float("nan")
            mm = max(v) / min(v) - 1 if min(v) > 0 else float("nan")
            print(f"{w:<8} {name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{iqr:>8.3f} {mm:>8.3f} {bounds[name]:>6}")
        shares = {f / n for f, n in failed[w]}
        print(f"{w:<8} failed/attempted shares seen: {sorted(shares)}")


if __name__ == "__main__":
    main()
