#!/usr/bin/env python3
"""Steadiness check for the undobench benchmark.

Builds the benchmark once, then runs every workload repeatedly, interleaved
(run 1 of each workload, then run 2 of each, ...), each run with another
seed, and prints for every end-to-end metric its median, first and third
quartile (as ``statistics.quantiles(values, n=4)`` gives them) and their
distance as a share of the median, against the metric's bound in
BENCHMARK.json. It also prints each workload's share of failed ops.

Run from the repository root:

    python3 undobench/steady.py --runs 10

Run ``i`` (from 1) uses seed ``i``. Exits 1 when a run fails or reports
``correct: false``, or when a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "undobench")


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    binary = build()
    results = {w: [] for w in workloads}
    ok = True
    for i in range(a.runs):
        seed = i + 1
        for w in workloads:
            t0 = time.monotonic()
            r = run_once(binary, w, seed, seconds)
            results[w].append(r)
            ok &= bool(r["correct"])
            print(f"run {i + 1}/{a.runs} {w} seed {seed}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']} "
                  f"({time.monotonic() - t0:.1f}s)", flush=True)

    print(f"\nnproc {os.cpu_count()}, {a.runs} runs per workload, {seconds}s each")
    print(f"{'workload':<14} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        rs = results[w]
        shares = {r["failed"] / r["attempted"] for r in rs}
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
                ok = False
            print(f"{w:<14} {name:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.4f} {bound:>6.3f}  {verdict}")
        print(f"{w:<14} failed share {sorted(shares)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
