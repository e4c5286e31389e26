#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs every workload once per seed, interleaved (seed-major, with the
workload order rotated per seed) so slow drifts in host speed spread
over all workloads instead of landing on one. For each end-to-end metric
of each workload it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the relative spread
(q3 - q1) / median, and flags any spread beyond the metric's bound.

With --sets 2 the whole interleaved sweep runs twice and each second
median is compared with the first: a median that got worse by more than
the metric's bound is flagged.

Usage, from the repository root:
    python3 perfbench/steady.py --seeds 10 [--sets 2]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct = false")
    return result, wall


def sweep(spec, workloads, seeds, log):
    values = {w: {} for w in workloads}
    for i, seed in enumerate(seeds):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            result, wall = run_once(spec, w, seed)
            log.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall,
                                  "result": result}) + "\n")
            log.flush()
            print(f"  {w:12s} seed {seed:4d}  {wall:6.1f} s", flush=True)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    return values


def summarize(spec, values):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows, flagged = [], []
    for w, metrics in values.items():
        for name, xs in metrics.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            flag = spread > bound
            if flag:
                flagged.append((w, name, spread, bound))
            rows.append((w, name, med, q1, q3, spread, bound, flag))
    return rows, flagged


def print_rows(rows):
    print(f"{'workload':12s} {'metric':22s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w, name, med, q1, q3, spread, bound, flag in rows:
        mark = "  OUT OF BOUND" if flag else ""
        print(f"{w:12s} {name:22s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bound:6.2f}{mark}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    log_path = os.path.join("perfbench", "out", f"steady-{int(time.time())}.jsonl")
    sets = []
    with open(log_path, "w") as log:
        for s in range(args.sets):
            print(f"set {s + 1} of {args.sets}", flush=True)
            sets.append(sweep(spec, workloads, seeds, log))
    bad = False
    for s, values in enumerate(sets):
        rows, flagged = summarize(spec, values)
        print(f"\nset {s + 1}")
        print_rows(rows)
        bad = bad or bool(flagged)
    if len(sets) > 1:
        print("\nmedian drift, last set against the first")
        lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for w in workloads:
            for name in sets[0][w]:
                m1 = statistics.median(sets[0][w][name])
                m2 = statistics.median(sets[-1][w][name])
                worse = (m2 - m1) / m1 if lower[name] else (m1 - m2) / m1
                mark = "  WORSE BEYOND BOUND" if worse > bounds[name] else ""
                bad = bad or bool(mark)
                print(f"{w:12s} {name:22s} {m1:12.5g} {m2:12.5g} {worse:+8.3f}{mark}")
    print(f"\nraw results: {log_path}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
