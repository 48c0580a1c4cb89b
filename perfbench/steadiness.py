#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs the benchmark command several times per workload, each time with
another seed, and reports for every end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and their distance as a share
of the median, next to the metric's bound. A spread counts as steady when
it stays below a third of the bound (setup_s is exempt from the spread
rule; only its median must repeat).

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.md
    python3 perfbench/steadiness.py --runs 5 --workloads sim-idle-16
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace=0):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result, wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    ap.add_argument("--out", help="write the markdown report here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    out = [f"Runs per workload: {args.runs}, seeds {args.first_seed}.."
           f"{args.first_seed + args.runs - 1}, --seconds {seconds}.", "",
           "| workload | metric | median | q1 | q3 | (q3-q1)/median | bound | steady |",
           "|---|---|---|---|---|---|---|---|"]
    walls = []
    steady_all = True
    for name in names:
        samples = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = run_once(bench["command"], name, seed, seconds)
            walls.append(wall)
            for m in bounds:
                samples[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: {wall:.1f} s wall, " + ", ".join(
                f"{m}={samples[m][-1]:.6g}" for m in bounds), flush=True)
        for m, spec in bounds.items():
            med, q1, q3, spread = summarize(samples[m])
            steady = m == "setup_s" or spread < spec["bound"] / 3
            steady_all &= steady
            out.append(f"| {name} | {m} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                       f"{spread:.4f} | {spec['bound']} | {'yes' if steady else 'NO'} |")
    out += ["", f"Run wall time: median {statistics.median(walls):.1f} s, "
            f"max {max(walls):.1f} s over {len(walls)} runs."]
    report = "\n".join(out) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    return 0 if steady_all else 1


if __name__ == "__main__":
    sys.exit(main())
