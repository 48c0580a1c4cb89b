#!/usr/bin/env python3
"""Diff a fresh BENCH_sim_perf.json against the committed baseline.

Two checks, run by CI's `bench-smoke` job after the bench itself has
passed its own floors. Both compare exact, host-independent counts:

1. **Determinism diff** — simulated cycle counts are machine-independent,
   so for every scenario present in both artifacts the `cycles` counter
   must match the baseline exactly. A mismatch means the simulator's
   behavior changed; if the change is intentional, regenerate the
   baseline (see below) in the same PR.

2. **Parking trend** — the `idle_heavy` row records the engine's host
   work in tile-cycles: `ticked_tile_cycles` really ticked and
   `credited_tile_cycles` parked tiles were credited for instead. The
   ratio (ticked + credited) / ticked is how many per-cycle ticks each
   real tick stands for. It must be at least PARK_RATIO_FLOOR, and no
   lower than the baseline's: the counts are deterministic, so any drop
   means tiles park less than they did.

Regenerate the baseline from the repository root with (the directory
must be absolute: the bench runs from crates/bench):

    AZUL_BENCH_SCALE=tiny AZUL_BENCH_REPORT_DIR=$PWD/crates/bench/baselines \
        cargo bench -p azul-bench --bench sim_perf

Usage: check_bench_trend.py CURRENT.json BASELINE.json
"""

import json
import sys

# Per-cycle ticks each real tick must stand for on the idle-heavy row.
PARK_RATIO_FLOOR = 10.0

# Scenario fields that identify a row across runs. Measurements
# (wall_seconds, sim_mcycles_per_sec, the tile-cycle counts) are
# deliberately excluded.
KEY_FIELDS = (
    "section",
    "matrix",
    "n",
    "kernel",
    "threads",
    "hop_latency",
    "tracing",
    "grid",
    "active_tiles",
)


def row_key(report):
    s = report.get("scenario", {})
    return tuple((f, s.get(f)) for f in KEY_FIELDS)


def index(reports):
    out = {}
    for r in reports:
        k = row_key(r)
        if k in out:
            raise SystemExit(f"duplicate scenario key in artifact: {k}")
        out[k] = r
    return out


def fmt_key(key):
    return ", ".join(f"{f}={v}" for f, v in key if v is not None)


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    with open(argv[1]) as f:
        current = index(json.load(f))
    with open(argv[2]) as f:
        baseline = index(json.load(f))

    shared = [k for k in baseline if k in current]
    if not shared:
        raise SystemExit(
            "no scenarios shared between current artifact and baseline; "
            "was the bench run at a different AZUL_BENCH_SCALE?"
        )

    failures = []

    # 1. Determinism diff on simulated cycles.
    for k in shared:
        want = baseline[k].get("counters", {}).get("cycles")
        got = current[k].get("counters", {}).get("cycles")
        if want != got:
            failures.append(
                f"cycles drifted for [{fmt_key(k)}]: baseline {want}, "
                f"current {got} — if intentional, regenerate the baseline"
            )
    print(f"determinism diff: {len(shared)} shared scenarios compared")

    # 2. Parking trend on the idle-heavy row's exact tile-cycle counts.
    def park_ratio(rows):
        vals = [
            r["scenario"]
            for r in rows.values()
            if r.get("scenario", {}).get("section") == "idle_heavy"
        ]
        if len(vals) != 1:
            raise SystemExit(f"expected exactly one idle_heavy row, found {len(vals)}")
        s = vals[0]
        ticked = s["ticked_tile_cycles"]
        return (ticked + s["credited_tile_cycles"]) / max(ticked, 1)

    base_r = park_ratio(baseline)
    cur_r = park_ratio(current)
    ok = cur_r >= PARK_RATIO_FLOOR and cur_r >= base_r
    print(
        f"parking tile-cycle ratio: baseline {base_r:.2f}x, current {cur_r:.2f}x, "
        f"floor {PARK_RATIO_FLOOR:.0f}x — {'ok' if ok else 'REGRESSION'}"
    )
    if cur_r < PARK_RATIO_FLOOR:
        failures.append(
            f"parking stands in for only {cur_r:.2f} ticks per real tick "
            f"on the idle-heavy row (floor {PARK_RATIO_FLOOR:.0f})"
        )
    elif cur_r < base_r:
        failures.append(
            f"parking ratio fell: {cur_r:.2f}x vs baseline {base_r:.2f}x"
        )

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        raise SystemExit(1)
    print("bench trend check passed")


if __name__ == "__main__":
    main(sys.argv)
