#!/usr/bin/env python3
"""Runs check_bench_trend.py on doctored copies of the committed baseline.

The baseline against itself must pass; a dropped row, a re-keyed row, an
added row or a drifted cycle count must fail and name the row.

Usage: python3 tools/test_check_bench_trend.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "check_bench_trend.py")
BASELINE = os.path.join(HERE, "..", "crates", "bench", "baselines", "BENCH_sim_perf.json")


def load_baseline():
    with open(BASELINE) as f:
        return json.load(f)


def check(rows):
    """Runs the checker on `rows` against the baseline: (exit code, stderr)."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(rows, f)
        path = f.name
    try:
        p = subprocess.run(
            [sys.executable, SCRIPT, path, BASELINE],
            capture_output=True,
            text=True,
        )
    finally:
        os.unlink(path)
    return p.returncode, p.stderr


def first_row(rows, section):
    return next(r for r in rows if r["scenario"].get("section") == section)


class TrendCheck(unittest.TestCase):
    def test_baseline_matches_itself(self):
        code, err = check(load_baseline())
        self.assertEqual(code, 0, err)

    def test_dropped_row_fails(self):
        rows = load_baseline()
        rows.remove(first_row(rows, "sptrsv"))
        code, err = check(rows)
        self.assertEqual(code, 1)
        self.assertIn("has no current counterpart", err)

    def test_rekeyed_row_fails_both_ways(self):
        rows = load_baseline()
        first_row(rows, "sptrsv")["scenario"]["hop_latency"] = 99
        code, err = check(rows)
        self.assertEqual(code, 1)
        self.assertIn("has no current counterpart", err)
        self.assertIn("hop_latency=99, tracing=False] has no baseline counterpart", err)

    def test_added_row_fails(self):
        rows = load_baseline()
        extra = copy.deepcopy(first_row(rows, "sptrsv"))
        extra["scenario"]["section"] = "new_section"
        rows.append(extra)
        code, err = check(rows)
        self.assertEqual(code, 1)
        self.assertIn("section=new_section", err)

    def test_cycle_drift_fails(self):
        rows = load_baseline()
        first_row(rows, "sptrsv")["counters"]["cycles"] += 1
        code, err = check(rows)
        self.assertEqual(code, 1)
        self.assertIn("cycles drifted", err)


if __name__ == "__main__":
    unittest.main()
