"""Tests of the benchmark's own code (not collected by the package's pytest
run; the file name does not match ``test_*.py``).

    python3 bench/check_bench.py        # from the root of the checkout

Covers the span arithmetic, the metric names, the smoke mode with and
without a deliberately corrupted result, and the refusal to run outside a
qlab checkout.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import tracing

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args, cwd=run.ROOT, script=None):
    script = script or os.path.join(run.HERE, "run.py")
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


class SpanArithmetic(unittest.TestCase):
    # [name, start, end, parent, job]
    SPANS = [["a", 0.0, 10.0, -1, None],
             ["b", 1.0, 4.0, 0, None],
             ["c", 3.0, 6.0, 0, None],   # overlaps b: covered once
             ["d", 2.0, 3.0, 1, None],
             ["e", 8.0, 9.0, 0, None]]

    def test_union_length(self):
        self.assertEqual(tracing.union_length([]), 0.0)
        self.assertEqual(tracing.union_length([(0, 1), (0.5, 2), (3, 4)]), 3.0)

    def test_self_times_subtract_children_once(self):
        self.assertEqual(tracing.self_times(self.SPANS), [4.0, 2.0, 3.0, 1.0, 1.0])

    def test_covered_counts_nesting_once(self):
        self.assertEqual(tracing.covered(self.SPANS, ("b", "d")), 3.0)
        self.assertEqual(tracing.covered(self.SPANS, ("a", "b", "c")), 10.0)

    def test_layer_sums_of_a_synthetic_trace(self):
        trace = {"spans": [["cli.main", 0.0, 5.0, -1, "x"],
                           ["geometry.build_basis", 1.0, 3.0, 0, "x"],
                           ["geometry.default_grid", 1.5, 2.0, 1, "x"],
                           ["geometry.gauss_gegenbauer", 1.6, 1.8, 2, "x"]],
                 "counts": {"gauss_rule_calls": 1, "gauss_rules_distinct": 1}}
        sums = tracing.process_sums(trace)
        self.assertAlmostEqual(sums["basis_s"], 1.5)
        self.assertAlmostEqual(sums["grid_s"], 0.5)
        self.assertAlmostEqual(sums["cli_self_s"], 3.0)
        values = tracing.layer_metrics(sums, 0.1, 0.2)
        self.assertEqual(set(values), set(tracing.PER_LAYER) - {
            "bench.wall_s_untraced", "bench.wall_s_traced", "bench.trace_overhead_s"})
        self.assertEqual(values["geometry.gauss_rule_reuse"], 1.0)


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        e2e = [m["name"] for m in spec["end_to_end"]]
        layers = [m["name"] for m in spec["per_layer"]]
        for name in e2e + layers + [w["name"] for w in spec["workloads"]]:
            self.assertRegex(name, NAME)
        res = {"walls": [1.0], "setups": [0.5], "peak_rss_mb": 10.0}
        self.assertEqual(list(run.end_to_end(res)), e2e)
        self.assertEqual(list(tracing.PER_LAYER), layers)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class Smoke(unittest.TestCase):
    def test_each_workload_passes_and_catches_corruption(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                rc, res, proc = bench("--workload", workload, "--smoke", "--seconds", "1")
                self.assertEqual(rc, 0, proc.stderr)
                self.assertTrue(res["correct"], proc.stdout)
                self.assertEqual(res["failed"], 0)
                rc, bad, proc = bench("--workload", workload, "--smoke", "--seconds", "1",
                                      "--corrupt")
                self.assertEqual(rc, 0, proc.stderr)
                self.assertFalse(bad["correct"])
                self.assertGreater(bad["failed"], 0)

    def test_traced_smoke_reports_every_layer_metric(self):
        rc, res, proc = bench("--workload", "cli-shipped", "--smoke", "--seconds", "1",
                              "--trace", "1")
        self.assertEqual(rc, 0, proc.stderr)
        self.assertEqual(list(res["metrics"]), list(tracing.PER_LAYER))
        self.assertGreater(res["metrics"]["cli.startup_s"]["value"], 0.0)

    def test_refuses_to_run_without_sources(self):
        work = os.path.join(run.ROOT, ".bench_work")
        os.makedirs(work, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=work)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, res, proc = bench("--workload", "singular-solve", cwd=bare,
                                  script=os.path.join(bare, "bench", "run.py"))
            self.assertNotEqual(rc, 0)
            self.assertIsNone(res)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
