#!/usr/bin/env python3
"""Unit tests for `run.py compare` (report.compare and report.verdict)."""

import json
import math
import pathlib
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import report  # noqa: E402

P50 = {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
QPS = {"name": "capacity_qps", "unit": "req/s", "better": "higher",
       "bound": 0.1}


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_ok(self):
        self.assertEqual(report.verdict(P50, [1.0, 1.01, 0.99],
                                        [1.05, 1.04, 1.06])[0], "ok")

    def test_worse_median_beyond_bound_regresses(self):
        v, change = report.verdict(P50, [1.0, 1.0, 1.0], [1.2, 1.2, 1.2])
        self.assertEqual(v, "regressed")
        self.assertAlmostEqual(change, 0.2)

    def test_direction_follows_better(self):
        # Lower capacity is the regression; higher latency is too.
        self.assertEqual(report.verdict(QPS, [100, 100], [80, 80])[0],
                         "regressed")
        self.assertEqual(report.verdict(QPS, [100, 100], [130, 130])[0],
                         "better")
        self.assertEqual(report.verdict(P50, [1.0, 1.0], [0.7, 0.7])[0],
                         "better")

    def test_wide_spread_is_unresolved_not_ok(self):
        # Medians agree, but the base runs alone differ by far more than
        # the bound: "within the bound" would claim more than we know.
        base = [0.6, 1.0, 1.4, 0.8, 1.2]
        new = [1.0, 1.0, 1.0, 1.0, 1.0]
        self.assertEqual(report.verdict(P50, base, new)[0], "unresolved")

    def test_wide_spread_but_every_new_run_better_resolves(self):
        base = [1.5, 2.0, 2.5, 1.6, 2.4]
        new = [1.0, 1.1, 1.2, 1.05, 1.15]
        self.assertEqual(report.verdict(P50, base, new)[0], "better")

    def test_single_run_has_no_spread(self):
        self.assertIsNone(report.spread([1.0]))
        self.assertEqual(report.verdict(P50, [1.0], [1.05])[0], "ok")

    def test_infinite_percentile_regresses(self):
        self.assertEqual(report.verdict(P50, [1.0], [math.inf])[0],
                         "regressed")


class CompareTest(unittest.TestCase):
    def write(self, directory, name, values):
        doc = {"stamp": {}, "workloads": {
            w: {"metrics": {m: {"value": v, "unit": "x"}
                            for m, v in metrics.items()}}
            for w, metrics in values.items()}}
        path = pathlib.Path(directory) / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_rows_per_workload_and_bounded_metric(self):
        spec = {"end_to_end": [P50, QPS]}
        with tempfile.TemporaryDirectory() as d:
            base = [self.write(d, f"a{i}.json", {
                "w1": {"p50_ms": 1.0 + i / 100, "capacity_qps": 100},
                "w2": {"p50_ms": 2.0, "capacity_qps": 50}}) for i in range(3)]
            new = [self.write(d, f"b{i}.json", {
                "w1": {"p50_ms": 1.5, "capacity_qps": 101},
                "w2": {"p50_ms": 2.0, "capacity_qps": 50,
                       "unbounded.layer": 3}}) for i in range(3)]
            rows = report.compare(report.load_results(base),
                                  report.load_results(new), spec)
        verdicts = {(r[0], r[1]): r[-1] for r in rows}
        self.assertEqual(verdicts, {
            ("w1", "p50_ms"): "regressed", ("w1", "capacity_qps"): "ok",
            ("w2", "p50_ms"): "ok", ("w2", "capacity_qps"): "ok"})
        self.assertIn("regressed", report.format_rows(rows))

    def test_benchmark_json_bounds_are_loadable(self):
        spec = report.load_spec()
        self.assertTrue(all(0 < m["bound"] <= 0.25
                            for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
