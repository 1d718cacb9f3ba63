#!/usr/bin/env python3
"""Self-tests for tools/compare_bench_json.py (plain stdlib unittest: the
build container and CI both have python3 but not pytest).

Each test writes a baseline and a current bench JSON file into a temp
directory and asserts on the checker's exit code. Registered with ctest
under the `lint` label.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_bench_json  # noqa: E402


def harness_doc(values):
    """A bench/harness.h record file: {system: extra} per record."""
    return {"records": [{"dataset": "d", "system": system, "extra": extra}
                        for system, extra in values.items()]}


class CompareBenchJsonTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.baseline_dir = os.path.join(self._tmp.name, "baselines")
        os.makedirs(self.baseline_dir)
        self.current = os.path.join(self._tmp.name, "BENCH_x.json")

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, path, doc):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    def check(self, baseline, current, *flags):
        """Runs the checker; returns its exit code."""
        if baseline is not None:
            self.write(os.path.join(self.baseline_dir, "BENCH_x.json"),
                       baseline)
        self.write(self.current, current)
        argv = ["compare_bench_json.py", "--baseline-dir", self.baseline_dir,
                "--metric", "m", *flags, self.current]
        old_argv = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return compare_bench_json.main()
        finally:
            sys.argv = old_argv

    def test_regression_fails(self):
        self.assertEqual(self.check(harness_doc({"a": {"m": 10.0}}),
                                    harness_doc({"a": {"m": 5.0}})), 1)

    def test_value_within_ratio_passes(self):
        self.assertEqual(self.check(harness_doc({"a": {"m": 10.0}}),
                                    harness_doc({"a": {"m": 8.0}})), 0)

    def test_metric_absent_from_current_fails(self):
        # Every baseline record skipped: nothing was compared.
        self.assertEqual(self.check(harness_doc({"a": {"m": 1.0},
                                                 "b": {"m": 1.0}}),
                                    harness_doc({"a": {"other": 1.0},
                                                 "b": {"other": 1.0}}),
                                    "--min-ratio", "1.0"), 1)

    def test_metric_absent_from_baseline_fails(self):
        self.assertEqual(self.check(harness_doc({"a": {"other": 1.0}}),
                                    harness_doc({"a": {"m": 1.0}})), 1)

    def test_single_missing_key_is_skipped(self):
        self.assertEqual(self.check(harness_doc({"a": {"m": 1.0},
                                                 "b": {"m": 1.0}}),
                                    harness_doc({"a": {"m": 1.0}}),
                                    "--min-ratio", "1.0"), 0)

    def test_missing_baseline_file_fails(self):
        self.assertEqual(self.check(None, harness_doc({"a": {"m": 1.0}})), 1)

    def check_metric(self, metric, base, cur):
        """Runs the checker on one record of `metric`; returns its exit code."""
        return self.check(harness_doc({"a": {metric: base}}),
                          harness_doc({"a": {metric: cur}}),
                          "--metric", metric)

    def test_lower_is_better_regression_fails(self):
        # Latency up 2x: baseline/current = 0.5 < 0.75.
        self.assertEqual(self.check_metric("p99_ms", 10.0, 20.0), 1)
        self.assertEqual(self.check_metric("build_seconds", 1.0, 1.5), 1)
        self.assertEqual(self.check_metric("real_time", 100.0, 200.0), 1)
        self.assertEqual(self.check_metric("slowdown_vs_store", 1.0, 2.0), 1)

    def test_lower_is_better_improvement_passes(self):
        self.assertEqual(self.check_metric("probe_us", 20.0, 5.0), 0)
        self.assertEqual(self.check_metric("cpu_time", 100.0, 90.0), 0)

    def test_gate_flags_stay_higher_is_better(self):
        # A 0/1 flag dropping to 0 fails even though it names a
        # percentile; a held flag passes.
        self.assertEqual(self.check_metric("p99_within_deadline", 1.0, 0.0), 1)
        self.assertEqual(self.check_metric("p99_within_deadline", 1.0, 1.0), 0)
        self.assertEqual(self.check_metric("p50_within_gate", 1.0, 0.0), 1)


if __name__ == "__main__":
    unittest.main()
