#!/usr/bin/env python3
"""Tests of the IM query benchmark itself, on tiny configurations.

Run from the repository root:

    python3 perfbench/test_bench.py

Each case runs perfbench/run.py (which builds imbench on first use) with
k=5, eps=0.5 and a sub-second budget.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

LEDGER_ROWS = ["encoding.pack_csc_s", "sampler.sample_s", "selector.select_s",
               "multi.sample_s", "multi.select_s", "pipeline.unattributed_s"]


def run_bench(workload, trace=0, extra=(), seed=42):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--k", "5", "--eps", "0.5"]
    proc = subprocess.run(cmd + list(extra), capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def assert_metrics(self, result, table):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in table})
        for m in table:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_with_units(self):
        for w in ("wv-ic-exact", "wv-lt-skip-d2", "pg-ic-skip"):
            with self.subTest(workload=w):
                result = run_bench(w, trace=0)
                self.assert_metrics(result, BENCHMARK["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)

    def test_per_layer_metrics_and_ledger(self):
        for w in ("wv-ic-exact", "wv-lt-skip-d2"):
            with self.subTest(workload=w):
                result = run_bench(w, trace=1)
                self.assert_metrics(result, BENCHMARK["per_layer"])
                self.assertTrue(result["correct"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                ledger = sum(m[row] for row in LEDGER_ROWS)
                self.assertAlmostEqual(ledger, m["trace.solve_s"], delta=1e-9)
                for name in ("spill.evicted_sets", "spill.fetches", "spill.compressed_bytes"):
                    self.assertEqual(m[name], 0, name)


class ChecksCountFailures(unittest.TestCase):
    def test_wrong_expected_seeds_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "wrong.txt")
            with open(path, "w") as f:
                f.write("theta 1\nseeds 1 2 3 4 5\n")
            result = run_bench("wv-ic-exact", extra=["--expected-file", path])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_spill_workload_that_does_not_spill_fails(self):
        # At k=5, eps=0.5 the RRR store fits the 8 MB budget: nothing spills.
        result = run_bench("pg-ic-skip-spill")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class Packaging(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        with open(os.path.join(HERE, "workloads.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(names, [w["name"] for w in BENCHMARK["workloads"]])

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "wv-ic-exact",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
