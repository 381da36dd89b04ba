#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny variant of every workload.

    python3 perfbench/tests/test_smoke.py

Runs perfbench/run.py --smoke for each workload, untraced and traced, and
checks that the run is correct and that the metric names and units it prints
are exactly those BENCHMARK.json declares (end-to-end untraced, per-layer
traced). Builds .bench_build/ first if needed (about a minute on 4 cores).
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, workload, trace, declared):
        proc = run_smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        self.assertIn("checks  : parity(full)=ok determinism=ok", proc.stdout)
        return result

    def test_every_workload_untraced_and_traced(self):
        self.assertEqual(self.bench["command"], ["python3", "perfbench/run.py"])
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                result = self.check(w["name"], 0, self.bench["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=w["name"], trace=1):
                result = self.check(w["name"], 1, self.bench["per_layer"])
                self.assertGreaterEqual(result["metrics"]["trace.span_coverage"]["value"], 0.9)
                self.assertEqual(result["metrics"]["sim.events_clamped"]["value"], 0)
                self.assertEqual(result["metrics"]["dataplane.dense_fallback_hits"]["value"], 0)

    def test_driver_refuses_flags_no_workload_passes(self):
        self.assertEqual(run_smoke("abilene_data", 0).returncode, 0)  # builds the driver
        driver = os.path.join(ROOT, ".bench_build", "perfbench_driver")
        for extra in (["--link-gbps", "40"], ["--workload", "cache"], ["--plane", "ecmp"]):
            with self.subTest(flag=extra[0]):
                proc = subprocess.run([driver, "--builtin", "abilene", "--setup-only", *extra],
                                      capture_output=True, text=True, timeout=60)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertEqual(proc.stdout, "")

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                               "--workload", "nope", "--seed", "1"], capture_output=True,
                              text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
