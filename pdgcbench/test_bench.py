#!/usr/bin/env python3
"""Tests of the benchmark itself, on smoke-size runs of every workload.

    python3 pdgcbench/test_bench.py

Checks, on every workload run.py offers (mega too, which BENCHMARK.json
leaves out), that every metric BENCHMARK.json names prints with its unit,
that the traced replica reproduces allocateWithFallback, that the exact
quality metrics repeat across two invocations, and that each run stores
its result with its provenance; and that a deliberately corrupted
reference assignment is caught by the correctness check. Each run
measures for one second after its set-ups; the whole file takes several
minutes, most of them in mega's set-ups.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
RUNS = os.path.join(ROOT, ".bench_build", "pdgcbench", "runs")
EXACT = ("sim_cost", "spill_insts", "moves_remaining", "ok_share")
PROVENANCE = {"workload", "seed", "seconds", "trace", "nproc", "build",
              "compiler", "commit"}


def bench(workload, trace=0, extra=()):
    """Runs one smoke-size invocation; returns (exit code, result, output)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


class BenchmarkTest(unittest.TestCase):
    def assertMetrics(self, result, section, output):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, unit in want.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertRegex(output, r"(?m)^# %s = \S+ %s$"
                             % (name.replace(".", r"\."), unit))

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, first, out = bench(workload)
                self.assertEqual(code, 0, out)
                self.assertTrue(first["correct"], out)
                self.assertEqual(first["failed"], 0, out)
                self.assertGreaterEqual(first["attempted"], 1)
                self.assertMetrics(first, "end_to_end", out)

                code, second, out = bench(workload)
                self.assertEqual(code, 0, out)
                for name in EXACT:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                with open(os.path.join(
                        RUNS, "%s-seed7-trace0.json" % workload)) as f:
                    stored = json.load(f)
                self.assertEqual(stored["result"], second)
                self.assertEqual(set(stored["provenance"]), PROVENANCE)

                code, traced, out = bench(workload, trace=1)
                self.assertEqual(code, 0, out)
                self.assertTrue(traced["correct"], out)
                self.assertMetrics(traced, "per_layer", out)
                self.assertRegex(
                    out, r"# replica matches allocateWithFallback on "
                         r"(\d+) of \1 replays")
                self.assertRegex(out, r"(?m)^#   unattributed ")

    def test_corrupted_assignment_is_caught(self):
        for workload in ("specjvm", "serve"):
            with self.subTest(workload=workload):
                code, result, out = bench(
                    workload, extra=("--corrupt-reference",))
                self.assertNotEqual(code, 0, out)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn(": checker: ", out)


if __name__ == "__main__":
    unittest.main()
