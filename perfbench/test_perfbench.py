#!/usr/bin/env python3
"""Tests of the benchmark itself: seeded generation, metric names and
units, and the deterministic per-layer counts.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py first (the same Release build the
benchmark runs), then drives the binary directly with short runs.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["lint_big_loop", "lint_many_loops", "serve_edit_mix"]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
COUNTS = ["dataflow.instances", "dataflow.tracked_cells",
          "dataflow.node_visits", "dataflow.meet_ops", "lint.diagnostics",
          "analysis.loops"]

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    out = subprocess.run([run.BINARY, "--root", run.ROOT, *args],
                         capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout


def measure(workload, seed, trace, seconds="1"):
    code, out = bench("--workload", workload, "--seed", str(seed),
                      "--seconds", seconds, "--trace", trace)
    assert code == 0, out
    lines = out.strip().splitlines()
    return lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("building ardf-perfbench failed")

    def test_same_seed_same_bytes(self):
        for w in WORKLOADS:
            _, a = bench("--workload", w, "--seed", "7", "--dump-inputs")
            _, b = bench("--workload", w, "--seed", "7", "--dump-inputs")
            _, c = bench("--workload", w, "--seed", "8", "--dump-inputs")
            self.assertTrue(a)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)

    def test_metric_names_units_and_result(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                lines, result = measure(w, 3, trace)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"], lines)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    want, (w, trace))
                printed = [l.split()[2] for l in lines
                           if l.startswith("# metric ")]
                self.assertIn("fail_ratio", printed)
                for name in list(printed) + list(result["metrics"]):
                    self.assertRegex(name, NAME)
                context = [l for l in lines if l.startswith("# context ")]
                self.assertRegex(context[0], r"nproc=\d+ isa=\S+ build=release")
                if trace == "0":
                    for m in result["metrics"].values():
                        self.assertGreater(m["value"], 0, w)

    def test_counts_repeat_exactly(self):
        for w in ("lint_big_loop", "lint_many_loops"):
            _, a = measure(w, 11, "1")
            _, b = measure(w, 11, "1")
            for name in COUNTS:
                self.assertGreater(a["metrics"][name]["value"], 0)
                self.assertEqual(a["metrics"][name], b["metrics"][name],
                                 (w, name))
            self.assertEqual(a["metrics"]["lint.divergences"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
