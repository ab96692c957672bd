#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

They build the benchmark if needed, run its smoke mode (every workload, gate
and the traced run at tiny sizes), check the result contract against
BENCHMARK.json, check that the economy digest repeats at one seed, and check
that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def short_run(workload, trace, seed=5):
    """A run of the minimum op count (0.01 s of measuring)."""
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "0.01",
              "--trace", str(trace))
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
            cls.spec = json.load(spec)

    def test_smoke_mode_passes(self):
        out = run("--smoke")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertEqual(out.stdout.count(" ok"), 6, out.stdout)

    def test_result_line_matches_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = short_run("replication", trace)
            self.assertEqual(code, 0, lines)
            result = json.loads(lines[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, expected)
            env = json.loads(lines[-2])["env"]
            for field in ("nproc", "cpu_model", "build_type", "compiler", "flags",
                          "git_rev", "source_sha256", "execution_lanes"):
                self.assertIn(field, env)

    def test_economy_digest_repeats_at_one_seed(self):
        digests = []
        for _ in range(2):
            code, lines = short_run("economy", 0, seed=9)
            self.assertEqual(code, 0, lines)
            digests.append(json.loads(lines[-3])["run"]["info"]["incomes_digest"])
        self.assertEqual(digests[0], digests[1])

    def test_refuses_to_run_without_program_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("--workload", "economy", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
