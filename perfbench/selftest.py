#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload's code path, untraced and traced, at toy sizes, and
checks that every metric named in ``BENCHMARK.json`` is reported with its
unit, that no op failed, that the exact counts and the output digest repeat
across two runs with the same seed, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = {
    "dist-trace": {"n": 6, "m": 4, "pool": 2},
    "tree-deep": {"n": 11, "m": 5, "pool": 2},
    "batch-wide": {"n": 4, "W": 10, "fillers": 30, "pool": 2},
    "verify-sweep": {"m_max": 3, "n_max": 2, "seeds": 2},
}
EXACT = (
    "simnet.deliveries",
    "simnet.phases",
    "simnet.step_calls",
    "algorithms.reassign_changed",
    "oracle.explored",
)


def run_toy(name, trace):
    result, lines = bench.run_workload(name, seed=7, seconds=0.01, trace=trace, sizes=TOY[name])
    digest = next(line for line in lines if line.startswith("digest "))
    return result, digest, lines


class ToyRuns(unittest.TestCase):
    def check_runs(self, trace, spec_key):
        units = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        digests = {}
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                runs = [run_toy(name, trace) for _ in range(2)]
                for result, _, lines in runs:
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0, lines)
                    self.assertGreater(result["attempted"], 0)
                    self.assertIn(f"failed_ratio 0 (failed 0 of {result['attempted']} ops)", lines)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, units)
                (first, digest, _), (second, digest_again, _) = runs
                self.assertEqual(digest, digest_again)
                digests[name] = digest
                if trace:
                    for key in EXACT:
                        self.assertEqual(first["metrics"][key], second["metrics"][key], key)
        return digests

    def test_untraced_and_traced_agree(self):
        untraced = self.check_runs(0, "end_to_end")
        traced = self.check_runs(1, "per_layer")
        self.assertEqual(untraced, traced)

    def test_workload_properties_at_toy_size(self):
        batch, _, _ = run_toy("batch-wide", 1)
        # simple + modified per op; only modified reassigns, and swaps all n
        self.assertEqual(batch["metrics"]["algorithms.reassign_changed"]["value"], 4)
        sweep, _, _ = run_toy("verify-sweep", 1)
        self.assertEqual(sweep["metrics"]["oracle.unavailable"]["value"], 0)
        self.assertEqual(sweep["metrics"]["harness.violations"]["value"], 0)
        self.assertGreater(sweep["metrics"]["oracle.explored"]["value"], 0)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = bench.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "dist-trace",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
