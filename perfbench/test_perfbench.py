#!/usr/bin/env python3
"""Determinism tests for the benchmark's workloads.

    python3 perfbench/test_perfbench.py

Runs shortened versions of each workload (--short: shorter simulated
timelines, same fleets) and compares the digest of simulated statistics
each run prints: it must be identical at 1 and at 4 engine workers, on
two runs of the same seed, and between traced and untraced iterations.
Builds the benchmark first, as run.py does.
"""

import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7


def perfbench(workload, jobs, trace=0):
    """(digest, result line) of one single-iteration shortened run."""
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--jobs", str(jobs),
         "--short"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300).stdout
    digest = re.search(r"digest=([0-9a-f]{16})", out).group(1)
    return digest, out.strip().splitlines()[-1]


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check(self, workload):
        d1, r1 = perfbench(workload, jobs=1)
        d4, r4 = perfbench(workload, jobs=4)
        d4_again, _ = perfbench(workload, jobs=4)
        self.assertIn('"correct": true', r1)
        self.assertIn('"correct": true', r4)
        self.assertEqual(d1, d4, "digest differs between 1 and 4 workers")
        self.assertEqual(d4, d4_again, "digest differs between two runs")
        # A traced run alternates untraced and traced iterations and fails
        # its checks when their digests differ.
        d_traced, r_traced = perfbench(workload, jobs=4, trace=1)
        self.assertIn('"correct": true', r_traced)
        self.assertEqual(d4, d_traced)

    def test_overload_1k(self):
        self.check("overload_1k")

    def test_fleet_10k(self):
        self.check("fleet_10k")

    def test_paper_kvdb(self):
        self.check("paper_kvdb")


if __name__ == "__main__":
    unittest.main()
