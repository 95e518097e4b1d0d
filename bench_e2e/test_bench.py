"""Tests of the end-to-end benchmark itself: a forced failure must show in
the result (never hang, never pass), and a warm iteration compiles no
kernels. Each case runs the real benchmark briefly on timestep-tcp.

    python3 -m unittest discover -s bench_e2e -p 'test_*.py' -v
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_bench(*extra):
    """Runs one short benchmark; returns (exit code, result JSON, stdout)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "timestep-tcp", "--seed", "7",
         "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output; stderr:\n" + proc.stderr[-3000:])
    return proc.returncode, json.loads(lines[-1]), proc.stdout


class ForcedFailures(unittest.TestCase):
    def assert_registers_failure(self, kind):
        code, result, out = run_bench("--inject", kind)
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"], out)
        self.assertGreater(result["failed"], 0, out)
        self.assertGreater(result["attempted"], result["failed"], out)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0, out)
        return out

    def test_net_fault_in_every_rank(self):
        self.assert_registers_failure("net-fault")

    def test_corrupted_merged_value(self):
        self.assert_registers_failure("corrupt-merge")

    def test_recompiled_kernels_after_setup(self):
        self.assert_registers_failure("wipe-kernels")

    def test_ranks_falling_back_to_tree_engine(self):
        # Untraced launches too: each must be checked, not just traced ones.
        out = self.assert_registers_failure("rank-fallback")
        self.assertRegex(out, r"iteration 1 launch: 4 rank\(s\) fell back")


class WarmIterations(unittest.TestCase):
    def test_warm_iteration_compiles_no_kernels(self):
        code, result, out = run_bench("--trace", "1")
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0, out)
        metrics = result["metrics"]
        self.assertEqual(metrics["spmd.kernel.compiles"]["value"], 0, out)
        self.assertEqual(metrics["spmd.native.fallbacks"]["value"], 0, out)
        self.assertEqual(metrics["failed_frac"]["value"], 0, out)


if __name__ == "__main__":
    unittest.main()
