#!/usr/bin/env python3
"""Self-tests of the simulator benchmark, at tiny scale.

Run from the root of the repository:

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json is printed with its
unit, that the correctness gate turns injected faults into failed cells,
that a set D2M_* variable is refused, and that the benchmark refuses to
run without the simulator sources next to it.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ("fig_sweep", "private_hits", "data_misses", "shared_writes")


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("D2M_")}
    env.update(extra)
    return env


def bench(*args, env=None, cwd=ROOT, runner=None):
    """Run the benchmark; return (exit code, stdout lines)."""
    proc = subprocess.run((runner or RUN) + list(args), cwd=cwd,
                          env=env or clean_env(), capture_output=True,
                          text=True, timeout=600, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--insts", "3000", *extra)


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_named_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    rc, lines = tiny(workload, trace)
                    self.assertEqual(rc, 0, lines)
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"]
                           for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_same_seed_gives_same_modelled_ratios(self):
        runs = [json.loads(tiny("shared_writes", 0)[1][-1])["metrics"]
                for _ in range(2)]
        for name in ("speedup_vs_base2l", "traffic_vs_base2l",
                     "edp_vs_base2l"):
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"])

    def test_unprotected_faults_fail_the_gate(self):
        # bench_fault_resilience's "no ECC" control needs >= 40k
        # insts/core before wrong values reach re-read data.
        rc, lines = bench("--workload", "private_hits", "--seed", "1",
                          "--seconds", "1", "--trace", "0", "--insts",
                          "40000", "--fault-control")
        self.assertNotEqual(rc, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_d2m_variable_is_refused(self):
        args = ("--workload", "private_hits", "--seed", "1", "--seconds",
                "1", "--trace", "0", "--insts", "3000")
        env = clean_env(D2M_STORE_DIR=os.path.join(ROOT, ".bench_build"))
        rc, lines = bench(*args, env=env)
        self.assertNotEqual(rc, 0)
        self.assertEqual(lines, [])
        # The binary refuses on its own too, not only its launcher.
        binary = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
        rc, lines = bench(*args, env=env, runner=[binary])
        self.assertNotEqual(rc, 0)
        self.assertEqual(lines, [])

    def test_refuses_without_simulator_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "selftest-alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        try:
            rc, lines = bench("--workload", "private_hits", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=alone,
                              runner=[sys.executable,
                                      os.path.join(alone, "perfbench",
                                                   "run.py")])
            self.assertNotEqual(rc, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
