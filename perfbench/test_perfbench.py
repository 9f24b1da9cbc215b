#!/usr/bin/env python3
"""The benchmark's own tests, at smoke scale.

    python3 perfbench/test_perfbench.py        (from the repository root)

Builds through run.py like a benchmark run, then checks that every workload
reports every declared metric with its declared unit in both modes, that a
wrong expected digest makes the daemon_mix output check fail, that the
composed constellation run reproduces `sim::run_network`'s report, and that
the benchmark refuses to run without the library sources.
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
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["constellation_steady", "constellation_churn", "daemon_mix"]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, workload, trace):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "2",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stdout[-3000:])
        self.assertGreaterEqual(res["attempted"], 1)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        stamp = json.loads(proc.stdout.rstrip("\n").split("\n")[-2])["stamp"]
        for key in ("nproc", "cpu", "compiler", "flags", "build_type"):
            self.assertIn(key, stamp["host"])
        self.assertEqual(stamp["seed"], 3)
        self.assertTrue(stamp["config"])

    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_metrics(workload, trace)

    def test_wrong_expected_digest_fails_the_check(self):
        proc = run("--workload", "daemon_mix", "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--smoke", "--corrupt-expected-digest")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertFalse(result(proc)["correct"])
        self.assertIn("match no stream confirmed OK", proc.stdout)

    def test_composed_run_matches_run_network(self):
        run("--workload", "constellation_steady", "--seed", "1", "--seconds",
            "1", "--trace", "0", "--smoke")  # builds the binary
        exe = os.path.join(build_dir(), "perfbench")
        for workload in ("constellation_steady", "constellation_churn"):
            with self.subTest(workload=workload):
                proc = subprocess.run([exe, "--check-compose", workload,
                                       "--seed", "5"], capture_output=True,
                                      text=True, timeout=300)
                self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(RUN[:1] + ["perfbench/run.py", "--workload",
                                  "daemon_mix", "--seed", "1", "--seconds",
                                  "1", "--trace", "0"], cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
