#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_run.py

The run.py cases run run.py against a stub binary (PERFBENCH_BINARY),
so they need no build. The last case builds the real binary and runs its
C++ self-test: a perturbed physics field fails the run, a changed seed
changes the generated inputs, and impossible numbers are refused.
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

WORKDIR = run.BUILD / "test_run"

STUB = """#!/usr/bin/env python3
import json, os, sys
metrics = json.loads(os.environ["STUB_METRICS"])
print("metric lines would be here")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": metrics}))
"""


def all_metrics(trace):
    spec = run.load_json(run.SPEC)
    return {m["name"]: {"value": 1.5, "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]}


class RunPyTest(unittest.TestCase):
    def setUp(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        self.stub = WORKDIR / "stub_binary.py"
        self.stub.write_text(STUB)
        self.stub.chmod(self.stub.stat().st_mode | stat.S_IXUSR)

    def invoke(self, metrics, trace=0):
        env = dict(os.environ, PERFBENCH_BINARY=str(self.stub),
                   STUB_METRICS=json.dumps(metrics))
        return subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "aware_big", "--seed", "7", "--seconds", "1", "--trace",
             str(trace)], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=60)

    def test_complete_result_passes(self):
        for trace in (0, 1):
            p = self.invoke(all_metrics(trace), trace)
            self.assertEqual(p.returncode, 0, p.stderr)
            last = json.loads(p.stdout.splitlines()[-1])
            self.assertEqual(set(last), run.RESULT_KEYS)

    def test_missing_metric_fails_the_command(self):
        for trace in (0, 1):
            metrics = all_metrics(trace)
            del metrics[sorted(metrics)[0]]
            p = self.invoke(metrics, trace)
            self.assertNotEqual(p.returncode, 0)
            self.assertIn("missing", p.stderr)
            self.assertNotIn('"metrics"', p.stdout)

    def test_impossible_value_fails_the_command(self):
        metrics = all_metrics(0)
        metrics["sim_us_per_wall_s"]["value"] = float("inf")
        p = self.invoke(metrics)
        self.assertNotEqual(p.returncode, 0)
        self.assertIn("not a finite number", p.stderr)

    def test_wrong_unit_fails_the_command(self):
        metrics = all_metrics(0)
        metrics["setup_s"]["unit"] = "ms"
        self.assertNotEqual(self.invoke(metrics).returncode, 0)

    def test_fails_without_the_program_sources(self):
        lone = WORKDIR / "lone"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, lone / "BENCHMARK.json")
        env = {k: v for k, v in os.environ.items()
               if k != "PERFBENCH_BINARY"}
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "aware_big",
             "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=lone,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)
        shutil.rmtree(lone, ignore_errors=True)


class BinarySelfTest(unittest.TestCase):
    def test_selftest(self):
        binary = run.build().parent / "perfbench_selftest"
        p = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                           text=True, timeout=170)
        self.assertEqual(p.returncode, 0, p.stdout)


if __name__ == "__main__":
    unittest.main()
