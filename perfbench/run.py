#!/usr/bin/env python3
"""Repository benchmark: build memnet from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later calls only
re-check the build. The benchmark binary times the workload, checks every
run's simulated physics against perfbench/reference.json (or, for a seed
with no reference, against an audited pass) and prints its metrics.
This script then checks that the metrics are exactly the ones
BENCHMARK.json names for the chosen --trace, each finite and with the
named unit, and prints the result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Any failure exits non-zero without printing a result.

    python3 perfbench/run.py --record --seeds 0-40

re-records the reference digests from audited runs (only after a change
that is meant to alter the simulated physics).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
BUILD = ROOT / ".bench_build"
# A benchmark call must end within 180 s; leave room for start-up.
CALL_TIMEOUT_S = 170
# Variables that would silently change what the library simulates.
SCRUBBED_ENV = ("MEMNET_SIM_US", "MEMNET_AUDIT")

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    targets = ["--target", "memnet_perfbench", "perfbench_selftest"]
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"] + targets,
                      stdout=sys.stderr).returncode:
        raise BenchError("build failed")
    return BUILD / "memnet_perfbench"


def child_env():
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    return env


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def validate(result, spec, trace):
    """Raise BenchError unless @result is a complete, sane result line."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError(f"result keys are not {sorted(RESULT_KEYS)}")
    attempted, failed = result["attempted"], result["failed"]
    for name, v in (("attempted", attempted), ("failed", failed)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise BenchError(f"{name} is not a whole number: {v!r}")
    if attempted < 1 or failed > attempted:
        raise BenchError(f"impossible counts: {failed} of {attempted}")
    if result["correct"] is not (failed == 0):
        raise BenchError("correct disagrees with the failed count")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise BenchError("metrics is not an object")
    missing = sorted(set(wanted) - set(metrics))
    extra = sorted(set(metrics) - set(wanted))
    if missing or extra:
        raise BenchError(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in wanted.items():
        m = metrics[name]
        value = m.get("value") if isinstance(m, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchError(f"metric {name} is not a finite number")
        if m.get("unit") != unit:
            raise BenchError(f"metric {name} has unit {m.get('unit')!r}, "
                             f"BENCHMARK.json says {unit!r}")


def run_binary(binary, args):
    """Run the benchmark binary; return its stdout lines (raise on failure)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, env=child_env(),
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"benchmark binary exceeded {CALL_TIMEOUT_S} s") from e
    except OSError as e:
        raise BenchError(f"cannot run {binary}: {e}") from e
    lines = proc.stdout.splitlines()
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"benchmark binary exited with {proc.returncode}")
    return lines


def run_workload(opts):
    spec = load_json(SPEC)
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload not in names:
        raise BenchError(f"unknown workload {opts.workload!r}; "
                         f"BENCHMARK.json has {names}")
    # A test can substitute a stub binary for the built one.
    override = os.environ.get("PERFBENCH_BINARY")
    binary = Path(override) if override else build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    expect = (load_json(REFERENCE).get(opts.workload, {})
              .get(str(opts.seed)) if REFERENCE.exists() else None)
    if expect:
        args += ["--expect", expect]
    if opts.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out",
                 str(traces / f"{opts.workload}-seed{opts.seed}.json")]
    lines = run_binary(binary, args)
    if not lines:
        raise BenchError("benchmark binary printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"last output line is not JSON: {e}") from e
    validate(result, spec, opts.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(opts):
    spec = load_json(SPEC)
    binary = build()
    refs = load_json(REFERENCE) if REFERENCE.exists() else {}
    names = [opts.workload] if opts.workload else [
        w["name"] for w in spec["workloads"]]
    for name in names:
        for seed in parse_seeds(opts.seeds):
            lines = run_binary(binary, ["--workload", name, "--seed",
                                        str(seed), "--record"])
            digest = lines[-1].split()[-1]
            refs.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="re-record reference digests for --seeds")
    p.add_argument("--seeds", default="0-40")
    opts = p.parse_args(argv)
    try:
        if opts.record:
            record(opts)
        elif not opts.workload:
            raise BenchError("--workload is required")
        else:
            run_workload(opts)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
