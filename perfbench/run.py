#!/usr/bin/env python3
"""Builds fwbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR (a path
relative to the root, default .bench_build) and is incremental, so only the
first run in a fresh checkout compiles. The last line of standard output is
the JSON result fwbench prints; this script checks that it names every
metric BENCHMARK.json lists, each finite and in its unit, and exits non-zero
otherwise. --self-test runs every workload at toy size with and without
tracing and applies the same checks.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(target) or ".." in target.split(os.sep):
        target = ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds fwbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fairwos sources next to perfbench/ (expected src/)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fwbench", "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "fwbench")


def load_json(name):
    with open(os.path.join(HERE if name != "BENCHMARK.json" else ROOT,
                           name)) as f:
        return json.load(f)


def workload_args(name, seed, seconds, trace, overrides=None):
    workloads = load_json("workloads.json")["workloads"]
    if name not in workloads:
        fail(f"unknown workload {name!r}; known: {', '.join(workloads)}")
    flags = dict(workloads[name])
    flags.update(overrides or {})
    work = os.path.dirname(build_dir())
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--work-dir", work,
            "--detail-out",
            os.path.join(work, f"perfbench-{name}-trace{trace}.json")]
    for key, value in flags.items():
        args += [f"--{key}", str(value)]
    return args


def check_result(line, trace):
    """Returns a list of problems with one result line (empty when valid)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last output line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"unexpected keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    bench = load_json("BENCHMARK.json")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        problems.append("metric names differ from BENCHMARK.json: missing "
                        f"{sorted(names - set(metrics))}, extra "
                        f"{sorted(set(metrics) - names)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not finite")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"BENCHMARK.json says {m['unit']!r}")
    return problems


def run(binary, args):
    """Runs fwbench; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fwbench did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout.splitlines()


def self_test(binary):
    """Every workload at toy size, untraced and traced."""
    failures = 0
    for name in load_json("workloads.json")["workloads"]:
        for trace in (0, 1):
            code, lines = run(binary, workload_args(
                name, seed=1, seconds=1, trace=trace,
                overrides={"scale": 200}))
            problems = check_result(lines[-1], trace) if lines else [
                "no output"]
            if code != 0:
                problems.append(f"exit code {code}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {name} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    binary = build()
    if opts.self_test:
        sys.exit(self_test(binary))
    if not opts.workload:
        fail("--workload is required")
    code, lines = run(binary, workload_args(opts.workload, opts.seed,
                                            opts.seconds, opts.trace))
    if not lines:
        fail("fwbench printed no result", code or 2)
    problems = check_result(lines[-1], opts.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if problems:
        fail("invalid result: " + "; ".join(problems), 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
