#!/usr/bin/env python3
"""Runs every workload over several seeds and summarises the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--out FILE]

Run from the repository root. For each workload and seed it runs
`python3 perfbench/run.py` untraced for BENCHMARK.json's run_seconds, then
reports, per end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound; a spread at or above a third of its bound is flagged.
--out writes the same figures, each workload's constants and the host
provenance as JSON: perfbench/baseline.json is such a file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DESCRIPTION = (
    "Ten-seed sweep (`python3 perfbench/sweep.py --seeds 1-10 --out ...`, "
    "untraced, run_seconds each). Per workload and end-to-end metric: "
    "median, quartiles (statistics.quantiles n=4), spread = (q3 - q1) / "
    "median, and every run's value.")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"sweep: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def provenance():
    binary = os.path.join(run.build_dir(), "fwbench")
    info = json.loads(subprocess.run([binary, "--info"], stdout=subprocess.PIPE,
                                     text=True, check=True).stdout)
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["commit"] = "unknown"
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    seeds = parse_seeds(opts.seeds)
    if len(seeds) < 2:
        sys.exit("sweep: quartiles need at least two seeds")
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    constants = run.load_json("workloads.json")["workloads"]
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    report = {"description": DESCRIPTION, "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for name in names:
        rows = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for seed in seeds:
            result, wall = run_once(name, seed, seconds)
            walls.append(wall)
            for metric in rows:
                rows[metric].append(result["metrics"][metric]["value"])
        summary = {"run_wall_s": summarise(walls)}
        print(f"{name}: run wall median {statistics.median(walls):.1f} s")
        for m in bench["end_to_end"]:
            s = summarise(rows[m["name"]])
            summary[m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- spread"
            print(f"  {m['name']:16} median {s['median']:12.5g}  q1 "
                  f"{s['q1']:12.5g}  q3 {s['q3']:12.5g}  spread "
                  f"{s['spread']:.4f} (bound {m['bound']}){flag}")
            if opts.verbose:
                print("    " + " ".join(f"{v:.5g}" for v in s["values"]))
        report["workloads"][name] = {"why": whys[name],
                                     "constants": constants[name],
                                     "metrics": summary}
        sys.stdout.flush()
    if opts.out:
        report["host"] = provenance()
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
