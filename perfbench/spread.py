#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads point-queries-1e5 --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --held-out 1001 --traced 1 --out perfbench/baseline.json

For every workload and end-to-end metric this prints the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the
spread: the distance between the quartiles as a share of the median.
--held-out adds one untraced run on a seed kept out of development and
--traced one traced run for the per-layer numbers.  Runs are sequential,
one process each, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import run  # perfbench/, this script's directory, is first on sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.abspath(run.__file__)
WORKLOADS = tuple(run.workloads.default_workloads())


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--held-out", type=int, help="one extra run on this seed")
    parser.add_argument("--traced", type=int, help="one traced run on this seed")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    report = {"environment": environment(), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={result['wall_s']:.1f}s", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], **summarise(values)}
            m = metrics[name]
            print(f"  {name:34s} median {m['median']:12.5g} {first['unit']:6s} "
                  f"q1 {m['q1']:12.5g} q3 {m['q3']:12.5g} spread {m['spread']:.4f}", flush=True)
        entry = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "wall_s_max": max(r["wall_s"] for r in runs),
            "metrics": metrics,
        }
        for key, seed, trace in (("held_out", args.held_out, 0), ("traced", args.traced, 1)):
            if seed is not None:
                one = run_once(workload, seed, args.seconds, trace)
                entry[key] = {"seed": seed, **one}
                print(f"  {key} seed {seed}: correct={one['correct']}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
