"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage: python3 perfbench/spread.py WORKLOAD [--seeds 1,2,...] [--seconds S] [--trace 0|1]

Runs the benchmark command from BENCHMARK.json once per seed and prints, per
metric, the median, the quartile spread (Q3 - Q1) / median as
statistics.quantiles(values, n=4) gives it, and the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds.split(","):
        command = [*bench["command"], "--workload", args.workload, "--seed", seed,
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} median {median:12.6g}  spread {spread:7.4f}  bound {bounds.get(name)}  "
              f"min {min(series):.6g} max {max(series):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
