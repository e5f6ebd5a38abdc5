"""Run every workload, timed and traced, and write the results summary.

Usage:
  python3 perfbench/run_all.py [--seed N] [--seconds S] [--out DIR]
  python3 perfbench/run_all.py --table-from DIR/summary.json

The first form runs perfbench/run.py for each workload with --trace 0 and
--trace 1, adds a few direct timings of single functions for the ROADMAP
baseline table, and writes DIR/summary.json and DIR/roadmap_table.md
(DIR defaults to perfbench/results). The second form only regenerates the
table from an existing summary. The summary makes no performance claim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("cli_paper", "sweep_bulk", "cost_scaled", "planning_queries")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
        report = os.path.join(tmp, "report.json")
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--report", report]
        proc = subprocess.run(command, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}")
        with open(report, encoding="utf-8") as handle:
            return json.load(handle)


def _median_time(fn, reps: int) -> float:
    values = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        values.append(time.perf_counter() - start)
    return statistics.median(values)


def table_probes() -> dict:
    """Direct timings of single library calls, for the rows no workload isolates."""
    import workloads  # noqa: F401  (puts src/ on sys.path)
    from vfso import compare_tco, default_parameters, evaluate_link, generate_layout, preset, run_sweep
    from vfso import SweepSpec
    from vfso.hetnet_cost import nearest_macro_distances

    tx, geometry, _ = default_parameters()
    cloud_and_fog = preset("cloud_and_fog")
    calls = 1000

    def evaluate_batch():
        for _ in range(calls):
            evaluate_link(tx, geometry, cloud_and_fog)

    spec = SweepSpec("altitude", 1000.0, 20000.0, 10000)
    return {
        "evaluate_link_cloud_and_fog_us": _median_time(evaluate_batch, 30) / calls * 1e6,
        "run_sweep_10000_cloud_and_fog_s": _median_time(
            lambda: run_sweep(spec, cloud_and_fog, tx, geometry), 5
        ),
        "layout_nearest_100x1000_s": _median_time(
            lambda: nearest_macro_distances(generate_layout(100, 1000, seed=0)), 50
        ),
        "compare_tco_100_seeds_s": _median_time(
            lambda: [compare_tco(generate_layout(100, 1000, seed=s)) for s in range(100)], 5
        ),
    }


def roadmap_table(summary: dict) -> str:
    runs = summary["workloads"]
    probes = summary["table_probes"]

    def e2e(workload, metric):
        return runs[workload]["timed"]["result"]["metrics"][metric]["value"]

    def layer(workload, metric):
        return runs[workload]["traced"]["result"]["metrics"][metric]["value"]

    commands = runs["cli_paper"]["timed"]["details"]["command_p50_ms"]
    cli = " / ".join(f"{commands[c] / 1e3:.2f}" for c in ("evaluate", "aggregate", "fig2", "fig3", "fig4"))
    nearest_share = layer("cost_scaled", "hetnet_cost.nearest.self_ms") / runs["cost_scaled"]["traced"]["traced_op_p50_ms"]
    meta = summary["meta"]
    rows = [
        ("`import vfso`", f"{layer('cli_paper', 'import.vfso_ms') / 1e3:.2f} s "
                          f"(numpy {layer('cli_paper', 'import.numpy_ms') / 1e3:.2f} s of it), `-X importtime`"),
        ("CLI end to end, evaluate / aggregate / fig2 / fig3 / fig4", f"{cli} s each (`cli_paper` p50 per command)"),
        ("`evaluate_link`, cloud_and_fog", f"{probes['evaluate_link_cloud_and_fog_us']:.1f} µs per call"),
        ("`run_sweep`, 10 000 points, cloud_and_fog", f"{probes['run_sweep_10000_cloud_and_fog_s']:.2f} s"),
        ("`generate_layout` + `nearest_macro_distances`, 100×1000", f"{probes['layout_nearest_100x1000_s']:.4f} s"),
        ("100-seed `compare_tco` (with layouts)", f"{probes['compare_tco_100_seeds_s']:.2f} s"),
        ("CLI `cost`, 1000×30 000 in-process (`cost_scaled`)",
         f"{e2e('cost_scaled', 'op_p50_ms') / 1e3:.2f} s, {e2e('cost_scaled', 'peak_rss_mb'):.0f} MB peak RSS, "
         f"nearest hub {nearest_share:.0%} of a traced op"),
        ("CLI `sweep`, 5 presets × 10 000 points in-process (`sweep_bulk`)", f"{e2e('sweep_bulk', 'op_p50_ms') / 1e3:.2f} s"),
        ("Planning query, 100×1000 costing + 100 scalar links (`planning_queries`)", f"{e2e('planning_queries', 'op_p50_ms'):.1f} ms"),
        ("Source size", f"{meta['src_vfso_lines']} lines in `src/vfso`"),
    ]
    lines = [
        f"Baseline from `perfbench/run_all.py` (seed {summary['seed']}, {summary['seconds']:g} s per run; "
        f"{meta['nproc']} CPUs, {meta['cpu_model']}, {meta['mem_total_mb']} MB, Python {meta['python']}, "
        f"numpy {meta['numpy']}, commit {(meta['git_commit'] or 'unknown')[:12]}):",
        "",
        "| What | Time / size |",
        "|---|---|",
        *(f"| {what} | {value} |" for what, value in rows),
        "",
        "The 1000×10 000 and 1000×100 000 cost rows are replaced by the `cost_scaled` size, "
        "1000×30 000: at 100 000 small cells the dense nearest-hub array needs ~3.9 GB of a "
        "7 GB machine, while 30 000 (~1.2 GB) is still dominated by the nearest-hub search.",
    ]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=os.path.join(HERE, "results"))
    parser.add_argument("--table-from", metavar="SUMMARY")
    args = parser.parse_args()

    if args.table_from:
        with open(args.table_from, encoding="utf-8") as handle:
            print(roadmap_table(json.load(handle)), end="")
        return 0

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    runs = {}
    for name in WORKLOAD_NAMES:
        runs[name] = {
            "timed": run_workload(name, args.seed, args.seconds, 0),
            "traced": run_workload(name, args.seed, args.seconds, 1),
        }
    meta = runs["cli_paper"]["timed"]["meta"]
    summary = {
        "seed": args.seed,
        "seconds": args.seconds,
        "meta": meta,
        "correct": all(r[k]["result"]["correct"] for r in runs.values() for k in r),
        "tracing_overhead_ms": {
            name: r["traced"]["result"]["metrics"]["trace.overhead_ms"]["value"] for name, r in runs.items()
        },
        "workloads": runs,
        "table_probes": table_probes(),
        "claim": None,
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    table = roadmap_table(summary)
    with open(os.path.join(args.out, "roadmap_table.md"), "w", encoding="utf-8") as handle:
        handle.write(table)
    print(table, end="")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
