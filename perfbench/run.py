"""vfso benchmark: one workload, timed (--trace 0) or traced (--trace 1).

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--report PATH]

Run from the repository root. The timed run prints every end-to-end metric
of BENCHMARK.json; the traced run prints every per-layer metric. Both check
each op's outputs against the committed references in perfbench/reference/
and end with one JSON line: {"correct", "attempted", "failed", "metrics"}.

Timed runs never install the span wrappers. The traced run first runs a third
of the time untraced, then installs the wrappers for the rest, and reports
the difference of the two op medians as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
TRACE_OUT_DIR = os.path.join(HERE, "out")

SETUP_REPS = 7
IMPORT_REPS = 3
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class Phase:
    """Samples of one stretch of closed-loop ops."""

    def __init__(self):
        self.seconds: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.details: list[dict] = []
        self.probes: list[float] = []

    def p50_ms(self) -> float:
        return statistics.median(self.seconds) * 1e3 if self.seconds else 0.0


def run_ops(workload, order, reference, seconds, first_op, tracer=None, probe=None, probes=0) -> Phase:
    """Run ops back to back for `seconds` (at least one), checking each one.

    When given, `probe` is called `probes` times at even intervals of the op
    time, between ops; its results are kept in `phase.probes` and its time
    does not count against `seconds`.
    """
    import checks

    phase = Phase()
    start = time.perf_counter()
    paused = 0.0
    op = first_op
    while op == first_op or time.perf_counter() - start - paused < seconds:
        if len(phase.probes) < probes and time.perf_counter() - start - paused >= len(phase.probes) * seconds / probes:
            before = time.perf_counter()
            phase.probes.append(probe())
            paused += time.perf_counter() - before
        index = order[op % len(order)]
        if tracer is not None:
            tracer.op_id = op
        phase.attempted += 1
        op += 1
        try:
            result = workload.execute(index)
        except Exception:  # a raising op is a failed op; the loop goes on
            phase.failed += 1
            traceback.print_exc()
            continue
        problems = result.problems + checks.compare(
            reference["outputs"][index], result.summary, f"{workload.name}[{index}]"
        )
        if problems:
            phase.failed += 1
            print("\n".join(problems[:5]), file=sys.stderr)
        phase.seconds.append(result.seconds)
        phase.items += result.items
        phase.details.append(result.detail)
    while len(phase.probes) < probes:
        phase.probes.append(probe())
    return phase


def tail(samples: list[float]) -> tuple[float, float, int, int]:
    """(value, percentile, n, samples beyond) of the highest of TAIL_PERCENTILES
    (nearest rank) that has at least TAIL_BEYOND samples beyond it. With too few
    samples for any of them, the median is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        k = math.ceil(percentile / 100 * n) - 1
        if n - 1 - k >= TAIL_BEYOND:
            return ordered[k], percentile, n, n - 1 - k
    return statistics.median(ordered), 50.0, n, n // 2


def details_of(workload_name: str, phase: Phase) -> dict:
    """Medians of the per-op details a workload reports, for the summary JSON."""
    out: dict = {}
    if workload_name == "cli_paper":
        by_command: dict[str, list[float]] = {}
        for detail, seconds in zip(phase.details, phase.seconds):
            by_command.setdefault(detail["command"], []).append(seconds)
        out["command_p50_ms"] = {k: statistics.median(v) * 1e3 for k, v in by_command.items()}
    for key in ("layout_tco_s", "scalar_s", "bytes", "rows"):
        values = [d[key] for d in phase.details if key in d]
        if values:
            out[f"{key}_median"] = statistics.median(values)
    return out


def timed_run(workload, order, reference, args) -> tuple[dict, dict]:
    import machine

    # Set-ups are spread over the run so that their median sees the same
    # machine-speed drift as the ops do.
    phase = run_ops(
        workload, order, reference, args.seconds, 0,
        probe=lambda: machine.time_setup(workload.name, args.seed), probes=SETUP_REPS,
    )
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_paper" else resource.RUSAGE_SELF
    metrics = {"setup_s": statistics.median(phase.probes), "op_p50_ms": phase.p50_ms()}
    extra = {}
    if phase.seconds:
        value, percentile, n, beyond = tail(phase.seconds)
        metrics["op_tail_ms"] = value * 1e3
        extra["tail"] = {"percentile": percentile, "n": n, "beyond": beyond}
        metrics["items_per_s"] = phase.items / sum(phase.seconds)
    else:
        metrics["op_tail_ms"] = metrics["items_per_s"] = 0.0
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    metrics["success_rate"] = (phase.attempted - phase.failed) / phase.attempted
    extra["details"] = details_of(workload.name, phase)
    return _result(phase.attempted, phase.failed, metrics, "end_to_end"), extra


def traced_run(workload, order, reference, args) -> tuple[dict, dict]:
    import machine
    import tracing

    plain = run_ops(workload, order, reference, args.seconds / 3, 0)
    tracer = tracing.Tracer()
    if workload.name == "cli_paper":
        workload.trace_dir = os.path.join(workload.workdir, "trace")
        os.makedirs(workload.trace_dir, exist_ok=True)
    else:
        tracer.install()
    try:
        traced = run_ops(workload, order, reference, args.seconds * 2 / 3, plain.attempted, tracer)
    finally:
        tracer.uninstall()
    totals = {"stats": tracer.stats, "counters": tracer.counters}
    spans = [list(span) for span in tracer.spans]
    if workload.name == "cli_paper":
        names = sorted(os.listdir(workload.trace_dir), key=lambda n: int(n.split(".")[0]))
        for op_id, name in enumerate(names, start=plain.attempted):
            with open(os.path.join(workload.trace_dir, name), encoding="utf-8") as handle:
                dump = json.load(handle)
            tracing.merge(totals, dump)
            room = tracer.span_cap - len(spans)
            spans.extend([*span[:5], op_id] for span in dump["spans"][: max(0, room)])

    n_ops = max(1, len(traced.seconds))
    metrics = tracing.layer_metrics(totals["stats"], totals["counters"], n_ops)
    for name, value in machine.import_times(IMPORT_REPS).items():
        metrics[f"import.{name}_ms"] = value
    metrics["cli.bytes_written"] = sum(d.get("bytes", 0) for d in traced.details) / n_ops
    metrics["cli.rows_written"] = sum(d.get("rows", 0) for d in traced.details) / n_ops
    metrics["trace.overhead_ms"] = traced.p50_ms() - plain.p50_ms()

    os.makedirs(TRACE_OUT_DIR, exist_ok=True)
    span_path = os.path.join(TRACE_OUT_DIR, f"spans_{workload.name}_seed{args.seed}.json")
    with open(span_path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "op"], "spans": spans}, handle)

    extra = {
        "untraced_op_p50_ms": plain.p50_ms(),
        "traced_op_p50_ms": traced.p50_ms(),
        "traced_ops": len(traced.seconds),
        "spans_kept": len(spans),
        "span_file": os.path.relpath(span_path, ROOT),
        "layer_stats": {
            name: {"calls": calls / n_ops, "self_ms": self_ns / n_ops / 1e6, "total_ms": total_ns / n_ops / 1e6}
            for name, (calls, self_ns, total_ns) in sorted(totals["stats"].items())
            if calls
        },
        "details": details_of(workload.name, plain),
    }
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return _result(attempted, failed, metrics, "per_layer"), extra


def _result(attempted: int, failed: int, metrics: dict, kind: str) -> dict:
    """The result line, with exactly the metrics BENCHMARK.json lists under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = json.load(handle)[kind]
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in listed},
    }


def _print_report(args, meta: dict, result: dict, extra: dict) -> None:
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("meta " + " ".join(f"{k}={str(v).replace(' ', '_')}" for k, v in meta.items()))
    for name, metric in result["metrics"].items():
        line = f"metric {name} = {metric['value']:.6g} {metric['unit']}"
        if name == "op_tail_ms" and "tail" in extra:
            t = extra["tail"]
            line += f" (p{t['percentile']:.1f} of n={t['n']}, {t['beyond']} samples beyond)"
        print(line)
    print(f"error_rate = {result['failed']} / {result['attempted']}")
    for name, stat in extra.get("layer_stats", {}).items():
        print(
            f"span {name}: {stat['calls']:.6g} calls/op, self {stat['self_ms']:.6g} ms/op, "
            f"total {stat['total_ms']:.6g} ms/op"
        )
    for key, value in extra.items():
        if key not in ("layer_stats", "tail"):
            print(f"{key} {json.dumps(value)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", metavar="PATH", help="also write the full result as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for needed in ("BENCHMARK.json", "src/vfso/__init__.py", "configs/fig2.cfg", "configs/fig3.cfg", "configs/fig4.cfg"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"benchmark: {needed} not found under {ROOT}; run from a vfso checkout", file=sys.stderr)
            return 2

    import checks
    import machine
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        order = workload.order(args.seed)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        reference = checks.load_reference(REFERENCE_DIR, args.workload)
        if checks.digest(workload.inputs) != reference["inputs"]:
            print("benchmark: generated inputs differ from the committed reference pool", file=sys.stderr)
            return 3
        run = traced_run if args.trace else timed_run
        result, extra = run(workload, order, reference, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = machine.metadata(args.seed)
    _print_report(args, meta, result, extra)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "meta": meta, "result": result, **extra}, handle, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
