"""The four benchmark workloads.

Each workload draws its inputs from a fixed pool of ``pool_size`` inputs,
each reproducible from its pool index alone, so that reference outputs for
every pool entry can be committed (see make_reference.py). The run seed
picks the order in which a run visits the pool. One op runs one pool entry:
execute() times only the call into vfso and then summarises the outputs for
the correctness check.

Load is a closed loop in one process: the next op starts when the previous
one has returned and been checked.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import vfso  # noqa: E402
import vfso.cli  # noqa: E402
from vfso import aggregation, hetnet_cost, link_budget  # noqa: E402

import checks  # noqa: E402

PRESETS = ("clear_sky", "fog_dense", "heavy_rain", "cloud_and_fog", "rain_and_cloud")


@dataclasses.dataclass
class OpResult:
    seconds: float
    items: int
    summary: dict
    problems: list = dataclasses.field(default_factory=list)
    detail: dict = dataclasses.field(default_factory=dict)


def _shuffled(indices, seed: int) -> list[int]:
    order = list(indices)
    random.Random(seed).shuffle(order)
    return order


def _run_cli_in_process(argv: list[str]) -> tuple[float, int]:
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = vfso.cli.main(argv)
    return time.perf_counter() - start, code


def _bundle_result(seconds: float, items: int, code: int, outdir: str) -> OpResult:
    summary = {"exit": code, "csv": checks.summarize_bundle(outdir)}
    if "cost_summary.csv" in summary["csv"]:
        summary["ranking"] = [row[1] for row in summary["csv"]["cost_summary.csv"]["sample"]]
    detail = {
        "bytes": sum(os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir)),
        "rows": sum(csv["rows"] for csv in summary["csv"].values()),
    }
    return OpResult(seconds, items, summary, detail=detail)


class Workload:
    name = ""
    pool_size = 0

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")
        self.inputs = self.pool()

    def pool(self) -> list:
        """JSON description of every pool input, committed as a digest."""
        raise NotImplementedError

    def order(self, seed: int) -> list[int]:
        return _shuffled(range(self.pool_size), seed)

    def execute(self, index: int) -> OpResult:
        raise NotImplementedError


class CliPaper(Workload):
    """The paper figures from the CLI: one fresh ``vfso`` process per op."""

    name = "cli_paper"
    COMMANDS = (
        ("evaluate", ["evaluate"]),
        ("aggregate", ["aggregate"]),
        ("fig2", ["sweep", "--config", "configs/fig2.cfg"]),
        ("fig3", ["sweep", "--config", "configs/fig3.cfg"]),
        ("fig4", ["cost", "--config", "configs/fig4.cfg"]),
    )
    pool_size = len(COMMANDS)

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.trace_dir: Optional[str] = None  # set by the traced run
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        self._digests: dict[int, dict] = {}
        self._launches = 0

    def pool(self) -> list:
        return [list(args) for _, args in self.COMMANDS]

    def order(self, seed: int) -> list[int]:
        # Fixed command order; the seed only picks where the cycle starts.
        start = seed % self.pool_size
        return [(start + i) % self.pool_size for i in range(self.pool_size)]

    def execute(self, index: int) -> OpResult:
        label, args = self.COMMANDS[index]
        # The same output path for every repeat keeps resolved_config.yaml comparable.
        outdir = os.path.relpath(os.path.join(self.outdir, label), ROOT)
        shutil.rmtree(os.path.join(ROOT, outdir), ignore_errors=True)
        argv = [*args, "--set", f"output_dir={outdir}"]
        if self.trace_dir is None:
            command = [sys.executable, "-m", "vfso.cli", *argv]
        else:
            self._launches += 1
            dump = os.path.join(self.trace_dir, f"{self._launches}.json")
            command = [sys.executable, os.path.join(HERE, "launcher.py"), dump, *argv]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True, timeout=120)
        seconds = time.perf_counter() - start
        result = _bundle_result(seconds, 1, proc.returncode, os.path.join(ROOT, outdir))
        result.detail["command"] = label
        if proc.returncode not in (0, 2):
            result.problems.append(f"{label}: stderr {proc.stderr.decode(errors='replace')[-500:]}")
        digests = checks.bundle_digests(os.path.join(ROOT, outdir))
        first = self._digests.setdefault(index, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests) if first.get(k) != digests.get(k))
            result.problems.append(f"{label}: bundle differs from this run's first one: {changed}")
        return result


class SweepBulk(Workload):
    """All five presets swept at 10 000 points through ``vfso.cli.main``.

    Ops alternate between an altitude sweep on a linear grid from 0 m (so
    row 0 of each scenario is a documented row error) to a seeded stop, and a
    divergence sweep on a log grid over a seeded range.
    """

    name = "sweep_bulk"
    pool_size = 24
    POINTS = 10000

    def pool(self) -> list:
        inputs = []
        for index in range(self.pool_size):
            rng = random.Random(f"{self.name}:{index}")
            if index % 2 == 0:
                stop = rng.uniform(10000.0, 20000.0)
                inputs.append(["altitude", "linear", "0.0", f"{stop:.3f}"])
            else:
                start = 10 ** rng.uniform(-6.0, -5.0)
                stop = 10 ** rng.uniform(-3.0, -2.0)
                inputs.append(["divergence", "log", f"{start:.6e}", f"{stop:.6e}"])
        return inputs

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.argvs = [
            [
                "sweep",
                "--set", f"scenarios=[{','.join(PRESETS)}]",
                "--set", f"sweep.variable={variable}",
                "--set", f"sweep.scale={scale}",
                "--set", f"sweep.start={start}",
                "--set", f"sweep.stop={stop}",
                "--set", f"sweep.points={self.POINTS}",
                "--set", f"output_dir={self.outdir}",
            ]
            for variable, scale, start, stop in self.inputs
        ]

    def order(self, seed: int) -> list[int]:
        altitude = _shuffled(range(0, self.pool_size, 2), seed)
        divergence = _shuffled(range(1, self.pool_size, 2), seed)
        return [index for pair in zip(altitude, divergence) for index in pair]

    def execute(self, index: int) -> OpResult:
        shutil.rmtree(self.outdir, ignore_errors=True)
        seconds, code = _run_cli_in_process(self.argvs[index])
        return _bundle_result(seconds, len(PRESETS) * self.POINTS, code, self.outdir)


class CostScaled(Workload):
    """``vfso cost`` at 1000 macro x 30 000 small cells, a fresh layout per op."""

    name = "cost_scaled"
    pool_size = 24
    N_MACRO = 1000
    N_SMALL = 30000

    def pool(self) -> list:
        return random.Random(self.name).sample(range(1_000_000), self.pool_size)

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.argvs = [
            [
                "cost",
                "--set", f"cost.n_macro={self.N_MACRO}",
                "--set", f"cost.n_small={self.N_SMALL}",
                "--set", f"seed={seed}",
                "--set", f"output_dir={self.outdir}",
            ]
            for seed in self.inputs
        ]

    def execute(self, index: int) -> OpResult:
        shutil.rmtree(self.outdir, ignore_errors=True)
        seconds, code = _run_cli_in_process(self.argvs[index])
        return _bundle_result(seconds, self.N_SMALL, code, self.outdir)


class PlanningQueries(Workload):
    """Many small library calls: one paper-scale costing plus 100 scalar links.

    Part one is generate_layout(100, 1000) and compare_tco. Part two is 100
    evaluate_link + supported_cells calls at random (preset, altitude in
    1-20 km, divergence log-uniform in 1e-6-1e-2 rad) points.
    """

    name = "planning_queries"
    pool_size = 256
    POINTS = 100
    SAMPLE_STRIDE = 25

    def pool(self) -> list:
        inputs = []
        for index in range(self.pool_size):
            rng = random.Random(f"{self.name}:{index}")
            points = [
                [
                    rng.choice(PRESETS),
                    round(rng.uniform(1000.0, 20000.0), 3),
                    float(f"{10 ** rng.uniform(-6.0, -2.0):.6e}"),
                ]
                for _ in range(self.POINTS)
            ]
            inputs.append([rng.randrange(1_000_000), points])
        return inputs

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.tx, reference_geometry, _ = vfso.default_parameters()
        self.traffic = vfso.TrafficProfile(busy_rate_bps=5.0e7, peak_rate_bps=3.0e8)
        scenarios = {name: vfso.preset(name) for name in PRESETS}
        self.queries = [
            (
                layout_seed,
                [
                    (
                        scenarios[name],
                        dataclasses.replace(
                            reference_geometry, nfp_altitude_m=altitude, divergence_rad=divergence
                        ),
                    )
                    for name, altitude, divergence in points
                ],
            )
            for layout_seed, points in self.inputs
        ]

    def execute(self, index: int) -> OpResult:
        layout_seed, points = self.queries[index]
        tx, traffic = self.tx, self.traffic
        results = []
        start = time.perf_counter()
        layout = hetnet_cost.generate_layout(100, 1000, seed=layout_seed)
        ranking = hetnet_cost.compare_tco(layout)
        middle = time.perf_counter()
        for scenario, geometry in points:
            link = link_budget.evaluate_link(tx, geometry, scenario)
            cells = aggregation.supported_cells(link.data_rate_bps, traffic)
            results.append((link.data_rate_bps, link.link_margin_db, cells))
        end = time.perf_counter()

        cells = [c for _, _, c in results]
        summary = {
            "tco": [[r.technology, r.capex, r.opex_per_year] for r in ranking],
            "cells": checks.digest(cells),
            "cells_sum": sum(cells),
            "margin": checks.column_sums([m for _, m, _ in results]),
            "sample": [[rate, margin] for rate, margin, _ in results[:: self.SAMPLE_STRIDE]],
        }
        detail = {"layout_tco_s": middle - start, "scalar_s": end - middle}
        return OpResult(end - start, 1, summary, detail=detail)


WORKLOADS = {w.name: w for w in (CliPaper, SweepBulk, CostScaled, PlanningQueries)}
