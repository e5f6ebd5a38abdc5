"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root: python3 -m pytest -q perfbench/tests
The smoke test runs every workload at a one-second length in both modes.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = list(workloads.WORKLOADS)  # the gated ones in BENCHMARK.json and planning_queries


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_no_errors(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr  # error rate 0 at the reference commit
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        assert any(
            line.startswith(f"metric {metric['name']} = ") and f" {metric['unit']}" in line
            for line in lines
        ), metric["name"]


def _floats(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _floats(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _floats(value, path + (i,))
    elif isinstance(node, float) and math.isfinite(node) and node != 0.0:
        yield path


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _get(node, path):
    for key in path:
        node = node[key]
    return node


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_perturbed_by_1e9_relative_is_caught(workload):
    reference = checks.load_reference(os.path.join(BENCH, "reference"), workload)
    output = reference["outputs"][0]
    assert checks.compare(output, copy.deepcopy(output)) == []
    paths = list(_floats(output))
    assert paths
    for path in paths:
        perturbed = copy.deepcopy(output)
        _set(perturbed, path, _get(output, path) * (1 + 1e-9))
        assert checks.compare(output, perturbed), path


def test_exact_fields_are_exact():
    sweep = checks.load_reference(os.path.join(BENCH, "reference"), "sweep_bulk")["outputs"][0]
    assert sweep["exit"] == 0
    bad_exit = copy.deepcopy(sweep)
    bad_exit["exit"] = 2
    assert checks.compare(sweep, bad_exit)
    csv = next(iter(sweep["csv"]))
    assert sweep["csv"][csv]["columns"]["data_rate_bps"]["nonfinite"] == 1  # row 0 at 0 m
    no_row_error = copy.deepcopy(sweep)
    no_row_error["csv"][csv]["columns"]["data_rate_bps"]["nonfinite"] = 0
    assert checks.compare(sweep, no_row_error)

    cost = checks.load_reference(os.path.join(BENCH, "reference"), "cost_scaled")["outputs"][0]
    swapped = copy.deepcopy(cost)
    swapped["ranking"][0], swapped["ranking"][1] = cost["ranking"][1], cost["ranking"][0]
    assert checks.compare(cost, swapped)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "out"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
