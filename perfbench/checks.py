"""Compact output summaries and their comparison against committed references.

A summary keeps, per CSV, the header, the row count, per numeric column the
exact (math.fsum) sums of its positive and of its negative finite values and
the count of non-finite cells (sweep row errors are NaN rows), and every
stride-th row. Positive and negative parts are summed apart so that a
mixed-sign column such as the link margin cannot cancel to a value that a
relative tolerance no longer protects.

compare() walks a reference and an actual summary together: floats must
agree to RTOL relative to the reference (NaN matches NaN), everything else
(ints, strings, exit codes, rankings, row-error counts) must match exactly.
Keys present only in the actual summary are ignored, so an extra output file
does not count as a mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

RTOL = 1e-12
SAMPLED_ROWS = 4


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def column_sums(values) -> dict:
    finite = [v for v in values if math.isfinite(v)]
    return {
        "pos": math.fsum(v for v in finite if v > 0),
        "neg": math.fsum(v for v in finite if v < 0),
        "nonfinite": len(values) - len(finite),
    }


def summarize_csv(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[_cell(c) for c in row] for row in reader]
    columns = {}
    for j, name in enumerate(header):
        values = [row[j] for row in rows]
        if all(isinstance(v, float) for v in values):
            columns[name] = column_sums(values)
    stride = max(1, len(rows) // SAMPLED_ROWS)
    return {
        "header": header,
        "rows": len(rows),
        "columns": columns,
        "stride": stride,
        "sample": rows[::stride],
    }


def summarize_bundle(outdir: str) -> dict:
    """Summaries of every CSV in a CLI output directory, keyed by file name."""
    return {
        name: summarize_csv(os.path.join(outdir, name))
        for name in sorted(os.listdir(outdir))
        if name.endswith(".csv")
    }


def bundle_digests(outdir: str) -> dict:
    """sha256 of every file in an output directory, for byte-identity checks."""
    digests = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _floats_match(expected: float, actual: float) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    if math.isinf(expected) or math.isinf(actual):
        return expected == actual
    return abs(actual - expected) <= RTOL * abs(expected)


def compare(expected, actual, path: str = "") -> list[str]:
    """Mismatches between a reference summary and an actual one."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected a mapping, got {actual!r}"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{path}/{key}: missing")
            else:
                problems.extend(compare(value, actual[key], f"{path}/{key}"))
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} items, got {actual!r:.200}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems.extend(compare(e, a, f"{path}[{i}]"))
        return problems
    if isinstance(expected, float):
        if isinstance(actual, float) and _floats_match(expected, actual):
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def load_reference(directory: str, workload: str) -> dict:
    with open(os.path.join(directory, f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def save_reference(directory: str, workload: str, reference: dict) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")
