"""Run metadata and the fresh-interpreter probes (set-up time, import time)."""

from __future__ import annotations

import glob
import importlib.metadata
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def vfso_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def _version(distribution: str):
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


def _proc_field(path: str, key: str):
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "vfso", "*.py"))):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def metadata(seed: int) -> dict:
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "pyyaml": _version("PyYAML"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total_mb": round(int(mem_kb.split()[0]) / 1024) if mem_kb else None,
        "git_commit": _git_commit(),
        "seed": seed,
        "src_vfso_lines": source_lines(),
    }


def time_setup(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter to the workload's first op.

    For cli_paper, the wall time of ``python -c "import vfso.cli"``; for the
    other workloads, from spawning ``run.py --setup-only`` to its "ready" line.
    """
    if workload == "cli_paper":
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import vfso.cli"], cwd=ROOT, env=vfso_env(), check=True, timeout=60)
        return time.perf_counter() - start
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up probe of {workload} failed (exit {code}, {line!r})")
    return seconds


def import_times(reps: int) -> dict[str, float]:
    """Median cumulative ``-X importtime`` of vfso, numpy and yaml, in ms."""
    env = vfso_env()
    samples: dict[str, list[float]] = {"vfso": [], "numpy": [], "yaml": []}
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import vfso.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1e3)
    return {name: statistics.median(values) for name, values in samples.items()}
