"""Mutation check of tier-1: every edit listed below must make the test suite fail.

    python tests/mutants.py

Stdlib only, and outside pytest's test_*.py pattern, so tier-1 never collects it.
It first runs tier-1 on an unmutated copy of src/ and requires exit 0. Then, for
each entry, it copies src/ to a temporary directory, applies the edit there and
runs

    python -m pytest -x -q -p no:cacheprovider --hypothesis-profile=ci

from the repository root with PYTHONPATH set to the copy. Hypothesis' built-in
"ci" profile is derandomized and keeps no example database, so a kill repeats
and .hypothesis/ is never written. A mutant counts as killed only at exit code 1
(tests failed). Exit 0 means it survived; any other code (2-4: interrupted, an
internal or usage error, no tests collected) or a timeout marks the entry as
broken. An old text that does not occur exactly once in its file fails the run
before any test starts, so the list cannot go stale silently. Mutants run side by
side, one per CPU the process may use (at most MAX_WORKERS). The script exits 0
only if every mutant is killed.

To extend the list, add a (file under src/vfso, exact old text, new text, what
the edit breaks) entry to MUTANTS, keep the old text unique in its file, and
check that the new entry is killed. A mutant that tier-1 cannot kill does not
go in the list: add the test that kills it, or name it as open work.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=ci"]
TIMEOUT_S = 600
MAX_WORKERS = 4  # each tier-1 run peaks at ~230 MB

MUTANTS = [
    # geometry: the one judge of a number, its rules and its ranges.
    ("geometry.py", 'rule == "positive" and value <= 0', 'rule == "positive" and value < 0',
     "a positive name accepts 0"),
    ("geometry.py", 'rule == "non-negative" and value < 0', 'rule == "non-negative" and value <= 0',
     "a non-negative name rejects 0"),
    ("geometry.py", "if not low <= value <= high:", "if not low < value <= high:",
     "a closed range rejects its least value"),
    ("geometry.py", "and 0 < value and low <= value", "and 0 <= value and low <= value",
     "a positive name whose range opens at 0 accepts 0.0"),
    ("geometry.py", "if not low <= value <= high:", "if not low <= value < high:",
     "a range rejects its greatest value"),
    ("geometry.py", "{'(' if _RULES.get(name) == 'positive' and low == 0 else '['}", "[",
     "a range that opens at 0 is shown closed"),
    ("geometry.py", "if not -_FLOAT_MAX <= value <= _FLOAT_MAX:", "if value != value:",
     "an infinite value is judged by its rule or range, not as infinite"),
    ("geometry.py", "    digits += (magnitude >= 10**digits) - (magnitude < 10 ** (digits - 1))\n", "",
     "a huge int's digit count is off where log10 rounds across a power of 10"),
    ("geometry.py", 'values > 0.0 if rule == "positive"', 'values >= 0.0 if rule == "positive"',
     "a sweep keeps a grid point of 0 for a positive field"),
    ("geometry.py", "        value = tuple(value)\n", "",
     "a list given for a tuple field stays a list"),
    # hetnet_cost: the tiled nearest-hub search and the costings.
    ("hetnet_cost.py", "far_x = max(macro_x[p] - x0, x1 - macro_x[p])\n    far_y = max(macro_y[p] - y0, y1 - macro_y[p])",
     "far_x = min(macro_x[p] - x0, x1 - macro_x[p])\n    far_y = min(macro_y[p] - y0, y1 - macro_y[p])",
     "the bound is taken to the nearest corner of the tile, not the farthest"),
    ("hetnet_cost.py", "return gap_x <= far_x * far_x + far_y * far_y", "return gap_x < far_x * far_x + far_y * far_y",
     "a macro exactly at the bound is dropped"),
    ("hetnet_cost.py", "return gap_x <= far_x * far_x + far_y * far_y",
     "return gap_x <= (far_x * far_x + far_y * far_y) * (1.0 - 1e-9)", "the bound is shrunk by 1e-9"),
    ("hetnet_cost.py", "x0, x1, y0, y1 = x.min(), x.max(), y.min(), y.max()",
     "x0, x1, y0, y1 = x.min(), x[:-1].max(initial=x[0]), y.min(), y.max()", "the tile's box misses one cell"),
    ("hetnet_cost.py", "return gap_x <= far_x * far_x + far_y * far_y", "return gap_x <= np.inf",
     "every tile keeps every macro"),
    ("hetnet_cost.py", "rng = np.random.default_rng(seed)", "rng = np.random.default_rng()", "the layout is unseeded"),
    ("hetnet_cost.py", "n_nlos = round(params.nlos_fraction * n_small)",
     "n_nlos = math.floor(params.nlos_fraction * n_small + 0.5)", "the NLOS count rounds half up"),
    ("hetnet_cost.py", "n_hubs = -(-n_small // params.modules_per_hub)", "n_hubs = n_small // params.modules_per_hub",
     "a partly filled hub is not counted"),
    # aggregation
    ("aggregation.py", '    _require("link_rate_bps", link_rate_bps)\n', "",
     "supported_cells takes a NaN or infinite rate"),
    ("aggregation.py", "> link_rate_bps * (1.0 + _INTEGER_SNAP_RTOL)", "> link_rate_bps",
     "a rate that supported_cells snaps to a multiple is flagged"),
    # scenario and config: presets, readers and the echo.
    ("scenario.py", '"cloud_and_fog": ("fog", "clouds"),', '"cloud_and_fog": ("fog",),',
     "cloud_and_fog has no clouds"),
    ("config.py", "return [self.scenario(name) for name in self.scenario_names]",
     "return [self.scenario(name) for name in self.scenario_names[:1]]", "a command runs the first scenario only"),
    ("config.py", 'section["tx_efficiency"], section["rx_efficiency"] = etas',
     'section["tx_efficiency"], section["rx_efficiency"] = etas[0], 1.0',
     "optical_loss_db is not split evenly into the efficiencies"),
    ("config.py", "if isinstance(value, dict) and isinstance(merged.get(key), dict):", "if False:",
     "an override replaces its whole section of the file"),
    ("config.py", '_read(DEFAULT_CLOUD_PROFILE[0], layer, f"{path}[{i}]")', "_read(DEFAULT_CLOUD_PROFILE[0], layer, path)",
     "a cloud layer's message drops its index"),
    ("config.py", "names = [raw] if isinstance(raw, str) else raw", "names = raw",
     "a single preset name is not read as a list of one"),
    ("config.py", "tuple(map(_number, raw))", "tuple(raw)", "a divergence written as a YAML 1.1 string is not parsed"),
    ("config.py", "            out[prefix + key] = _emit(value)",
     '            if key != "years":\n                out[prefix + key] = _emit(value)', "the echo drops cost.years"),
    # cli: reports, file names and the CSV writer.
    ("cli.py", "{config.geometry.elevation_deg:.2f} deg", "{config.geometry.elevation_deg:.1f} deg",
     "the report gives the elevation to one decimal"),
    ("cli.py", "    if oversub:\n", "    if False:\n", "the aggregate report drops its oversubscription advisory"),
    ("cli.py", 'filename = f"sweep_{scenario.label}{suffix}.csv"', 'filename = f"sweep_{scenario.label}.csv"',
     "sweep file names lose the divergence suffix"),
    ("cli.py", "        return repr(value)\n", '        return f"{value:.16g}"\n', "a float cell has 16 digits"),
    ("cli.py", "bits = chunk.view(np.uint64)", "bits = chunk", "runs compare values, not bits (0.0 == -0.0)"),
    ("cli.py", "if 2 * np.count_nonzero(starts) > len(chunk):", "if True:", "the run path is never taken"),
    ("cli.py", "(np.cumsum(starts) - 1)", "(np.cumsum(starts) - 2)", "a run takes the previous run's text"),
    ("cli.py", "if set(map(type, chunk)) == {str}:", "if True:", "every column goes through the label map"),
    ("cli.py", "texts = {label: _fmt(label) for label in set(chunk)}", "texts = {label: label for label in set(chunk)}",
     "a label is not quoted"),
    ("cli.py", "return [_fmt(cell) for cell in chunk]", "return [str(cell) for cell in chunk]",
     "a mixed column writes True and 1.0 by str"),
    ("cli.py", "data = chunk.tobytes()\n    stored = reuse.get(key)\n    if stored is not None and stored[0] == data:",
     "data = chunk.copy()\n    stored = reuse.get(key)\n"
     "    if stored is not None and np.array_equal(stored[0], data, equal_nan=True):",
     "the reuse map compares values, not bytes"),
    ("cli.py", "if stored is not None and stored[0] == data:",
     "if stored is not None and len(stored[0]) == len(data):", "the reuse map compares chunk lengths"),
    ("cli.py", "if stored is not None and stored[0] == data:", "if False:", "the reuse map never fires"),
    ("cli.py", "reuse[key] = (data, \",\".join(cells))", "reuse[key] = (data, \",\".join(cells[::-1]))",
     "the reuse map stores another chunk's cells"),
    ("cli.py", "_reused_or_formatted(column[start:stop], (index, start), reuse)",
     "_reused_or_formatted(column[start:stop], start, reuse)", "the reuse key drops the column"),
    ("cli.py", "_reused_or_formatted(column[start:stop], (index, start), reuse)",
     "_reused_or_formatted(column[start:stop], index, reuse)", "the reuse key drops the row"),
]


def copy_src(directory: str) -> Path:
    src = Path(directory) / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def apply(src: Path, file: str, old: str, new: str) -> None:
    path = src / "vfso" / file
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def run_tier1(src: Path) -> tuple:
    """Tier-1 on the package at src: (exit code or None on a timeout, seconds, last output line)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.monotonic()
    try:
        done = subprocess.run(PYTEST, cwd=REPO, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - started, f"timed out after {TIMEOUT_S} s"
    lines = (done.stdout + done.stderr).strip().splitlines()
    return done.returncode, time.monotonic() - started, lines[-1] if lines else ""


def run_mutant(entry: tuple) -> tuple:
    file, old, new, _ = entry
    with tempfile.TemporaryDirectory() as directory:
        src = copy_src(directory)
        apply(src, file, old, new)
        return run_tier1(src)


def stale_entries() -> list:
    """Each entry whose old text does not occur exactly once in its file."""
    stale = []
    for file, old, _, what in MUTANTS:
        count = (REPO / "src" / "vfso" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            stale.append(f"{file}: old text of {what!r} occurs {count} times")
    return stale


def main() -> int:
    stale = stale_entries()
    if stale:
        print("stale entries:", *stale, sep="\n  ")
        return 1
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as directory:
        src = copy_src(directory)
        probe = [sys.executable, "-c", "import vfso; print(vfso.__file__)"]
        imported = subprocess.run(probe, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        if not imported.stdout.startswith(str(src)):
            print(f"vfso is not imported from the copy: {imported.stdout or imported.stderr}")
            return 1
        code, seconds, last = run_tier1(src)
    print(f"unmutated  exit {code}  {seconds:6.1f} s  {last}", flush=True)
    if code != 0:
        return 1
    failures = []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(min(cpus, MAX_WORKERS)) as pool:
        results = pool.map(run_mutant, MUTANTS)
        for number, ((file, _, _, what), (code, seconds, last)) in enumerate(zip(MUTANTS, results), start=1):
            verdict = {1: "killed", 0: "SURVIVED"}.get(code, "BROKEN")
            print(f"{number:3d} {verdict:8s} exit {code}  {seconds:6.1f} s  {file}: {what}", flush=True)
            if code != 1:
                failures.append(f"{verdict} {file}: {what} ({last})")
    total = time.monotonic() - started
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - len(failures)} killed, in {total:.0f} s")
    for failure in failures:
        print(" ", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
