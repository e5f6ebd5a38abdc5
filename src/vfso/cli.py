"""Command-line interface: evaluate, sweep, cost, and aggregate subcommands.

Every run writes its outputs into the configured output directory together
with ``resolved_config.yaml``, the fully resolved configuration echo;
re-running any command on that echo reproduces the bundle byte for byte.
CSV files are RFC-4180 style (header row, CRLF, UTF-8) with floats written
as the shortest repr that round-trips the double.

Exit codes: 0 success (and viable link for ``evaluate``), 1 usage or
configuration error, 2 link failure (``evaluate`` only).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .aggregation import aggregated_demand, oversubscribes, supported_cells
from .config import ConfigError, RunConfig, _theta_tag, load_config, resolved_yaml
from .hetnet_cost import TcoResult, compare_tco, generate_layout
from .link_budget import LinkBudgetResult, evaluate_link
from .scenario import _SWEPT_FIELD, _sweep_columns

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LINK_FAILURE = 2

# Rows formatted at a time by _write_csv, and evaluated, formatted and written
# at a time by cmd_sweep, so neither the text of a large CSV nor a sweep's
# columns over its whole grid are ever held at once.
CSV_CHUNK_ROWS = 2048

# CSV column -> budget column, which is its LossBreakdown field, in the order
# both CSV layouts use.
_LOSS_COLUMNS = {
    "l_fog_db": "fog_db",
    "l_rain_db": "rain_db",
    "l_cloud_db": "cloud_db",
    "l_sci_db": "scintillation_db",
    "l_geo_db": "geometrical_db",
    "l_poi_db": "pointing_db",
    "l_opt_db": "optical_db",
}
# A sweep CSV's columns after the grid's "variable": CSV column -> budget column.
_SWEEP_COLUMNS = {
    "data_rate_bps": "data_rate_bps",
    "link_margin_db": "link_margin_db",
    **{name: _LOSS_COLUMNS[name] for name in ("l_fog_db", "l_rain_db", "l_cloud_db", "l_sci_db", "l_geo_db")},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    # Quoted as csv.writer's QUOTE_MINIMAL does.
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_column(chunk) -> list:
    """The CSV cells of one column's chunk of rows.

    A float64 chunk is the repr of each double, formatted once per run of
    equal bits when at least half the cells repeat the one before (a weather
    term constant along the sweep). A column of str cells is formatted once
    per distinct label; any other column cell by cell with _fmt.
    """
    if isinstance(chunk, np.ndarray) and chunk.dtype == np.float64:
        # Bits, not values, so -0.0 and 0.0 (and NaN payloads) stay apart.
        bits = chunk.view(np.uint64)
        starts = np.concatenate(([True], bits[1:] != bits[:-1]))  # a run begins
        if 2 * np.count_nonzero(starts) > len(chunk):
            return list(map(repr, chunk.tolist()))
        texts = list(map(repr, chunk[starts].tolist()))
        return list(map(texts.__getitem__, (np.cumsum(starts) - 1).tolist()))
    # Keyed only on str cells: a dict keyed by value would merge True, 1 and
    # 1.0 (and 0.0 with -0.0), which _fmt prints differently.
    if set(map(type, chunk)) == {str}:
        texts = {label: _fmt(label) for label in set(chunk)}
        return list(map(texts.__getitem__, chunk))
    return [_fmt(cell) for cell in chunk]


def _reused_or_formatted(chunk: np.ndarray, key, reuse: dict) -> list:
    """_format_column of a float64 chunk, taken from the reuse map where it can be.

    The map holds, per key (cmd_sweep's column index), the bytes of the last
    chunk formatted there and its cells joined by commas (a float repr never
    contains one). Equal bytes are equal doubles with equal reprs. Equal
    values are not: 0.0 == -0.0, and repr prints them differently.
    """
    data = chunk.tobytes()
    stored = reuse.get(key)
    if stored is not None and stored[0] == data:
        return stored[1].split(",")
    cells = _format_column(chunk)
    reuse[key] = (data, ",".join(cells))
    return cells


def _write_rows(handle, cells: Sequence[list]) -> None:
    """Write rows given column by column, as lists of formatted cells."""
    handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _write_csv(path: str, table: Mapping[str, Sequence]) -> None:
    """Write a CSV from a {column name: cells} table of equal-length columns,
    byte for byte what csv.writer writes for the rows of _fmt cells.

    Each column is formatted a chunk at a time by _format_column: a float64
    array as the repr of each double, a list or tuple with _fmt.
    """
    columns = list(table.values())
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_rows(handle, [[_fmt(name)] for name in table])
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            _write_rows(handle, [_format_column(column[start:stop]) for column in columns])


def _table(rows: list) -> dict:
    """A list of {column: cell} rows as one {column: cells} table."""
    return {name: [row[name] for row in rows] for name in rows[0]}


def _bundle_path(config: RunConfig, name: str) -> str:
    """The path of one bundle file; the output directory is made here."""
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def _finish(config: RunConfig, summary: str, code: int = EXIT_OK) -> int:
    """End a command after its CSVs: write resolved_config.yaml and
    summary.txt, print the summary and return the exit code."""
    for name, text in (("resolved_config.yaml", resolved_yaml(config)), ("summary.txt", summary)):
        with open(_bundle_path(config, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    print(summary, end="")
    return code


def _first_evaluation(config: RunConfig) -> tuple[str, LinkBudgetResult]:
    """The first configured scenario's label and its link at the configured geometry."""
    label = config.scenario_names[0]
    result = evaluate_link(
        config.transceiver, config.geometry, config.scenario(label), config.target_rate_bps
    )
    return label, result


def _fixed(value: float, digits: int) -> str:
    """value to `digits` decimals; from 1e9 in magnitude in e-notation, not hundreds of digits."""
    return f"{value:.{digits}{'e' if abs(value) >= 1e9 else 'f'}}"


def _evaluate_report(label: str, config: RunConfig, result: LinkBudgetResult) -> str:
    b = result.loss_breakdown
    lines = [
        f"link evaluation: {label}",
        f"  NFP altitude         : {_fixed(config.geometry.nfp_altitude_m, 1)} m",
        f"  elevation            : {config.geometry.elevation_deg:.2f} deg",
        f"  divergence           : {config.geometry.divergence_rad:.3e} rad",
        "  losses (dB)          : "
        + " ".join(f"{f.name.removesuffix('_db')}={_fixed(getattr(b, f.name), 3)}" for f in fields(b)),
        f"  received power       : {result.received_power_w:.4e} W",
        f"  achievable data rate : {result.data_rate_bps:.4e} bit/s",
        f"  target rate          : {result.target_rate_bps:.4e} bit/s",
        f"  link margin          : {result.link_margin_db:.2f} dB",
        f"  verdict              : {'VIABLE' if result.link_viable else 'LINK FAILURE'}",
    ]
    return "\n".join(lines) + "\n"


def cmd_evaluate(config: RunConfig) -> int:
    """Evaluate the first configured scenario at the configured geometry."""
    label, result = _first_evaluation(config)
    row = {
        "scenario": label,
        "nfp_altitude_m": config.geometry.nfp_altitude_m,
        "data_rate_bps": result.data_rate_bps,
        "link_margin_db": result.link_margin_db,
        "received_power_w": result.received_power_w,
        **{name: getattr(result.loss_breakdown, field) for name, field in _LOSS_COLUMNS.items()},
        "link_viable": result.link_viable,
    }
    _write_csv(_bundle_path(config, "evaluate.csv"), _table([row]))
    code = EXIT_OK if result.link_viable else EXIT_LINK_FAILURE
    return _finish(config, _evaluate_report(label, config, result), code)


def cmd_sweep(config: RunConfig) -> int:
    """Run the configured sweep for every scenario (and divergence variant).

    The sweep is streamed a CSV_CHUNK_ROWS block of the grid at a time: each
    block is evaluated, formatted and appended to every file in turn, each
    file opened and closed again, so memory holds one block's columns and
    cells whatever the grid size, and at most one file is open. The warnings
    of failed rows and the summary follow the last block, file by file.
    """
    geometries = [("", config.geometry)]
    if config.divergence_values_rad:
        geometries = [
            (f"_{_theta_tag(theta)}", replace(config.geometry, divergence_rad=theta))
            for theta in config.divergence_values_rad
        ]
    scenarios = config.scenarios()
    files = [
        (f"sweep_{scenario.label}{suffix}.csv", scenario, geometry)
        for suffix, geometry in geometries
        for scenario in scenarios
    ]
    paths = [_bundle_path(config, filename) for filename, _, _ in files]

    field = _SWEPT_FIELD[config.sweep.variable]
    values = np.array(config.sweep.grid())
    failed: list[list] = [[] for _ in files]  # per file, (value, error) of each failed row
    # Weather leaves the grid and the geometric (and, along altitude, the
    # scintillation) columns unchanged, so most files repeat the last file's
    # chunk of a column: the map, keyed on the column index, holds one block.
    reuse: dict = {}
    for start in range(0, len(values), CSV_CHUNK_ROWS):
        block = values[start : start + CSV_CHUNK_ROWS]
        for (_, scenario, geometry), path, failures in zip(files, paths, failed):
            columns, errors = _sweep_columns(
                field, block, scenario, config.transceiver, geometry, config.target_rate_bps
            )
            # Float64 arrays over the block; failed rows are NaN.
            table = {"variable": block, **{name: columns[key] for name, key in _SWEEP_COLUMNS.items()}}
            cells = [
                _reused_or_formatted(column, index, reuse)
                for index, column in enumerate(table.values())
            ]
            with open(path, "a" if start else "w", encoding="utf-8", newline="") as handle:
                if not start:
                    _write_rows(handle, [[name] for name in table])
                _write_rows(handle, cells)
            failures += [(block[i].item(), error) for i, error in enumerate(errors) if error is not None]

    summary_lines = []
    for (filename, _, _), failures in zip(files, failed):
        summary_lines.append(
            f"{filename}: {len(values)} rows ({config.sweep.variable} sweep)"
            + (f", {len(failures)} rows failed" if failures else "")
        )
        for value, error in failures:
            print(f"warning: {filename} @ {value!r}: {error}", file=sys.stderr)
    return _finish(config, "\n".join(summary_lines) + "\n")


def _dollars(value: float) -> str:
    """value in whole dollars; in e-notation from where it rounds to 1e12 in
    magnitude, whose digits would overflow the report's 16-wide columns."""
    return f"{value:{'.4e' if abs(value) >= 1e12 - 0.5 else ',.0f'}}"


def _cost_report(results: list[TcoResult], years: float, seed: int) -> str:
    lines = [f"TCO comparison over {years:g} year(s), layout seed {seed}"]
    lines.append(f"  {'rank':<5}{'technology':<18}{'CAPEX ($)':>16}{'OPEX ($/yr)':>16}{'TCO ($)':>18}")
    for rank, result in enumerate(results, start=1):
        lines.append(
            f"  {rank:<5}{result.technology:<18}{_dollars(result.capex):>16}"
            f"{_dollars(result.opex_per_year):>16}{_dollars(result.tco(years)):>18}"
        )
    return "\n".join(lines) + "\n"


def cmd_cost(config: RunConfig) -> int:
    """Generate the HetNet layout and compare technology TCO on it."""
    cost = config.cost
    layout = generate_layout(cost.n_macro, cost.n_small, cost.area, config.seed)
    results = compare_tco(layout, cost.params, cost.years)

    macro, small = layout.macro_positions, layout.small_positions
    kinds = ["macro"] * len(macro) + ["small"] * len(small)
    x, y = np.concatenate((macro, small)).T
    _write_csv(_bundle_path(config, "layout.csv"), {"kind": kinds, "x_m": x, "y_m": y})

    items = [
        {
            "technology": r.technology,
            "item": item.label,
            "kind": item.kind,
            "unit_cost": item.unit_cost,
            "quantity": item.quantity,
            "total": item.total,
        }
        for r in results
        for item in r.line_items
    ]
    _write_csv(_bundle_path(config, "cost_items.csv"), _table(items))
    ranking = [
        {
            "rank": rank,
            "technology": r.technology,
            "capex_usd": r.capex,
            "opex_per_year_usd": r.opex_per_year,
            "years": cost.years,
            "tco_usd": r.tco(cost.years),
        }
        for rank, r in enumerate(results, start=1)
    ]
    _write_csv(_bundle_path(config, "cost_summary.csv"), _table(ranking))
    return _finish(config, _cost_report(results, cost.years, config.seed))


def cmd_aggregate(config: RunConfig) -> int:
    """Size how many small cells the evaluated link can backhaul."""
    label, result = _first_evaluation(config)
    rate = result.data_rate_bps
    cells_ceil = supported_cells(rate, config.traffic, rounding="ceil")
    cells_floor = supported_cells(rate, config.traffic, rounding="floor")
    oversub = oversubscribes(rate, config.traffic)
    demand = aggregated_demand(cells_ceil, config.traffic) if cells_ceil >= 1 else 0.0

    lines = [
        f"aggregation sizing: {label}",
        f"  achievable link rate : {rate:.4e} bit/s",
        f"  busy-hour rate/cell  : {config.traffic.busy_rate_bps:.4e} bit/s",
        f"  peak rate/cell       : {config.traffic.peak_rate_bps:.4e} bit/s",
        f"  supported cells      : {cells_ceil} (ceiling rule)",
        f"  guaranteed cells     : {cells_floor} (floor rule)",
        f"  aggregated demand    : {demand:.4e} bit/s at {cells_ceil} cells",
    ]
    if oversub:
        lines.append(
            "  advisory             : ceiling count oversubscribes the link during busy hour"
        )
    row = {
        "scenario": label,
        "data_rate_bps": rate,
        "busy_rate_bps": config.traffic.busy_rate_bps,
        "peak_rate_bps": config.traffic.peak_rate_bps,
        "supported_cells_ceil": cells_ceil,
        "supported_cells_floor": cells_floor,
        "oversubscribed": oversub,
        "aggregated_demand_bps": demand,
    }
    _write_csv(_bundle_path(config, "aggregate.csv"), _table([row]))
    return _finish(config, "\n".join(lines) + "\n")


_COMMANDS = {
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "cost": cmd_cost,
    "aggregate": cmd_aggregate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vfso",
        description=(
            "Link-budget and cost simulator for vertical free-space-optical backhaul."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evaluate", "evaluate one link budget and report rate and margin"),
        ("sweep", "sweep altitude or divergence and write per-scenario CSVs"),
        ("cost", "generate a HetNet layout and compare technology TCO"),
        ("aggregate", "size the number of small cells one link can backhaul"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="YAML config file (default: built-in defaults)")
        cmd.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override a config entry by dotted path, e.g. geometry.divergence_rad=1e-6",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = load_config(args.config, args.overrides)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
