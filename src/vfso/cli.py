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
import math
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .aggregation import aggregated_demand, oversubscribes, supported_cells
from .config import ConfigError, RunConfig, load_config, resolved_yaml
from .hetnet_cost import TcoResult, compare_tco, generate_layout
from .link_budget import LinkBudgetResult, LossBreakdown, evaluate_link
from .scenario import SweepResult, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LINK_FAILURE = 2

# Rows formatted at a time by _write_csv, so the text of a large CSV is never
# held all at once.
CSV_CHUNK_ROWS = 2048

SWEEP_COLUMNS = (
    "variable",
    "data_rate_bps",
    "link_margin_db",
    "l_fog_db",
    "l_rain_db",
    "l_cloud_db",
    "l_sci_db",
    "l_geo_db",
)

EVALUATE_COLUMNS = (
    "scenario",
    "nfp_altitude_m",
    "data_rate_bps",
    "link_margin_db",
    "received_power_w",
    "l_fog_db",
    "l_rain_db",
    "l_cloud_db",
    "l_sci_db",
    "l_geo_db",
    "l_poi_db",
    "l_opt_db",
    "link_viable",
)


# CSV column -> LossBreakdown field, in the order both CSV layouts use.
_LOSS_COLUMNS = {
    "l_fog_db": "fog_db",
    "l_rain_db": "rain_db",
    "l_cloud_db": "cloud_db",
    "l_sci_db": "scintillation_db",
    "l_geo_db": "geometrical_db",
    "l_poi_db": "pointing_db",
    "l_opt_db": "optical_db",
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
    """The CSV cells of one column's chunk of rows."""
    if not (isinstance(chunk, np.ndarray) and chunk.dtype == np.float64):
        return [_fmt(cell) for cell in chunk]
    # Keyed on the bit pattern, so -0.0 and 0.0 (and NaN payloads) stay distinct.
    distinct, inverse = np.unique(chunk.view(np.uint64), return_inverse=True)
    if 2 * len(distinct) > len(chunk):
        return list(map(repr, chunk.tolist()))
    # At least half the cells repeat (a weather term constant along the sweep):
    # format each distinct value once.
    texts = list(map(repr, distinct.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def _reused_or_formatted(chunk, key, reuse: Optional[dict]) -> list:
    """_format_column(chunk), taken from the reuse map where it can be.

    The map holds, per (column index, first row), the bytes of the last
    float64 chunk written there and its cells joined by commas (a float repr
    never contains one). Equal bytes are equal doubles with equal reprs.
    Equal values are not: 0.0 == -0.0, and repr prints them differently.
    """
    if reuse is None or not (isinstance(chunk, np.ndarray) and chunk.dtype == np.float64):
        return _format_column(chunk)
    data = chunk.tobytes()
    stored = reuse.get(key)
    if stored is not None and stored[0] == data:
        return stored[1].split(",")
    cells = _format_column(chunk)
    reuse[key] = (data, ",".join(cells))
    return cells


def _write_csv(
    path: str, header: Sequence[str], columns: Sequence[Sequence], reuse: Optional[dict] = None
) -> None:
    """Write a CSV from equal-length columns, byte for byte what csv.writer
    writes for the rows of _fmt cells.

    A float64 array column is formatted a chunk at a time as the repr of
    each double; any other column (a list or tuple) cell by cell with _fmt.
    Calls that share a reuse map (one per command, starting empty) format a
    float64 chunk only when it differs from the last one written at the same
    column and rows; the map then holds one entry per chunk of one file.
    """
    n_rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(map(_fmt, header)) + "\r\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            cells = [
                _reused_or_formatted(column[start:stop], (index, start), reuse)
                for index, column in enumerate(columns)
            ]
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _write_bundle_common(config: RunConfig, summary: str) -> None:
    os.makedirs(config.output_dir, exist_ok=True)
    with open(
        os.path.join(config.output_dir, "resolved_config.yaml"), "w", encoding="utf-8"
    ) as handle:
        handle.write(resolved_yaml(config))
    with open(os.path.join(config.output_dir, "summary.txt"), "w", encoding="utf-8") as handle:
        handle.write(summary)


def _loss_cells(breakdown: LossBreakdown, header: Sequence[str]) -> list:
    """The breakdown's entries for the l_*_db columns of a CSV header, in order.

    The entries are floats for one evaluation, arrays for a sweep's columns.
    """
    return [getattr(breakdown, _LOSS_COLUMNS[name]) for name in header if name in _LOSS_COLUMNS]


def _evaluate_row(label: str, config: RunConfig, result: LinkBudgetResult) -> tuple:
    return (
        label,
        config.geometry.nfp_altitude_m,
        result.data_rate_bps,
        result.link_margin_db,
        result.received_power_w,
        *_loss_cells(result.loss_breakdown, EVALUATE_COLUMNS),
        result.link_viable,
    )


def _evaluate_report(label: str, config: RunConfig, result: LinkBudgetResult) -> str:
    b = result.loss_breakdown
    lines = [
        f"link evaluation: {label}",
        f"  NFP altitude         : {config.geometry.nfp_altitude_m:.1f} m",
        f"  elevation            : {math.degrees(config.geometry.elevation_rad):.2f} deg",
        f"  divergence           : {config.geometry.divergence_rad:.3e} rad",
        "  losses (dB)          : "
        f"fog={b.fog_db:.3f} rain={b.rain_db:.3f} cloud={b.cloud_db:.3f} "
        f"scintillation={b.scintillation_db:.3f} geometrical={b.geometrical_db:.3f} "
        f"pointing={b.pointing_db:.3f} optical={b.optical_db:.3f}",
        f"  received power       : {result.received_power_w:.4e} W",
        f"  achievable data rate : {result.data_rate_bps:.4e} bit/s",
        f"  target rate          : {result.target_rate_bps:.4e} bit/s",
        f"  link margin          : {result.link_margin_db:.2f} dB",
        f"  verdict              : {'VIABLE' if result.link_viable else 'LINK FAILURE'}",
    ]
    return "\n".join(lines) + "\n"


def cmd_evaluate(config: RunConfig) -> int:
    """Evaluate the first configured scenario at the configured geometry."""
    label = config.scenario_names[0]
    result = evaluate_link(
        config.transceiver, config.geometry, config.scenario(label), config.target_rate_bps
    )
    report = _evaluate_report(label, config, result)
    _write_bundle_common(config, report)
    _write_csv(
        os.path.join(config.output_dir, "evaluate.csv"),
        EVALUATE_COLUMNS,
        tuple(zip(_evaluate_row(label, config, result))),
    )
    print(report, end="")
    return EXIT_OK if result.link_viable else EXIT_LINK_FAILURE


def _sweep_columns(sweep: SweepResult) -> tuple:
    # Float64 arrays over the grid; failed rows are NaN.
    c = sweep.columns
    return (
        sweep.values,
        c.data_rate_bps,
        c.link_margin_db,
        *_loss_cells(c.loss_breakdown, SWEEP_COLUMNS),
    )


def _theta_tag(divergence_rad: float) -> str:
    return f"theta_{divergence_rad * 1e6:g}urad"


def cmd_sweep(config: RunConfig) -> int:
    """Run the configured sweep for every scenario (and divergence variant)."""
    variants: list[tuple[str, RunConfig]] = []
    if config.divergence_values_rad:
        for theta in config.divergence_values_rad:
            geometry = replace(config.geometry, divergence_rad=theta)
            variants.append((f"_{_theta_tag(theta)}", replace(config, geometry=geometry)))
    else:
        variants.append(("", config))

    # Weather leaves the grid and the geometric (and, along altitude, the
    # scintillation) columns unchanged, so most files repeat those chunks.
    reuse: dict = {}
    summary_lines = []
    for suffix, variant in variants:
        for scenario in variant.scenarios():
            sweep = run_sweep(
                variant.sweep,
                scenario,
                variant.transceiver,
                variant.geometry,
                variant.target_rate_bps,
            )
            filename = f"sweep_{scenario.label}{suffix}.csv"
            os.makedirs(config.output_dir, exist_ok=True)
            _write_csv(
                os.path.join(config.output_dir, filename),
                SWEEP_COLUMNS,
                _sweep_columns(sweep),
                reuse,
            )
            failed = [
                (sweep.values[i].item(), error)
                for i, error in enumerate(sweep.errors)
                if error is not None
            ]
            summary_lines.append(
                f"{filename}: {len(sweep.values)} rows ({sweep.spec.variable} sweep)"
                + (f", {len(failed)} rows failed" if failed else "")
            )
            for value, error in failed:
                print(f"warning: {filename} @ {value!r}: {error}", file=sys.stderr)
    summary = "\n".join(summary_lines) + "\n"
    _write_bundle_common(config, summary)
    print(summary, end="")
    return EXIT_OK


def _cost_report(results: list[TcoResult], years: float, seed: int) -> str:
    lines = [f"TCO comparison over {years:g} year(s), layout seed {seed}"]
    lines.append(f"  {'rank':<5}{'technology':<18}{'CAPEX ($)':>16}{'OPEX ($/yr)':>16}{'TCO ($)':>18}")
    for rank, result in enumerate(results, start=1):
        lines.append(
            f"  {rank:<5}{result.technology:<18}"
            f"{result.capex:>16,.0f}{result.opex_per_year:>16,.0f}{result.tco(years):>18,.0f}"
        )
    return "\n".join(lines) + "\n"


def cmd_cost(config: RunConfig) -> int:
    """Generate the HetNet layout and compare technology TCO on it."""
    cost = config.cost
    layout = generate_layout(cost.n_macro, cost.n_small, cost.area, config.seed)
    results = compare_tco(layout, cost.params, cost.years)

    report = _cost_report(results, cost.years, config.seed)
    _write_bundle_common(config, report)

    macro, small = layout.macro_positions, layout.small_positions
    kinds = ["macro"] * len(macro) + ["small"] * len(small)
    x, y = np.concatenate((macro, small)).T
    _write_csv(os.path.join(config.output_dir, "layout.csv"), ("kind", "x_m", "y_m"), (kinds, x, y))

    item_rows = [
        (r.technology, item.label, item.kind, item.unit_cost, item.quantity, item.total)
        for r in results
        for item in r.line_items
    ]
    _write_csv(
        os.path.join(config.output_dir, "cost_items.csv"),
        ("technology", "item", "kind", "unit_cost", "quantity", "total"),
        tuple(zip(*item_rows)),
    )
    summary_rows = [
        (rank, r.technology, r.capex, r.opex_per_year, cost.years, r.tco(cost.years))
        for rank, r in enumerate(results, start=1)
    ]
    _write_csv(
        os.path.join(config.output_dir, "cost_summary.csv"),
        ("rank", "technology", "capex_usd", "opex_per_year_usd", "years", "tco_usd"),
        tuple(zip(*summary_rows)),
    )
    print(report, end="")
    return EXIT_OK


def cmd_aggregate(config: RunConfig) -> int:
    """Size how many small cells the evaluated link can backhaul."""
    label = config.scenario_names[0]
    result = evaluate_link(
        config.transceiver, config.geometry, config.scenario(label), config.target_rate_bps
    )
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
    report = "\n".join(lines) + "\n"
    _write_bundle_common(config, report)
    _write_csv(
        os.path.join(config.output_dir, "aggregate.csv"),
        (
            "scenario",
            "data_rate_bps",
            "busy_rate_bps",
            "peak_rate_bps",
            "supported_cells_ceil",
            "supported_cells_floor",
            "oversubscribed",
            "aggregated_demand_bps",
        ),
        (
            (label,),
            (rate,),
            (config.traffic.busy_rate_bps,),
            (config.traffic.peak_rate_bps,),
            (cells_ceil,),
            (cells_floor,),
            (oversub,),
            (demand,),
        ),
    )
    print(report, end="")
    return EXIT_OK


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
