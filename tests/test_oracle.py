"""The whole link budget held to a 50-digit decimal oracle, over every config the loader reads.

The oracle computes each term of the budget from the model's formulas in
decimal arithmetic at 50 significant digits, where nothing overflows and
nothing that matters underflows. A drawn config is either rejected with a
ConfigError that names the rule or bound it breaks, or every number the
library answers (evaluate_link, and run_sweep's rows) is within the bound
below of the oracle.

The bound is a relative 1e-9, and 1e-9 dB absolute for the dB terms (a loss
the oracle puts below ~1e-300 dB may read 0.0). Inside the model's domain
rounding alone keeps every term within ~1e-13 of the oracle, except the
received power when one of its factors is a subnormal double: its relative
error is then up to ~1e-10. The power, rate and margin are compared where the
oracle's power is a normal double. Below that the float power underflows,
and the margin may read -inf, the link-failure sentinel; it may read -inf
nowhere else.

A second property runs the CLI on the same drawn configs: a config the loader
accepts never fails a command, and its bundle reproduces itself. The echo
reloads to the same config, a rerun from it writes the same bytes, no command
writes a bundle path twice, and every float CSV cell reads back as the double
the library handed the writer; a sweep's, which the CLI streams a block at a
time, as the double of run_sweep over the whole grid.
"""

import contextlib
import copy
import csv
import io
import math
import os
import re
import shutil
import struct
import sys
import tempfile
from dataclasses import fields, replace
from decimal import Context, Decimal, localcontext
from unittest import mock

import numpy as np
import yaml
from hypothesis import example, given, settings, strategies as st

from vfso import cli

from vfso.atmosphere import cloud_visibility
from vfso.config import ConfigError, _theta_tag, config_from_mapping, load_config
from vfso.hetnet_cost import FiberCostParams, RfNlosCostParams, TerrestrialFsoCostParams, VerticalFsoCostParams
from vfso.link_budget import LIGHT_SPEED_M_PER_S, PLANCK_J_S, LossBreakdown, evaluate_link
from vfso.scenario import PRESET_NAMES, run_sweep

REL = 1e-9
ABS_DB = 1e-9
SMALLEST_NORMAL = sys.float_info.min
FLOAT_MAX = sys.float_info.max

CONTEXT = Context(prec=50, Emin=-(10**9), Emax=10**9)
PI = Decimal("3.1415926535897932384626433832795028841971693993751058209749445923")


def sin(x: Decimal) -> Decimal:
    """sin by its Taylor series; converges fast for the domain's 0 < x <= pi/2."""
    term = total = x
    n = 1
    while True:
        term = -term * x * x / ((2 * n) * (2 * n + 1))
        n += 1
        if total + term == total:
            return total
        total += term


def d(x) -> Decimal:
    """The exact value of a double."""
    return Decimal(x)


def mie(visibility_km: Decimal, branch_km: float, wavelength_nm: Decimal) -> Decimal:
    """Kruse's dB/km. The exponent's regime (the model is discontinuous at 6 and 50 km) is
    chosen at branch_km, the visibility in km as the library computes it."""
    if branch_km > 50.0:
        delta = Decimal("1.6")
    elif branch_km >= 6.0:
        delta = Decimal("1.3")
    else:
        delta = Decimal("0.585") * visibility_km ** (Decimal(1) / 3)
    return Decimal("4.34") * (Decimal("3.91") / visibility_km) * (wavelength_nm / 550) ** -delta


def oracle(tx, geometry, scenario, target_rate_bps) -> dict:
    """Every per-point number of evaluate_link, in 50-digit decimals."""
    with localcontext(CONTEXT):
        wavelength = d(tx.wavelength_nm)
        factor = 1 / sin(d(geometry.elevation_deg) * PI / 180)
        altitude = d(geometry.nfp_altitude_m)
        path = altitude * factor
        footprint = d(geometry.divergence_rad) * path / 2
        fraction = min(Decimal(1), (d(geometry.receiver_radius_m) / footprint) ** 2)
        out = dict.fromkeys(("fog_db", "rain_db", "cloud_db", "scintillation_db"), Decimal(0))
        if scenario.fog is not None:
            visibility_m = scenario.fog.visibility_m
            specific = mie(d(visibility_m) / 1000, visibility_m / 1000.0, wavelength)
            out["fog_db"] = specific * d(scenario.fog.layer_thickness_m) / 1000 * factor
        if scenario.rain is not None:
            specific = Decimal("1.076") * d(scenario.rain.rate_mm_per_hour) ** Decimal("0.67")
            out["rain_db"] = specific * d(scenario.rain.layer_thickness_m) / 1000 * factor
        for layer in scenario.clouds:
            product = d(layer.lwc_g_per_m3) * d(layer.droplet_density_per_cm3)
            visibility = Decimal("1.002") * product ** Decimal("-0.6473")
            base = d(layer.base_altitude_m)
            # The layer's top as the library holds it: base + thickness, rounded once.
            pierced = min(max(altitude, base), d(layer.top_altitude_m)) - base
            specific = mie(visibility, cloud_visibility(layer), wavelength)
            out["cloud_db"] += specific * pierced / 1000 * factor
        turbulence = scenario.turbulence
        if turbulence is not None:
            h = altitude if turbulence.reference_altitude_m is None else d(turbulence.reference_altitude_m)
            cn2 = (
                Decimal("0.00594") * (d(turbulence.wind_speed_m_per_s) / 27) ** 2
                * (Decimal("1e-5") * h) ** 10 * (-h / 1000).exp()
                + Decimal("2.7e-16") * (-h / 1500).exp()
                + d(turbulence.structure_constant_a) * (-h / 100).exp()
            )
            wavenumber = 2 * PI * Decimal("1e9") / wavelength
            product = Decimal("23.17") * wavenumber ** (Decimal(7) / 6) * cn2
            out["scintillation_db"] = 2 * (product * path ** (Decimal(11) / 6)).sqrt()
        out["geometrical_db"] = -10 * fraction.log10()
        out["pointing_db"] = d(tx.pointing_loss_db)
        out["optical_db"] = d(tx.optical_loss_db)
        atmospheric_db = out["fog_db"] + out["rain_db"] + out["cloud_db"] + out["scintillation_db"]
        power = (
            d(tx.transmit_power_w) * Decimal(10) ** (-out["optical_db"] / 10)
            * Decimal(10) ** (-out["pointing_db"] / 10)
            * Decimal(10) ** (-atmospheric_db / 10) * fraction
        )
        photon_j = d(PLANCK_J_S) * d(LIGHT_SPEED_M_PER_S) / (wavelength * Decimal("1e-9"))
        out["received_power_w"] = power
        out["data_rate_bps"] = power / (photon_j * d(tx.receiver_sensitivity_photons_per_bit))
        quotient = out["data_rate_bps"] / d(target_rate_bps)
        out["link_margin_db"] = 10 * quotient.log10() if quotient else Decimal("-Infinity")
        return out


LOSSES = [f.name for f in fields(LossBreakdown)]


def assert_within_the_oracle(result, want: dict) -> None:
    got = {name: getattr(result.loss_breakdown, name) for name in LOSSES}
    got.update(
        received_power_w=result.received_power_w,
        data_rate_bps=result.data_rate_bps,
        link_margin_db=result.link_margin_db,
    )
    assert not any(math.isnan(value) for value in got.values()), got
    for name in LOSSES:
        assert 0.0 <= got[name] < math.inf, (name, got[name])
        assert math.isclose(got[name], want[name], rel_tol=REL, abs_tol=ABS_DB), (name, got, want)
        if name in ("fog_db", "rain_db", "cloud_db") and want[name] == 0:
            assert got[name] == 0.0, (name, got[name])  # no weather is exactly 0 dB
    if want["received_power_w"] >= SMALLEST_NORMAL:
        for name in ("received_power_w", "data_rate_bps"):
            assert math.isclose(got[name], want[name], rel_tol=REL), (name, got, want)
        margin = got["link_margin_db"]
        assert math.isclose(margin, want["link_margin_db"], rel_tol=REL, abs_tol=ABS_DB), (got, want)
    else:  # the power underflows: the float one is 0 or subnormal
        assert got["received_power_w"] <= SMALLEST_NORMAL * (1 + REL), (got, want)
        assert 0.0 <= got["data_rate_bps"] < math.inf, got
        assert got["link_margin_db"] < math.inf, got


# --- configs over the loader's domain ---------------------------------------------------


def floats(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, **kwargs)


def small_or_any(small_high):
    """A non-negative float the model takes at any size: mostly modest, sometimes huge."""
    return st.one_of(floats(0.0, small_high), floats(0.0, FLOAT_MAX))


TRANSCEIVER = st.fixed_dictionaries(
    {
        "transmit_power_w": floats(0.0, 1e6, exclude_min=True),
        "optical_loss_db": floats(0.0, 600.0),
        "wavelength_nm": floats(100.0, 1e5),
        "pointing_loss_db": small_or_any(50.0),
        "receiver_sensitivity_photons_per_bit": floats(1e-3, 1e6),
    }
)
GEOMETRY = st.fixed_dictionaries(
    {
        "nfp_altitude_m": floats(0.0, 1e6, exclude_min=True),
        "elevation_deg": floats(0.00573, 90.0),  # 1e-4 rad and up
        "divergence_rad": floats(0.0, math.pi, exclude_min=True),
        "receiver_radius_m": floats(1e-6, 1e6),
    }
)
TURBULENCE = st.fixed_dictionaries(
    {
        "wind_speed_m_per_s": floats(0.0, 1e3),
        "structure_constant_a": floats(0.0, 1e-6),
        "reference_altitude_m": st.one_of(st.none(), floats(0.0, 1e6)),
    }
)
FOG = st.fixed_dictionaries({"visibility_m": floats(1e-3, 1e15), "layer_thickness_m": floats(0.0, 1e6)})
RAIN = st.fixed_dictionaries(
    {"rate_mm_per_hour": small_or_any(200.0), "layer_thickness_m": floats(0.0, 1e6)}
)
LAYER = st.fixed_dictionaries(
    {
        "thickness_m": floats(0.0, 2.5e5),
        "lwc_g_per_m3": floats(1e-9, 1e3),
        "droplet_density_per_cm3": floats(1e-9, 1e6),
    }
)


def stacked(drawn) -> list:
    """Cloud layers from (gap, layer) pairs, each starting its gap above the top of the last."""
    layers, top = [], 0.0
    for gap, layer in drawn:
        layers.append({**layer, "base_altitude_m": top + gap})
        top = top + gap + layer["thickness_m"]  # the top as CloudLayer rounds it
    return layers


# Up to two layers, all below 1e6 m.
CLOUDS = st.lists(st.tuples(floats(0.0, 2.5e5), LAYER), max_size=2).map(stacked)
SWEEP = st.fixed_dictionaries(
    {
        "variable": st.sampled_from(["altitude", "divergence"]),
        "start": floats(1e-9, 1e3),
        "stop": floats(2e3, 1e7),
        "points": st.integers(2, 6),
        "scale": st.sampled_from(["linear", "log"]),
    }
)
TRAFFIC = floats(1.0, 1e15).flatmap(
    lambda busy: st.fixed_dictionaries({"busy_rate_bps": st.just(busy), "peak_rate_bps": floats(busy, 1e15)})
)
PRICE = floats(0.0, 1e9)
# Every cost key over its range, but the layout kept small enough to cost in a test.
COST = st.fixed_dictionaries(
    {
        "n_macro": st.integers(1, 50),
        "n_small": st.integers(1, 500),
        "area_width_m": floats(0.0, 1e6, exclude_min=True),
        "area_height_m": floats(0.0, 1e6, exclude_min=True),
        "years": floats(0.0, 1e3),
        "rf_nlos": st.fixed_dictionaries(
            {
                **dict.fromkeys(
                    (
                        "hub_unit_cost", "hub_install_cost", "module_unit_cost", "module_install_cost",
                        "spectrum_cost_per_mhz_per_capita", "pole_lease_per_site_year",
                        "power_maintenance_per_site_year",
                    ),
                    PRICE,
                ),
                "modules_per_hub": st.integers(1, 10**7),
                "spectrum_mhz": floats(0.0, 1e6),
                "population": st.integers(0, 10**10),
            }
        ),
        "fiber": st.fixed_dictionaries(
            {
                **dict.fromkeys(("cable_cost_per_m", "install_cost_per_m", "power_maintenance_per_link_year"), PRICE),
                "routing_factor": floats(0.0, 1e3),
            }
        ),
        "terrestrial_fso": st.fixed_dictionaries(
            {
                **dict.fromkeys(
                    ("equipment_cost_per_link", "planning_install_per_link", "power_maintenance_per_link_year"),
                    PRICE,
                ),
                "nlos_fraction": floats(0.0, 1.0),
                "nlos_hop_count": st.integers(1, 10**7),
            }
        ),
        "vertical_fso": st.fixed_dictionaries(
            {
                "n_platforms": st.integers(0, 10**7),
                "platform_cost": PRICE,
                "cost_per_flight_hour": PRICE,
                "flight_hours_per_year": floats(0.0, 8760.0),
            }
        ),
    }
)
CONFIGS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32),
        "target_rate_bps": floats(1.0, 1e12),
        "transceiver": TRANSCEIVER,
        "geometry": GEOMETRY,
        "turbulence": TURBULENCE,
        "fog": FOG,
        "rain": RAIN,
        "clouds": CLOUDS,
        "scenarios": st.lists(st.sampled_from(PRESET_NAMES), min_size=1, unique=True),
        "sweep": SWEEP,
        "divergence_values_rad": st.one_of(
            st.none(),
            st.lists(floats(0.0, math.pi, exclude_min=True), min_size=1, max_size=3, unique_by=_theta_tag),
        ),
        "traffic": TRAFFIC,
        "cost": COST,
    }
)

# The keys of the budget, cost and traffic, each of which a draw may set to any finite
# double instead (a count is then rejected as no integer).
BUDGET_KEYS = [
    ("target_rate_bps",),
    *[("transceiver", key) for key in ("transmit_power_w", "optical_loss_db", "wavelength_nm")],
    *[("transceiver", key) for key in ("pointing_loss_db", "receiver_sensitivity_photons_per_bit")],
    *[("geometry", key) for key in ("nfp_altitude_m", "elevation_deg", "divergence_rad", "receiver_radius_m")],
    *[("turbulence", key) for key in ("wind_speed_m_per_s", "structure_constant_a", "reference_altitude_m")],
    ("fog", "visibility_m"),
    ("fog", "layer_thickness_m"),
    ("rain", "rate_mm_per_hour"),
    ("rain", "layer_thickness_m"),
    *[("clouds", 0, key) for key in ("base_altitude_m", "thickness_m", "lwc_g_per_m3", "droplet_density_per_cm3")],
    ("divergence_values_rad", 0),
    ("sweep", "points"),
    ("traffic", "busy_rate_bps"),
    ("traffic", "peak_rate_bps"),
    *[("cost", key) for key in ("n_macro", "n_small", "area_width_m", "area_height_m", "years")],
    *[
        ("cost", section, f.name)
        for section, params in zip(
            ("rf_nlos", "fiber", "terrestrial_fso", "vertical_fso"),
            (RfNlosCostParams, FiberCostParams, TerrestrialFsoCostParams, VerticalFsoCostParams),
        )
        for f in fields(params)
    ],
]
BEYOND = st.one_of(st.none(), st.tuples(st.sampled_from(BUDGET_KEYS), floats(-FLOAT_MAX, FLOAT_MAX)))

# A rejection names the rule, range, type or cross-field rule that the value breaks.
NAMED_BOUND = re.compile(
    r"must be (finite|positive|non-negative|in [\[(][^,]+, [^\]]+\]|>= |an integer)"
    r"|shares the file name|cloud layers overlap"
)


def with_value(document: dict, key: tuple, value) -> dict:
    """A copy of document with the entry at key set to value, made where missing."""
    document = copy.deepcopy(document)
    node = document
    for part, child in zip(key, key[1:]):
        empty = [] if isinstance(child, int) else {}
        if isinstance(node, list):
            node.extend(empty for _ in range(part + 1 - len(node)))
        elif node.get(part) is None:
            node[part] = empty
        node = node[part]
    if isinstance(node, list) and len(node) <= key[-1]:
        node.append(value)
    else:
        node[key[-1]] = value
    return document


@settings(deadline=None)
@given(CONFIGS, BEYOND)
# Inputs where a term would leave the double range, each rejected by its bound.
@example({}, (("transceiver", "wavelength_nm"), 1e-300))  # inf dB of fog
@example({}, (("transceiver", "wavelength_nm"), 1e290))  # 23.17 k^(7/6) would underflow
@example({}, (("transceiver", "transmit_power_w"), 1e300))  # the lossless rate would be inf
@example({}, (("target_rate_bps",), 1e-300))  # rate / target would overflow
@example({}, (("geometry", "nfp_altitude_m"), 1e36))  # (1e-5 h)^10 would overflow
@example({}, (("geometry", "divergence_rad"), 1e300))  # the capture would underflow
@example({}, (("turbulence", "wind_speed_m_per_s"), 1e200))  # Cn^2 would be inf
@example({}, (("clouds", 0, "lwc_g_per_m3"), 1e300))  # the cloud visibility would be 0
@example({}, (("fog", "layer_thickness_m"), 1e308))  # an infinite slant
@example({"scenarios": list(PRESET_NAMES)}, None)  # the paper's link in every weather
def test_every_config_is_rejected_naming_a_bound_or_answered_within_the_oracle(document, beyond):
    if beyond is not None:
        document = with_value(document, *beyond)
    try:
        config = config_from_mapping(document)
    except ConfigError as exc:
        assert beyond is not None, exc  # every draw inside the domain is answered
        key = beyond[0]
        # A root key's message starts with the key, any other's with its section.
        lead = f"{key[0]} must be " if len(key) == 1 else rf"{key[0]}(\[0\])?(\.\w+)*: "
        assert re.match(lead, str(exc)), str(exc)
        assert NAMED_BOUND.search(str(exc)), str(exc)
        return
    tx, target = config.transceiver, config.target_rate_bps
    field = {"altitude": "nfp_altitude_m", "divergence": "divergence_rad"}[config.sweep.variable]
    for scenario in config.scenarios():
        point = evaluate_link(tx, config.geometry, scenario, target)
        assert_within_the_oracle(point, oracle(tx, config.geometry, scenario, target))
        sweep = run_sweep(config.sweep, scenario, tx, config.geometry, target)
        for row in sweep.rows:
            if row.error is not None:
                assert NAMED_BOUND.search(row.error), row.error
                continue
            geometry = replace(config.geometry, **{field: row.value})
            assert_within_the_oracle(row.result, oracle(tx, geometry, scenario, target))


# --- every command on every config ----------------------------------------------------

COMMANDS = ("evaluate", "sweep", "cost", "aggregate")
WARNING = re.compile(r"warning: (\S+) @ (\S+): (.*)")


def run_main(argv: list) -> tuple:
    """cli.main(argv) in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def recorded_writes():
    """While active, the names of the bundle files the CLI opens, and the path and
    {column: cells} table of every CSV it writes, in call order."""
    names, tables = [], []
    bundle_path, write_csv = cli._bundle_path, cli._write_csv

    def record_name(config, name):
        names.append(name)
        return bundle_path(config, name)

    def record_table(path, table):
        tables.append((path, table))
        write_csv(path, table)

    with mock.patch.object(cli, "_bundle_path", record_name), mock.patch.object(cli, "_write_csv", record_table):
        yield names, tables


def sweep_tables(config) -> list:
    """(file name, {column: cells}) of each file `vfso sweep` writes for config, from
    run_sweep over the whole grid."""
    variants = [("", config.geometry)]
    if config.divergence_values_rad:
        variants = [
            (f"_{_theta_tag(theta)}", replace(config.geometry, divergence_rad=theta))
            for theta in config.divergence_values_rad
        ]
    tables = []
    for suffix, geometry in variants:
        for scenario in config.scenarios():
            sweep = run_sweep(config.sweep, scenario, config.transceiver, geometry, config.target_rate_bps)
            c, b = sweep.columns, sweep.columns.loss_breakdown
            table = {
                "variable": sweep.values, "data_rate_bps": c.data_rate_bps, "link_margin_db": c.link_margin_db,
                "l_fog_db": b.fog_db, "l_rain_db": b.rain_db, "l_cloud_db": b.cloud_db,
                "l_sci_db": b.scintillation_db, "l_geo_db": b.geometrical_db,
            }
            tables.append((f"sweep_{scenario.label}{suffix}.csv", table))
    return tables


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_every_float_cell_is_the_written_double(path: str, table: dict) -> None:
    """Each float of the table parses back from its CSV cell bit for bit (a NaN as a NaN)."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert header == list(table), (path, header)
    for (column, cells), texts in zip(table.items(), zip(*rows)):
        values = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
        assert len(values) == len(texts), (path, column)
        for value, text in zip(values, texts):
            if isinstance(value, float):
                read = float(text)
                assert bits(read) == bits(value) or math.isnan(read) and math.isnan(value), (
                    path, column, value, text,
                )


def read_bundle(outdir: str) -> dict:
    """Every file of a bundle: {name: bytes}."""
    bundle = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as handle:
            bundle[name] = handle.read()
    return bundle


def assert_every_float_cell_is_finite(outdir: str, failed: set) -> None:
    """Every float cell of every CSV is finite, but -inf in link_margin_db and the NaN
    cells of a sweep row that its command reported as failed (by file and grid value)."""
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(outdir, name), newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            for column, cell in row.items():
                try:
                    value = float(cell)
                except ValueError:  # a label or a flag
                    continue
                if math.isnan(value) and (name, row.get("variable")) in failed:
                    continue
                assert math.isfinite(value) or (column, value) == ("link_margin_db", -math.inf), (
                    name, column, row,
                )


@settings(deadline=None)
@given(CONFIGS, BEYOND)
# Inputs whose cost or demand once overflowed inside a command, each now rejected at load.
@example({}, (("cost", "years"), 1e305))
@example({}, (("cost", "vertical_fso", "platform_cost"), 1.7976931348623157e308))
@example({}, (("cost", "fiber", "routing_factor"), 1e305))
@example({}, (("cost", "area_width_m"), 1e160))
@example({}, (("traffic", "busy_rate_bps"), 1e-300))
@example({}, (("cost", "n_macro"), 2.5))
@example({"scenarios": list(PRESET_NAMES)}, None)
def test_a_config_that_loads_never_fails_a_command(document, beyond):
    if beyond is not None:
        document = with_value(document, *beyond)
    with tempfile.TemporaryDirectory() as scratch:
        path, outdir = os.path.join(scratch, "config.yaml"), os.path.join(scratch, "out")
        with open(path, "w", encoding="utf-8") as handle:
            yaml.safe_dump({**document, "output_dir": outdir}, handle)
        try:
            config = load_config(path)
        except ConfigError as exc:
            assert NAMED_BOUND.search(str(exc)), str(exc)
            for command in COMMANDS:
                assert run_main([command, "--config", path]) == (1, "", f"config error: {exc}\n")
                assert not os.path.exists(outdir)
            return
        failed, answers = set(), []
        for command in COMMANDS:
            with recorded_writes() as (names, tables):
                answers.append(run_main([command, "--config", path]))
            if command == "sweep":  # streamed, not written through _write_csv
                tables = [(os.path.join(outdir, name), table) for name, table in sweep_tables(config)]
            code, _, err = answers[-1]
            assert code == 0 or (command, code) == ("evaluate", 2), (command, code, err)
            for line in err.splitlines():
                warning = WARNING.fullmatch(line)
                assert command == "sweep" and warning and NAMED_BOUND.search(warning[3]), line
                failed.add(warning.group(1, 2))
            assert len(set(names)) == len(names), (command, names)
            for csv_path, table in tables:
                assert_every_float_cell_is_the_written_double(csv_path, table)
        assert_every_float_cell_is_finite(outdir, failed)
        # The echo reloads to the config, and every command rerun from it writes the same bundle.
        bundle, echo = read_bundle(outdir), os.path.join(scratch, "echo.yaml")
        shutil.copyfile(os.path.join(outdir, "resolved_config.yaml"), echo)
        assert load_config(echo) == config
        shutil.rmtree(outdir)
        assert [run_main([command, "--config", echo]) for command in COMMANDS] == answers
        assert read_bundle(outdir) == bundle
