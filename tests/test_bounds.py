"""The bounds of the constructors and of the public functions: each field or
argument, its bound and the exact message naming it."""

import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vfso.aggregation import DEFAULT_TRAFFIC, aggregated_demand, oversubscribes, supported_cells
from vfso.atmosphere import (
    fog_attenuation,
    kruse_size_exponent,
    mie_specific_attenuation,
    rain_attenuation,
    refractive_index_structure,
    scintillation_loss,
)
from vfso.config import CostConfig, RunConfig
from vfso.geometry import capture_loss_db
from vfso.hetnet_cost import (
    FiberCostParams,
    RfNlosCostParams,
    TerrestrialFsoCostParams,
    VerticalFsoCostParams,
    compare_tco,
    generate_layout,
)
from vfso.link_budget import (
    efficiencies_from_optical_loss,
    evaluate_grid,
    evaluate_link,
    link_margin,
    optical_loss,
    photon_energy,
    received_power,
)
from vfso.scenario import (
    DEFAULT_CLOUD_PROFILE,
    DEFAULT_FOG,
    DEFAULT_RAIN,
    DEFAULT_SWEEP,
    DEFAULT_TURBULENCE,
    default_parameters,
    preset,
    run_sweep,
)

TRANSCEIVER, GEOMETRY, _ = default_parameters()
CLOUD = DEFAULT_CLOUD_PROFILE[0]
COST_PARAMS = [
    RfNlosCostParams(),
    FiberCostParams(),
    TerrestrialFsoCostParams(),
    VerticalFsoCostParams(),
]

POSITIVE = [
    (TRANSCEIVER, "transmit_power_w"),
    (TRANSCEIVER, "wavelength_nm"),
    (TRANSCEIVER, "receiver_sensitivity_photons_per_bit"),
    (GEOMETRY, "nfp_altitude_m"),
    (GEOMETRY, "divergence_rad"),
    (GEOMETRY, "receiver_radius_m"),
    (DEFAULT_FOG, "visibility_km"),
    (CLOUD, "lwc_g_per_m3"),
    (CLOUD, "droplet_density_per_cm3"),
    (DEFAULT_TRAFFIC, "busy_rate_bps"),
    (RunConfig(), "target_rate_bps"),
]
NON_NEGATIVE = [
    (TRANSCEIVER, "pointing_loss_db"),
    (DEFAULT_FOG, "layer_thickness_m"),
    (DEFAULT_RAIN, "rate_mm_per_hour"),
    (DEFAULT_RAIN, "layer_thickness_m"),
    (CLOUD, "base_altitude_m"),
    (CLOUD, "thickness_m"),
    (DEFAULT_TURBULENCE, "wind_speed_m_per_s"),
    (DEFAULT_TURBULENCE, "structure_constant_a"),
    (DEFAULT_TURBULENCE, "reference_altitude_m"),
    (RunConfig(), "seed"),
    (CostConfig(), "years"),
    *[(params, f.name) for params in COST_PARAMS for f in fields(params)],
]
BOUNDED = POSITIVE + NON_NEGATIVE
# Python ints that no double holds: finite, yet outside the float range.
BEYOND_FLOATS = (10**400, -(10**400))
CASES = [
    *[(valid, name, 0.0, "must be positive, got 0.0") for valid, name in POSITIVE],
    *[(valid, name, -1.0, "must be non-negative, got -1.0") for valid, name in NON_NEGATIVE],
    *[(valid, name, math.nan, "must be finite, got nan") for valid, name in BOUNDED],
    *[(valid, name, big, f"must be finite, got {big}") for valid, name in BOUNDED for big in BEYOND_FLOATS],
]


def shown(value) -> str:
    """value in a test id, an int beyond the float range as a power of ten."""
    return f"{'-' * (value < 0)}10**400" if value in BEYOND_FLOATS else str(value)


@pytest.mark.parametrize(
    "valid, name, value, rule",
    CASES,
    ids=[f"{type(valid).__name__}.{name}={shown(value)}" for valid, name, value, _ in CASES],
)
def test_each_bound_names_its_field(valid, name, value, rule):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {rule}')}$"):
        replace(valid, **{name: value})


# A valid call of each public function with a numeric argument. A list stands
# for an array argument, whose entries are checked one by one.
LAYOUT = generate_layout(2, 3)
TCO = compare_tco(LAYOUT)[0].tco
LINK = {"tx": TRANSCEIVER, "geometry": GEOMETRY, "scenario": preset("cloud_and_fog")}
VALID_CALLS = {
    kruse_size_exponent: {"visibility_km": 1.0},
    mie_specific_attenuation: {"visibility_km": 1.0, "wavelength_nm": 1550.0},
    fog_attenuation: {"fog": DEFAULT_FOG, "elevation_rad": 0.5, "wavelength_nm": 1550.0},
    rain_attenuation: {"rain": DEFAULT_RAIN, "elevation_rad": 0.5},
    refractive_index_structure: {"altitude_m": 1000.0, "turbulence": DEFAULT_TURBULENCE},
    scintillation_loss: {"wavelength_nm": 1550.0, "cn2": 1e-15, "path_length_m": 1e4},
    capture_loss_db: {"fraction": 0.5},
    optical_loss: {"tx_efficiency": 0.8, "rx_efficiency": 0.8},
    efficiencies_from_optical_loss: {"optical_loss_db": 2.0},
    photon_energy: {"wavelength_nm": 1550.0},
    received_power: {"tx": TRANSCEIVER, "geometry": GEOMETRY, "atmospheric_loss_db": 3.0},
    link_margin: {"rate_bps": 1e9, "target_rate_bps": 3e9},
    evaluate_link: {**LINK, "target_rate_bps": 3e9},
    evaluate_grid: {
        **LINK,
        "target_rate_bps": 3e9,
        "nfp_altitude_m": [1e4, 2e4],
        "divergence_rad": [1e-3, 2e-3],
    },
    run_sweep: {"spec": DEFAULT_SWEEP, **LINK, "target_rate_bps": 3e9},
    aggregated_demand: {"n_cells": 10, "profile": DEFAULT_TRAFFIC},
    supported_cells: {"link_rate_bps": 1e9, "profile": DEFAULT_TRAFFIC},
    oversubscribes: {"link_rate_bps": 1e9, "profile": DEFAULT_TRAFFIC},
    generate_layout: {"n_macro": 2, "n_small": 3},
    compare_tco: {"layout": LAYOUT, "years": 1.0},
    TCO: {"years": 1.0},
}
# (function, argument, a value out of its bound, the rule that value breaks).
# NaN and +-inf break "must be finite", or a range rule ("in ...") itself.
ARGUMENTS = [
    (kruse_size_exponent, "visibility_km", 0.0, "positive"),
    (mie_specific_attenuation, "visibility_km", -1.0, "positive"),
    (mie_specific_attenuation, "wavelength_nm", 0.0, "positive"),
    (fog_attenuation, "elevation_rad", 0.0, "in (0, pi/2]"),
    (fog_attenuation, "wavelength_nm", -1.0, "positive"),
    (rain_attenuation, "elevation_rad", 2.0, "in (0, pi/2]"),
    (refractive_index_structure, "altitude_m", -1.0, "non-negative"),
    (scintillation_loss, "wavelength_nm", 0.0, "positive"),
    (scintillation_loss, "cn2", -1.0, "non-negative"),
    (scintillation_loss, "path_length_m", 0.0, "positive"),
    (capture_loss_db, "fraction", 2.0, "in [0, 1]"),
    (optical_loss, "tx_efficiency", 1.5, "in (0, 1]"),
    (optical_loss, "rx_efficiency", 0.0, "in (0, 1]"),
    (efficiencies_from_optical_loss, "optical_loss_db", -1.0, "non-negative"),
    (photon_energy, "wavelength_nm", 0.0, "positive"),
    (received_power, "atmospheric_loss_db", -1.0, "non-negative"),
    (link_margin, "rate_bps", -1.0, "non-negative"),
    (link_margin, "target_rate_bps", 0.0, "positive"),
    (evaluate_link, "target_rate_bps", 0.0, "positive"),
    (evaluate_grid, "target_rate_bps", -1.0, "positive"),
    (evaluate_grid, "nfp_altitude_m", -5.0, "positive"),
    (evaluate_grid, "divergence_rad", 0.0, "positive"),
    (run_sweep, "target_rate_bps", 0.0, "positive"),
    (aggregated_demand, "n_cells", 0, ">= 1"),
    (supported_cells, "link_rate_bps", -1.0, "non-negative"),
    (oversubscribes, "link_rate_bps", -1.0, "non-negative"),
    (generate_layout, "n_macro", 0, "positive"),
    (generate_layout, "n_small", -1, "positive"),
    (compare_tco, "years", -1.0, "non-negative"),
    (TCO, "years", -1.0, "non-negative"),
]
ARGUMENT_CASES = [
    (function, name, value, rule if rule.startswith("in ") or value == bad else "finite")
    for function, name, bad, rule in ARGUMENTS
    for value in (math.nan, math.inf, -math.inf, bad)
] + [
    (function, name, big, rule if rule.startswith("in ") else "finite")
    for function, name, _, rule in ARGUMENTS
    if not isinstance(VALID_CALLS[function][name], list)  # an array holds no such int
    for big in BEYOND_FLOATS
]


def call(function, **changes):
    """function on its valid call, with `changes`; a list argument gets the
    changed value as its first entry."""
    arguments = dict(VALID_CALLS[function])
    for name, value in changes.items():
        valid = arguments[name]
        arguments[name] = np.array([value, *valid[1:]]) if isinstance(valid, list) else value
    return function(**arguments)


@pytest.mark.parametrize(
    "function, name, value, rule",
    ARGUMENT_CASES,
    ids=[f"{function.__qualname__}.{name}={shown(value)}" for function, name, value, _ in ARGUMENT_CASES],
)
def test_each_argument_rule_names_its_argument(function, name, value, rule):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}, got {value}')}$"):
        call(function, **{name: value})


def test_every_valid_call_is_answered():
    for function in VALID_CALLS:
        call(function)


def floats_in(result) -> list:
    """Every float a result holds, through dataclasses, sequences and arrays."""
    if is_dataclass(result):
        return [x for f in fields(result) for x in floats_in(getattr(result, f.name))]
    if isinstance(result, (tuple, list)):
        return [x for item in result for x in floats_in(item)]
    if isinstance(result, np.ndarray):
        return result.ravel().tolist()
    return [result] if isinstance(result, float) else []


def float_draws(function, length: int) -> dict:
    """A strategy for every float or float-array argument of `function` in the
    table; every array gets `length` entries, so that the arrays broadcast."""
    draws = {}
    for f, name, _, _ in ARGUMENTS:
        valid = VALID_CALLS[f][name]
        if f is function and isinstance(valid, list):
            draws[name] = st.lists(st.floats(), min_size=length, max_size=length)
        elif f is function and isinstance(valid, float):
            draws[name] = st.floats()
    return draws


FLOAT_CALLS = st.sampled_from([f for f in VALID_CALLS if float_draws(f, 1)]).flatmap(
    lambda function: st.integers(1, 3).flatmap(
        lambda length: st.tuples(st.just(function), st.fixed_dictionaries(float_draws(function, length)))
    )
)


# The least double as a wavelength: wavelength_nm / 550 underflows to 0.
@example((mie_specific_attenuation, {"visibility_km": 1.0, "wavelength_nm": 5e-324}))
@example((fog_attenuation, {"elevation_rad": 0.5, "wavelength_nm": 5e-324}))
@given(FLOAT_CALLS)
def test_any_float_argument_is_rejected_or_answered_without_nan(drawn):
    function, changes = drawn
    try:
        result = function(**{**VALID_CALLS[function], **changes})
    except ValueError:
        return
    assert not any(math.isnan(x) for x in floats_in(result)), (function, changes)


def test_a_wavelength_whose_ratio_to_550_nm_underflows_is_rejected_by_mie_and_fog():
    message = "^wavelength_nm / 550 must be positive, got 5e-324$"
    with pytest.raises(ValueError, match=message):
        mie_specific_attenuation(1.0, 5e-324)
    with pytest.raises(ValueError, match=message):
        fog_attenuation(DEFAULT_FOG, 0.5, 5e-324)
    # A fog of zero thickness adds 0 dB before any Mie evaluation.
    assert fog_attenuation(replace(DEFAULT_FOG, layer_thickness_m=0.0), 0.5, 5e-324) == 0.0
