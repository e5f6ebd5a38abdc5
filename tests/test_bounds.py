"""The bounds of the constructors and of the public functions: each field or
argument, its bound and the exact message naming it."""

import importlib
import math
import pkgutil
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vfso
from vfso.aggregation import (
    DEFAULT_TRAFFIC,
    TrafficProfile,
    aggregated_demand,
    oversubscribes,
    supported_cells,
)
from vfso.atmosphere import (
    fog_attenuation,
    kruse_size_exponent,
    mie_specific_attenuation,
    rain_attenuation,
    refractive_index_structure,
    scintillation_loss,
)
from vfso.config import CostConfig, RunConfig, config_from_mapping, parse_overrides
from vfso.geometry import _DOMAIN, _RULES, capture_loss_db
from vfso.hetnet_cost import (
    DEFAULT_AREA,
    Area,
    CostParams,
    HetNetLayout,
    FiberCostParams,
    RfNlosCostParams,
    TerrestrialFsoCostParams,
    VerticalFsoCostParams,
    compare_tco,
    generate_layout,
)
from vfso.link_budget import (
    _per_point,
    evaluate_link,
    link_margin,
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
from golden import FixedGrid
from test_config import KEYS

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
    (CLOUD, "lwc_g_per_m3"),
    (CLOUD, "droplet_density_per_cm3"),
    (DEFAULT_TRAFFIC, "busy_rate_bps"),
    (RunConfig(), "target_rate_bps"),
    (DEFAULT_AREA, "width_m"),
    (DEFAULT_AREA, "height_m"),
    (CostConfig(), "n_macro"),
    (CostConfig(), "n_small"),
]
NON_NEGATIVE = [
    (TRANSCEIVER, "optical_loss_db"),
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
# Fields with a range but no sign rule, whose 0 lies outside it.
RANGED = [(GEOMETRY, "elevation_deg", "[0.00572958, 90]"), (DEFAULT_FOG, "visibility_m", "[0.001, 1e+15]")]
# A valid instance of every dataclass whose constructor runs _require_bounds.
CHECKED = [
    TRANSCEIVER, GEOMETRY, DEFAULT_FOG, DEFAULT_RAIN, CLOUD, DEFAULT_TURBULENCE, DEFAULT_AREA,
    *COST_PARAMS, CostParams(), CostConfig(), RunConfig(), DEFAULT_TRAFFIC, DEFAULT_SWEEP, preset("clear_sky"),
]
# Every numeric field of a checked dataclass, bounded or not.
NUMERIC = [
    (valid, f.name) for valid in CHECKED for f in fields(valid) if f.type in ("float", "int", "Optional[float]")
]
# Python ints that no double holds: finite, yet outside the float range.
BEYOND_FLOATS = (10**400, -(10**400))


def in_message(value) -> str:
    """value as an error message prints it: a non-number by repr, an int beyond the float
    range by its digit count."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return repr(value)
    return {10**400: "a 401-digit int", -(10**400): "a negative 401-digit int"}.get(value, str(value))


# Values that no numeric field or argument takes: a numeric str, a bool, None and a list.
NOT_NUMBERS = ("1.0", True, None, [1.0])


CASES = [
    # A count is an int: a float inside its range breaks that rule alone; a bool is no number.
    (DEFAULT_SWEEP, "points", 2.5, "must be an integer, got 2.5"),
    (RunConfig(), "seed", 1.5, "must be an integer, got 1.5"),
    (CostConfig(), "n_macro", 2.5, "must be an integer, got 2.5"),
    (VerticalFsoCostParams(), "n_platforms", 2.5, "must be an integer, got 2.5"),
    (RfNlosCostParams(), "modules_per_hub", True, "must be a number, got True"),
    *[(valid, name, 0.0, "must be positive, got 0.0") for valid, name in POSITIVE],
    *[(valid, name, -1.0, "must be non-negative, got -1.0") for valid, name in NON_NEGATIVE],
    *[(valid, name, 0.0, f"must be in {interval}, got 0.0") for valid, name, interval in RANGED],
    # A float field holds a real number: not a str, a bool, a list or (unless Optional) None.
    *[
        (valid, f.name, value, f"must be a number, got {value!r}")
        for valid in CHECKED
        for f in fields(valid)
        if f.type in ("float", "Optional[float]")
        for value in NOT_NUMBERS
        if value is not None or f.type == "float"
    ],
    # A str field holds a str.
    *[
        (valid, name, value, f"must be a string, got {value!r}")
        for valid, name in [(RunConfig(), "output_dir"), (DEFAULT_SWEEP, "variable"), (DEFAULT_SWEEP, "scale")]
        for value in (5, None, True)
    ],
    # Not finite, checked before any rule or range: NaN, +-inf and an int no double holds.
    *[
        (valid, name, value, f"must be finite, got {in_message(value)}")
        for valid, name in NUMERIC
        for value in (math.nan, math.inf, -math.inf, *BEYOND_FLOATS)
    ],
]


def shown(value) -> str:
    """value in a test id, an int beyond the float range as a power of ten, a str quoted."""
    if value in BEYOND_FLOATS:
        return f"{'-' * (value < 0)}10**400"
    return repr(value) if isinstance(value, str) else str(value)


@pytest.mark.parametrize(
    "valid, name, value, rule",
    CASES,
    ids=[f"{type(valid).__name__}.{name}={shown(value)}" for valid, name, value, _ in CASES],
)
def test_each_bound_names_its_field(valid, name, value, rule):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {rule}')}$"):
        replace(valid, **{name: value})


# A valid call of each public function with a numeric argument.
LAYOUT = generate_layout(2, 3)
TCO = compare_tco(LAYOUT)[0].tco
LINK = {"tx": TRANSCEIVER, "geometry": GEOMETRY, "scenario": preset("cloud_and_fog")}
VALID_CALLS = {
    kruse_size_exponent: {"visibility_km": 1.0},
    mie_specific_attenuation: {"visibility_km": 1.0, "wavelength_nm": 1550.0},
    fog_attenuation: {"fog": DEFAULT_FOG, "elevation_deg": math.degrees(0.5), "wavelength_nm": 1550.0},
    rain_attenuation: {"rain": DEFAULT_RAIN, "elevation_deg": math.degrees(0.5)},
    refractive_index_structure: {"altitude_m": 1000.0, "turbulence": DEFAULT_TURBULENCE},
    scintillation_loss: {"wavelength_nm": 1550.0, "cn2": 1e-15, "path_length_m": 1e4},
    capture_loss_db: {"fraction": 0.5},
    photon_energy: {"wavelength_nm": 1550.0},
    received_power: {"tx": TRANSCEIVER, "geometry": GEOMETRY, "atmospheric_loss_db": 3.0},
    link_margin: {"rate_bps": 1e9, "target_rate_bps": 3e9},
    evaluate_link: {**LINK, "target_rate_bps": 3e9},
    run_sweep: {"spec": DEFAULT_SWEEP, **LINK, "target_rate_bps": 3e9},
    aggregated_demand: {"n_cells": 10, "profile": DEFAULT_TRAFFIC},
    supported_cells: {"link_rate_bps": 1e9, "profile": DEFAULT_TRAFFIC},
    oversubscribes: {"link_rate_bps": 1e9, "profile": DEFAULT_TRAFFIC},
    generate_layout: {"n_macro": 2, "n_small": 3},
    compare_tco: {"layout": LAYOUT, "years": 1.0},
    TCO: {"years": 1.0},
}
# (function, argument, a value out of its bound, the rule that value breaks).
# NaN and +-inf break "must be finite", checked before any other rule.
ARGUMENTS = [
    (kruse_size_exponent, "visibility_km", 0.0, "positive"),
    (mie_specific_attenuation, "visibility_km", -1.0, "positive"),
    (mie_specific_attenuation, "wavelength_nm", 0.0, "positive"),
    (fog_attenuation, "elevation_deg", 0.0, "in [0.00572958, 90]"),
    (fog_attenuation, "wavelength_nm", -1.0, "positive"),
    (rain_attenuation, "elevation_deg", math.degrees(2.0), "in [0.00572958, 90]"),
    (refractive_index_structure, "altitude_m", -1.0, "non-negative"),
    (scintillation_loss, "wavelength_nm", 0.0, "positive"),
    (scintillation_loss, "cn2", -1.0, "non-negative"),
    (scintillation_loss, "path_length_m", 0.0, "positive"),
    (capture_loss_db, "fraction", 2.0, "in [0, 1]"),
    (photon_energy, "wavelength_nm", 0.0, "positive"),
    (received_power, "atmospheric_loss_db", -1.0, "non-negative"),
    (link_margin, "rate_bps", -1.0, "non-negative"),
    (link_margin, "target_rate_bps", 0.0, "positive"),
    (evaluate_link, "target_rate_bps", 0.0, "positive"),
    (run_sweep, "target_rate_bps", 0.0, "positive"),
    (aggregated_demand, "n_cells", 0, "in [1, 1e+30]"),
    (supported_cells, "link_rate_bps", -1.0, "non-negative"),
    (oversubscribes, "link_rate_bps", -1.0, "non-negative"),
    (generate_layout, "n_macro", 0, "positive"),
    (generate_layout, "n_small", -1, "positive"),
    (compare_tco, "years", -1.0, "non-negative"),
    (TCO, "years", -1.0, "non-negative"),
]
ARGUMENT_CASES = [
    (function, name, value, rule if value == bad else "finite")
    for function, name, bad, rule in ARGUMENTS
    for value in (math.nan, math.inf, -math.inf, bad)
] + [
    (function, name, big, "finite") for function, name, _, _ in ARGUMENTS for big in BEYOND_FLOATS
] + [
    (generate_layout, "n_macro", 2.5, "an integer"),
    (aggregated_demand, "n_cells", 2.5, "an integer"),
] + [
    (function, name, value, "a number") for function, name, _, _ in ARGUMENTS for value in NOT_NUMBERS
]


def call(function, **changes):
    """function on its valid call, with `changes`."""
    return function(**{**VALID_CALLS[function], **changes})


@pytest.mark.parametrize(
    "function, name, value, rule",
    ARGUMENT_CASES,
    ids=[f"{function.__qualname__}.{name}={shown(value)}" for function, name, value, _ in ARGUMENT_CASES],
)
def test_each_argument_rule_names_its_argument(function, name, value, rule):
    message = f"{name} must be {rule}, got {in_message(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(function, **{name: value})


def checked_classes() -> set:
    """Every dataclass of the package whose constructor runs _require_bounds."""
    checked = set()
    for module in pkgutil.iter_modules(vfso.__path__):
        for value in vars(importlib.import_module(f"vfso.{module.name}")).values():
            post_init = getattr(value, "__post_init__", None)
            if isinstance(value, type) and is_dataclass(value) and post_init is not None:
                if "_require_bounds" in post_init.__code__.co_names:
                    checked.add(value)
    return checked


def test_the_checked_instances_are_every_checked_dataclass():
    assert {type(valid) for valid in CHECKED} == checked_classes()


# Fields whose annotation names float, int or str in a container, each checked by a rule of its own:
# each angle as LinkGeometry's divergence, each name as a preset's.
CONTAINERS = {(RunConfig, "divergence_values_rad"), (RunConfig, "scenario_names")}


def test_every_numeric_field_has_an_annotation_the_constructor_check_reads():
    # _require_bounds reads exactly these three; a field written `float | None` would go unchecked.
    for cls in checked_classes():
        for f in fields(cls):
            if re.search(r"\b(float|int)\b", str(f.type)) and (cls, f.name) not in CONTAINERS:
                assert f.type in ("float", "int", "Optional[float]"), (cls.__name__, f.name, f.type)


def test_no_field_is_annotated_as_a_str_without_being_checked():
    # _require_bounds reads exactly `str`; a field written `Optional[str]` would go unchecked.
    for valid in CHECKED:
        for f in fields(valid):
            if re.search(r"\bstr\b", str(f.type)) and (type(valid), f.name) not in CONTAINERS:
                with pytest.raises(ValueError, match=f"^{f.name} must be a string, got 5$"):
                    replace(valid, **{f.name: 5})


# Every field annotated with a dataclass, Optional or not, with the type its message names.
SCENARIO = preset("clear_sky")
NESTED = {
    (RunConfig(), "transceiver"): "TransceiverParams",
    (RunConfig(), "geometry"): "LinkGeometry",
    (RunConfig(), "turbulence"): "TurbulenceDescriptor",
    (RunConfig(), "fog"): "FogDescriptor",
    (RunConfig(), "rain"): "RainDescriptor",
    (RunConfig(), "sweep"): "SweepSpec",
    (RunConfig(), "traffic"): "TrafficProfile",
    (RunConfig(), "cost"): "CostConfig",
    (CostConfig(), "area"): "Area",
    (CostConfig(), "params"): "CostParams",
    (CostParams(), "rf_nlos"): "RfNlosCostParams",
    (CostParams(), "fiber"): "FiberCostParams",
    (CostParams(), "terrestrial_fso"): "TerrestrialFsoCostParams",
    (CostParams(), "vertical_fso"): "VerticalFsoCostParams",
    (SCENARIO, "fog"): "FogDescriptor",
    (SCENARIO, "rain"): "RainDescriptor",
    (SCENARIO, "turbulence"): "TurbulenceDescriptor",
}
# Every field annotated with a tuple: its items' dataclass, or None for a tuple of numbers
# or names, whose items CONTAINERS' own rules check.
TUPLES = {
    (RunConfig(), "clouds"): "CloudLayer",
    (SCENARIO, "clouds"): "CloudLayer",
    (RunConfig(), "scenario_names"): None,
    (RunConfig(), "divergence_values_rad"): None,
}


def may_be_none(valid, name) -> bool:
    return next(f.type for f in fields(valid) if f.name == name).startswith("Optional[")


def type_id(value) -> str:
    """value's type in a test id, a sequence's with its items' types."""
    items = f"[{','.join(map(type_id, value))}]" if isinstance(value, (list, tuple)) else ""
    return type(value).__name__ + items


TYPE_CASES = [
    # An Optional field may be None; any other holds its dataclass.
    *[
        (valid, name, value, f"{name} must be a {kind}, got {value!r}")
        for (valid, name), kind in NESTED.items()
        for value in (None, 3, "x", CLOUD)
        if value is not None or not may_be_none(valid, name)
    ],
    # A tuple field holds a tuple or a list, each item of its items' dataclass.
    *[
        (valid, name, value, f"{name} must be a tuple or list, got {value!r}")
        for valid, name in TUPLES
        for value in (None, 5, "x", CLOUD)
        if value is not None or not may_be_none(valid, name)
    ],
    *[
        (valid, name, items, f"{name}[{len(items) - 1}] must be a {kind}, got {items[-1]!r}")
        for (valid, name), kind in TUPLES.items()
        if kind is not None
        for items in ([None], (CLOUD, 3), [CLOUD, GEOMETRY])
    ],
]


@pytest.mark.parametrize(
    "valid, name, value, message",
    TYPE_CASES,
    ids=[f"{type(valid).__name__}.{name}={type_id(value)}" for valid, name, value, _ in TYPE_CASES],
)
def test_each_nested_field_holds_its_annotated_type(valid, name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(valid, **{name: value})


def test_the_nested_and_tuple_fields_are_every_field_of_another_type():
    # Every field of a checked dataclass that is no number or string is in one of the tables.
    scalar = ("float", "int", "Optional[float]", "str")
    expected = {(type(valid), name) for valid, name in [*NESTED, *TUPLES]}
    assert {(cls, f.name) for cls in checked_classes() for f in fields(cls) if f.type not in scalar} == expected


def test_the_rules_are_the_whole_rule_table():
    # Every field and argument row that expects a sign rule, by name: each name under one rule.
    rows = [(name, "positive") for _, name in POSITIVE]
    rows += [(name, "non-negative") for _, name in NON_NEGATIVE]
    rows += [(name, rule) for _, name, _, rule in ARGUMENTS if rule in ("positive", "non-negative")]
    expected = {}
    for name, rule in rows:
        assert expected.setdefault(name, rule) == rule, name
    assert expected == _RULES


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


def float_draws(function) -> dict:
    """A strategy for every float argument of `function` in the table."""
    return {
        name: st.floats()
        for f, name, _, _ in ARGUMENTS
        if f is function and isinstance(VALID_CALLS[f][name], float)
    }


FLOAT_CALLS = st.sampled_from([f for f in VALID_CALLS if float_draws(f)]).flatmap(
    lambda function: st.tuples(st.just(function), st.fixed_dictionaries(float_draws(function)))
)


@given(FLOAT_CALLS)
def test_any_float_argument_is_rejected_or_answered_without_nan(drawn):
    function, changes = drawn
    try:
        result = call(function, **changes)
    except ValueError:
        return
    assert not any(math.isnan(x) for x in floats_in(result)), (function, changes)


def test_a_fog_of_zero_thickness_still_checks_the_wavelength():
    # It adds 0 dB, but 5e-324 nm / 550 would underflow to 0, which has no negative power.
    with pytest.raises(ValueError, match=r"^wavelength_nm must be in \[100, 100000\], got 5e-324$"):
        fog_attenuation(replace(DEFAULT_FOG, layer_thickness_m=0.0), math.degrees(0.5), 5e-324)


# Every range of the model's domain, as its messages state it, with the fields
# (a valid instance) and public arguments (a function of VALID_CALLS) it bounds.
RANGES = {
    "wavelength_nm": (
        "[100, 100000]",
        [TRANSCEIVER, mie_specific_attenuation, fog_attenuation, scintillation_loss, photon_energy],
    ),
    "transmit_power_w": ("(0, 1e+06]", [TRANSCEIVER]),
    "optical_loss_db": ("[0, 600]", [TRANSCEIVER]),
    "receiver_sensitivity_photons_per_bit": ("[0.001, 1e+06]", [TRANSCEIVER]),
    "target_rate_bps": (
        "[1, 1e+12]",
        [RunConfig(), link_margin, evaluate_link, run_sweep],
    ),
    "nfp_altitude_m": ("(0, 1e+06]", [GEOMETRY]),
    "elevation_deg": ("[0.00572958, 90]", [GEOMETRY, fog_attenuation, rain_attenuation]),
    "divergence_rad": ("(0, pi]", [GEOMETRY]),
    "receiver_radius_m": ("[1e-06, 1e+06]", [GEOMETRY]),
    "path_length_m": ("(0, 1e+11]", [scintillation_loss]),
    "fraction": ("[0, 1]", [capture_loss_db]),
    "visibility_km": ("[1e-06, 1e+12]", [kruse_size_exponent, mie_specific_attenuation]),
    "visibility_m": ("[0.001, 1e+15]", [DEFAULT_FOG]),
    "layer_thickness_m": ("[0, 1e+06]", [DEFAULT_FOG, DEFAULT_RAIN]),
    "base_altitude_m": ("[0, 1e+06]", [CLOUD]),
    "thickness_m": ("[0, 1e+06]", [CLOUD]),
    "lwc_g_per_m3": ("[1e-09, 1000]", [CLOUD]),
    "droplet_density_per_cm3": ("[1e-09, 1e+06]", [CLOUD]),
    "altitude_m": ("[0, 1e+06]", [refractive_index_structure]),
    "reference_altitude_m": ("[0, 1e+06]", [DEFAULT_TURBULENCE]),
    "wind_speed_m_per_s": ("[0, 1000]", [DEFAULT_TURBULENCE]),
    "structure_constant_a": ("[0, 1e-06]", [DEFAULT_TURBULENCE]),
    "cn2": ("[0, 1e-05]", [scintillation_loss]),
    "points": ("[2, 1e+08]", [DEFAULT_SWEEP]),
    "busy_rate_bps": ("[1, 1e+15]", [TrafficProfile(1.0, 1e15)]),
    "peak_rate_bps": ("[1, 1e+15]", [TrafficProfile(1.0, 1e15)]),
    "link_rate_bps": ("[0, 1e+30]", [supported_cells, oversubscribes]),
    "n_cells": ("[1, 1e+30]", [aggregated_demand]),
    **{
        price: ("[0, 1e+09]", [p for p in COST_PARAMS if hasattr(p, price)])
        for price in (
            "hub_unit_cost", "hub_install_cost", "module_unit_cost", "module_install_cost",
            "spectrum_cost_per_mhz_per_capita", "pole_lease_per_site_year",
            "power_maintenance_per_site_year", "cable_cost_per_m", "install_cost_per_m",
            "power_maintenance_per_link_year", "equipment_cost_per_link",
            "planning_install_per_link", "platform_cost", "cost_per_flight_hour",
        )
    },
    # generate_layout shares the counts' range; it is not called at 1e7 cells here.
    "n_macro": ("[1, 1e+07]", [CostConfig()]),
    "n_small": ("[1, 1e+07]", [CostConfig()]),
    "modules_per_hub": ("[1, 1e+07]", [RfNlosCostParams()]),
    "nlos_hop_count": ("[1, 1e+07]", [TerrestrialFsoCostParams()]),
    "n_platforms": ("[0, 1e+07]", [VerticalFsoCostParams()]),
    "population": ("[0, 1e+10]", [RfNlosCostParams()]),
    "spectrum_mhz": ("[0, 1e+06]", [RfNlosCostParams()]),
    "routing_factor": ("[0, 1000]", [FiberCostParams()]),
    "nlos_fraction": ("[0, 1]", [TerrestrialFsoCostParams()]),
    "flight_hours_per_year": ("[0, 8760]", [VerticalFsoCostParams()]),
    "width_m": ("(0, 1e+06]", [DEFAULT_AREA]),
    "height_m": ("(0, 1e+06]", [DEFAULT_AREA]),
    "years": ("[0, 1000]", [CostConfig(), compare_tco, TCO]),
}


def test_the_ranges_are_the_whole_domain():
    assert set(RANGES) == set(_DOMAIN)


# A str owner is a config section by its dotted path, "" the document's root. The traffic
# section spans the whole range, so that either rate may take either bound.
TRAFFIC_SPAN = ["traffic.busy_rate_bps=1", "traffic.peak_rate_bps=1e15"]


def with_value(owner, name, value):
    """owner (a valid instance, a function on its valid call, or a config section) with
    name set to value; a config section reads value from the text of a --set."""
    if isinstance(owner, str):
        return config_from_mapping(parse_overrides([*TRAFFIC_SPAN, f"{owner}.{name}={value!r}".lstrip(".")]))
    return call(owner, **{name: value}) if callable(owner) else replace(owner, **{name: value})


def owner_id(owner) -> str:
    if isinstance(owner, str):
        return f"config[{owner}]"
    return getattr(owner, "__qualname__", type(owner).__name__)


def is_count(owner, name) -> bool:
    """Whether the owner's valid value of name is an int."""
    if isinstance(owner, str):
        valid = KEYS[f"{owner}.{name}".lstrip(".")]
    else:
        valid = VALID_CALLS[owner][name] if callable(owner) else getattr(owner, name)
    return isinstance(valid, int)


DOMAIN_CASES = [(name, owner) for name, (_, owners) in RANGES.items() for owner in owners] + [
    (name, section) for section, _, name in (path.rpartition(".") for path in KEYS) if name in _DOMAIN
]


@pytest.mark.parametrize(
    "name, owner", DOMAIN_CASES, ids=[f"{owner_id(owner)}.{name}" for name, owner in DOMAIN_CASES]
)
def test_each_domain_bound_is_accepted_and_the_next_double_rejected(name, owner):
    interval, _ = RANGES[name]
    low, high = _DOMAIN[name]
    accepted = int if is_count(owner, name) else float  # a count's bounds as ints
    with_value(owner, name, accepted(high))
    if interval.startswith("["):  # a closed range holds its least value too
        with_value(owner, name, accepted(low))
    # Below a range from 0 the positive or non-negative rule speaks instead. A count's
    # neighbouring doubles break its range before they break the integer rule.
    prefix = f"{owner}: " if isinstance(owner, str) and owner else ""
    for value in [math.nextafter(high, math.inf)] + [math.nextafter(low, -math.inf)] * (low > 0):
        message = f"{prefix}{name} must be in {interval}, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            with_value(owner, name, value)


def sweep_values(name) -> list:
    """(grid value, the rule it breaks or None) for a swept field: each value that an
    argument row would try, both edges of the domain, and the next double beyond each."""
    interval, _ = RANGES[name]
    low, high = _DOMAIN[name]
    return [
        *[(value, "finite") for value in (math.nan, math.inf, -math.inf)],
        *[(value, "positive") for value in (-5.0, -0.0, low)],
        (math.nextafter(low, math.inf), None),
        (high, None),
        (math.nextafter(high, math.inf), f"in {interval}"),
    ]


SWEEP_CASES = [
    (variable, name, value, rule)
    for variable, name in [("altitude", "nfp_altitude_m"), ("divergence", "divergence_rad")]
    for value, rule in sweep_values(name)
]


@pytest.mark.parametrize(
    "variable, name, value, rule",
    SWEEP_CASES,
    ids=[f"{name}={shown(value)}" for _, name, value, _ in SWEEP_CASES],
)
def test_a_sweep_masks_each_value_as_the_field_check_does(variable, name, value, rule):
    # A value in the field's domain is a finite row; any other is a row error with the
    # message the field's own check gives, NaN in every column. The row after it, at the
    # geometry's own value, is unaffected.
    message = None if rule is None else f"{name} must be {rule}, got {value}"
    spec = FixedGrid(variable, 1.0, 2.0, 2, values=(value, getattr(GEOMETRY, name)))
    sweep = run_sweep(spec, **LINK)
    assert sweep.errors == (message, None)
    for column in _per_point(sweep.columns):
        assert np.isfinite(column[1]) and np.isfinite(column[0]) == (rule is None)


def test_the_fields_ranges_convert_onto_the_formula_arguments_ranges():
    # The budget converts a field in its domain to a formula argument in the argument's: the
    # elevation's degrees to [1e-4, pi/2] rad, the visibility's metres to Kruse's km. The next
    # double out of the field's domain would convert out of the argument's.
    low, high = _DOMAIN["elevation_deg"]
    assert (math.radians(low), math.radians(high)) == (1e-4, math.pi / 2)
    assert math.radians(math.nextafter(low, 0.0)) < 1e-4
    low, high = _DOMAIN["visibility_m"]
    assert (low / 1000.0, high / 1000.0) == _DOMAIN["visibility_km"]


@pytest.mark.filterwarnings("error")
def test_every_cost_and_traffic_input_at_its_upper_bound_gives_finite_answers():
    def high(name):
        return _DOMAIN[name][1]

    def at_the_top(params):
        values = {f.name: type(getattr(params, f.name))(high(f.name)) for f in fields(params)}
        return replace(params, **values)

    params = CostParams(*map(at_the_top, COST_PARAMS))
    # The longest trench: every small cell the area's diagonal away from the one macro.
    side, n_small = high("width_m"), int(high("n_small"))
    small = np.broadcast_to([side, high("height_m")], (n_small, 2))
    layout = HetNetLayout(Area(side, high("height_m")), [[0.0, 0.0]], small)
    years = high("years")
    results = compare_tco(layout, params, years)
    assert len(results) == 4
    for result in results:
        assert all(math.isfinite(x) for x in (result.capex, result.opex_per_year, result.tco(years)))
    traffic = TrafficProfile(high("busy_rate_bps"), high("peak_rate_bps"))
    assert math.isfinite(aggregated_demand(int(high("n_cells")), traffic))
    with pytest.raises(ValueError, match=r"^n_cells must be in \[1, 1e\+30\], got 1e\+303$"):
        aggregated_demand(1e303, traffic)
