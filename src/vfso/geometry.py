"""Slant-path geometry and beam-spread loss between a ground terminal and a flying platform.

The platform hovers at altitude h and is seen from the ground terminal under
elevation angle phi, giving a straight slant path of length h / sin(phi)
(flat-earth geometry, adequate for altitudes up to ~20 km at moderate
elevations). The transmitted beam is modelled as a uniform disc whose
diameter grows linearly with range: d_B = theta * l, with theta the full
divergence angle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from numbers import Integral, Real
from types import SimpleNamespace
from typing import Union, get_args, get_origin, get_type_hints


def _log10(x: float) -> float:
    return -math.inf if x == 0.0 else math.log10(x)


# The link budget's formulas are written once, as private functions of a math
# namespace `xp`: numpy over a sweep grid, this stand-in for one point, which
# would otherwise pay numpy's per-call overhead on every term.
_SCALAR_MATH = SimpleNamespace(exp=math.exp, log10=_log10, sqrt=math.sqrt, minimum=min, maximum=max)


_FLOAT_MAX = sys.float_info.max

# Cost: prices in $ per unit, m, year or flight hour.
_PRICES = (
    "hub_unit_cost", "hub_install_cost", "module_unit_cost", "module_install_cost",
    "spectrum_cost_per_mhz_per_capita", "pole_lease_per_site_year", "platform_cost",
    "power_maintenance_per_site_year", "cable_cost_per_m", "install_cost_per_m",
    "power_maintenance_per_link_year", "equipment_cost_per_link", "cost_per_flight_hour",
    "planning_install_per_link",
)

# The model's domain: the closed range of each bounded argument or field, by name. The
# bounds are generous (the paper's links are 1550 nm, 1-20 km, 1 urad-1 mrad) and keep
# every budget term a finite double: no power overflows, a loss is at most ~1e214 dB,
# and only the received power and rate may underflow, to the -inf margin sentinel.
_DOMAIN = {
    "wavelength_nm": (100.0, 1e5),
    "transmit_power_w": (0.0, 1e6),
    "optical_loss_db": (0.0, 600.0),
    "receiver_sensitivity_photons_per_bit": (1e-3, 1e6),
    "target_rate_bps": (1.0, 1e12),
    "nfp_altitude_m": (0.0, 1e6),
    "elevation_deg": (math.degrees(1e-4), 90.0),  # radians() maps it onto [1e-4, pi/2]
    "divergence_rad": (0.0, math.pi),
    "receiver_radius_m": (1e-6, 1e6),
    "path_length_m": (0.0, 1e11),  # 1e6 m at the least elevation is ~1e10 m
    "visibility_km": (1e-6, 1e12),
    "visibility_m": (1e-3, 1e15),  # / 1000 maps it onto visibility_km's
    "layer_thickness_m": (0.0, 1e6),
    "base_altitude_m": (0.0, 1e6),
    "thickness_m": (0.0, 1e6),
    "lwc_g_per_m3": (1e-9, 1e3),
    "droplet_density_per_cm3": (1e-9, 1e6),
    "altitude_m": (0.0, 1e6),
    "reference_altitude_m": (0.0, 1e6),
    "wind_speed_m_per_s": (0.0, 1e3),
    "structure_constant_a": (0.0, 1e-6),
    "cn2": (0.0, 1e-5),  # above A's bound: the profile adds up to ~4e-14 to A
    "points": (2.0, 1e8),
    # Traffic, and link rates up to above the link domain's fastest (~5.03e29 bit/s).
    **dict.fromkeys(("busy_rate_bps", "peak_rate_bps"), (1.0, 1e15)),
    "link_rate_bps": (0.0, 1e30),
    "n_cells": (1.0, 1e30),
    # Cost: prices, counts and the layout's sides. At every bound each line item, capex,
    # opex and TCO stays below ~1e26 $.
    **dict.fromkeys(_PRICES, (0.0, 1e9)),
    **dict.fromkeys(("n_macro", "n_small", "modules_per_hub", "nlos_hop_count"), (1.0, 1e7)),
    "n_platforms": (0.0, 1e7),
    "population": (0.0, 1e10),
    "spectrum_mhz": (0.0, 1e6),
    "routing_factor": (0.0, 1e3),
    "nlos_fraction": (0.0, 1.0),
    "flight_hours_per_year": (0.0, 8760.0),
    **dict.fromkeys(("width_m", "height_m"), (0.0, 1e6)),
    "years": (0.0, 1e3),
}
# The sign rule of each name that has one, by name: checked before the range, and a
# positive name's range that starts at 0 excludes 0 itself.
_RULES = {
    **dict.fromkeys((
        "wavelength_nm", "transmit_power_w", "receiver_sensitivity_photons_per_bit",
        "target_rate_bps", "nfp_altitude_m", "divergence_rad", "receiver_radius_m",
        "path_length_m", "visibility_km", "lwc_g_per_m3", "droplet_density_per_cm3",
        "busy_rate_bps", "n_macro", "n_small", "width_m", "height_m",
    ), "positive"),
    **dict.fromkeys((
        "pointing_loss_db", "optical_loss_db", "atmospheric_loss_db", "rate_bps", "seed",
        "layer_thickness_m", "rate_mm_per_hour", "base_altitude_m", "thickness_m",
        "altitude_m", "reference_altitude_m", "wind_speed_m_per_s", "structure_constant_a",
        "cn2", "link_rate_bps", "years", *_PRICES, "modules_per_hub", "population",
        "spectrum_mhz", "routing_factor", "nlos_fraction", "nlos_hop_count", "n_platforms",
        "flight_hours_per_year",
        # A budget's results: each loss, the received power and the rate.
        "fog_db", "rain_db", "cloud_db", "scintillation_db", "geometrical_db", "pointing_db",
        "optical_db", "received_power_w", "data_rate_bps",
    ), "non-negative"),
}
# The names that may also hold -inf: the margin of a link whose rate underflows to 0.
_SENTINEL_MINUS_INF = ("link_margin_db",)
_DOUBLES = (-_FLOAT_MAX, _FLOAT_MAX)
_bounds = _DOMAIN.get  # looked up once, not on each of _require's many calls


def _shown(value) -> str:
    """str(value) for a message, but an int beyond the float range as its digit count,
    not the ~400 digits str gives (or the error str raises beyond 4300)."""
    if not (isinstance(value, int) and abs(value) > _FLOAT_MAX):
        return str(value)
    magnitude = abs(value)
    digits = int(math.log10(magnitude)) + 1  # one off where log10 rounds across a power of 10
    digits += (magnitude >= 10**digits) - (magnitude < 10 ** (digits - 1))
    return f"a {'negative ' * (value < 0)}{digits}-digit int"


def _interval(name: str) -> str:
    """The range _DOMAIN gives name, as a message states it."""
    low, high = _DOMAIN[name]
    high_text = "pi" if high == math.pi else f"{high:g}"
    return f"{'(' if _RULES.get(name) == 'positive' and low == 0 else '['}{low:g}, {high_text}]"


def _require(name: str, value):
    """The one check of a number: value, or a ValueError naming `name` if value is not a
    real number (or is a bool), is NaN or infinite (but the -inf of a name in
    _SENTINEL_MINUS_INF), breaks name's rule in _RULES or leaves its range in _DOMAIN, checked
    in that order. Bounded by the largest double, not inf, so a Python int beyond the float
    range counts as infinite."""
    low, high = _bounds(name, _DOUBLES)
    if isinstance(value, float) and 0 < value and low <= value <= high:  # the common case
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        if value == -math.inf and name in _SENTINEL_MINUS_INF:
            return value
        raise ValueError(f"{name} must be finite, got {_shown(value)}")
    rule = _RULES.get(name)
    if (rule == "positive" and value <= 0) or (rule == "non-negative" and value < 0):
        raise ValueError(f"{name} must be {rule}, got {value}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be in {_interval(name)}, got {value}")
    return value


def _require_int(name: str, value):
    """_require of a count, which must also be an int, checked after the rest."""
    _require(name, value)
    if not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _valid_entries(name: str, values):
    """_require(name, .) over a numpy array: the mask of the entries it passes."""
    low, high = _bounds(name, _DOUBLES)
    rule = _RULES.get(name)
    signed = values > 0.0 if rule == "positive" else values >= 0.0 if rule else True
    return signed & (values >= low) & (values <= high)


@cache
def _field_types(cls) -> tuple:  # (name, resolved annotation) of each field
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _require_bounds(instance) -> None:
    """A dataclass constructor's check, each field's read from its annotation. A list given
    for a tuple field is stored as a tuple."""
    for name, kind in _field_types(type(instance)):
        value = getattr(instance, name)
        checked = _require_kind(name, value, kind)
        if checked is not value:
            object.__setattr__(instance, name, checked)


def _require_kind(name: str, value, kind):
    """value, checked against its annotation: _require_int of an int, _require of a float,
    nothing of an Optional left None, a tuple (or a list, returned as a tuple) of which each
    dataclass item is checked, and an instance of any other type. A tuple of numbers or names
    is left to its field's own rule."""
    if get_origin(kind) is Union:  # Optional[X]
        return value if value is None else _require_kind(name, value, get_args(kind)[0])
    if kind is int:
        _require_int(name, value)
    elif kind is float:
        _require(name, value)
    elif get_origin(kind) is tuple:
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be a tuple or list, got {value!r}")
        value = tuple(value)
        item = get_args(kind)[0]
        for i, entry in enumerate(value if is_dataclass(item) else ()):
            _require_kind(f"{name}[{i}]", entry, item)
    elif not isinstance(value, kind):
        type_name = "string" if kind is str else kind.__name__
        raise ValueError(f"{name} must be a {type_name}, got {value!r}")
    return value


class _Checked:
    """A parameter dataclass whose constructor runs _require_bounds."""

    def __post_init__(self) -> None:
        _require_bounds(self)


def _slant_factor(elevation_deg: float) -> float:
    return 1.0 / math.sin(math.radians(_require("elevation_deg", elevation_deg)))


@dataclass(frozen=True)
class LinkGeometry(_Checked):
    """Geometry of one ground-to-platform optical link.

    nfp_altitude_m: platform altitude above the ground terminal (m)
    elevation_deg: elevation angle of the path in degrees, ~0.00573 (1e-4 rad) to 90
    divergence_rad: full divergence angle of the transmit beam (rad)
    receiver_radius_m: radius of the circular receive aperture (m)
    """

    nfp_altitude_m: float
    elevation_deg: float
    divergence_rad: float
    receiver_radius_m: float


def slant_path(geometry: LinkGeometry) -> float:
    """Length of the inclined path in meters: l = h / sin(phi)."""
    return geometry.nfp_altitude_m / math.sin(math.radians(geometry.elevation_deg))


def geometrical_capture_fraction(geometry: LinkGeometry) -> float:
    """Fraction of transmitted power collected by the aperture, in [0, 1].

    Ratio of aperture to beam-footprint area, (r / r_B)^2, capped at 1:
    when the footprint is smaller than the aperture everything is collected,
    the receiver cannot gather more power than was sent.
    """
    return _capture_fraction(
        geometry.receiver_radius_m, geometry.divergence_rad, slant_path(geometry), _SCALAR_MATH
    )


def _capture_fraction(receiver_radius_m: float, divergence_rad, path_m, xp):
    # Exactly 1 when the footprint fits inside the aperture.
    footprint_radius_m = divergence_rad * path_m / 2.0
    return (receiver_radius_m / xp.maximum(receiver_radius_m, footprint_radius_m)) ** 2


def geometrical_loss(geometry: LinkGeometry) -> float:
    """Beam-spread loss in dB, -10*log10(capture fraction); 0 dB when capped."""
    return _capture_loss_db(geometrical_capture_fraction(geometry), _SCALAR_MATH)


def _capture_loss_db(fraction, xp):
    # 0.0 - ... gives +0.0 at a full capture, not the IEEE -0.0 of -10 * 0.0.
    return 0.0 - 10.0 * xp.log10(fraction)
