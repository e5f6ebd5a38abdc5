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
from dataclasses import dataclass, fields
from numbers import Real
from types import SimpleNamespace


def _log10(x: float) -> float:
    return -math.inf if x == 0.0 else math.log10(x)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:  # numpy gives inf
        return math.inf


def _where(condition: bool, if_true: float, if_false: float) -> float:
    return if_true if condition else if_false


# The link budget's formulas are written once, as private functions of a math
# namespace `xp`: numpy over a sweep grid, this stand-in for one point, which
# would otherwise pay numpy's per-call overhead on every term.
_SCALAR_MATH = SimpleNamespace(
    any=bool,
    exp=_exp,
    log=math.log,
    log10=_log10,
    sqrt=math.sqrt,
    isfinite=math.isfinite,
    minimum=min,
    maximum=max,
    where=_where,
)


_FLOAT_MAX = sys.float_info.max


def _require(name: str, value, rule: str = "finite"):
    """The one statement of the finite, positive and non-negative rules: value, or a
    ValueError naming `name` if value is NaN or infinite or breaks `rule`. Bounded by the
    largest double, not inf, so a Python int beyond the float range counts as infinite."""
    if 0 < value <= _FLOAT_MAX:  # the common case, valid by every rule
        return value
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValueError(f"{name} must be finite, got {value}")
    if (rule == "positive" and value <= 0) or (rule == "non-negative" and value < 0):
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def _positive_entries(values):
    """_require's "positive" rule over a numpy array: the mask of its entries it passes."""
    return (values > 0.0) & (values < math.inf)


def _require_bounds(instance, positive=(), non_negative=()) -> None:
    """A dataclass constructor's check: _require of each field in declaration order that is
    set (not None) and named under a rule, or real-valued (then finite at least)."""
    rules = {**dict.fromkeys(non_negative, "non-negative"), **dict.fromkeys(positive, "positive")}
    for f in fields(instance):
        value = getattr(instance, f.name)
        if (f.name in rules and value is not None) or isinstance(value, Real):
            _require(f.name, value, rules.get(f.name, "finite"))


def _slant_factor(elevation_rad: float) -> float:
    if not 0 < elevation_rad <= math.pi / 2:
        raise ValueError(f"elevation_rad must be in (0, pi/2], got {elevation_rad}")
    return 1.0 / math.sin(elevation_rad)


@dataclass(frozen=True)
class LinkGeometry:
    """Geometry of one ground-to-platform optical link.

    nfp_altitude_m: platform altitude above the ground terminal (m)
    elevation_rad: elevation angle of the path, 0 < phi <= pi/2
    divergence_rad: full divergence angle of the transmit beam
    receiver_radius_m: radius of the circular receive aperture (m)
    """

    nfp_altitude_m: float
    elevation_rad: float
    divergence_rad: float
    receiver_radius_m: float

    def __post_init__(self) -> None:
        _require_bounds(self, positive=("nfp_altitude_m", "divergence_rad", "receiver_radius_m"))
        _slant_factor(self.elevation_rad)  # checks the elevation range


def slant_path(geometry: LinkGeometry) -> float:
    """Length of the inclined path in meters: l = h / sin(phi)."""
    return _slant_path(geometry.nfp_altitude_m, geometry.elevation_rad)


def _slant_path(altitude_m, elevation_rad: float):
    return altitude_m / math.sin(elevation_rad)


def geometrical_capture_fraction(geometry: LinkGeometry) -> float:
    """Fraction of transmitted power collected by the aperture, in [0, 1].

    Ratio of aperture to beam-footprint area, (r / r_B)^2, capped at 1:
    when the footprint is smaller than the aperture everything is collected,
    the receiver cannot gather more power than was sent. The radii are
    compared before squaring, so a vanishing footprint cannot overflow; a
    footprint vastly wider than the aperture underflows to 0.
    """
    return _capture_fraction(
        geometry.receiver_radius_m, geometry.divergence_rad, slant_path(geometry), _SCALAR_MATH
    )


def _capture_fraction(receiver_radius_m: float, divergence_rad, path_m, xp):
    # Exactly 1 when the footprint fits inside the aperture; nothing large is squared.
    footprint_radius_m = divergence_rad * path_m / 2.0
    return (receiver_radius_m / xp.maximum(receiver_radius_m, footprint_radius_m)) ** 2


def geometrical_loss(geometry: LinkGeometry) -> float:
    """Beam-spread loss in dB, -10*log10(capture fraction); 0 dB when capped."""
    return capture_loss_db(geometrical_capture_fraction(geometry))


def capture_loss_db(fraction: float) -> float:
    """Loss in dB of a capture fraction in [0, 1]: -10*log10(fraction), inf at 0."""
    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return _capture_loss_db(fraction, _SCALAR_MATH)


def _capture_loss_db(fraction, xp):
    # 0.0 - ... gives +0.0 at a full capture, not the IEEE -0.0 of -10 * 0.0.
    return 0.0 - 10.0 * xp.log10(fraction)
