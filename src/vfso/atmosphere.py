"""Atmospheric attenuation mechanisms for a slant optical path.

Covers the loss terms that make up the atmospheric budget of a vertical
free-space-optical link:

* Mie scattering through the Kruse visibility model (the workhorse: it also
  prices fog and in-cloud extinction once a visibility is known),
* rain attenuation through the usual rainfall-rate power law,
* cloud attenuation by converting each cloud layer's microphysics
  (liquid water content and droplet density) to an equivalent visibility,
* turbulence-induced scintillation from the Hufnagel-Valley profile of the
  refractive-index structure parameter.

All losses are returned in positive dB. Thicknesses and altitudes enter the
API in meters and are converted to km internally where the empirical
formulas expect km. Everything in this module is a pure function; there is
no shared state. The terms that vary along a sweep grid are private
functions of a math namespace `xp` (see geometry), called on floats here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import _SCALAR_MATH, _exp, _require, _require_bounds, _slant_factor

# Background term of the Hufnagel-Valley profile, m^(-2/3).
HV_BACKGROUND = 2.7e-16

# Cap on the altitude in the (1e-5 h)^10 wind term of the Hufnagel-Valley
# profile. Beyond it exp(-h / 1000) is exactly 0.0, so the cap changes no Cn^2
# value; it keeps the power from overflowing at extreme altitudes.
HV_WIND_TERM_ALTITUDE_CAP_M = 1e6


@dataclass(frozen=True)
class FogDescriptor:
    """A ground-anchored fog layer: visibility inside it and its thickness."""

    visibility_km: float
    layer_thickness_m: float

    def __post_init__(self) -> None:
        _require_bounds(self, positive=("visibility_km",), non_negative=("layer_thickness_m",))


@dataclass(frozen=True)
class RainDescriptor:
    """A ground-anchored rain layer: rainfall rate and layer thickness."""

    rate_mm_per_hour: float
    layer_thickness_m: float

    def __post_init__(self) -> None:
        _require_bounds(self, non_negative=("rate_mm_per_hour", "layer_thickness_m"))


@dataclass(frozen=True)
class CloudLayer:
    """One horizontally uniform cloud layer.

    lwc_g_per_m3 is the liquid water content; droplet_density_per_cm3 the
    droplet number density N_d. Together they set the in-cloud visibility.
    """

    base_altitude_m: float
    thickness_m: float
    lwc_g_per_m3: float
    droplet_density_per_cm3: float

    def __post_init__(self) -> None:
        _require_bounds(
            self,
            positive=("lwc_g_per_m3", "droplet_density_per_cm3"),
            non_negative=("base_altitude_m", "thickness_m"),
        )

    @property
    def top_altitude_m(self) -> float:
        return self.base_altitude_m + self.thickness_m


@dataclass(frozen=True)
class TurbulenceDescriptor:
    """Turbulence state for the Hufnagel-Valley profile.

    wind_speed_m_per_s is the rms wind speed; structure_constant_a the
    ground-level structure constant A in m^(-2/3). reference_altitude_m, when
    set, fixes the altitude at which Cn^2 is sampled for the scintillation
    loss; by default the platform altitude is used.
    """

    wind_speed_m_per_s: float
    structure_constant_a: float
    reference_altitude_m: Optional[float] = None

    def __post_init__(self) -> None:
        _require_bounds(
            self,
            non_negative=("wind_speed_m_per_s", "structure_constant_a", "reference_altitude_m"),
        )


@dataclass(frozen=True)
class WeatherScenario:
    """Composite atmospheric state: any subset of fog, rain, clouds, turbulence.

    Absent elements (None fog/rain/turbulence, empty cloud tuple) simply
    contribute zero loss.
    """

    label: str
    fog: Optional[FogDescriptor] = None
    rain: Optional[RainDescriptor] = None
    clouds: tuple[CloudLayer, ...] = ()
    turbulence: Optional[TurbulenceDescriptor] = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("label must be non-empty")
        object.__setattr__(self, "clouds", tuple(self.clouds))
        _check_no_overlap(self.clouds)


def kruse_size_exponent(visibility_km: float) -> float:
    """Size-distribution exponent delta of the Kruse model.

    0.585 * V^(1/3) below 6 km visibility, 1.3 on the closed interval
    [6, 50] km, 1.6 above. Discontinuous at V = 6 km; that step is part of
    the model itself.
    """
    return _size_exponent(_require("visibility_km", visibility_km, "positive"))


def _size_exponent(visibility_km: float) -> float:
    if visibility_km > 50.0:
        return 1.6
    if visibility_km >= 6.0:
        return 1.3
    return 0.585 * visibility_km ** (1.0 / 3.0)


def mie_specific_attenuation(visibility_km: float, wavelength_nm: float) -> float:
    """Mie-scattering specific attenuation in dB/km (Kruse model).

    4.34 * (3.91 / V) * (lambda / 550)^(-delta), visibility in km and
    wavelength in nm.
    """
    _require("visibility_km", visibility_km, "positive")
    # Below ~1.4e-321 nm the ratio to 550 nm underflows to 0, which has no negative power.
    if _require("wavelength_nm", wavelength_nm, "positive") / 550.0 == 0.0:
        raise ValueError(f"wavelength_nm / 550 must be positive, got {wavelength_nm}")
    return _mie_db_per_km(visibility_km, math.log(visibility_km), wavelength_nm)


def _mie_db_per_km(visibility_km: float, log_visibility_km: float, wavelength_nm: float) -> float:
    """mie_specific_attenuation, where visibility_km may also have underflowed
    to 0 or overflowed to inf as long as its log is finite."""
    # An underflowed visibility behaves as the least double does: an exponent
    # of ~0 and an overflowing 3.91 / V, which the summed logs then price.
    visibility_km = max(visibility_km, math.ulp(0.0))
    delta = _size_exponent(visibility_km)
    specific = 4.34 * (3.91 / visibility_km) * _power_or_inf(wavelength_nm / 550.0, -delta)
    if specific < math.inf and visibility_km < math.inf:
        return specific
    # Overflowed, or an infinite visibility: the same product summed in logs.
    log_power = delta * math.log(wavelength_nm / 550.0)
    return 4.34 * _exp(math.log(3.91) - log_visibility_km - log_power)


def fog_attenuation(fog: FogDescriptor, elevation_rad: float, wavelength_nm: float) -> float:
    """Total fog loss in dB over the slanted crossing of the fog layer."""
    slant_km = fog.layer_thickness_m / 1000.0 * _slant_factor(elevation_rad)
    if slant_km == 0.0:  # no fog to cross, but still a wavelength Mie would accept
        _require("wavelength_nm", wavelength_nm, "positive")
        return 0.0
    specific = mie_specific_attenuation(fog.visibility_km, wavelength_nm)
    # A zero specific loss adds 0 dB, also over an infinite slant (not inf * 0).
    return specific * slant_km if specific != 0.0 else 0.0


def rain_attenuation(rain: RainDescriptor, elevation_rad: float) -> float:
    """Total rain loss in dB: 1.076 * R^0.67 dB/km over the slanted layer."""
    slant_km = rain.layer_thickness_m / 1000.0 * _slant_factor(elevation_rad)
    specific = 1.076 * rain.rate_mm_per_hour**0.67
    # No rain adds 0 dB, also over an infinite slant (not inf * 0).
    return specific * slant_km if specific != 0.0 else 0.0


def cloud_visibility(layer: CloudLayer) -> float:
    """Equivalent in-cloud visibility in km from LWC and droplet density.

    V = 1.002 * (LWC * N_d)^(-0.6473): thicker, denser clouds are harder to
    see through.
    """
    product = layer.lwc_g_per_m3 * layer.droplet_density_per_cm3
    if 0.0 < product < math.inf:
        return 1.002 * product ** (-0.6473)
    return _exp(_log_cloud_visibility(layer))  # may itself overflow, or underflow to 0


def _log_cloud_visibility(layer: CloudLayer) -> float:
    log_product = math.log(layer.lwc_g_per_m3) + math.log(layer.droplet_density_per_cm3)
    return math.log(1.002) - 0.6473 * log_product


def _check_no_overlap(layers: Sequence[CloudLayer]) -> None:
    ordered = sorted(layers, key=lambda la: la.base_altitude_m)
    for below, above in zip(ordered, ordered[1:]):
        if above.base_altitude_m < below.top_altitude_m:
            raise ValueError(
                "cloud layers overlap: "
                f"[{below.base_altitude_m}, {below.top_altitude_m}] m and "
                f"[{above.base_altitude_m}, {above.top_altitude_m}] m"
            )


def _cloud_db(layers, nfp_altitude_m, elevation_rad, wavelength_nm, xp):
    """Summed cloud loss in dB for every layer pierced by the path.

    Each layer is converted to an equivalent visibility, priced with the
    Kruse model, and weighted by the slant distance through the part of the
    layer below the platform. Layers wholly above the platform contribute
    nothing; a layer the platform sits inside contributes pro rata.
    """
    factor = _slant_factor(elevation_rad)
    total = 0.0 * nfp_altitude_m  # over a grid, an array even without layers
    for layer in layers:
        base = layer.base_altitude_m
        pierced_m = xp.minimum(xp.maximum(nfp_altitude_m, base), layer.top_altitude_m) - base
        log_visibility_km = _log_cloud_visibility(layer)
        specific = _mie_db_per_km(cloud_visibility(layer), log_visibility_km, wavelength_nm)
        if specific == math.inf:  # a layer the path stays below still adds 0 dB, not inf * 0
            specific = xp.where(pierced_m > 0.0, specific, 0.0)
        total += specific * pierced_m / 1000.0 * factor
    return total


def refractive_index_structure(altitude_m: float, turbulence: TurbulenceDescriptor) -> float:
    """Hufnagel-Valley refractive-index structure parameter Cn^2 in m^(-2/3).

    Three-term sum: a high-altitude wind-driven term, a fixed background
    term, and a ground-layer term scaled by the structure constant A.
    """
    _require("altitude_m", altitude_m, "non-negative")
    return _cn2(altitude_m, turbulence, _SCALAR_MATH)


def _cn2(h, turbulence: TurbulenceDescriptor, xp):
    return (
        _hv_wind_term(turbulence.wind_speed_m_per_s, h, xp)
        + HV_BACKGROUND * xp.exp(-h / 1500.0)
        + turbulence.structure_constant_a * xp.exp(-h / 100.0)
    )


def _hv_wind_term(wind_speed: float, h, xp):
    """0.00594 (v / 27)^2 (1e-5 h)^10 exp(-h / 1000), the base capped."""
    wind_base = 1e-5 * xp.minimum(h, HV_WIND_TERM_ALTITUDE_CAP_M)
    scale = 0.00594 * _power_or_inf(wind_speed / 27.0, 2)
    # The capped base^10 is at most 1e10. Below ~4.7e151 m/s of wind no factor
    # can overflow at any altitude and the product is formed directly; beyond
    # it, where (v / 27)^2 or its product with base^10 would be inf (and inf
    # times an underflowed exp NaN), the same product is summed in logs. A
    # zero base then gives exp of a huge negative number, exactly 0.
    if scale * (1e-5 * HV_WIND_TERM_ALTITUDE_CAP_M) ** 10 < math.inf:
        return scale * wind_base**10 * xp.exp(-h / 1000.0)
    log_base = xp.log(xp.maximum(wind_base, math.ulp(0.0)))
    log_scale = math.log(0.00594) + 2.0 * math.log(wind_speed / 27.0)
    return xp.exp(log_scale + 10.0 * log_base - h / 1000.0)


def scintillation_loss(wavelength_nm: float, cn2: float, path_length_m: float) -> float:
    """Turbulence-induced scintillation loss in dB.

    2 * sqrt(23.17 * k^(7/6) * Cn^2 * l^(11/6)) with the optical wavenumber
    k = 2*pi*1e9 / lambda_nm in 1/m and the path length l in m.
    """
    _require("wavelength_nm", wavelength_nm, "positive")
    _require("cn2", cn2, "non-negative")
    _require("path_length_m", path_length_m, "positive")
    return _scintillation_db(wavelength_nm, cn2, path_length_m, _SCALAR_MATH)


def _scintillation_db(wavelength_nm: float, cn2, path_length_m, xp):
    wavenumber = 2.0 * math.pi * 1e9 / wavelength_nm
    scale = 23.17 * _power_or_inf(wavenumber, 7.0 / 6.0)
    # k^(7/6) overflows below a ~3.8e-255 nm wavelength, and l^(11/6) beyond a
    # ~1.377e168 m path. Capping both keeps 0 * inf out where Cn^2 = 0, which
    # gives 0 dB; elsewhere an overflowed product is summed in logs instead,
    # so every point where the direct product is finite keeps its exact
    # value. The log of the scale is built from its factors, so it is finite
    # even where k or k^(7/6) is not (or underflows, at ~1e290 nm).
    cap = sys.float_info.max
    power = _power_or_inf(path_length_m, 11.0 / 6.0)
    product = min(scale, cap) * cn2 * xp.minimum(power, cap)
    exact = (math.isfinite(scale) & xp.isfinite(power) & xp.isfinite(product)) | (cn2 == 0)
    log_product = (
        math.log(23.17)
        + 7.0 / 6.0 * (math.log(2.0 * math.pi * 1e9) - math.log(wavelength_nm))
        + xp.log(xp.maximum(cn2, math.ulp(0.0)))
        + 11.0 / 6.0 * xp.log(path_length_m)
    )
    return 2.0 * xp.where(exact, xp.sqrt(product), xp.exp(0.5 * log_product))


def _power_or_inf(base, exponent: float):
    try:
        return base**exponent
    except OverflowError:  # a float power; a numpy one gives inf
        return math.inf


def _atmospheric_terms(scenario, altitude_m, elevation, wavelength_nm, path_m, xp) -> tuple:
    """(fog, rain, cloud, scintillation) dB; fog and rain are floats."""
    fog, rain, turbulence = scenario.fog, scenario.rain, scenario.turbulence
    fog_db = 0.0 if fog is None else fog_attenuation(fog, elevation, wavelength_nm)
    rain_db = 0.0 if rain is None else rain_attenuation(rain, elevation)
    cloud_db = _cloud_db(scenario.clouds, altitude_m, elevation, wavelength_nm, xp)
    if turbulence is None:
        return fog_db, rain_db, cloud_db, 0.0 * altitude_m
    reference_m = turbulence.reference_altitude_m
    cn2 = _cn2(altitude_m if reference_m is None else reference_m, turbulence, xp)
    return fog_db, rain_db, cloud_db, _scintillation_db(wavelength_nm, cn2, path_m, xp)
