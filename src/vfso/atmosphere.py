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

All losses are returned in positive dB. Visibilities, thicknesses and
altitudes enter the descriptors in meters and are converted to km internally
where the empirical formulas expect km; the Kruse functions themselves take
the visibility in km. Everything in this module is a pure function; there is
no shared state. The terms that vary along a sweep grid are private
functions of a math namespace `xp` (see geometry), called on floats here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import _SCALAR_MATH, _Checked, _require, _require_bounds, _slant_factor

# Background term of the Hufnagel-Valley profile, m^(-2/3).
HV_BACKGROUND = 2.7e-16


@dataclass(frozen=True)
class FogDescriptor(_Checked):
    """A ground-anchored fog layer: the visibility inside it and its thickness, both in
    meters (the visibility from 1e-3 m to 1e15 m, Kruse's 1e-6 km to 1e12 km)."""

    visibility_m: float
    layer_thickness_m: float


@dataclass(frozen=True)
class RainDescriptor(_Checked):
    """A ground-anchored rain layer: rainfall rate and layer thickness."""

    rate_mm_per_hour: float
    layer_thickness_m: float


@dataclass(frozen=True)
class CloudLayer(_Checked):
    """One horizontally uniform cloud layer.

    lwc_g_per_m3 is the liquid water content; droplet_density_per_cm3 the
    droplet number density N_d. Together they set the in-cloud visibility.
    """

    base_altitude_m: float
    thickness_m: float
    lwc_g_per_m3: float
    droplet_density_per_cm3: float

    @property
    def top_altitude_m(self) -> float:
        return self.base_altitude_m + self.thickness_m


@dataclass(frozen=True)
class TurbulenceDescriptor(_Checked):
    """Turbulence state for the Hufnagel-Valley profile.

    wind_speed_m_per_s is the rms wind speed; structure_constant_a the
    ground-level structure constant A in m^(-2/3). reference_altitude_m, when
    set, fixes the altitude at which Cn^2 is sampled for the scintillation
    loss; by default the platform altitude is used.
    """

    wind_speed_m_per_s: float
    structure_constant_a: float
    reference_altitude_m: Optional[float] = None


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
        _require_bounds(self)
        if not self.label:
            raise ValueError("label must be non-empty")
        _check_no_overlap(self.clouds)


def kruse_size_exponent(visibility_km: float) -> float:
    """Size-distribution exponent delta of the Kruse model.

    0.585 * V^(1/3) below 6 km visibility, 1.3 on the closed interval
    [6, 50] km, 1.6 above. Discontinuous at V = 6 km; that step is part of
    the model itself.
    """
    if _require("visibility_km", visibility_km) > 50.0:
        return 1.6
    if visibility_km >= 6.0:
        return 1.3
    return 0.585 * visibility_km ** (1.0 / 3.0)


def mie_specific_attenuation(visibility_km: float, wavelength_nm: float) -> float:
    """Mie-scattering specific attenuation in dB/km (Kruse model).

    4.34 * (3.91 / V) * (lambda / 550)^(-delta), visibility in km and
    wavelength in nm.
    """
    delta = kruse_size_exponent(visibility_km)
    ratio = _require("wavelength_nm", wavelength_nm) / 550.0
    return 4.34 * (3.91 / visibility_km) * ratio**-delta


def fog_attenuation(fog: FogDescriptor, elevation_rad: float, wavelength_nm: float) -> float:
    """Total fog loss in dB over the slanted crossing of the fog layer."""
    return _fog_db(fog, _slant_factor(elevation_rad), wavelength_nm)


def _fog_db(fog: FogDescriptor, factor: float, wavelength_nm: float) -> float:
    specific = mie_specific_attenuation(fog.visibility_m / 1000.0, wavelength_nm)
    return specific * (fog.layer_thickness_m / 1000.0 * factor)


def rain_attenuation(rain: RainDescriptor, elevation_rad: float) -> float:
    """Total rain loss in dB: 1.076 * R^0.67 dB/km over the slanted layer."""
    return _rain_db(rain, _slant_factor(elevation_rad))


def _rain_db(rain: RainDescriptor, factor: float) -> float:
    return 1.076 * rain.rate_mm_per_hour**0.67 * (rain.layer_thickness_m / 1000.0 * factor)


def cloud_visibility(layer: CloudLayer) -> float:
    """Equivalent in-cloud visibility in km from LWC and droplet density.

    V = 1.002 * (LWC * N_d)^(-0.6473): thicker, denser clouds are harder to
    see through.
    """
    return 1.002 * (layer.lwc_g_per_m3 * layer.droplet_density_per_cm3) ** (-0.6473)


def _check_no_overlap(layers: Sequence[CloudLayer]) -> None:
    ordered = sorted(layers, key=lambda la: la.base_altitude_m)
    for below, above in zip(ordered, ordered[1:]):
        if above.base_altitude_m < below.top_altitude_m:
            raise ValueError(
                "cloud layers overlap: "
                f"[{below.base_altitude_m}, {below.top_altitude_m}] m and "
                f"[{above.base_altitude_m}, {above.top_altitude_m}] m"
            )


def _cloud_db(layers, nfp_altitude_m, factor, wavelength_nm, xp):
    """Summed cloud loss in dB for every layer pierced by the path.

    Each layer is converted to an equivalent visibility, priced with the
    Kruse model, and weighted by the slant distance through the part of the
    layer below the platform. Layers wholly above the platform contribute
    nothing; a layer the platform sits inside contributes pro rata.
    """
    total = 0.0 * nfp_altitude_m  # over a grid, an array even without layers
    for layer in layers:
        base = layer.base_altitude_m
        pierced_m = xp.minimum(xp.maximum(nfp_altitude_m, base), layer.top_altitude_m) - base
        specific = mie_specific_attenuation(cloud_visibility(layer), wavelength_nm)
        total += specific * pierced_m / 1000.0 * factor
    return total


def refractive_index_structure(altitude_m: float, turbulence: TurbulenceDescriptor) -> float:
    """Hufnagel-Valley refractive-index structure parameter Cn^2 in m^(-2/3).

    Three-term sum: a high-altitude wind-driven term, a fixed background
    term, and a ground-layer term scaled by the structure constant A.
    """
    _require("altitude_m", altitude_m)
    return _cn2(altitude_m, turbulence, _SCALAR_MATH)


def _cn2(h, turbulence: TurbulenceDescriptor, xp):
    wind_scale = 0.00594 * (turbulence.wind_speed_m_per_s / 27.0) ** 2
    return (
        wind_scale * (1e-5 * h) ** 10 * xp.exp(-h / 1000.0)
        + HV_BACKGROUND * xp.exp(-h / 1500.0)
        + turbulence.structure_constant_a * xp.exp(-h / 100.0)
    )


def scintillation_loss(wavelength_nm: float, cn2: float, path_length_m: float) -> float:
    """Turbulence-induced scintillation loss in dB.

    2 * sqrt(23.17 * k^(7/6) * Cn^2 * l^(11/6)) with the optical wavenumber
    k = 2*pi*1e9 / lambda_nm in 1/m and the path length l in m.
    """
    _require("wavelength_nm", wavelength_nm)
    _require("cn2", cn2)
    _require("path_length_m", path_length_m)
    return _scintillation_db(wavelength_nm, cn2, path_length_m, _SCALAR_MATH)


def _scintillation_db(wavelength_nm: float, cn2, path_length_m, xp):
    wavenumber = 2.0 * math.pi * 1e9 / wavelength_nm
    return 2.0 * xp.sqrt(23.17 * wavenumber ** (7.0 / 6.0) * cn2 * path_length_m ** (11.0 / 6.0))


def _atmospheric_terms(scenario, altitude_m, factor, wavelength_nm, path_m, xp) -> tuple:
    """(fog, rain, cloud, scintillation) dB at slant factor 1/sin(phi); fog and rain are floats."""
    fog, rain, turbulence = scenario.fog, scenario.rain, scenario.turbulence
    fog_db = 0.0 if fog is None else _fog_db(fog, factor, wavelength_nm)
    rain_db = 0.0 if rain is None else _rain_db(rain, factor)
    cloud_db = _cloud_db(scenario.clouds, altitude_m, factor, wavelength_nm, xp)
    if turbulence is None:
        return fog_db, rain_db, cloud_db, 0.0 * altitude_m
    reference_m = turbulence.reference_altitude_m
    cn2 = _cn2(altitude_m if reference_m is None else reference_m, turbulence, xp)
    return fog_db, rain_db, cloud_db, _scintillation_db(wavelength_nm, cn2, path_m, xp)
