"""End-to-end link budget: received power, achievable data rate, link margin.

The receiver is characterised by a photon-counting sensitivity N_b
(photons per bit), so the achievable rate falls straight out of the power
budget:

    R = P_received / (E_photon * N_b)   [bit/s]

with P_received the transmit power scaled by the optical efficiencies, the
pointing loss, the atmospheric loss and the geometric capture fraction.
The link margin compares the achievable rate against a target rate in dB;
a negative margin means the link cannot carry the target traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atmosphere import (
    HV_BACKGROUND,
    WeatherScenario,
    cloud_visibility,
    fog_attenuation,
    mie_specific_attenuation,
    rain_attenuation,
    total_atmospheric_loss,
)
from .geometry import LinkGeometry, capture_loss_db, geometrical_capture_fraction

DEFAULT_TARGET_RATE_BPS = 3.0e9


@dataclass(frozen=True)
class PhysicalConstants:
    planck_j_s: float = 6.626e-34
    light_speed_m_per_s: float = 3.0e8


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class TransceiverParams:
    """Optical transceiver parameters of one link end-to-end.

    Efficiencies are linear factors in (0, 1]; pointing loss is a lumped dB
    figure; receiver_sensitivity_photons_per_bit is the photon count the
    detector needs per bit at its design error rate.
    """

    transmit_power_w: float
    tx_efficiency: float
    rx_efficiency: float
    wavelength_nm: float
    pointing_loss_db: float
    receiver_sensitivity_photons_per_bit: float

    def __post_init__(self) -> None:
        if self.transmit_power_w <= 0:
            raise ValueError(f"transmit_power_w must be positive, got {self.transmit_power_w}")
        for name in ("tx_efficiency", "rx_efficiency"):
            eta = getattr(self, name)
            if not 0 < eta <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {eta}")
        if self.wavelength_nm <= 0:
            raise ValueError(f"wavelength_nm must be positive, got {self.wavelength_nm}")
        if self.pointing_loss_db < 0:
            raise ValueError(
                f"pointing_loss_db must be non-negative, got {self.pointing_loss_db}"
            )
        if self.receiver_sensitivity_photons_per_bit <= 0:
            raise ValueError(
                "receiver_sensitivity_photons_per_bit must be positive, "
                f"got {self.receiver_sensitivity_photons_per_bit}"
            )


@dataclass(frozen=True)
class LossBreakdown:
    """Every loss mechanism of one evaluation, in positive dB."""

    fog_db: float
    rain_db: float
    cloud_db: float
    scintillation_db: float
    geometrical_db: float
    pointing_db: float
    optical_db: float

    @property
    def atmospheric_db(self) -> float:
        return self.fog_db + self.rain_db + self.cloud_db + self.scintillation_db

    @property
    def total_db(self) -> float:
        return self.atmospheric_db + self.geometrical_db + self.pointing_db + self.optical_db


@dataclass(frozen=True)
class LinkBudgetResult:
    """Outcome of one link evaluation.

    link_viable is False when the margin is negative (achieved rate below
    the target); the margin itself is kept unclamped so failure depth stays
    visible.
    """

    loss_breakdown: LossBreakdown
    received_power_w: float
    data_rate_bps: float
    link_margin_db: float
    target_rate_bps: float

    @property
    def link_viable(self) -> bool:
        return self.link_margin_db >= 0.0


def optical_loss(tx_efficiency: float, rx_efficiency: float) -> float:
    """Loss in dB of the imperfect optics, -10*log10(eta_t * eta_r)."""
    for name, eta in (("tx_efficiency", tx_efficiency), ("rx_efficiency", rx_efficiency)):
        if not 0 < eta <= 1:
            raise ValueError(f"{name} must be in (0, 1], got {eta}")
    return -10.0 * math.log10(tx_efficiency * rx_efficiency)


def efficiencies_from_optical_loss(optical_loss_db: float) -> tuple[float, float]:
    """Split a lumped optical loss figure evenly into (eta_t, eta_r).

    Only the product enters the rate equation, so the even split is a
    convention, not an assumption.
    """
    if optical_loss_db < 0:
        raise ValueError(f"optical_loss_db must be non-negative, got {optical_loss_db}")
    eta = 10.0 ** (-optical_loss_db / 20.0)
    return eta, eta


def photon_energy(wavelength_nm: float, constants: PhysicalConstants = CONSTANTS) -> float:
    """Energy of one photon in joules, h*c/lambda."""
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength_nm must be positive, got {wavelength_nm}")
    return constants.planck_j_s * constants.light_speed_m_per_s / (wavelength_nm * 1e-9)


def received_power(
    tx: TransceiverParams, geometry: LinkGeometry, atmospheric_loss_db: float
) -> float:
    """Optical power at the detector in watts.

    Transmit power scaled by both optical efficiencies, the pointing and
    atmospheric losses (dB -> linear), and the geometric capture fraction.
    """
    if atmospheric_loss_db < 0:
        raise ValueError(
            f"atmospheric_loss_db must be non-negative, got {atmospheric_loss_db}"
        )
    return _received_power(tx, atmospheric_loss_db, geometrical_capture_fraction(geometry))


def _received_power(tx: TransceiverParams, atmospheric_loss_db, capture_fraction):
    # Plain arithmetic, so the losses may be floats or arrays alike.
    return (
        tx.transmit_power_w
        * tx.tx_efficiency
        * tx.rx_efficiency
        * 10.0 ** (-tx.pointing_loss_db / 10.0)
        * 10.0 ** (-atmospheric_loss_db / 10.0)
        * capture_fraction
    )


def achievable_rate(
    tx: TransceiverParams, geometry: LinkGeometry, scenario: WeatherScenario
) -> float:
    """Achievable data rate in bit/s under the given weather."""
    return evaluate_link(tx, geometry, scenario).data_rate_bps


def link_margin(rate_bps: float, target_rate_bps: float) -> float:
    """Margin in dB of an achieved rate over a target rate.

    10*log10(rate / target); equivalently received power over the power
    needed at the target rate. Zero rate yields -inf, the link-failure
    sentinel.
    """
    if rate_bps < 0:
        raise ValueError(f"rate_bps must be non-negative, got {rate_bps}")
    if target_rate_bps <= 0:
        raise ValueError(f"target_rate_bps must be positive, got {target_rate_bps}")
    if rate_bps == 0.0:
        return -math.inf
    return 10.0 * math.log10(rate_bps / target_rate_bps)


def evaluate_link(
    tx: TransceiverParams,
    geometry: LinkGeometry,
    scenario: WeatherScenario,
    target_rate_bps: float = DEFAULT_TARGET_RATE_BPS,
) -> LinkBudgetResult:
    """One-pass evaluation: full loss breakdown, received power, rate, margin.

    The breakdown is mutually consistent with the rate: converting the
    per-mechanism dB entries back to linear factors reproduces the rate to
    floating-point accuracy (optical lives in the efficiencies, geometrical
    in the capture fraction, each counted exactly once).
    """
    atm = total_atmospheric_loss(scenario, geometry, tx.wavelength_nm)
    fraction = geometrical_capture_fraction(geometry)
    power_w = _received_power(tx, atm.total_db, fraction)
    rate_bps = power_w / (
        photon_energy(tx.wavelength_nm) * tx.receiver_sensitivity_photons_per_bit
    )
    breakdown = LossBreakdown(
        fog_db=atm.fog_db,
        rain_db=atm.rain_db,
        cloud_db=atm.cloud_db,
        scintillation_db=atm.scintillation_db,
        geometrical_db=capture_loss_db(fraction),
        pointing_db=tx.pointing_loss_db,
        optical_db=optical_loss(tx.tx_efficiency, tx.rx_efficiency),
    )
    return LinkBudgetResult(
        loss_breakdown=breakdown,
        received_power_w=power_w,
        data_rate_bps=rate_bps,
        link_margin_db=link_margin(rate_bps, target_rate_bps),
        target_rate_bps=target_rate_bps,
    )


def evaluate_grid(
    tx: TransceiverParams,
    geometry: LinkGeometry,
    scenario: WeatherScenario,
    target_rate_bps: float = DEFAULT_TARGET_RATE_BPS,
    *,
    nfp_altitude_m: Optional[np.ndarray] = None,
    divergence_rad: Optional[np.ndarray] = None,
) -> LinkBudgetResult:
    """evaluate_link over arrays of platform altitude and/or beam divergence.

    The given arrays replace those fields of `geometry`, which supplies the
    rest. Every array entry must pass the LinkGeometry checks (finite and
    positive); the caller masks out the others, as run_sweep does.

    Returns a LinkBudgetResult whose fields are arrays over the grid for
    the terms that vary (capture fraction, cloud, scintillation, power, rate,
    margin) and floats for those that do not (fog, rain, pointing, optics).
    The constant terms come from the scalar functions, computed once. The
    varying ones (slant path, capped capture fraction, pierced cloud depth,
    Cn^2, scintillation) repeat the scalar formulas in numpy, operation for
    operation, so every entry agrees with evaluate_link to within the
    rounding of numpy's vectorised exp/log/pow (tests hold it to 1e-12).
    """
    if target_rate_bps <= 0:
        raise ValueError(f"target_rate_bps must be positive, got {target_rate_bps}")
    altitude = geometry.nfp_altitude_m if nfp_altitude_m is None else np.asarray(nfp_altitude_m)
    divergence = geometry.divergence_rad if divergence_rad is None else np.asarray(divergence_rad)
    elevation, wavelength = geometry.elevation_rad, tx.wavelength_nm
    slant_factor = 1.0 / math.sin(elevation)  # as in atmosphere's layer crossings

    path_m = altitude / math.sin(elevation)  # as in geometry.slant_path
    ratio = (geometry.receiver_radius_m / (divergence * path_m / 2.0)) ** 2
    fraction = np.minimum(1.0, ratio)
    geometrical_db = np.where(fraction == 1.0, 0.0, -10.0 * np.log10(fraction))

    fog_db = (
        fog_attenuation(scenario.fog, elevation, wavelength) if scenario.fog is not None else 0.0
    )
    rain_db = rain_attenuation(scenario.rain, elevation) if scenario.rain is not None else 0.0
    cloud_db = 0.0
    for layer in scenario.clouds:
        base, top = layer.base_altitude_m, layer.top_altitude_m
        specific = mie_specific_attenuation(cloud_visibility(layer), wavelength)
        cloud_db = cloud_db + specific * (np.clip(altitude, base, top) - base) / 1000.0 * slant_factor
    turbulence = scenario.turbulence
    if turbulence is None:
        scintillation_db = 0.0
    else:
        h = altitude if turbulence.reference_altitude_m is None else turbulence.reference_altitude_m
        cn2 = (
            0.00594 * (turbulence.wind_speed_m_per_s / 27.0) ** 2 * (1e-5 * h) ** 10
            * np.exp(-h / 1000.0)
            + HV_BACKGROUND * np.exp(-h / 1500.0)
            + turbulence.structure_constant_a * np.exp(-h / 100.0)
        )
        wavenumber = 2.0 * math.pi * 1e9 / wavelength
        scintillation_db = 2.0 * np.sqrt(
            23.17 * wavenumber ** (7.0 / 6.0) * cn2 * path_m ** (11.0 / 6.0)
        )

    atmospheric_db = fog_db + rain_db + cloud_db + scintillation_db
    power_w = _received_power(tx, atmospheric_db, fraction)
    rate_bps = power_w / (photon_energy(wavelength) * tx.receiver_sensitivity_photons_per_bit)
    with np.errstate(divide="ignore"):  # a zero rate gives the -inf margin sentinel
        margin_db = 10.0 * np.log10(rate_bps / target_rate_bps)
    return LinkBudgetResult(
        loss_breakdown=LossBreakdown(
            fog_db=fog_db,
            rain_db=rain_db,
            cloud_db=cloud_db,
            scintillation_db=scintillation_db,
            geometrical_db=geometrical_db,
            pointing_db=tx.pointing_loss_db,
            optical_db=optical_loss(tx.tx_efficiency, tx.rx_efficiency),
        ),
        received_power_w=power_w,
        data_rate_bps=rate_bps,
        link_margin_db=margin_db,
        target_rate_bps=target_rate_bps,
    )
