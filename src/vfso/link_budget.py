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
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atmosphere import WeatherScenario, _atmospheric_terms
from .geometry import (
    _SCALAR_MATH,
    LinkGeometry,
    _capture_fraction,
    _capture_loss_db,
    _require_bounds,
    _slant_path,
    geometrical_capture_fraction,
)

DEFAULT_TARGET_RATE_BPS = 3.0e9

PLANCK_J_S = 6.626e-34
LIGHT_SPEED_M_PER_S = 3.0e8


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
        _require_bounds(
            self,
            positive=("transmit_power_w", "wavelength_nm", "receiver_sensitivity_photons_per_bit"),
            non_negative=("pointing_loss_db",),
        )
        optical_loss(self.tx_efficiency, self.rx_efficiency)  # checks both efficiencies
        if not _lossless_rate_bps(self) < math.inf:
            raise ValueError(
                "the lossless rate of transmit_power_w at wavelength_nm and "
                "receiver_sensitivity_photons_per_bit must be finite, got "
                f"{self.transmit_power_w} W at {self.wavelength_nm} nm and "
                f"{self.receiver_sensitivity_photons_per_bit} photons/bit"
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
    product = tx_efficiency * rx_efficiency
    if product < sys.float_info.min:  # under- or subnormal: sum the logs
        return -10.0 * (math.log10(tx_efficiency) + math.log10(rx_efficiency))
    return -10.0 * math.log10(product)


def efficiencies_from_optical_loss(optical_loss_db: float) -> tuple[float, float]:
    """Split a lumped optical loss figure evenly into (eta_t, eta_r).

    Only the product enters the rate equation, so the even split is a
    convention, not an assumption.
    """
    if optical_loss_db < 0:
        raise ValueError(f"optical_loss_db must be non-negative, got {optical_loss_db}")
    eta = 10.0 ** (-optical_loss_db / 20.0)
    return eta, eta


def photon_energy(wavelength_nm: float) -> float:
    """Energy of one photon in joules, h*c/lambda."""
    wavelength_m = wavelength_nm * 1e-9
    if not wavelength_m > 0:  # below ~2.5e-315 nm the meters underflow to 0
        raise ValueError(f"wavelength_nm * 1e-9 must be positive, got {wavelength_nm}")
    return PLANCK_J_S * LIGHT_SPEED_M_PER_S / wavelength_m


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


def _lossless_rate_bps(tx: TransceiverParams) -> float:
    """The rate at capture 1 and 0 dB of weather, inf where not finite. Capture is at most 1,
    no loss is below 0 dB and rounding is monotone, so no rate _budget computes exceeds it."""
    per_bit_j = photon_energy(tx.wavelength_nm) * tx.receiver_sensitivity_photons_per_bit
    return _received_power(tx, 0.0, 1.0) / per_bit_j if per_bit_j > 0 else math.inf


def achievable_rate(
    tx: TransceiverParams, geometry: LinkGeometry, scenario: WeatherScenario
) -> float:
    """Achievable data rate in bit/s under the given weather."""
    return evaluate_link(tx, geometry, scenario).data_rate_bps


def link_margin(rate_bps: float, target_rate_bps: float) -> float:
    """Margin in dB of an achieved rate over a target rate.

    10*log10(rate / target); equivalently received power over the power
    needed at the target rate. Zero rate yields -inf, the link-failure
    sentinel. A target so small that the quotient overflows is rejected.
    """
    if not math.isfinite(rate_bps):
        raise ValueError(f"rate_bps must be finite, got {rate_bps}")
    if rate_bps < 0:
        raise ValueError(f"rate_bps must be non-negative, got {rate_bps}")
    return _margin_db(rate_bps, target_rate_bps, _SCALAR_MATH)


def _margin_db(rate_bps, target_rate_bps: float, xp):
    if not math.isfinite(target_rate_bps):
        raise ValueError(f"target_rate_bps must be finite, got {target_rate_bps}")
    if target_rate_bps <= 0:
        raise ValueError(f"target_rate_bps must be positive, got {target_rate_bps}")
    quotient = rate_bps / target_rate_bps
    if xp.any(quotient == math.inf):  # the rates are finite: it overflowed, not a +inf margin
        raise ValueError(f"target_rate_bps {target_rate_bps} overflows rate_bps / target_rate_bps")
    return 10.0 * xp.log10(quotient)


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
    altitude_m, divergence_rad = geometry.nfp_altitude_m, geometry.divergence_rad
    return _budget(tx, geometry, scenario, target_rate_bps, altitude_m, divergence_rad, _SCALAR_MATH)


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
    It runs the very formulas of evaluate_link, on numpy arrays instead of
    floats, so every entry agrees with evaluate_link to within the rounding
    of numpy's vectorised exp/log/pow (tests hold it to 1e-12).
    """
    altitude = geometry.nfp_altitude_m if nfp_altitude_m is None else np.asarray(nfp_altitude_m)
    divergence = geometry.divergence_rad if divergence_rad is None else np.asarray(divergence_rad)
    # A footprint too wide to represent overflows to inf and a zero capture
    # or rate has log10 -inf: an inf dB loss and the -inf margin sentinel,
    # which is what floats give in evaluate_link. The scintillation term's
    # l^(11/6) may overflow too; it replaces those points itself.
    with np.errstate(over="ignore", divide="ignore"):
        return _budget(tx, geometry, scenario, target_rate_bps, altitude, divergence, np)


def _budget(tx, geometry, scenario, target_rate_bps, altitude_m, divergence_rad, xp):
    """The budget at altitude(s) altitude_m and divergence(s) divergence_rad,
    the rest of `geometry` fixed, in math namespace xp: numpy for arrays,
    geometry._SCALAR_MATH for floats."""
    elevation, wavelength = geometry.elevation_rad, tx.wavelength_nm
    path_m = _slant_path(altitude_m, elevation)
    fraction = _capture_fraction(geometry.receiver_radius_m, divergence_rad, path_m, xp)
    losses = LossBreakdown(
        *_atmospheric_terms(scenario, altitude_m, elevation, wavelength, path_m, xp),
        geometrical_db=_capture_loss_db(fraction, xp),
        pointing_db=tx.pointing_loss_db,
        optical_db=optical_loss(tx.tx_efficiency, tx.rx_efficiency),
    )
    power_w = _received_power(tx, losses.atmospheric_db, fraction)
    rate_bps = power_w / (photon_energy(wavelength) * tx.receiver_sensitivity_photons_per_bit)
    margin_db = _margin_db(rate_bps, target_rate_bps, xp)
    return LinkBudgetResult(losses, power_w, rate_bps, margin_db, target_rate_bps)
