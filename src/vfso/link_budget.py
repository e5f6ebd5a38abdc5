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
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .atmosphere import WeatherScenario, _atmospheric_terms
from .geometry import (
    _SCALAR_MATH,
    LinkGeometry,
    _capture_fraction,
    _capture_loss_db,
    _Checked,
    _require,
    _slant_path,
    _valid_entries,
    geometrical_capture_fraction,
)

DEFAULT_TARGET_RATE_BPS = 3.0e9

PLANCK_J_S = 6.626e-34
LIGHT_SPEED_M_PER_S = 3.0e8


@dataclass(frozen=True)
class TransceiverParams(_Checked):
    """Optical transceiver parameters of one link end-to-end.

    Efficiencies are linear factors in [1e-30, 1]; pointing loss is a lumped
    dB figure; receiver_sensitivity_photons_per_bit is the photon count the
    detector needs per bit at its design error rate. Each number must lie in
    the model's domain (geometry._DOMAIN).
    """

    transmit_power_w: float
    tx_efficiency: float
    rx_efficiency: float
    wavelength_nm: float
    pointing_loss_db: float
    receiver_sensitivity_photons_per_bit: float


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


def _per_point(result: LinkBudgetResult) -> tuple:
    """The ten numbers of a result that vary over a grid: seven losses, power, rate, margin."""
    b = result.loss_breakdown
    losses = (getattr(b, f.name) for f in fields(LossBreakdown))
    return (*losses, result.received_power_w, result.data_rate_bps, result.link_margin_db)


def _from_per_point(numbers, target_rate_bps: float) -> LinkBudgetResult:
    """The result whose _per_point is `numbers`, at target_rate_bps."""
    *losses, power_w, rate_bps, margin_db = numbers
    return LinkBudgetResult(LossBreakdown(*losses), power_w, rate_bps, margin_db, target_rate_bps)


def optical_loss(tx_efficiency: float, rx_efficiency: float) -> float:
    """Loss in dB of the imperfect optics, -10*log10(eta_t * eta_r)."""
    _require("tx_efficiency", tx_efficiency)
    return -10.0 * math.log10(tx_efficiency * _require("rx_efficiency", rx_efficiency))


def efficiencies_from_optical_loss(optical_loss_db: float) -> tuple[float, float]:
    """Split a lumped optical loss figure evenly into (eta_t, eta_r).

    Only the product enters the rate equation, so the even split is a
    convention, not an assumption.
    """
    _require("optical_loss_db", optical_loss_db)
    eta = 10.0 ** (-optical_loss_db / 20.0)
    return eta, eta


def photon_energy(wavelength_nm: float) -> float:
    """Energy of one photon in joules, h*c/lambda."""
    wavelength_m = _require("wavelength_nm", wavelength_nm) * 1e-9
    return PLANCK_J_S * LIGHT_SPEED_M_PER_S / wavelength_m


def received_power(
    tx: TransceiverParams, geometry: LinkGeometry, atmospheric_loss_db: float
) -> float:
    """Optical power at the detector in watts.

    Transmit power scaled by both optical efficiencies, the pointing and
    atmospheric losses (dB -> linear), and the geometric capture fraction.
    """
    _require("atmospheric_loss_db", atmospheric_loss_db)
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
    sentinel. The target must lie in the model's domain, 1 bit/s to 1 Tbit/s,
    or a ValueError names that range; no finite rate over it then overflows.
    """
    _require("rate_bps", rate_bps)
    return _margin_db(rate_bps, target_rate_bps, _SCALAR_MATH)


def _margin_db(rate_bps, target_rate_bps: float, xp):
    return 10.0 * xp.log10(rate_bps / _require("target_rate_bps", target_rate_bps))


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
    rest. Every array entry must pass the LinkGeometry checks (positive and
    within the model's domain), or a ValueError names the first that fails and
    its bound; run_sweep masks them.

    Returns a LinkBudgetResult whose fields are arrays over the grid for the
    terms that vary along it (capture fraction, power, rate, margin; cloud and
    scintillation along altitude) and floats for the others (fog, rain, pointing, optics).
    It runs the very formulas of evaluate_link, on numpy arrays instead of
    floats, so every entry agrees with evaluate_link to within the rounding
    of numpy's vectorised exp/log/pow (tests hold it to 1e-12).
    """
    altitude = geometry.nfp_altitude_m if nfp_altitude_m is None else np.asarray(nfp_altitude_m)
    divergence = geometry.divergence_rad if divergence_rad is None else np.asarray(divergence_rad)
    for name, values in (("nfp_altitude_m", altitude), ("divergence_rad", divergence)):
        values = np.asarray(values)
        invalid = values[~_valid_entries(name, values)]
        if invalid.size:  # the first invalid entry, named as LinkGeometry names it
            _require(name, invalid.flat[0].item())
    # A rate that underflows to 0 has log10 -inf: the margin sentinel, as in evaluate_link.
    with np.errstate(divide="ignore"):
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
