"""End-to-end link budget: received power, achievable data rate, link margin.

The receiver is characterised by a photon-counting sensitivity N_b
(photons per bit), so the achievable rate falls straight out of the power
budget:

    R = P_received / (E_photon * N_b)   [bit/s]

with P_received the transmit power less the optical, pointing and
atmospheric losses and scaled by the geometric capture fraction.
The link margin compares the achievable rate against a target rate in dB;
a negative margin means the link cannot carry the target traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .atmosphere import WeatherScenario, _atmospheric_terms
from .geometry import (
    _SCALAR_MATH,
    LinkGeometry,
    _capture_fraction,
    _capture_loss_db,
    _Checked,
    _require,
    geometrical_capture_fraction,
)

DEFAULT_TARGET_RATE_BPS = 3.0e9

PLANCK_J_S = 6.626e-34
LIGHT_SPEED_M_PER_S = 3.0e8


@dataclass(frozen=True)
class TransceiverParams(_Checked):
    """Optical transceiver parameters of one link end-to-end.

    Optical and pointing losses are lumped dB figures, the optical one the
    loss of both ends' optics; receiver_sensitivity_photons_per_bit is the
    photon count the detector needs per bit at its design error rate. Each
    number must lie in the model's domain (geometry._DOMAIN).
    """

    transmit_power_w: float
    optical_loss_db: float
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


def photon_energy(wavelength_nm: float) -> float:
    """Energy of one photon in joules, h*c/lambda."""
    wavelength_m = _require("wavelength_nm", wavelength_nm) * 1e-9
    return PLANCK_J_S * LIGHT_SPEED_M_PER_S / wavelength_m


def received_power(
    tx: TransceiverParams, geometry: LinkGeometry, atmospheric_loss_db: float
) -> float:
    """Optical power at the detector in watts.

    Transmit power less the optical, pointing and atmospheric losses
    (dB -> linear), scaled by the geometric capture fraction.
    """
    _require("atmospheric_loss_db", atmospheric_loss_db)
    return _received_power(tx, atmospheric_loss_db, geometrical_capture_fraction(geometry))


def _received_power(tx: TransceiverParams, atmospheric_loss_db, capture_fraction):
    # Plain arithmetic, so the losses may be floats or arrays alike.
    return (
        tx.transmit_power_w
        * 10.0 ** (-tx.optical_loss_db / 10.0)
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
    floating-point accuracy (each mechanism counted exactly once, geometrical
    through the capture fraction).
    """
    altitude_m, divergence_rad = geometry.nfp_altitude_m, geometry.divergence_rad
    return _budget(tx, geometry, scenario, target_rate_bps, altitude_m, divergence_rad, _SCALAR_MATH)


def _budget(tx, geometry, scenario, target_rate_bps, altitude_m, divergence_rad, xp):
    """The budget at altitude(s) altitude_m and divergence(s) divergence_rad,
    the rest of `geometry` fixed, in math namespace xp: numpy for a sweep's
    grid (scenario.run_sweep), geometry._SCALAR_MATH for one point."""
    sine, wavelength = math.sin(math.radians(geometry.elevation_deg)), tx.wavelength_nm
    path_m = altitude_m / sine
    fraction = _capture_fraction(geometry.receiver_radius_m, divergence_rad, path_m, xp)
    losses = LossBreakdown(
        *_atmospheric_terms(scenario, altitude_m, 1.0 / sine, wavelength, path_m, xp),
        geometrical_db=_capture_loss_db(fraction, xp),
        pointing_db=tx.pointing_loss_db,
        optical_db=tx.optical_loss_db,
    )
    power_w = _received_power(tx, losses.atmospheric_db, fraction)
    rate_bps = power_w / (photon_energy(wavelength) * tx.receiver_sensitivity_photons_per_bit)
    margin_db = _margin_db(rate_bps, target_rate_bps, xp)
    return LinkBudgetResult(losses, power_w, rate_bps, margin_db, target_rate_bps)
