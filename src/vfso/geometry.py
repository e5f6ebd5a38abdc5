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
from dataclasses import dataclass


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
        for name in ("nfp_altitude_m", "elevation_rad", "divergence_rad", "receiver_radius_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.nfp_altitude_m <= 0:
            raise ValueError(f"nfp_altitude_m must be positive, got {self.nfp_altitude_m}")
        if not 0 < self.elevation_rad <= math.pi / 2:
            raise ValueError(
                f"elevation_rad must be in (0, pi/2], got {self.elevation_rad}"
            )
        if self.divergence_rad <= 0:
            raise ValueError(f"divergence_rad must be positive, got {self.divergence_rad}")
        if self.receiver_radius_m <= 0:
            raise ValueError(
                f"receiver_radius_m must be positive, got {self.receiver_radius_m}"
            )


def slant_path(geometry: LinkGeometry) -> float:
    """Length of the inclined path in meters: l = h / sin(phi)."""
    return geometry.nfp_altitude_m / math.sin(geometry.elevation_rad)


def beam_radius(divergence_rad: float, path_length_m: float) -> float:
    """Beam footprint radius at range: r_B = theta * l / 2."""
    if divergence_rad <= 0 or path_length_m <= 0:
        raise ValueError("divergence_rad and path_length_m must be positive")
    return divergence_rad * path_length_m / 2.0


def geometrical_capture_fraction(geometry: LinkGeometry) -> float:
    """Fraction of transmitted power collected by the aperture, in [0, 1].

    Ratio of aperture to beam-footprint area, (r / r_B)^2, capped at 1:
    when the footprint is smaller than the aperture everything is collected,
    the receiver cannot gather more power than was sent. The radii are
    compared before squaring, so a vanishing footprint cannot overflow; a
    footprint vastly wider than the aperture underflows to 0.
    """
    r_b = beam_radius(geometry.divergence_rad, slant_path(geometry))
    if geometry.receiver_radius_m >= r_b:
        return 1.0
    return (geometry.receiver_radius_m / r_b) ** 2


def geometrical_loss(geometry: LinkGeometry) -> float:
    """Beam-spread loss in dB, -10*log10(capture fraction); 0 dB when capped."""
    return capture_loss_db(geometrical_capture_fraction(geometry))


def capture_loss_db(fraction: float) -> float:
    """Loss in dB of a capture fraction in [0, 1]: -10*log10(fraction), inf at 0."""
    if fraction == 1.0:
        return 0.0  # avoid IEEE -0.0 leaking into reports
    if fraction == 0.0:
        return math.inf
    return -10.0 * math.log10(fraction)
