"""Sizing how many small cells one backhaul link can carry.

Traffic per small cell is summarised by two numbers: the average rate during
the busy hour and the peak cell throughput. A link aggregating N cells must
carry max(N * busy, peak); conversely a link of rate R supports
ceil(R / busy) cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import _require, _require_bounds, _require_int

# Relative slack when deciding that R / R_busy is "exactly" an integer, so
# that float noise in an exact multiple cannot bump the ceiling up by one.
_INTEGER_SNAP_RTOL = 1e-9


@dataclass(frozen=True)
class TrafficProfile:
    """Per-small-cell traffic figures in bit/s."""

    busy_rate_bps: float
    peak_rate_bps: float

    def __post_init__(self) -> None:
        _require_bounds(self)
        if self.peak_rate_bps < self.busy_rate_bps:
            raise ValueError(
                f"peak_rate_bps ({self.peak_rate_bps}) must be >= "
                f"busy_rate_bps ({self.busy_rate_bps})"
            )


# 50 Mbit/s per cell in the busy hour, 300 Mbit/s peak.
DEFAULT_TRAFFIC = TrafficProfile(busy_rate_bps=50e6, peak_rate_bps=300e6)


def aggregated_demand(n_cells: int, profile: TrafficProfile) -> float:
    """Backhaul traffic in bit/s generated by n_cells small cells.

    max(N * busy, peak): busy-hour traffic scales with the cell count but
    the link must always cover a single cell's peak burst.
    """
    _require_int("n_cells", n_cells)
    return max(n_cells * profile.busy_rate_bps, profile.peak_rate_bps)


def supported_cells(
    link_rate_bps: float, profile: TrafficProfile, rounding: str = "ceil"
) -> int:
    """Number of small cells a link of the given rate can backhaul.

    Default is ceil(R / R_busy); the ceiling admits slight oversubscription
    of the last cell (see oversubscribes). rounding='floor' gives the
    guaranteed-provisioning count instead.
    """
    _require("link_rate_bps", link_rate_bps)
    if rounding not in ("ceil", "floor"):
        raise ValueError(f"rounding must be 'ceil' or 'floor', got {rounding!r}")
    quotient = link_rate_bps / profile.busy_rate_bps
    nearest = round(quotient)
    if abs(quotient - nearest) <= _INTEGER_SNAP_RTOL * max(1.0, abs(quotient)):
        return int(nearest)
    return math.ceil(quotient) if rounding == "ceil" else math.floor(quotient)


def oversubscribes(link_rate_bps: float, profile: TrafficProfile) -> bool:
    """True when the ceiling count promises more busy-hour traffic than R.

    Advisory flag: ceil(R / R_busy) * R_busy exceeds the link rate whenever
    R is not an exact multiple of R_busy.
    """
    cells = supported_cells(link_rate_bps, profile, rounding="ceil")
    return cells * profile.busy_rate_bps > link_rate_bps * (1.0 + _INTEGER_SNAP_RTOL)
