"""Weather presets, simulation defaults, and parameter sweeps.

The default parameter set is the reference configuration used throughout:
200 mW at 1550 nm, 1 mrad full divergence, 45 deg elevation, 4 cm receiver
aperture, 2 dB each of pointing and optical loss, 100 photons/bit
sensitivity, 21 m/s rms wind. Weather presets cover clear sky, dense fog,
heavy rain, and combinations with a default single-Cumulus cloud deck.

Sweeps evaluate the full link budget over an altitude or divergence grid,
one row per grid point; they are deterministic and rows are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .atmosphere import (
    CloudLayer,
    FogDescriptor,
    RainDescriptor,
    TurbulenceDescriptor,
    WeatherScenario,
)
from .geometry import LinkGeometry, _require, _require_bounds, _valid_entries
from .link_budget import _BUDGET_COLUMNS, DEFAULT_TARGET_RATE_BPS, TransceiverParams, _budget

# Altitude range the simulations sweep by default, in meters.
ALTITUDE_SWEEP_BOUNDS_M = (1000.0, 20000.0)
DEFAULT_ALTITUDE_POINTS = 40

DEFAULT_OPTICAL_LOSS_DB = 2.0

# Cumulus deck used by the cloud presets: 1 g/m^3 liquid water content,
# 250 droplets/cm^3 (mid-range of the typical 100-500), 48 m of cloud
# starting at 1 km. Entirely configurable; this default puts the combined
# cloud+fog scenario at ~34 dB of cloud loss on a 45 deg path.
DEFAULT_CLOUD_PROFILE: tuple[CloudLayer, ...] = (
    CloudLayer(
        base_altitude_m=1000.0,
        thickness_m=48.0,
        lwc_g_per_m3=1.0,
        droplet_density_per_cm3=250.0,
    ),
)

DEFAULT_FOG = FogDescriptor(visibility_m=50.0, layer_thickness_m=50.0)
DEFAULT_RAIN = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=1000.0)
DEFAULT_TURBULENCE = TurbulenceDescriptor(
    wind_speed_m_per_s=21.0, structure_constant_a=1.7e-14
)

# The weather components of each preset, by name; turbulence is part of every one.
_PRESETS = {
    "clear_sky": (),
    "fog_dense": ("fog",),
    "heavy_rain": ("rain",),
    "cloud_and_fog": ("fog", "clouds"),
    "rain_and_cloud": ("rain", "clouds"),
}
PRESET_NAMES = tuple(_PRESETS)


def default_parameters() -> tuple[TransceiverParams, LinkGeometry, TurbulenceDescriptor]:
    """The reference transceiver, geometry (at 20 km), and turbulence state."""
    tx = TransceiverParams(
        transmit_power_w=0.2,
        optical_loss_db=DEFAULT_OPTICAL_LOSS_DB,
        wavelength_nm=1550.0,
        pointing_loss_db=2.0,
        receiver_sensitivity_photons_per_bit=100.0,
    )
    geometry = LinkGeometry(
        nfp_altitude_m=ALTITUDE_SWEEP_BOUNDS_M[1],
        elevation_deg=45.0,
        divergence_rad=1e-3,
        receiver_radius_m=0.04,
    )
    return tx, geometry, DEFAULT_TURBULENCE


def preset(
    name: str,
    *,
    fog: Optional[FogDescriptor] = None,
    rain: Optional[RainDescriptor] = None,
    clouds: Optional[Sequence[CloudLayer]] = None,
    turbulence: Optional[TurbulenceDescriptor] = None,
) -> WeatherScenario:
    """Build a named weather scenario.

    The keyword arguments override the default fog/rain/cloud/turbulence
    components; a preset only picks up the components it includes
    (e.g. overriding rain does not add rain to clear_sky).
    """
    if name not in PRESET_NAMES:  # by ==: a list is a ValueError too
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    components = {
        "fog": fog if fog is not None else DEFAULT_FOG,
        "rain": rain if rain is not None else DEFAULT_RAIN,
        "clouds": tuple(clouds) if clouds is not None else DEFAULT_CLOUD_PROFILE,
    }
    return WeatherScenario(
        label=name,
        turbulence=turbulence if turbulence is not None else DEFAULT_TURBULENCE,
        **{component: components[component] for component in _PRESETS[name]},
    )


_SWEPT_FIELD = {"altitude": "nfp_altitude_m", "divergence": "divergence_rad"}


@dataclass(frozen=True)
class SweepSpec:
    """Grid over one variable: 'altitude' (m) or 'divergence' (rad).

    Endpoints are inclusive; scale is 'linear' or 'log' (log needs a
    positive start, useful for divergence grids spanning decades).
    """

    variable: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        _require_bounds(self)
        if self.variable not in tuple(_SWEPT_FIELD):  # by ==: a list is a ValueError too
            raise ValueError(f"variable must be 'altitude' or 'divergence', got {self.variable!r}")
        if not self.start < self.stop:
            raise ValueError(f"start must be < stop, got [{self.start}, {self.stop}]")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.start <= 0:
            raise ValueError("log scale needs a positive start")

    def grid(self) -> list[float]:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points).tolist()
        return np.linspace(self.start, self.stop, self.points).tolist()


DEFAULT_SWEEP = SweepSpec(
    variable="altitude",
    start=ALTITUDE_SWEEP_BOUNDS_M[0],
    stop=ALTITUDE_SWEEP_BOUNDS_M[1],
    points=DEFAULT_ALTITUDE_POINTS,
)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """One sweep, held as columns over the grid.

    values: the grid, one entry per row. columns: the link budget of every
    row, {name: float64 array over the grid} for each of the ten names of
    link_budget._BUDGET_COLUMNS (the seven LossBreakdown fields, then
    received_power_w, data_rate_bps and link_margin_db), NaN on failed rows.
    errors: the message of each failed row, None elsewhere. target_rate_bps:
    the rate the margins are taken against. Equality compares the arrays bit
    for bit, so a NaN equals itself and -0.0 differs from 0.0.
    """

    spec: SweepSpec
    scenario_label: str
    values: np.ndarray
    columns: dict[str, np.ndarray]
    errors: tuple[Optional[str], ...]
    target_rate_bps: float

    def _key(self) -> tuple:
        columns = {name: column.tobytes() for name, column in self.columns.items()}
        target = self.target_rate_bps
        return (self.spec, self.scenario_label, self.errors, target, self.values.tobytes(), columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return self._key() == other._key()


def run_sweep(
    spec: SweepSpec,
    scenario: WeatherScenario,
    tx: TransceiverParams,
    geometry: LinkGeometry,
    target_rate_bps: float = DEFAULT_TARGET_RATE_BPS,
) -> SweepResult:
    """Evaluate the link at every grid point, all other parameters fixed.

    The whole grid is evaluated in one numpy pass of evaluate_link's own
    formulas, each invalid point (not finite, not positive, or outside the
    model's domain) standing in at the geometry's own value. Such a point is
    recorded as a row-level error carrying LinkGeometry's own message, which
    names the rule or bound it breaks, instead of aborting the sweep; it is
    NaN in every column. Every other row agrees with evaluate_link at its
    point to within the rounding of numpy's vectorised exp/log/pow (tests
    hold it to 1e-12). Identical inputs produce identical results.
    """
    values = np.array(spec.grid())
    columns, errors = _sweep_columns(
        _SWEPT_FIELD[spec.variable], values, scenario, tx, geometry, target_rate_bps
    )
    return SweepResult(spec, scenario.label, values, columns, tuple(errors), target_rate_bps)


def _sweep_columns(
    field: str,
    values: np.ndarray,
    scenario: WeatherScenario,
    tx: TransceiverParams,
    geometry: LinkGeometry,
    target_rate_bps: float,
) -> tuple[dict[str, np.ndarray], list[Optional[str]]]:
    """run_sweep's body over any float64 values of the swept LinkGeometry field:
    {name: float64 array over values} for each of _budget's ten numbers, by
    its name in _BUDGET_COLUMNS (NaN on failed rows), and each row's error
    message, None where the row is valid. Rows are independent, so the CLI
    evaluates a grid block by block and writes the same bits as one pass."""
    valid = _valid_entries(field, values)  # LinkGeometry's rule for the swept field
    errors: list[Optional[str]] = [None] * len(values)
    for i in np.flatnonzero(~valid).tolist():
        try:
            _require(field, values[i].item())
        except ValueError as exc:
            errors[i] = str(exc)
    parked = np.where(valid, values, getattr(geometry, field))
    altitude = parked if field == "nfp_altitude_m" else geometry.nfp_altitude_m
    divergence = parked if field == "divergence_rad" else geometry.divergence_rad
    # A rate that underflows to 0 has log10 -inf: the margin sentinel, as in evaluate_link.
    with np.errstate(divide="ignore"):
        budget = _budget(tx, geometry, scenario, target_rate_bps, altitude, divergence, np)
    columns = {name: np.where(valid, number, np.nan) for name, number in zip(_BUDGET_COLUMNS, budget)}
    return columns, errors
