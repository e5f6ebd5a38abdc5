"""Deployment layout and total cost of ownership for four backhaul technologies.

A heterogeneous network snapshot is drawn as two independent uniform point
sets (macro and small cells) over a rectangular urban area — a binomial
point process, i.e. a Poisson process conditioned on the counts. The same
snapshot then feeds four costings:

* RF non-LOS point-to-multipoint: hubs at 1:4 hub:module ratio, licensed
  spectrum priced per MHz per capita, pole lease and power per site.
* Fiber: every small cell trenched to its nearest macro hub; cable and
  trenching dominate.
* Terrestrial FSO: one link per line-of-sight cell, multiple hops for the
  non-LOS half.
* Vertical FSO: a fleet of flying platforms priced by airframe plus
  per-flight-hour operations.

TCO over y years is CAPEX + y * OPEX. Every cost is carried as explicit
line items (label, unit cost, quantity) so totals are auditable: totals are
literally the sum of their items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import _Checked, _require, _require_int


@dataclass(frozen=True)
class Area(_Checked):
    width_m: float
    height_m: float


DEFAULT_AREA = Area(width_m=5000.0, height_m=5000.0)


@dataclass(frozen=True)
class HetNetLayout:
    """One deployment snapshot: macro and small cell coordinates in meters.

    Each position array is stored as float64 of shape (n, 2), n >= 1, and
    every coordinate is finite.
    """

    area: Area
    macro_positions: np.ndarray
    small_positions: np.ndarray

    def __post_init__(self) -> None:
        for name in ("macro_positions", "small_positions"):
            points = np.asarray(getattr(self, name), dtype=float)
            if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] != 2:
                raise ValueError(f"{name} must have shape (n, 2) with n >= 1, got {points.shape}")
            if not np.isfinite(points).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, points)


def generate_layout(
    n_macro: int, n_small: int, area: Area = DEFAULT_AREA, seed: int = 0
) -> HetNetLayout:
    """Draw macro and small cell positions uniformly over the area.

    Positions are independent and identically distributed; the same seed
    always reproduces the same coordinates.
    """
    _require_int("n_macro", n_macro)
    _require_int("n_small", n_small)
    rng = np.random.default_rng(seed)
    extent = np.array([area.width_m, area.height_m])
    macro = rng.uniform(0.0, 1.0, size=(n_macro, 2)) * extent
    small = rng.uniform(0.0, 1.0, size=(n_small, 2)) * extent
    return HetNetLayout(area=area, macro_positions=macro, small_positions=small)


# Small cells per tile of the nearest-hub search. Besides an index over the
# cells and a few n_macro-long vectors, the search holds two
# NEAREST_TILE_CELLS x (macros kept) arrays at a time.
NEAREST_TILE_CELLS = 128


def nearest_macro_distances(layout: HetNetLayout) -> np.ndarray:
    """Euclidean distance from each small cell to its nearest macro, in m.

    Exact, and equal bit for bit to a brute force over every (cell, macro)
    pair. The cells are cut into tiles of NEAREST_TILE_CELLS neighbours:
    strips of equal count in y, each sorted by x. A tile compares its cells
    only with the macros that can be nearest to one of them. The minimum is
    taken over squared distances and the square root once per cell: sqrt is
    monotone and correctly rounded, so the result equals the minimum of the
    per-pair distances.
    """
    small, macro = layout.small_positions, layout.macro_positions
    macro_x, macro_y = macro.T.copy()
    nearest = np.empty(len(small))
    strip = NEAREST_TILE_CELLS * max(1, math.isqrt(len(small) // NEAREST_TILE_CELLS))
    by_y = np.argsort(small[:, 1])
    for strip_start in range(0, len(small), strip):
        cells = by_y[strip_start : strip_start + strip]
        cells = cells[np.argsort(small[cells, 0])]
        strip_x, strip_y = small[cells].T
        for start in range(0, len(cells), NEAREST_TILE_CELLS):
            tile = slice(start, start + NEAREST_TILE_CELLS)
            x, y = strip_x[tile], strip_y[tile]
            keep = _tile_candidates(x, y, macro_x, macro_y)
            nearest[cells[tile]] = _tile_nearest_squared(x, y, macro_x[keep], macro_y[keep])
    return np.sqrt(nearest, out=nearest)


def _tile_candidates(x, y, macro_x, macro_y) -> np.ndarray:
    """The mask of the macros that may be nearest to a cell (x, y) of a tile.

    A macro is skipped only if its squared distance fl(fl(dx)^2 + fl(dy)^2)
    can never be the least for any cell, and this holds in floating point,
    not just in exact arithmetic: rounding to nearest is monotone, so a <= b
    gives fl(a) <= fl(b) at every step.
    - gap2(m), the squared gap from macro m to the tile's bounding box, is
      built from the box edges: fl(x0 - mx) <= fl(cx - mx) for every cell
      x0 <= cx, and likewise on each side and axis, so gap2(m) <= d2(c, m).
    - bound, the squared distance from one macro p to the box corner
      farthest from it, is built the same way, so d2(c, p) <= bound.
    So the macro m* nearest to any cell c has gap2(m*) <= d2(c, m*)
    <= d2(c, p) <= bound, and keeping every macro with gap2 <= bound keeps
    it. No slack is needed; overflow to inf keeps the order too. If every
    macro lies far from the tile, all are kept.
    """
    x0, x1, y0, y1 = x.min(), x.max(), y.min(), y.max()
    gap_x = np.maximum(x0 - macro_x, macro_x - x1)
    gap_y = np.maximum(y0 - macro_y, macro_y - y1)
    np.maximum(gap_x, 0.0, out=gap_x)
    np.maximum(gap_y, 0.0, out=gap_y)
    gap_x *= gap_x
    gap_y *= gap_y
    gap_x += gap_y
    # p: a macro nearest to the box, so the bound is small.
    p = gap_x.argmin()
    far_x = max(macro_x[p] - x0, x1 - macro_x[p])
    far_y = max(macro_y[p] - y0, y1 - macro_y[p])
    return gap_x <= far_x * far_x + far_y * far_y


def _tile_nearest_squared(x, y, macro_x, macro_y) -> np.ndarray:
    """Least squared distance from each cell (x, y) of a tile to one of the macros,
    over the pairs fl(fl(dx)^2 + fl(dy)^2), as by brute force."""
    dx = macro_x[:, None] - x
    dy = macro_y[:, None] - y
    dx *= dx
    dy *= dy
    dx += dy
    return dx.min(axis=0)


# --- Technology cost parameters (defaults are North-American list prices) ---


@dataclass(frozen=True)
class RfNlosCostParams(_Checked):
    hub_unit_cost: float = 4000.0
    hub_install_cost: float = 270.0
    module_unit_cost: float = 2000.0
    module_install_cost: float = 140.0
    modules_per_hub: int = 4
    spectrum_mhz: float = 40.0
    spectrum_cost_per_mhz_per_capita: float = 0.007
    population: int = 250_000
    pole_lease_per_site_year: float = 1250.0
    power_maintenance_per_site_year: float = 375.0


@dataclass(frozen=True)
class FiberCostParams(_Checked):
    cable_cost_per_m: float = 10.0
    install_cost_per_m: float = 200.0
    power_maintenance_per_link_year: float = 200.0
    # Street-routing multiplier on the Euclidean cell-to-hub distance.
    routing_factor: float = 1.0


@dataclass(frozen=True)
class TerrestrialFsoCostParams(_Checked):
    equipment_cost_per_link: float = 15000.0
    planning_install_per_link: float = 5000.0
    power_maintenance_per_link_year: float = 8000.0
    nlos_fraction: float = 0.5
    nlos_hop_count: int = 2


@dataclass(frozen=True)
class VerticalFsoCostParams(_Checked):
    n_platforms: int = 20
    platform_cost: float = 50000.0
    cost_per_flight_hour: float = 859.0
    # ~79% duty cycle; set to 8760 for uninterrupted 24/7 operation.
    flight_hours_per_year: float = 6925.0


@dataclass(frozen=True)
class CostParams(_Checked):
    rf_nlos: RfNlosCostParams = field(default_factory=RfNlosCostParams)
    fiber: FiberCostParams = field(default_factory=FiberCostParams)
    terrestrial_fso: TerrestrialFsoCostParams = field(default_factory=TerrestrialFsoCostParams)
    vertical_fso: VerticalFsoCostParams = field(default_factory=VerticalFsoCostParams)


@dataclass(frozen=True)
class CostLineItem:
    label: str
    kind: str  # 'capex' or 'opex'
    unit_cost: float
    quantity: float

    @property
    def total(self) -> float:
        return self.unit_cost * self.quantity


@dataclass(frozen=True)
class TcoResult:
    """Itemised cost of one technology; totals are exact sums of the items."""

    technology: str
    line_items: tuple[CostLineItem, ...]
    capex: float
    opex_per_year: float

    def tco(self, years: float) -> float:
        return self.capex + _require("years", years) * self.opex_per_year


def _result(technology: str, items: Sequence[CostLineItem]) -> TcoResult:
    """The technology's TcoResult; a ValueError if its capex overflows (a hand-built layout)."""
    capex = _require(f"{technology} capex", sum(i.total for i in items if i.kind == "capex"))
    opex = sum(i.total for i in items if i.kind == "opex")
    return TcoResult(
        technology=technology, line_items=tuple(items), capex=capex, opex_per_year=opex
    )


def cost_rf_nlos(layout: HetNetLayout, params: RfNlosCostParams = RfNlosCostParams()) -> TcoResult:
    """RF non-LOS point-to-multipoint costing.

    One hub serves modules_per_hub small cells; every deployed device
    (hub or remote module) occupies a leased, powered pole site.
    """
    n_small = len(layout.small_positions)
    n_hubs = -(-n_small // params.modules_per_hub)  # ceil division
    n_sites = n_hubs + n_small
    items = [
        CostLineItem("hub equipment", "capex", params.hub_unit_cost, n_hubs),
        CostLineItem("hub installation", "capex", params.hub_install_cost, n_hubs),
        CostLineItem("remote module equipment", "capex", params.module_unit_cost, n_small),
        CostLineItem("remote module installation", "capex", params.module_install_cost, n_small),
        CostLineItem(
            "spectrum license",
            "capex",
            params.spectrum_cost_per_mhz_per_capita,
            params.spectrum_mhz * params.population,
        ),
        CostLineItem("pole lease", "opex", params.pole_lease_per_site_year, n_sites),
        CostLineItem(
            "power and maintenance", "opex", params.power_maintenance_per_site_year, n_sites
        ),
    ]
    return _result("rf_nlos_ptm", items)


def cost_fiber(layout: HetNetLayout, params: FiberCostParams = FiberCostParams()) -> TcoResult:
    """Fiber costing: trench every small cell to its nearest macro hub."""
    n_links = len(layout.small_positions)
    trench_m = float(nearest_macro_distances(layout).sum()) * params.routing_factor
    items = [
        CostLineItem("fiber cable", "capex", params.cable_cost_per_m, trench_m),
        CostLineItem("trenching and installation", "capex", params.install_cost_per_m, trench_m),
        CostLineItem(
            "power and maintenance", "opex", params.power_maintenance_per_link_year, n_links
        ),
    ]
    return _result("fiber", items)


def cost_terrestrial_fso(
    layout: HetNetLayout, params: TerrestrialFsoCostParams = TerrestrialFsoCostParams()
) -> TcoResult:
    """Terrestrial FSO costing.

    Cells with line of sight to their hub need one link; the
    round(nlos_fraction * n_small) cells without it need nlos_hop_count
    chained links each. Which cells lack it does not change the cost.
    """
    n_small = len(layout.small_positions)
    n_nlos = round(params.nlos_fraction * n_small)
    n_links = (n_small - n_nlos) + n_nlos * params.nlos_hop_count
    items = [
        CostLineItem("FSO equipment", "capex", params.equipment_cost_per_link, n_links),
        CostLineItem(
            "planning and installation", "capex", params.planning_install_per_link, n_links
        ),
        CostLineItem(
            "power and maintenance", "opex", params.power_maintenance_per_link_year, n_links
        ),
    ]
    return _result("terrestrial_fso", items)


def cost_vertical_fso(
    layout: HetNetLayout, params: VerticalFsoCostParams = VerticalFsoCostParams()
) -> TcoResult:
    """Vertical FSO costing: platform fleet CAPEX plus flight-hour OPEX."""
    items = [
        CostLineItem("flying platform", "capex", params.platform_cost, params.n_platforms),
        CostLineItem(
            "flight operations",
            "opex",
            params.cost_per_flight_hour,
            params.n_platforms * params.flight_hours_per_year,
        ),
    ]
    return _result("vertical_fso", items)


def compare_tco(
    layout: HetNetLayout, params: CostParams = CostParams(), years: float = 1.0
) -> list[TcoResult]:
    """Cost all four technologies on one layout, cheapest first at `years`."""
    results = [
        cost_rf_nlos(layout, params.rf_nlos),
        cost_fiber(layout, params.fiber),
        cost_terrestrial_fso(layout, params.terrestrial_fso),
        cost_vertical_fso(layout, params.vertical_fso),
    ]
    return sorted(results, key=lambda r: r.tco(years))
