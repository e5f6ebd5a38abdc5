"""Tests of HetNet layout generation and per-technology costing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vfso import hetnet_cost
from vfso.hetnet_cost import (
    NEAREST_TILE_CELLS,
    Area,
    CostParams,
    FiberCostParams,
    HetNetLayout,
    RfNlosCostParams,
    TerrestrialFsoCostParams,
    VerticalFsoCostParams,
    compare_tco,
    cost_fiber,
    cost_rf_nlos,
    cost_terrestrial_fso,
    cost_vertical_fso,
    generate_layout,
    nearest_macro_distances,
)

AREA = Area(width_m=5000.0, height_m=5000.0)


def default_layout(seed=0):
    return generate_layout(100, 1000, AREA, seed)


def layout_of(macro, small):
    return HetNetLayout(AREA, macro, small)


def dense_nearest(layout):
    """The oracle: brute force over every (cell, macro) pair at once."""
    diff = layout.small_positions[:, None, :] - layout.macro_positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).min(axis=1)


def assert_equals_brute_force(layout):
    got = nearest_macro_distances(layout)
    reference = dense_nearest(layout)
    assert np.array_equal(got, reference)
    assert got.sum() == reference.sum()


def grid_points(n_side, step, offset=0.0):
    axis = offset + step * np.arange(n_side)
    return np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)


class TestNearestMacroDistances:
    """The tiled search against the dense brute force, bit for bit."""

    @pytest.mark.parametrize(
        "n_small",
        [7, NEAREST_TILE_CELLS, NEAREST_TILE_CELLS + 1, 3 * NEAREST_TILE_CELLS + 37, 5000],
        ids=["below_one_tile", "one_tile", "one_tile_plus_one", "tiles_plus_remainder", "strips"],
    )
    def test_uniform_layouts(self, n_small):
        assert_equals_brute_force(generate_layout(37, n_small, AREA, seed=n_small))

    @pytest.mark.parametrize(
        "n_macro, n_small, pairs", [(1000, 30_000, 1_057_152), (1, 10_000, 10_000)]
    )
    def test_tiles_are_given_only_the_macros_that_may_be_nearest(self, monkeypatch, n_macro, n_small, pairs):
        # A search that kept every macro would still equal the brute force, at n_macro *
        # n_small pairs; the committed counts are the pairs this filter leaves.
        counts = []
        tile_nearest = hetnet_cost._tile_nearest_squared

        def counted(x, y, macro_x, macro_y):
            counts.append(len(x) * len(macro_x))
            return tile_nearest(x, y, macro_x, macro_y)

        monkeypatch.setattr(hetnet_cost, "_tile_nearest_squared", counted)
        nearest_macro_distances(generate_layout(n_macro, n_small, seed=0))
        assert sum(counts) == pairs

    @pytest.mark.parametrize("n_small", [1, 7, NEAREST_TILE_CELLS + 1, 2000])
    def test_single_macro(self, n_small):
        assert_equals_brute_force(generate_layout(1, n_small, AREA, seed=3))

    def test_every_macro_at_one_point(self):
        small = generate_layout(1, 2000, AREA, seed=4).small_positions
        assert_equals_brute_force(layout_of(np.full((50, 2), 1234.5), small))

    @pytest.mark.parametrize("side_m", [1.0, 1e6])
    def test_tiny_and_huge_areas(self, side_m):
        area = Area(width_m=side_m, height_m=side_m)
        assert_equals_brute_force(generate_layout(300, 3000, area, seed=5))

    def test_cells_on_tile_edges(self):
        # A regular lattice: many cells share a coordinate, so tile boxes
        # meet and cells lie on their edges; macros sit on the same lines.
        small = grid_points(60, 10.0)
        macro = grid_points(7, 100.0, offset=-5.0)
        assert_equals_brute_force(layout_of(np.concatenate((macro, small[::97])), small))

    def test_duplicate_cells_and_macros(self):
        layout = generate_layout(20, 300, AREA, seed=6)
        small = np.repeat(layout.small_positions, 3, axis=0)
        macro = np.concatenate((layout.macro_positions, layout.macro_positions, small[:5]))
        assert_equals_brute_force(layout_of(macro, small))

    def test_macros_clustered_far_from_every_cell(self):
        # Every macro is about equally far from every tile, so the bound
        # keeps them all: the search degenerates to a full scan.
        rng = np.random.default_rng(7)
        small = rng.uniform(0.0, 100.0, size=(1500, 2))
        macro = 1e6 + rng.uniform(0.0, 1.0, size=(40, 2))
        assert_equals_brute_force(layout_of(macro, small))

    def test_overflowing_distances(self):
        # Squares beyond the float range are inf in both searches alike.
        rng = np.random.default_rng(8)
        small = rng.uniform(-1.0, 1.0, size=(700, 2)) * 1.5e308
        macro = rng.uniform(-1.0, 1.0, size=(30, 2)) * 1.5e308
        with np.errstate(over="ignore"):
            assert_equals_brute_force(layout_of(macro, small))

    @settings(max_examples=200, deadline=None)
    @given(
        n_macro=st.integers(1, 40),
        n_small=st.integers(1, 700),
        scale_exponent=st.integers(-200, 150),
        tie_share=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_layouts(self, n_macro, n_small, scale_exponent, tie_share, seed):
        # Coordinates mix small integers (ties, duplicates, shared edges) and
        # arbitrary floats, at scales from subnormal squares to 1e300.
        rng = np.random.default_rng(seed)

        def points(n):
            tied = rng.integers(-8, 9, size=(n, 2)).astype(float)
            free = rng.uniform(-1e3, 1e3, size=(n, 2))
            return np.where(rng.random((n, 2)) < tie_share, tied, free) * 10.0**scale_exponent

        assert_equals_brute_force(layout_of(points(n_macro), points(n_small)))


class TestGenerateLayout:
    def test_counts_and_bounds(self):
        layout = default_layout()
        assert layout.macro_positions.shape == (100, 2)
        assert layout.small_positions.shape == (1000, 2)
        for points in (layout.macro_positions, layout.small_positions):
            assert (points >= 0.0).all()
            assert (points[:, 0] <= AREA.width_m).all()
            assert (points[:, 1] <= AREA.height_m).all()

    def test_seed_determinism(self):
        a, b = default_layout(7), default_layout(7)
        assert np.array_equal(a.macro_positions, b.macro_positions)
        assert np.array_equal(a.small_positions, b.small_positions)

    def test_different_seeds_differ(self):
        a, b = default_layout(1), default_layout(2)
        assert not np.array_equal(a.macro_positions, b.macro_positions)

    def test_nearest_macro_distance_matches_poisson_oracle(self):
        # For intensity lambda the mean distance from a uniform point to the
        # nearest macro is 1/(2*sqrt(lambda)) = 250 m here (edge effects push
        # the empirical mean slightly above).
        means = [nearest_macro_distances(default_layout(seed)).mean() for seed in range(100)]
        grand_mean = float(np.mean(means))
        assert grand_mean == pytest.approx(250.0, rel=0.10)


class TestRfNlosCost:
    def test_equipment_decomposition(self):
        result = cost_rf_nlos(default_layout())
        items = {item.label: item for item in result.line_items}
        assert items["hub equipment"].quantity == 250
        assert items["remote module equipment"].quantity == 1000
        equipment = (
            items["hub equipment"].total
            + items["hub installation"].total
            + items["remote module equipment"].total
            + items["remote module installation"].total
        )
        assert equipment == 250 * 4270 + 1000 * 2140 == 3_207_500

    @pytest.mark.parametrize("n_small, hubs", [(1, 1), (4, 1), (5, 2), (8, 2), (9, 3)])
    def test_a_hub_serves_up_to_four_cells(self, n_small, hubs):
        items = {item.label: item for item in cost_rf_nlos(generate_layout(1, n_small, AREA, 0)).line_items}
        assert items["hub equipment"].quantity == hubs
        assert items["pole lease"].quantity == hubs + n_small

    def test_zero_population_means_free_spectrum(self):
        params = RfNlosCostParams(population=0)
        result = cost_rf_nlos(default_layout(), params)
        spectrum = [i for i in result.line_items if i.label == "spectrum license"][0]
        assert spectrum.total == 0.0

    def test_opex_counts_every_site(self):
        result = cost_rf_nlos(default_layout())
        assert result.opex_per_year == 1250 * (1250 + 375)


class TestFiberCost:
    def test_single_cell_300m(self):
        layout = generate_layout(1, 1, AREA, 0)
        macro = np.array([[1000.0, 1000.0]])
        small = np.array([[1300.0, 1000.0]])
        layout = type(layout)(area=AREA, macro_positions=macro, small_positions=small)
        result = cost_fiber(layout)
        assert result.capex == pytest.approx(63000.0, rel=1e-12)
        assert result.opex_per_year == 200.0

    def test_zero_distance_cell_is_free_to_trench(self):
        layout = generate_layout(1, 1, AREA, 0)
        pos = np.array([[500.0, 500.0]])
        layout = type(layout)(area=AREA, macro_positions=pos, small_positions=pos.copy())
        result = cost_fiber(layout)
        assert result.capex == 0.0

    def test_routing_factor_scales_capex(self):
        layout = default_layout()
        direct = cost_fiber(layout, FiberCostParams(routing_factor=1.0))
        routed = cost_fiber(layout, FiberCostParams(routing_factor=1.4))
        assert routed.capex == pytest.approx(1.4 * direct.capex, rel=1e-12)
        assert routed.opex_per_year == direct.opex_per_year

    def test_highest_capex_of_the_four(self):
        layout = default_layout()
        fiber = cost_fiber(layout)
        others = [
            cost_rf_nlos(layout),
            cost_terrestrial_fso(layout),
            cost_vertical_fso(layout),
        ]
        assert all(fiber.capex > other.capex for other in others)


class TestTerrestrialFsoCost:
    def test_default_half_nlos_two_hops(self):
        result = cost_terrestrial_fso(default_layout())
        # 500 LOS + 500 * 2 hops = 1500 links
        assert result.capex == 1500 * 20000 == 30_000_000
        assert result.opex_per_year == 1500 * 8000 == 12_000_000
        assert result.tco(1.0) == 42_000_000

    def test_full_los_is_one_link_per_cell(self):
        params = TerrestrialFsoCostParams(nlos_fraction=0.0)
        result = cost_terrestrial_fso(default_layout(), params)
        assert result.capex == 1000 * 20000 == 20_000_000


class TestVerticalFsoCost:
    def test_fleet_capex(self):
        result = cost_vertical_fso(default_layout())
        assert result.capex == 20 * 50000 == 1_000_000

    def test_grounded_fleet_has_no_opex(self):
        params = VerticalFsoCostParams(flight_hours_per_year=0.0)
        result = cost_vertical_fso(default_layout(), params)
        assert result.opex_per_year == 0.0

    def test_default_duty_cycle_lands_near_120m(self):
        result = cost_vertical_fso(default_layout())
        assert result.tco(1.0) == pytest.approx(119_971_500.0, rel=1e-12)

    def test_around_the_clock_option(self):
        params = VerticalFsoCostParams(flight_hours_per_year=8760.0)
        result = cost_vertical_fso(default_layout(), params)
        assert result.tco(1.0) == pytest.approx(20 * 859 * 8760.0 + 1_000_000, rel=1e-12)


class TestTcoInvariants:
    @pytest.mark.parametrize(
        "costing", [cost_rf_nlos, cost_fiber, cost_terrestrial_fso, cost_vertical_fso]
    )
    def test_line_items_sum_to_totals(self, costing):
        result = costing(default_layout())
        capex = sum(i.total for i in result.line_items if i.kind == "capex")
        opex = sum(i.total for i in result.line_items if i.kind == "opex")
        assert result.capex == capex
        assert result.opex_per_year == opex

    @pytest.mark.parametrize("years", [0.0, 1.0, 2.5, 10.0])
    def test_tco_is_affine_in_years(self, years):
        result = cost_vertical_fso(default_layout())
        assert result.tco(years) == result.capex + years * result.opex_per_year

    @pytest.mark.parametrize(
        "params, got", [(FiberCostParams(), "inf"), (FiberCostParams(0.0, 0.0), "nan")], ids=["inf", "nan"]
    )
    def test_an_infinite_trench_of_a_hand_built_layout_names_fiber(self, params, got):
        # The only sum the domain does not bound: squared distances beyond the float range.
        layout = layout_of(np.array([[-1.5e308, 0.0]]), np.array([[1.5e308, 0.0]]))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=f"^fiber capex must be finite, got {got}$"):
                cost_fiber(layout, params)

    def test_fiber_capex_monotone_in_cell_count(self):
        small = generate_layout(100, 500, AREA, 0)
        big = generate_layout(100, 1500, AREA, 0)
        assert cost_fiber(big).capex > cost_fiber(small).capex


class TestCompareTco:
    def test_zero_costs_zero_tco(self):
        params = CostParams(
            rf_nlos=RfNlosCostParams(
                hub_unit_cost=0, hub_install_cost=0, module_unit_cost=0,
                module_install_cost=0, spectrum_cost_per_mhz_per_capita=0,
                pole_lease_per_site_year=0, power_maintenance_per_site_year=0,
            ),
            fiber=FiberCostParams(
                cable_cost_per_m=0, install_cost_per_m=0, power_maintenance_per_link_year=0
            ),
            terrestrial_fso=TerrestrialFsoCostParams(
                equipment_cost_per_link=0, planning_install_per_link=0,
                power_maintenance_per_link_year=0,
            ),
            vertical_fso=VerticalFsoCostParams(platform_cost=0, cost_per_flight_hour=0),
        )
        results = compare_tco(default_layout(), params, years=1.0)
        assert all(r.tco(1.0) == 0.0 for r in results)


class TestValidation:
    GOOD_POSITIONS = {"macro_positions": np.zeros((1, 2)), "small_positions": np.ones((2, 2))}

    @pytest.mark.parametrize("name", GOOD_POSITIONS)
    @pytest.mark.parametrize(
        "positions",
        [np.empty((0, 2)), np.zeros((3, 3)), np.zeros(4), np.zeros((2, 1, 2)), [[0.0, math.nan]],
         [[math.inf, 0.0]], [[0.0, -math.inf]]],
        ids=["empty", "three_columns", "flat", "three_dims", "nan", "inf", "minus_inf"],
    )
    def test_layout_rejects_bad_positions(self, name, positions):
        given = {**self.GOOD_POSITIONS, name: positions}
        with pytest.raises(ValueError, match=name):
            HetNetLayout(AREA, **given)

    @pytest.mark.filterwarnings("error")
    def test_largest_areas_give_finite_distances(self):
        layout = generate_layout(30, 700, Area(width_m=1e6, height_m=1e6), seed=4)
        distances = nearest_macro_distances(layout)
        assert np.isfinite(distances).all() and distances.max() > 1e4
        assert math.isfinite(cost_fiber(layout, FiberCostParams()).capex)

    def test_layout_stores_float_arrays(self):
        layout = HetNetLayout(AREA, [[1, 2]], [[3, 4], [5, 6]])
        assert layout.macro_positions.dtype == np.float64
        assert layout.small_positions.shape == (2, 2)
        assert nearest_macro_distances(layout).tolist() == [math.sqrt(8.0), math.sqrt(32.0)]

    def test_nan_fiber_price_is_rejected_before_any_ranking(self):
        with pytest.raises(ValueError, match="cable_cost_per_m must be finite"):
            CostParams(fiber=FiberCostParams(cable_cost_per_m=math.nan, install_cost_per_m=-5.0))

    @pytest.mark.parametrize(
        "n_small, fraction, links",
        # round(0.5 * 5) is 2 under Python's round-half-even: 3 + 2 * 2 links.
        [(1000, 0.0, 1000), (1000, 1.0, 2000), (5, 0.5, 7)],
        ids=["0.0", "1.0", "half_of_5_rounds_to_even"],
    )
    def test_nlos_fraction_bounds_are_accepted(self, n_small, fraction, links):
        params = TerrestrialFsoCostParams(nlos_fraction=fraction)
        result = cost_terrestrial_fso(generate_layout(100, n_small, AREA, 0), params)
        assert [item.quantity for item in result.line_items] == [links] * 3
