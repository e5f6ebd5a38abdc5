"""Tests of HetNet layout generation and per-technology costing."""

import math

import numpy as np
import pytest

from vfso.hetnet_cost import (
    NEAREST_BLOCK_ROWS,
    Area,
    CostParams,
    FiberCostParams,
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
    nlos_cell_indices,
)

AREA = Area(width_m=5000.0, height_m=5000.0)


def default_layout(seed=0):
    return generate_layout(100, 1000, AREA, seed)


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

    @pytest.mark.parametrize(
        "n_small",
        [7, NEAREST_BLOCK_ROWS, 3 * NEAREST_BLOCK_ROWS + 37],
        ids=["below_one_block", "one_block", "blocks_plus_remainder"],
    )
    def test_nearest_macro_distances_equal_dense_brute_force(self, n_small):
        layout = generate_layout(37, n_small, AREA, seed=n_small)
        diff = layout.small_positions[:, None, :] - layout.macro_positions[None, :, :]
        reference = np.sqrt((diff**2).sum(axis=-1)).min(axis=1)
        got = nearest_macro_distances(layout)
        assert np.array_equal(got, reference)
        assert got.sum() == reference.sum()

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            generate_layout(0, 10, AREA, 0)


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
        layout = type(layout)(
            area=AREA, macro_positions=macro, small_positions=small, rng_seed=0
        )
        result = cost_fiber(layout)
        assert result.capex == pytest.approx(63000.0, rel=1e-12)
        assert result.opex_per_year == 200.0

    def test_zero_distance_cell_is_free_to_trench(self):
        layout = generate_layout(1, 1, AREA, 0)
        pos = np.array([[500.0, 500.0]])
        layout = type(layout)(
            area=AREA, macro_positions=pos, small_positions=pos.copy(), rng_seed=0
        )
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

    def test_one_year_tco_in_reported_band(self):
        result = cost_terrestrial_fso(default_layout())
        assert 42e6 <= result.tco(1.0) <= 44e6

    def test_nlos_subset_is_seed_deterministic(self):
        layout = default_layout(3)
        a = nlos_cell_indices(layout)
        b = nlos_cell_indices(layout)
        assert np.array_equal(a, b)
        assert len(a) == 500
        assert len(np.unique(a)) == 500

    def test_nlos_subset_varies_with_seed(self):
        a = nlos_cell_indices(default_layout(1))
        b = nlos_cell_indices(default_layout(2))
        assert not np.array_equal(a, b)


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

    def test_fiber_capex_monotone_in_cell_count(self):
        small = generate_layout(100, 500, AREA, 0)
        big = generate_layout(100, 1500, AREA, 0)
        assert cost_fiber(big).capex > cost_fiber(small).capex


class TestCompareTco:
    def test_default_one_year_ordering(self):
        results = compare_tco(default_layout(), CostParams(), years=1.0)
        assert [r.technology for r in results] == [
            "rf_nlos_ptm",
            "terrestrial_fso",
            "fiber",
            "vertical_fso",
        ]

    def test_capex_only_ranking_has_fiber_highest(self):
        results = compare_tco(default_layout(), CostParams(), years=0.0)
        assert results[-1].technology == "fiber"

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

    def test_ordering_stable_across_seeds(self):
        expected = ["rf_nlos_ptm", "terrestrial_fso", "fiber", "vertical_fso"]
        for seed in range(25):
            results = compare_tco(default_layout(seed), CostParams(), years=1.0)
            assert [r.technology for r in results] == expected
