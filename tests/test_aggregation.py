"""Tests of small-cell aggregation sizing."""

import math

import pytest
from hypothesis import given, strategies as st

from vfso.aggregation import TrafficProfile, aggregated_demand, oversubscribes, supported_cells

PROFILE = TrafficProfile(busy_rate_bps=50e6, peak_rate_bps=300e6)


class TestAggregatedDemand:
    def test_peak_dominates_single_cell(self):
        assert aggregated_demand(1, PROFILE) == 300e6

    def test_busy_traffic_dominates_many_cells(self):
        assert aggregated_demand(10, PROFILE) == 500e6

    def test_tie_between_branches(self):
        assert aggregated_demand(6, PROFILE) == 300e6

    @given(st.integers(min_value=1, max_value=1000))
    def test_non_decreasing_in_cell_count(self, n):
        assert aggregated_demand(n + 1, PROFILE) >= aggregated_demand(n, PROFILE)

    def test_equals_peak_below_crossover(self):
        crossover = int(PROFILE.peak_rate_bps / PROFILE.busy_rate_bps)
        for n in range(1, crossover + 1):
            assert aggregated_demand(n, PROFILE) == PROFILE.peak_rate_bps


class TestSupportedCells:
    def test_dead_link_supports_nothing(self):
        assert supported_cells(0.0, PROFILE) == 0

    def test_ceiling_semantics(self):
        assert supported_cells(101e6, PROFILE) == 3

    def test_floor_option(self):
        assert supported_cells(101e6, PROFILE, rounding="floor") == 2
        assert supported_cells(42e9, PROFILE, rounding="floor") == 840

    def test_rejects_unknown_rounding(self):
        with pytest.raises(ValueError):
            supported_cells(1e9, PROFILE, rounding="round")

    @given(st.integers(min_value=0, max_value=10000), st.floats(min_value=1e3, max_value=1e9))
    def test_exact_multiples_count_exactly(self, k, busy):
        profile = TrafficProfile(busy_rate_bps=busy, peak_rate_bps=busy)
        assert supported_cells(k * busy, profile) == k

    @given(st.floats(min_value=0.0, max_value=1e12), st.floats(min_value=1.0, max_value=2.0))
    def test_non_decreasing_in_rate(self, rate, factor):
        assert supported_cells(factor * rate, PROFILE) >= supported_cells(rate, PROFILE)


class TestOversubscription:
    def test_exact_multiple_is_not_oversubscribed(self):
        assert not oversubscribes(42e9, PROFILE)

    @pytest.mark.parametrize("cells", [1, 3, 840])
    def test_a_rate_a_rounding_below_a_multiple_is_not_flagged(self, cells):
        # supported_cells snaps its quotient to the integer; the flag agrees with it.
        rate = math.nextafter(cells * PROFILE.busy_rate_bps, 0.0)
        assert supported_cells(rate, PROFILE) == cells
        assert not oversubscribes(rate, PROFILE)

    def test_fractional_quotient_is_flagged(self):
        assert oversubscribes(101e6, PROFILE)
        # ceiling promises 3 * 50e6 = 150e6 > 101e6
        assert supported_cells(101e6, PROFILE) * PROFILE.busy_rate_bps > 101e6


class TestTrafficProfileValidation:
    def test_rejects_peak_below_busy(self):
        with pytest.raises(ValueError):
            TrafficProfile(busy_rate_bps=2e6, peak_rate_bps=1e6)
