"""Tests of the end-to-end link budget: power, rate, and margin."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vfso import atmosphere, geometry, link_budget
from vfso.atmosphere import WeatherScenario, fog_attenuation, rain_attenuation
from vfso.link_budget import (
    TransceiverParams,
    achievable_rate,
    evaluate_grid,
    evaluate_link,
    link_margin,
    optical_loss,
    photon_energy,
    received_power,
)
from vfso.scenario import DEFAULT_FOG, DEFAULT_RAIN, PRESET_NAMES, default_parameters, preset

TX, GEOMETRY_20KM, TURB = default_parameters()
GEOMETRY_5KM = replace(GEOMETRY_20KM, nfp_altitude_m=5000.0)
CLEAR = preset("clear_sky")


class TestOpticalLoss:
    def test_two_db_product(self):
        assert optical_loss(0.631, 1.0) == pytest.approx(2.0, abs=1e-3)

    def test_ideal_optics(self):
        assert optical_loss(1.0, 1.0) == 0.0

    def test_half_efficiencies(self):
        assert optical_loss(0.5, 0.5) == pytest.approx(6.020599913279624, rel=1e-12)

    def test_least_efficiencies_lose_600_db(self):
        # The domain's least pair: their product is a normal double, 1e-60.
        assert optical_loss(1e-30, 1e-30) == pytest.approx(600.0, rel=1e-15, abs=0)


class TestPhotonEnergy:
    def test_1550_nm(self):
        # 6.626e-34 * 3e8 / 1.55e-6
        assert photon_energy(1550.0) == pytest.approx(1.2824516129032259e-19, rel=1e-12, abs=0)

    def test_inverse_proportionality(self):
        assert photon_energy(775.0) == pytest.approx(2.0 * photon_energy(1550.0), rel=1e-12, abs=0)

    def test_650_nm(self):
        assert photon_energy(650.0) == pytest.approx(3.058153846153846e-19, rel=1e-12, abs=0)


class TestReceivedPower:
    def test_clear_sky_reference(self):
        got = received_power(TX, GEOMETRY_20KM, 0.7223257588578063)
        assert got == pytest.approx(5.393707695525116e-07, rel=1e-9, abs=0)

    def test_huge_attenuation_underflows_to_zero(self):
        assert received_power(TX, GEOMETRY_20KM, 10000.0) == 0.0

    def test_lossless_link_delivers_transmit_power(self):
        tx = replace(TX, tx_efficiency=1.0, rx_efficiency=1.0, pointing_loss_db=0.0)
        narrow = replace(GEOMETRY_20KM, divergence_rad=1e-9)
        assert received_power(tx, narrow, 0.0) == tx.transmit_power_w

    @given(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.1, max_value=40.0))
    def test_adding_decibels_divides_power(self, base_db, extra_db):
        a = received_power(TX, GEOMETRY_20KM, base_db)
        b = received_power(TX, GEOMETRY_20KM, base_db + extra_db)
        assert b == pytest.approx(a * 10.0 ** (-extra_db / 10.0), rel=1e-9, abs=0)


class TestAchievableRate:
    def test_clear_sky_20km(self):
        assert achievable_rate(TX, GEOMETRY_20KM, CLEAR) == pytest.approx(
            42057787141.88515, rel=1e-9
        )

    def test_clear_sky_5km(self):
        assert achievable_rate(TX, GEOMETRY_5KM, CLEAR) == pytest.approx(
            660096023024.8745, rel=1e-9
        )

    def test_narrow_beam_cloud_and_fog(self):
        narrow = replace(GEOMETRY_20KM, divergence_rad=1e-6)
        got = achievable_rate(TX, narrow, preset("cloud_and_fog"))
        assert got == pytest.approx(24631083420.861706, rel=1e-9)
        assert got > 1e10  # tens of Gbit/s despite the weather, thanks to the capped beam

    @given(st.floats(min_value=2e-5, max_value=1e-3), st.floats(min_value=1.5, max_value=10.0))
    def test_inverse_square_in_divergence_when_uncapped(self, theta, k):
        no_turb = WeatherScenario(label="none")
        g1 = replace(GEOMETRY_20KM, divergence_rad=theta)
        g2 = replace(GEOMETRY_20KM, divergence_rad=k * theta)
        assert achievable_rate(TX, g2, no_turb) == pytest.approx(
            achievable_rate(TX, g1, no_turb) / k**2, rel=1e-9
        )

    @given(st.floats(min_value=2e-5, max_value=2e-4), st.floats(min_value=1.5, max_value=5.0))
    def test_divergence_scaling_holds_under_any_weather(self, theta, k):
        # scintillation is divergence-independent, so the ratio stays exact
        cloudy = preset("cloud_and_fog")
        g1 = replace(GEOMETRY_20KM, divergence_rad=theta)
        g2 = replace(GEOMETRY_20KM, divergence_rad=k * theta)
        assert achievable_rate(TX, g1, cloudy) == pytest.approx(
            achievable_rate(TX, g2, cloudy) * k**2, rel=1e-9
        )

    @given(st.floats(min_value=1.5, max_value=4.0))
    def test_inverse_square_in_altitude_without_turbulence(self, k):
        no_turb = WeatherScenario(label="none")
        g1 = replace(GEOMETRY_20KM, nfp_altitude_m=5000.0)
        g2 = replace(GEOMETRY_20KM, nfp_altitude_m=k * 5000.0)
        assert achievable_rate(TX, g2, no_turb) == pytest.approx(
            achievable_rate(TX, g1, no_turb) / k**2, rel=1e-9
        )

    def test_monotone_decreasing_over_altitude_sweep(self):
        altitudes = [1000.0 + i * (19000.0 / 39) for i in range(40)]
        rates = [
            achievable_rate(TX, replace(GEOMETRY_20KM, nfp_altitude_m=h), CLEAR)
            for h in altitudes
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestLinkMargin:
    def test_clear_sky_margins(self):
        rate20 = achievable_rate(TX, GEOMETRY_20KM, CLEAR)
        rate5 = achievable_rate(TX, GEOMETRY_5KM, CLEAR)
        assert link_margin(rate20, 3e9) == pytest.approx(11.467251639551694, rel=1e-9)
        assert link_margin(rate5, 3e9) == pytest.approx(23.424858614835898, rel=1e-9)

    def test_rate_equal_to_target(self):
        assert link_margin(3e9, 3e9) == 0.0

    def test_zero_rate_is_negative_infinity(self):
        assert link_margin(0.0, 3e9) == -math.inf

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_margin_identity(self, k):
        assert link_margin(k * 3e9, 3e9) == pytest.approx(10.0 * math.log10(k), abs=1e-9)

    def test_the_largest_rate_over_the_least_target_is_finite(self):
        # From 1 bit/s up, no rate a double holds overflows the quotient.
        assert link_margin(1.7e308, 1.0) == pytest.approx(3082.3, abs=0.1)


class TestEvaluateLink:
    def test_clear_sky_breakdown(self):
        result = evaluate_link(TX, GEOMETRY_20KM, CLEAR)
        b = result.loss_breakdown
        assert b.geometrical_db == pytest.approx(50.96910013008056, rel=1e-9)
        assert b.scintillation_db == pytest.approx(0.7223257588578063, rel=1e-9)
        assert b.pointing_db == 2.0
        assert b.optical_db == pytest.approx(2.0, rel=1e-9)
        assert b.fog_db == b.rain_db == b.cloud_db == 0.0
        assert result.data_rate_bps == pytest.approx(42057787141.88515, rel=1e-9)
        assert result.link_viable

    def test_lossless_ceiling(self):
        tx = replace(TX, tx_efficiency=1.0, rx_efficiency=1.0, pointing_loss_db=0.0)
        narrow = replace(GEOMETRY_20KM, divergence_rad=1e-9)
        result = evaluate_link(tx, narrow, WeatherScenario(label="none"))
        ceiling = tx.transmit_power_w / (
            photon_energy(tx.wavelength_nm) * tx.receiver_sensitivity_photons_per_bit
        )
        assert result.data_rate_bps == pytest.approx(ceiling, rel=1e-12)

    def test_dense_fog_divides_clear_sky_rate(self):
        foggy = evaluate_link(TX, GEOMETRY_20KM, preset("fog_dense"))
        clear = evaluate_link(TX, GEOMETRY_20KM, CLEAR)
        expected = clear.data_rate_bps * 10.0 ** (-19.195791967395415 / 10.0)
        assert foggy.data_rate_bps == pytest.approx(expected, rel=1e-9)

    def test_cloud_and_fog_fails_the_link(self):
        result = evaluate_link(TX, GEOMETRY_20KM, preset("cloud_and_fog"))
        assert not result.link_viable
        assert result.link_margin_db == pytest.approx(-41.825477526261935, rel=1e-9)

    @pytest.mark.parametrize(
        "name", ["clear_sky", "fog_dense", "heavy_rain", "cloud_and_fog", "rain_and_cloud"]
    )
    def test_breakdown_reconstructs_rate(self, name):
        result = evaluate_link(TX, GEOMETRY_20KM, preset(name))
        b = result.loss_breakdown
        total_db = (
            b.fog_db + b.rain_db + b.cloud_db + b.scintillation_db
            + b.geometrical_db + b.pointing_db
        )
        reconstructed = (
            TX.transmit_power_w
            * TX.tx_efficiency
            * TX.rx_efficiency
            * 10.0 ** (-total_db / 10.0)
            / (photon_energy(TX.wavelength_nm) * TX.receiver_sensitivity_photons_per_bit)
        )
        assert result.data_rate_bps == pytest.approx(reconstructed, rel=1e-9)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_total_db_is_the_whole_budget(self, name):
        # The transmit power, less total_db, over the energy of a bit is the rate.
        result = evaluate_link(TX, GEOMETRY_20KM, preset(name))
        per_bit_j = photon_energy(TX.wavelength_nm) * TX.receiver_sensitivity_photons_per_bit
        rate = TX.transmit_power_w * 10.0 ** (-result.loss_breakdown.total_db / 10.0) / per_bit_j
        assert result.data_rate_bps == pytest.approx(rate, rel=1e-12, abs=0)

    def test_the_checked_elevation_is_not_checked_again(self, monkeypatch):
        # LinkGeometry checks its elevation once; the budget hands each term the slant
        # factor, and only the public fog and rain terms check an elevation argument.
        checked = []
        require = geometry._require

        def counted(name, value):
            checked.append(name)
            return require(name, value)

        for module in (geometry, atmosphere, link_budget):
            monkeypatch.setattr(module, "_require", counted)
        cloud_and_fog = preset("cloud_and_fog")
        evaluate_link(TX, GEOMETRY_20KM, cloud_and_fog)
        evaluate_link(TX, GEOMETRY_20KM, replace(cloud_and_fog, rain=DEFAULT_RAIN))
        assert checked.count("elevation_rad") == 0
        fog_attenuation(DEFAULT_FOG, 0.5, 1550.0)
        rain_attenuation(DEFAULT_RAIN, 0.5)
        assert checked.count("elevation_rad") == 2

    def test_fastest_link_of_the_domain_has_a_finite_rate(self):
        # The most power per bit the domain allows, all of it captured and none lost.
        tx = TransceiverParams(1e6, 1.0, 1.0, 1e5, 0.0, 1e-3)
        narrow = replace(GEOMETRY_20KM, divergence_rad=1e-9)
        result = evaluate_link(tx, narrow, WeatherScenario(label="none"), 1.0)
        assert result.received_power_w == 1e6
        assert result.data_rate_bps == pytest.approx(5.03e29, rel=1e-3)
        assert result.link_margin_db == pytest.approx(297.0, abs=0.1)
        with pytest.raises(ValueError, match=r"^transmit_power_w must be in \(0, 1e\+06\]"):
            replace(tx, transmit_power_w=1.7e308)

    def test_result_fields_are_non_negative(self):
        result = evaluate_link(TX, GEOMETRY_20KM, preset("rain_and_cloud"))
        b = result.loss_breakdown
        assert result.received_power_w >= 0.0
        assert result.data_rate_bps >= 0.0
        assert min(
            b.fog_db, b.rain_db, b.cloud_db, b.scintillation_db,
            b.geometrical_db, b.pointing_db, b.optical_db,
        ) >= 0.0


class TestEvaluateGrid:
    def test_terms_along_an_altitude_grid_are_arrays_without_weather(self):
        altitudes = np.array([20000.0])
        grid = evaluate_grid(TX, GEOMETRY_20KM, WeatherScenario("x"), nfp_altitude_m=altitudes)
        assert grid.loss_breakdown.cloud_db.tolist() == [0.0]
        assert grid.loss_breakdown.scintillation_db.tolist() == [0.0]
