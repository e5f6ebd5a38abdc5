"""Tests of the atmospheric loss mechanisms.

Frozen expected values were computed by direct evaluation of the published
formulas (independent of the module under test); see the inline oracle
expressions in the property tests.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vfso.atmosphere import (
    CloudLayer,
    FogDescriptor,
    RainDescriptor,
    TurbulenceDescriptor,
    WeatherScenario,
    cloud_visibility,
    fog_attenuation,
    kruse_size_exponent,
    mie_specific_attenuation,
    rain_attenuation,
    refractive_index_structure,
    scintillation_loss,
)
from vfso.geometry import LinkGeometry
from vfso.link_budget import evaluate_link
from vfso.scenario import default_parameters, run_sweep

from golden import FixedGrid

SIN45 = math.sin(math.radians(45.0))
TURB = TurbulenceDescriptor(wind_speed_m_per_s=21.0, structure_constant_a=1.7e-14)


def beyond(name, interval, value):
    """The match pattern of the ValueError for value outside the domain's range of name."""
    return f"^{re.escape(f'{name} must be in {interval}, got {value}')}$"


def inside_or_anywhere(low, high, least=0.0):
    """A float of the domain's [low, high], or one anywhere in [least, 1.7e308]."""
    return st.one_of(st.floats(low, high), st.floats(least, 1.7e308))


class TestKruseSizeExponent:
    def test_middle_branch(self):
        assert kruse_size_exponent(10.0) == 1.3

    def test_high_visibility_branch(self):
        assert kruse_size_exponent(60.0) == 1.6

    def test_low_visibility_branch(self):
        # 0.585 * 0.05^(1/3)
        assert kruse_size_exponent(0.05) == pytest.approx(0.21551584267046264, rel=1e-12, abs=0)

    def test_boundaries_belong_to_middle_branch(self):
        assert kruse_size_exponent(6.0) == 1.3
        assert kruse_size_exponent(50.0) == 1.3
        assert kruse_size_exponent(50.0000001) == 1.6

    def test_discontinuity_at_six_km_is_inherited_from_model(self):
        below = kruse_size_exponent(5.999999)
        assert below == pytest.approx(0.585 * 6 ** (1 / 3), rel=1e-5)
        assert below != pytest.approx(1.3, rel=1e-3)


class TestMieSpecificAttenuation:
    def test_dense_fog_at_1550(self):
        assert mie_specific_attenuation(0.05, 1550.0) == pytest.approx(
            271.46949340783107, rel=1e-12
        )

    @given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.01, max_value=100.0))
    @example(v1=100.0, v2=99.99999999999999)  # one ulp apart, equal attenuation
    def test_strictly_decreasing_in_visibility(self, v1, v2):
        lo, hi = sorted((v1, v2))
        assert mie_specific_attenuation(lo, 1550.0) >= mie_specific_attenuation(hi, 1550.0)
        # Visibilities an ulp or so apart can round to the same attenuation;
        # the strict decrease is only resolvable beyond that.
        if hi >= lo * (1 + 1e-9):
            assert mie_specific_attenuation(lo, 1550.0) > mie_specific_attenuation(hi, 1550.0)

    @given(
        st.floats(min_value=0.01, max_value=5.99),
        st.floats(min_value=600.0, max_value=2000.0),
        st.floats(min_value=600.0, max_value=2000.0),
    )
    @example(v=0.01, lam1=600.0, lam2=600.0000000000001)  # one ulp apart, equal attenuation
    def test_strictly_decreasing_in_wavelength_below_6km(self, v, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        assert mie_specific_attenuation(v, lo) >= mie_specific_attenuation(v, hi)
        # Wavelengths an ulp or so apart can round to the same attenuation;
        # the strict decrease is only resolvable beyond that.
        if hi >= lo * (1 + 1e-9):
            assert mie_specific_attenuation(v, lo) > mie_specific_attenuation(v, hi)

    @given(inside_or_anywhere(1e-6, 1e12, math.ulp(0.0)), inside_or_anywhere(100.0, 1e5, 1e-310))
    @example(v=10.0, lam=1e-300)  # the power would overflow: inf
    @example(v=1e300, lam=1e-300)  # the power would overflow, the product would not
    @example(v=1e-320, lam=1550.0)  # 3.91 / V would overflow
    def test_direct_formula_over_the_domain_and_the_bound_beyond_it(self, v, lam):
        if not 1e-6 <= v <= 1e12:
            with pytest.raises(ValueError, match=beyond("visibility_km", "[1e-06, 1e+12]", v)):
                mie_specific_attenuation(v, lam)
        elif not 100.0 <= lam <= 1e5:
            with pytest.raises(ValueError, match=beyond("wavelength_nm", "[100, 100000]", lam)):
                mie_specific_attenuation(v, lam)
        else:
            direct = 4.34 * (3.91 / v) * (lam / 550.0) ** (-kruse_size_exponent(v))
            assert mie_specific_attenuation(v, lam) == direct


class TestFogAttenuation:
    def test_dense_fog_slant(self):
        fog = FogDescriptor(visibility_m=50.0, layer_thickness_m=50.0)
        # 271.4695 dB/km * (0.05 km / sin 45)
        assert fog_attenuation(fog, 45.0, 1550.0) == pytest.approx(
            19.195791967395415, rel=1e-12
        )

    def test_zero_thickness_is_lossless(self):
        fog = FogDescriptor(visibility_m=50.0, layer_thickness_m=0.0)
        assert fog_attenuation(fog, 45.0, 1550.0) == 0.0

    def test_longest_slant_of_the_domain_is_finite(self):
        # The densest fog over its thickest layer at the least elevation.
        assert fog_attenuation(FogDescriptor(1e-3, 1e6), math.degrees(1e-4), 100.0) == pytest.approx(1.70e14, rel=1e-2)

    def test_vertical_path(self):
        fog = FogDescriptor(visibility_m=50.0, layer_thickness_m=50.0)
        assert fog_attenuation(fog, 90.0, 1550.0) == pytest.approx(
            13.573474670391555, rel=1e-12
        )

    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=4.0),
    )
    def test_linear_in_thickness(self, thickness_m, factor):
        base = FogDescriptor(visibility_m=50.0, layer_thickness_m=thickness_m)
        scaled = FogDescriptor(visibility_m=50.0, layer_thickness_m=factor * thickness_m)
        a = fog_attenuation(base, 45.0, 1550.0)
        b = fog_attenuation(scaled, 45.0, 1550.0)
        assert b == pytest.approx(factor * a, rel=1e-9)

    @given(st.floats(min_value=math.degrees(0.1), max_value=90.0))
    def test_scales_as_inverse_sine_of_elevation(self, elevation):
        fog = FogDescriptor(visibility_m=50.0, layer_thickness_m=50.0)
        vertical = fog_attenuation(fog, 90.0, 1550.0)
        slanted = fog_attenuation(fog, elevation, 1550.0)
        assert slanted == pytest.approx(vertical / math.sin(math.radians(elevation)), rel=1e-9)


class TestRainAttenuation:
    def test_heavy_rain_slant(self):
        rain = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=1000.0)
        # 1.076 * 50^0.67 * (1 km / sin 45)
        assert rain_attenuation(rain, 45.0) == pytest.approx(20.92363676561084, rel=1e-12)

    def test_no_rain_is_lossless(self):
        rain = RainDescriptor(rate_mm_per_hour=0.0, layer_thickness_m=1000.0)
        assert rain_attenuation(rain, 45.0) == 0.0

    def test_no_rain_over_the_longest_slant_is_lossless(self):
        # The domain's longest slant is ~1e7 km: no rain adds 0 dB and any rain a
        # finite loss.
        assert rain_attenuation(RainDescriptor(0.0, 1e6), math.degrees(1e-4)) == 0.0
        assert rain_attenuation(RainDescriptor(1.0, 1e6), math.degrees(1e-4)) == pytest.approx(1.076e7, rel=1e-6)

    def test_vertical_path(self):
        rain = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=1000.0)
        assert rain_attenuation(rain, 90.0) == pytest.approx(14.795245444047584, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=200.0))
    def test_doubling_rate_multiplies_by_power_law(self, rate):
        thin = RainDescriptor(rate_mm_per_hour=rate, layer_thickness_m=1000.0)
        double = RainDescriptor(rate_mm_per_hour=2 * rate, layer_thickness_m=1000.0)
        ratio = rain_attenuation(double, 45.0) / rain_attenuation(thin, 45.0)
        assert ratio == pytest.approx(2**0.67, rel=1e-12)

    @given(
        st.floats(min_value=10.0, max_value=5000.0),
        st.floats(min_value=1.0, max_value=4.0),
    )
    def test_linear_in_thickness(self, thickness_m, factor):
        base = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=thickness_m)
        scaled = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=factor * thickness_m)
        assert rain_attenuation(scaled, 45.0) == pytest.approx(
            factor * rain_attenuation(base, 45.0), rel=1e-9
        )

    @given(st.floats(min_value=math.degrees(0.1), max_value=90.0))
    def test_scales_as_inverse_sine_of_elevation(self, elevation):
        rain = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=1000.0)
        vertical = rain_attenuation(rain, 90.0)
        assert rain_attenuation(rain, elevation) == pytest.approx(
            vertical / math.sin(math.radians(elevation)), rel=1e-9
        )


class TestCloudVisibility:
    def test_cumulus_defaults(self):
        layer = CloudLayer(
            base_altitude_m=1000.0, thickness_m=48.0, lwc_g_per_m3=1.0,
            droplet_density_per_cm3=250.0,
        )
        # 1.002 * 250^(-0.6473)
        assert cloud_visibility(layer) == pytest.approx(0.02809837174133454, rel=1e-12, abs=0)

    def test_unit_density(self):
        layer = CloudLayer(
            base_altitude_m=0.0, thickness_m=1.0, lwc_g_per_m3=1.0,
            droplet_density_per_cm3=1.0,
        )
        assert cloud_visibility(layer) == pytest.approx(1.002, rel=1e-12)

    def test_thin_cumulus(self):
        layer = CloudLayer(
            base_altitude_m=0.0, thickness_m=1.0, lwc_g_per_m3=1.0,
            droplet_density_per_cm3=100.0,
        )
        assert cloud_visibility(layer) == pytest.approx(0.05084727948388112, rel=1e-12, abs=0)

    @given(
        st.floats(min_value=0.001, max_value=2.0),
        st.floats(min_value=100.0, max_value=500.0),
        st.floats(min_value=1.01, max_value=3.0),
    )
    def test_visibility_shrinks_with_more_water(self, lwc, density, factor):
        thin = CloudLayer(0.0, 1.0, lwc, density)
        thick = CloudLayer(0.0, 1.0, factor * lwc, density)
        assert cloud_visibility(thick) < cloud_visibility(thin)

    @given(
        inside_or_anywhere(1e-9, 1e3, math.ulp(0.0)), inside_or_anywhere(1e-9, 1e6, math.ulp(0.0))
    )
    @example(lwc=1e-9, density=1e-9)  # the clearest cloud: V is ~4.4e11 km
    @example(lwc=1e3, density=1e6)  # the densest: V is ~1.5e-6 km, inside the fog's range
    @example(lwc=1e-200, density=1e-200)  # the product would underflow
    @example(lwc=1e200, density=1e200)  # the product would overflow
    @example(lwc=1e300, density=1e300)  # V would underflow to 0
    @example(lwc=1.0, density=1e-240)  # V would overflow to inf
    def test_direct_formula_over_the_domain_and_the_bound_beyond_it(self, lwc, density):
        if not 1e-9 <= lwc <= 1e3:
            with pytest.raises(ValueError, match=beyond("lwc_g_per_m3", "[1e-09, 1000]", lwc)):
                CloudLayer(0.0, 1.0, lwc, density)
        elif not 1e-9 <= density <= 1e6:
            with pytest.raises(ValueError, match=beyond("droplet_density_per_cm3", "[1e-09, 1e+06]", density)):
                CloudLayer(0.0, 1.0, lwc, density)
        else:
            got = cloud_visibility(CloudLayer(0.0, 1.0, lwc, density))
            assert got == 1.002 * (lwc * density) ** (-0.6473)
            assert 1e-6 <= got <= 1e12  # a visibility the Kruse model takes


CUMULUS = CloudLayer(
    base_altitude_m=1000.0, thickness_m=48.0, lwc_g_per_m3=1.0, droplet_density_per_cm3=250.0
)


def cloud_db(layers, altitude_m):
    """The cloud term of evaluate_link on the default link (45 deg, 1550 nm)
    with the platform at altitude_m; a sweep through altitude_m must give the same."""
    tx, geometry, _ = default_parameters()
    scenario = WeatherScenario("clouds", clouds=layers)
    got = evaluate_link(tx, replace(geometry, nfp_altitude_m=altitude_m), scenario).loss_breakdown.cloud_db
    sweep = run_sweep(FixedGrid("altitude", 1.0, 2.0, 2, values=(altitude_m,) * 2), scenario, tx, geometry)
    assert sweep.columns.loss_breakdown.cloud_db.tolist() == [got] * 2
    return got


class TestCloudAttenuation:
    def test_empty_profile(self):
        assert cloud_db([], 20000.0) == 0.0

    def test_default_cumulus_layer(self):
        # specific attenuation 502.295 dB/km over 48 m / sin 45
        got = cloud_db([CUMULUS], 20000.0)
        assert got == pytest.approx(34.09693719841822, rel=1e-12)

    def test_platform_below_cloud_base(self):
        assert cloud_db([CUMULUS], 500.0) == 0.0

    def test_platform_inside_layer_counts_pro_rata(self):
        full = cloud_db([CUMULUS], 20000.0)
        half = cloud_db([CUMULUS], 1024.0)
        assert half == pytest.approx(full / 2.0, rel=1e-12)

    def test_densest_layer_adds_0_db_below_its_base(self):
        # ~1.1e7 dB/km: a finite loss where pierced (24 m of it here, half the
        # layer below the platform), whose power underflows to 0.
        densest = CloudLayer(1000.0, 48.0, 1e3, 1e6)
        assert cloud_db([densest], 500.0) == 0.0
        assert cloud_db([densest], 1000.0) == 0.0
        assert cloud_db([densest], 1024.0) == pytest.approx(3.82e5, rel=1e-2)
        scenario = WeatherScenario("densest", clouds=(densest,))
        tx, geometry, _ = default_parameters()
        spec = FixedGrid("altitude", 1.0, 2.0, 4, values=(500.0, 1000.0, 1024.0, 20000.0))
        grid = run_sweep(spec, scenario, tx, geometry).columns
        assert grid.loss_breakdown.cloud_db[:2].tolist() == [0.0, 0.0]
        assert np.isfinite(grid.loss_breakdown.cloud_db).all()
        assert grid.link_margin_db[2:].tolist() == [-math.inf, -math.inf]
        with pytest.raises(ValueError, match=beyond("lwc_g_per_m3", "[1e-09, 1000]", 1e300)):
            CloudLayer(1000.0, 48.0, 1e300, 1e300)

    def test_rejects_overlapping_layers(self):
        other = CloudLayer(
            base_altitude_m=1040.0, thickness_m=100.0, lwc_g_per_m3=0.5,
            droplet_density_per_cm3=100.0,
        )
        with pytest.raises(ValueError, match="overlap"):
            WeatherScenario("clouds", clouds=(CUMULUS, other))

    def test_additive_over_layers(self):
        high = CloudLayer(
            base_altitude_m=5000.0, thickness_m=200.0, lwc_g_per_m3=0.2,
            droplet_density_per_cm3=150.0,
        )
        together = cloud_db([CUMULUS, high], 20000.0)
        separate = cloud_db([CUMULUS], 20000.0) + cloud_db([high], 20000.0)
        assert together == pytest.approx(separate, rel=1e-12)


class TestRefractiveIndexStructure:
    def test_ground_level_drops_wind_term(self):
        # 2.7e-16 + A at h = 0
        got = refractive_index_structure(0.0, TURB)
        assert got == pytest.approx(2.7e-16 + 1.7e-14, rel=1e-15, abs=0)

    def test_at_20_km(self):
        got = refractive_index_structure(20000.0, TURB)
        assert got == pytest.approx(7.5885388163675675e-19, rel=1e-12, abs=0)

    def test_at_5_km(self):
        got = refractive_index_structure(5000.0, TURB)
        assert got == pytest.approx(1.1996401011379935e-17, rel=1e-12, abs=0)

    def test_vanishes_at_extreme_altitude(self):
        # At the domain's top only the background term is left, still a normal double.
        assert 1e-306 < refractive_index_structure(1e6, TURB) < 1e-30
        for h in (1e36, 1.7e308):  # (1e-5 h)^10 would overflow here
            with pytest.raises(ValueError, match=beyond("altitude_m", "[0, 1e+06]", h)):
                refractive_index_structure(h, TURB)

    @given(st.floats(min_value=0.0, max_value=50000.0))
    @example(h=1e6)  # the domain's top
    @example(h=1e30)  # beyond it, where (1e-5 h)^10 would overflow
    def test_matches_three_term_oracle(self, h):
        if h > 1e6:
            with pytest.raises(ValueError, match=beyond("altitude_m", "[0, 1e+06]", h)):
                refractive_index_structure(h, TURB)
            return
        oracle = (
            0.00594 * (21.0 / 27.0) ** 2 * (1e-5 * h) ** 10 * math.exp(-h / 1000.0)
            + 2.7e-16 * math.exp(-h / 1500.0)
            + 1.7e-14 * math.exp(-h / 100.0)
        )
        assert refractive_index_structure(h, TURB) == pytest.approx(oracle, rel=1e-12, abs=0)

    @given(v=inside_or_anywhere(0.0, 1e3), h=st.floats(min_value=0.0, max_value=1e6))
    @example(v=1e3, h=1e4)  # the strongest wind where its term peaks: ~3.7e-14
    @example(v=1e3, h=1e6)  # (1e-5 h)^10 is 1e10 and exp(-h / 1000) 0: the term is 0
    @example(v=4.8e151, h=1e5)  # just past the speed where a factor of the term can overflow
    @example(v=1e200, h=2e4)  # where Cn^2 would be inf
    def test_wind_term_is_the_direct_product_over_the_domain(self, v, h):
        if v > 1e3:
            with pytest.raises(ValueError, match=beyond("wind_speed_m_per_s", "[0, 1000]", v)):
                TurbulenceDescriptor(wind_speed_m_per_s=v, structure_constant_a=0.0)
            return
        turbulence = TurbulenceDescriptor(wind_speed_m_per_s=v, structure_constant_a=0.0)
        direct = 0.00594 * (v / 27.0) ** 2 * (1e-5 * h) ** 10 * math.exp(-h / 1000.0)
        background = 2.7e-16 * math.exp(-h / 1500.0)
        assert refractive_index_structure(h, turbulence) == direct + background + 0.0


class TestScintillationLoss:
    def test_20_km_slant(self):
        cn2 = refractive_index_structure(20000.0, TURB)
        got = scintillation_loss(1550.0, cn2, 20000.0 / SIN45)
        assert got == pytest.approx(0.7223257588578063, rel=1e-12, abs=0)

    def test_5_km_slant(self):
        cn2 = refractive_index_structure(5000.0, TURB)
        got = scintillation_loss(1550.0, cn2, 5000.0 / SIN45)
        assert got == pytest.approx(0.8059186101328517, rel=1e-12, abs=0)

    @given(
        inside_or_anywhere(100.0, 1e5, 1e-310),
        inside_or_anywhere(0.0, 1e-5),
        inside_or_anywhere(1e-3, 1e11, 1e-3),
    )
    @example(lam=100.0, cn2=1e-5, path=1e11)  # the domain's largest loss, ~1.3e13 dB
    @example(lam=1550.0, cn2=0.0, path=1e11)
    @example(lam=1e-300, cn2=1e-17, path=28284.0)  # k would overflow
    @example(lam=1e-260, cn2=1e-17, path=28284.0)  # k^(7/6) would overflow
    @example(lam=1e290, cn2=1e-17, path=28284.0)  # 23.17 k^(7/6) would underflow to 0
    @example(lam=1550.0, cn2=1e-17, path=1.378e168)  # l^(11/6) would overflow
    @example(lam=1550.0, cn2=5e-324, path=1e300)
    def test_direct_formula_over_the_domain_and_the_bound_beyond_it(self, lam, cn2, path):
        for name, value, interval, (low, high) in (
            ("wavelength_nm", lam, "[100, 100000]", (100.0, 1e5)),
            ("cn2", cn2, "[0, 1e-05]", (0.0, 1e-5)),
            ("path_length_m", path, "(0, 1e+11]", (0.0, 1e11)),
        ):
            if not low <= value <= high:
                with pytest.raises(ValueError, match=beyond(name, interval, value)):
                    scintillation_loss(lam, cn2, path)
                return
        scale = 23.17 * (2.0 * math.pi * 1e9 / lam) ** (7.0 / 6.0)
        direct = 2.0 * math.sqrt(scale * cn2 * path ** (11.0 / 6.0))
        assert scintillation_loss(lam, cn2, path) == direct < math.inf


GEOMETRY_20KM = LinkGeometry(
    nfp_altitude_m=20000.0, elevation_deg=45.0, divergence_rad=1e-3, receiver_radius_m=0.04
)


def atmospheric_losses(scenario):
    """The atmospheric terms of the budget at 20 km, 1550 nm."""
    tx, _, _ = default_parameters()
    return evaluate_link(tx, GEOMETRY_20KM, scenario).loss_breakdown


class TestAtmosphericLossBreakdown:
    def test_clear_sky_is_scintillation_only(self):
        scenario = WeatherScenario(label="clear", turbulence=TURB)
        loss = atmospheric_losses(scenario)
        assert loss.fog_db == loss.rain_db == loss.cloud_db == 0.0
        assert loss.atmospheric_db == pytest.approx(0.7223257588578063, rel=1e-12, abs=0)

    def test_dense_fog_adds_to_scintillation(self):
        scenario = WeatherScenario(
            label="fog",
            fog=FogDescriptor(visibility_m=50.0, layer_thickness_m=50.0),
            turbulence=TURB,
        )
        loss = atmospheric_losses(scenario)
        assert loss.fog_db == pytest.approx(19.195791967395415, rel=1e-12)
        assert loss.atmospheric_db == pytest.approx(
            19.195791967395415 + 0.7223257588578063, rel=1e-12
        )

    def test_vacuum_path(self):
        scenario = WeatherScenario(label="vacuum")
        loss = atmospheric_losses(scenario)
        assert loss.atmospheric_db == 0.0

    def test_components_are_kept_separately(self):
        scenario = WeatherScenario(
            label="everything",
            fog=FogDescriptor(visibility_m=50.0, layer_thickness_m=50.0),
            rain=RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=1000.0),
            clouds=(CUMULUS,),
            turbulence=TURB,
        )
        loss = atmospheric_losses(scenario)
        assert loss.fog_db > 0 and loss.rain_db > 0 and loss.cloud_db > 0
        assert loss.scintillation_db > 0
        assert loss.atmospheric_db == pytest.approx(
            loss.fog_db + loss.rain_db + loss.cloud_db + loss.scintillation_db, rel=1e-15, abs=0
        )

    def test_turbulence_reference_altitude_override(self):
        fixed = TurbulenceDescriptor(
            wind_speed_m_per_s=21.0, structure_constant_a=1.7e-14, reference_altitude_m=5000.0
        )
        scenario = WeatherScenario(label="ref", turbulence=fixed)
        loss = atmospheric_losses(scenario)
        cn2 = refractive_index_structure(5000.0, fixed)
        expected = scintillation_loss(1550.0, cn2, 20000.0 / SIN45)
        assert loss.scintillation_db == pytest.approx(expected, rel=1e-15, abs=0)


class TestDescriptorValidation:
    def test_scenario_rejects_empty_label(self):
        with pytest.raises(ValueError):
            WeatherScenario(label="")
