"""Tests of the atmospheric loss mechanisms.

Frozen expected values were computed by direct evaluation of the published
formulas (independent of the module under test); see the inline oracle
expressions in the property tests.
"""

import math
import sys
from dataclasses import replace
from decimal import Decimal, localcontext

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
from vfso.link_budget import evaluate_grid, evaluate_link
from vfso.scenario import default_parameters

from golden import FOG_TABLE_CELLS

DEG45 = math.radians(45.0)
DEG90 = math.radians(90.0)
TURB = TurbulenceDescriptor(wind_speed_m_per_s=21.0, structure_constant_a=1.7e-14)


def close_or_both_beyond_floats(got, exact):
    """Agreement to 1e-12, where inf stands for anything at the top of the float range."""
    top = sys.float_info.max
    return got == exact or math.isclose(min(got, top), min(exact, top), rel_tol=1e-12)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_visibility(self, bad):
        with pytest.raises(ValueError):
            kruse_size_exponent(bad)


class TestMieSpecificAttenuation:
    @pytest.mark.parametrize("visibility_m,wavelength_nm,expected", FOG_TABLE_CELLS)
    def test_reference_table(self, visibility_m, wavelength_nm, expected):
        got = mie_specific_attenuation(visibility_m / 1000.0, wavelength_nm)
        assert got == pytest.approx(expected, rel=5e-3)

    def test_dense_fog_at_1550(self):
        assert mie_specific_attenuation(0.05, 1550.0) == pytest.approx(
            271.46949340783107, rel=1e-12
        )

    @pytest.mark.parametrize("v,lam", [(0.0, 1550.0), (-1.0, 1550.0), (1.0, 0.0), (1.0, -5.0)])
    def test_rejects_non_positive_inputs(self, v, lam):
        with pytest.raises(ValueError):
            mie_specific_attenuation(v, lam)

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


    @given(st.floats(math.ulp(0.0), 1.7e308), st.floats(1e-310, 1.7e308))
    @example(v=10.0, lam=1e-300)  # the power overflows: truly inf
    @example(v=1e300, lam=1e-300)  # the power overflows, the product is finite
    @example(v=1e-320, lam=1550.0)  # 3.91 / V overflows
    def test_direct_formula_wherever_it_is_finite(self, v, lam):
        delta = kruse_size_exponent(v)
        try:
            direct = 4.34 * (3.91 / v) * (lam / 550.0) ** (-delta)
        except OverflowError:
            direct = math.inf
        got = mie_specific_attenuation(v, lam)
        if math.isfinite(direct):
            assert got == direct
        else:
            with localcontext() as ctx:
                ctx.prec = 40
                # lambda / 550 as the formula rounds it (subnormal below ~1.2e-305 nm)
                power = Decimal(lam / 550.0) ** Decimal(-delta)
                exact = float(Decimal("4.34") * Decimal("3.91") / Decimal(v) * power)
            assert close_or_both_beyond_floats(got, exact), (got, exact)


class TestFogAttenuation:
    def test_dense_fog_slant(self):
        fog = FogDescriptor(visibility_km=0.05, layer_thickness_m=50.0)
        # 271.4695 dB/km * (0.05 km / sin 45)
        assert fog_attenuation(fog, DEG45, 1550.0) == pytest.approx(
            19.195791967395415, rel=1e-12
        )

    def test_zero_thickness_is_lossless(self):
        fog = FogDescriptor(visibility_km=0.05, layer_thickness_m=0.0)
        assert fog_attenuation(fog, DEG45, 1550.0) == 0.0

    def test_zero_specific_loss_over_an_infinite_slant_is_lossless(self):
        # The Mie loss underflows to 0 and the slant overflows: 0 dB, not inf * 0.
        grazing = math.radians(1e-300)
        assert mie_specific_attenuation(1e297, 1e290) == 0.0
        assert fog_attenuation(FogDescriptor(1e297, 1e308), grazing, 1e290) == 0.0
        assert fog_attenuation(FogDescriptor(0.05, 1e308), grazing, 1550.0) == math.inf

    def test_vertical_path(self):
        fog = FogDescriptor(visibility_km=0.05, layer_thickness_m=50.0)
        assert fog_attenuation(fog, DEG90, 1550.0) == pytest.approx(
            13.573474670391555, rel=1e-12
        )

    @pytest.mark.parametrize("elevation", [0.0, -0.1, math.pi / 2 + 0.01])
    def test_rejects_bad_elevation(self, elevation):
        fog = FogDescriptor(visibility_km=0.05, layer_thickness_m=50.0)
        with pytest.raises(ValueError):
            fog_attenuation(fog, elevation, 1550.0)

    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=4.0),
    )
    def test_linear_in_thickness(self, thickness_m, factor):
        base = FogDescriptor(visibility_km=0.05, layer_thickness_m=thickness_m)
        scaled = FogDescriptor(visibility_km=0.05, layer_thickness_m=factor * thickness_m)
        a = fog_attenuation(base, DEG45, 1550.0)
        b = fog_attenuation(scaled, DEG45, 1550.0)
        assert b == pytest.approx(factor * a, rel=1e-9)

    @given(st.floats(min_value=0.1, max_value=math.pi / 2))
    def test_scales_as_inverse_sine_of_elevation(self, elevation):
        fog = FogDescriptor(visibility_km=0.05, layer_thickness_m=50.0)
        vertical = fog_attenuation(fog, DEG90, 1550.0)
        slanted = fog_attenuation(fog, elevation, 1550.0)
        assert slanted == pytest.approx(vertical / math.sin(elevation), rel=1e-9)


class TestRainAttenuation:
    def test_heavy_rain_slant(self):
        rain = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=1000.0)
        # 1.076 * 50^0.67 * (1 km / sin 45)
        assert rain_attenuation(rain, DEG45) == pytest.approx(20.92363676561084, rel=1e-12)

    def test_no_rain_is_lossless(self):
        rain = RainDescriptor(rate_mm_per_hour=0.0, layer_thickness_m=1000.0)
        assert rain_attenuation(rain, DEG45) == 0.0

    def test_no_rain_over_an_infinite_slant_is_lossless(self):
        # The slant overflows to inf: no rain still adds 0 dB, not inf * 0.
        grazing = math.radians(1e-300)
        assert rain_attenuation(RainDescriptor(0.0, 1e308), grazing) == 0.0
        assert rain_attenuation(RainDescriptor(1.0, 1e308), grazing) == math.inf

    def test_vertical_path(self):
        rain = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=1000.0)
        assert rain_attenuation(rain, DEG90) == pytest.approx(14.795245444047584, rel=1e-12)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            RainDescriptor(rate_mm_per_hour=-1.0, layer_thickness_m=1000.0)

    @given(st.floats(min_value=0.1, max_value=200.0))
    def test_doubling_rate_multiplies_by_power_law(self, rate):
        thin = RainDescriptor(rate_mm_per_hour=rate, layer_thickness_m=1000.0)
        double = RainDescriptor(rate_mm_per_hour=2 * rate, layer_thickness_m=1000.0)
        ratio = rain_attenuation(double, DEG45) / rain_attenuation(thin, DEG45)
        assert ratio == pytest.approx(2**0.67, rel=1e-12)

    @given(
        st.floats(min_value=10.0, max_value=5000.0),
        st.floats(min_value=1.0, max_value=4.0),
    )
    def test_linear_in_thickness(self, thickness_m, factor):
        base = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=thickness_m)
        scaled = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=factor * thickness_m)
        assert rain_attenuation(scaled, DEG45) == pytest.approx(
            factor * rain_attenuation(base, DEG45), rel=1e-9
        )

    @given(st.floats(min_value=0.1, max_value=math.pi / 2))
    def test_scales_as_inverse_sine_of_elevation(self, elevation):
        rain = RainDescriptor(rate_mm_per_hour=50.0, layer_thickness_m=1000.0)
        vertical = rain_attenuation(rain, DEG90)
        assert rain_attenuation(rain, elevation) == pytest.approx(
            vertical / math.sin(elevation), rel=1e-9
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

    @pytest.mark.parametrize("lwc,density", [(0.0, 250.0), (-1.0, 250.0), (1.0, 0.0)])
    def test_rejects_non_positive_microphysics(self, lwc, density):
        with pytest.raises(ValueError):
            CloudLayer(
                base_altitude_m=0.0, thickness_m=1.0, lwc_g_per_m3=lwc,
                droplet_density_per_cm3=density,
            )

    @given(
        st.floats(min_value=0.001, max_value=2.0),
        st.floats(min_value=100.0, max_value=500.0),
        st.floats(min_value=1.01, max_value=3.0),
    )
    def test_visibility_shrinks_with_more_water(self, lwc, density, factor):
        thin = CloudLayer(0.0, 1.0, lwc, density)
        thick = CloudLayer(0.0, 1.0, factor * lwc, density)
        assert cloud_visibility(thick) < cloud_visibility(thin)


    @given(st.floats(math.ulp(0.0), 1.7e308), st.floats(math.ulp(0.0), 1.7e308))
    @example(lwc=1e-200, density=1e-200)  # the product underflows; V is ~8e258 km
    @example(lwc=1e200, density=1e200)  # the product overflows; V is ~1.2e-259 km
    @example(lwc=1e300, density=1e300)  # V underflows to 0
    @example(lwc=1e-240, density=1e-240)  # V overflows to inf
    def test_direct_formula_wherever_the_product_is_finite(self, lwc, density):
        got = cloud_visibility(CloudLayer(0.0, 1.0, lwc, density))
        if 0.0 < lwc * density < math.inf:
            assert got == 1.002 * (lwc * density) ** (-0.6473)
        else:
            with localcontext() as ctx:
                ctx.prec = 40
                product = Decimal(lwc) * Decimal(density)
                exact = float(Decimal("1.002") * product ** Decimal("-0.6473"))
            assert close_or_both_beyond_floats(got, exact), (got, exact)


CUMULUS = CloudLayer(
    base_altitude_m=1000.0, thickness_m=48.0, lwc_g_per_m3=1.0, droplet_density_per_cm3=250.0
)


def cloud_db(layers, altitude_m):
    """The cloud term of evaluate_link on the default link (45 deg, 1550 nm)
    with the platform at altitude_m; evaluate_grid must give the same."""
    tx, geometry, _ = default_parameters()
    geometry = replace(geometry, nfp_altitude_m=altitude_m)
    scenario = WeatherScenario("clouds", clouds=layers)
    got = evaluate_link(tx, geometry, scenario).loss_breakdown.cloud_db
    grid = evaluate_grid(tx, geometry, scenario, nfp_altitude_m=np.array([altitude_m]))
    assert np.ravel(grid.loss_breakdown.cloud_db).tolist() == [got]  # a float without layers
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

    def test_opaque_layer_adds_0_db_below_its_base(self):
        # The visibility underflows to 0: inf dB/km, but only where pierced.
        opaque = CloudLayer(1000.0, 48.0, 1e300, 1e300)
        assert cloud_db([opaque], 500.0) == 0.0
        assert cloud_db([opaque], 1000.0) == 0.0
        assert cloud_db([opaque], 1024.0) == math.inf
        scenario = WeatherScenario("opaque", clouds=(opaque,))
        tx, geometry, _ = default_parameters()
        altitudes = np.array([500.0, 1000.0, 1024.0, 20000.0])
        grid = evaluate_grid(tx, geometry, scenario, nfp_altitude_m=altitudes)
        assert grid.loss_breakdown.cloud_db.tolist() == [0.0, 0.0, math.inf, math.inf]
        assert grid.link_margin_db[2:].tolist() == [-math.inf, -math.inf]

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
        assert refractive_index_structure(1e6, TURB) < 1e-30
        # (1e-5 h)^10 alone would overflow here; the capped wind term cannot
        assert refractive_index_structure(1e36, TURB) == 0.0
        assert refractive_index_structure(1.7e308, TURB) == 0.0

    def test_rejects_negative_altitude(self):
        with pytest.raises(ValueError):
            refractive_index_structure(-1.0, TURB)

    @given(st.floats(min_value=0.0, max_value=50000.0))
    @example(h=1e6)  # where the wind term's altitude cap starts
    @example(h=1e30)  # beyond it: the cap changes nothing the oracle can still compute
    def test_matches_three_term_oracle(self, h):
        oracle = (
            0.00594 * (21.0 / 27.0) ** 2 * (1e-5 * h) ** 10 * math.exp(-h / 1000.0)
            + 2.7e-16 * math.exp(-h / 1500.0)
            + 1.7e-14 * math.exp(-h / 100.0)
        )
        assert refractive_index_structure(h, TURB) == pytest.approx(oracle, rel=1e-12, abs=0)

    @given(v=st.floats(min_value=0.0, max_value=1e300), h=st.floats(min_value=0.0, max_value=1e7))
    @example(v=4.6e151, h=1e5)  # just below the speed where a factor could overflow
    @example(v=4.8e151, h=1e5)  # just above it: the product is summed in logs
    @example(v=4.6e151, h=8e5)  # direct: exp(-h / 1000) underflows to 0, and so does the term
    @example(v=1e154, h=8e5)  # (v / 27)^2 * base^10 alone is inf, exp(-h / 1000) is 0
    @example(v=1e200, h=0.0)  # a zero base: no inf * 0
    @example(v=1e200, h=8e5)  # exp(-h / 1000) underflows: no inf * 0
    @example(v=1e200, h=2e4)  # beyond the float range: inf
    def test_wind_term_at_any_speed(self, v, h):
        # Below ~4.697e151 m/s the direct product is kept bit for bit. Beyond
        # it the product is summed in logs, and matches the formula taken in
        # 40-digit decimals, which cannot overflow.
        turbulence = TurbulenceDescriptor(wind_speed_m_per_s=v, structure_constant_a=0.0)
        got = refractive_index_structure(h, turbulence)
        base = 1e-5 * min(h, 1e6)
        background = 2.7e-16 * math.exp(-h / 1500.0)
        if v < 4.69e151:
            direct = 0.00594 * (v / 27.0) ** 2 * base**10 * math.exp(-h / 1000.0)
            assert got == direct + background + 0.0
        elif v > 4.70e151:
            with localcontext() as ctx:
                ctx.prec = 40
                wind = Decimal("0.00594") * (Decimal(v) / 27) ** 2 * Decimal(base) ** 10
                exact = float(wind * (Decimal(-h) / 1000).exp() + Decimal(background))
            assert math.isclose(got, exact, rel_tol=1e-12, abs_tol=1e-300), (got, exact)
        assert not math.isnan(got)


class TestScintillationLoss:
    def test_20_km_slant(self):
        cn2 = refractive_index_structure(20000.0, TURB)
        got = scintillation_loss(1550.0, cn2, 20000.0 / math.sin(DEG45))
        assert got == pytest.approx(0.7223257588578063, rel=1e-12, abs=0)

    def test_no_turbulence_is_lossless(self):
        assert scintillation_loss(1550.0, 0.0, 28284.0) == 0.0

    def test_5_km_slant(self):
        cn2 = refractive_index_structure(5000.0, TURB)
        got = scintillation_loss(1550.0, cn2, 5000.0 / math.sin(DEG45))
        assert got == pytest.approx(0.8059186101328517, rel=1e-12, abs=0)

    @pytest.mark.parametrize("wavelength_nm", [1e-260, 1e-300])
    def test_overflowing_wavenumber_is_summed_in_logs(self, wavelength_nm):
        # k^(7/6) (at 1e-260 nm) or k itself (at 1e-300 nm) overflows; the
        # loss matches the formula taken in 40-digit decimals.
        cn2, path = 1e-17, 20000.0 / math.sin(DEG45)
        with localcontext() as ctx:
            ctx.prec = 40
            k = 2 * Decimal(math.pi) * Decimal(10) ** 9 / Decimal(wavelength_nm)
            product = Decimal("23.17") * k ** (Decimal(7) / 6) * Decimal(cn2)
            exact = float(2 * (product * Decimal(path) ** (Decimal(11) / 6)).sqrt())
        got = scintillation_loss(wavelength_nm, cn2, path)
        assert math.isclose(got, exact, rel_tol=1e-12), (got, exact)
        assert scintillation_loss(wavelength_nm, 0.0, path) == 0.0

    def test_underflowing_scale_gives_0_db(self):
        # 23.17 k^(7/6) underflows to 0 at 1e290 nm; the true loss is ~1e-167 dB.
        assert scintillation_loss(1e290, 1e-17, 28284.0) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1e-10),
        st.floats(min_value=1e-3, max_value=1.7e308),
    )
    @example(cn2=1e-17, path=1.377e168)  # just below where l^(11/6) overflows
    @example(cn2=1e-17, path=1.378e168)  # just above it
    @example(cn2=0.0, path=1e300)
    @example(cn2=5e-324, path=1e300)
    def test_direct_formula_wherever_it_is_finite(self, cn2, path):
        # Where the direct product overflows (a path beyond ~1.377e168 m), the
        # loss is the same product summed in logs; where Cn^2 is 0 it is 0 dB.
        scale = 23.17 * (2.0 * math.pi * 1e9 / 1550.0) ** (7.0 / 6.0)
        got = scintillation_loss(1550.0, cn2, path)
        try:
            direct = 2.0 * math.sqrt(scale * cn2 * path ** (11.0 / 6.0))
        except OverflowError:
            direct = math.inf
        if math.isfinite(direct):
            assert got == direct
        elif cn2 == 0.0:
            assert got == 0.0
        else:
            in_logs = 0.5 * (math.log(scale) + math.log(cn2) + 11.0 / 6.0 * math.log(path))
            assert got == pytest.approx(2.0 * math.exp(in_logs), rel=1e-12)


GEOMETRY_20KM = LinkGeometry(
    nfp_altitude_m=20000.0, elevation_rad=DEG45, divergence_rad=1e-3, receiver_radius_m=0.04
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
            fog=FogDescriptor(visibility_km=0.05, layer_thickness_m=50.0),
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
            fog=FogDescriptor(visibility_km=0.05, layer_thickness_m=50.0),
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
        expected = scintillation_loss(1550.0, cn2, 20000.0 / math.sin(DEG45))
        assert loss.scintillation_db == pytest.approx(expected, rel=1e-15, abs=0)


class TestDescriptorValidation:
    def test_scenario_rejects_empty_label(self):
        with pytest.raises(ValueError):
            WeatherScenario(label="")

    def test_scenario_rejects_overlapping_clouds(self):
        other = CloudLayer(1010.0, 10.0, 1.0, 250.0)
        with pytest.raises(ValueError, match="overlap"):
            WeatherScenario(label="x", clouds=(CUMULUS, other))

    def test_fog_rejects_non_positive_visibility(self):
        with pytest.raises(ValueError):
            FogDescriptor(visibility_km=0.0, layer_thickness_m=10.0)

    def test_turbulence_rejects_negative_wind(self):
        with pytest.raises(ValueError):
            TurbulenceDescriptor(wind_speed_m_per_s=-1.0, structure_constant_a=0.0)
