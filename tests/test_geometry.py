"""Tests of slant-path and beam-spread geometry."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from vfso.aggregation import TrafficProfile
from vfso.atmosphere import CloudLayer, FogDescriptor, RainDescriptor, TurbulenceDescriptor
from vfso.hetnet_cost import Area
from vfso.link_budget import TransceiverParams
from vfso.geometry import (
    LinkGeometry,
    capture_loss_db,
    geometrical_capture_fraction,
    geometrical_loss,
    slant_path,
)

def geom(h=20000.0, elevation=45.0, theta=1e-3, r=0.04):
    return LinkGeometry(
        nfp_altitude_m=h, elevation_deg=elevation, divergence_rad=theta, receiver_radius_m=r
    )


class TestSlantPath:
    def test_vertical(self):
        assert slant_path(geom(elevation=90.0)) == 20000.0

    def test_45_degrees(self):
        assert slant_path(geom()) == pytest.approx(28284.271247461904, rel=1e-12)

    def test_30_degrees(self):
        assert slant_path(geom(h=1000.0, elevation=30.0)) == pytest.approx(
            2000.0, rel=1e-12
        )

    @given(
        st.floats(min_value=100.0, max_value=50000.0),
        st.floats(min_value=math.degrees(0.05), max_value=90.0),
    )
    def test_never_shorter_than_altitude(self, h, elevation):
        assert slant_path(geom(h=h, elevation=elevation)) >= h


class TestCaptureFraction:
    def test_small_aperture_in_wide_beam(self):
        assert geometrical_capture_fraction(geom()) == pytest.approx(8.0e-6, rel=1e-12, abs=0)

    def test_narrow_beam_is_capped_at_one(self):
        # 1 urad over 28.3 km gives a 14 mm footprint inside the 40 mm aperture
        assert geometrical_capture_fraction(geom(theta=1e-6)) == 1.0

    def test_boundary_beam_equals_aperture(self):
        # choose theta so that r_B == r exactly: theta = 2 r / l
        g = geom(elevation=90.0, theta=2 * 0.04 / 20000.0)
        assert geometrical_capture_fraction(g) == 1.0

    @given(st.floats(min_value=1e-6, max_value=1e-2), st.floats(min_value=1.5, max_value=10.0))
    def test_non_increasing_in_divergence(self, theta, factor):
        assert geometrical_capture_fraction(geom(theta=factor * theta)) <= (
            geometrical_capture_fraction(geom(theta=theta))
        )

    @given(st.floats(min_value=0.005, max_value=0.5), st.floats(min_value=1.1, max_value=5.0))
    def test_non_decreasing_in_aperture(self, r, factor):
        assert geometrical_capture_fraction(geom(r=factor * r)) >= (
            geometrical_capture_fraction(geom(r=r))
        )


    def test_vanishing_footprint_does_not_overflow(self):
        assert geometrical_capture_fraction(geom(theta=1e-300)) == 1.0

    def test_widest_footprint_still_captures_a_normal_double(self):
        # The domain's corner: the widest beam, longest path and least aperture.
        widest = geom(h=1e6, elevation=math.degrees(1e-4), theta=math.pi, r=1e-6)
        assert geometrical_capture_fraction(widest) == pytest.approx(4.0e-33, rel=1e-3)
        with pytest.raises(ValueError, match=r"^divergence_rad must be in \(0, pi\], got 1e\+300$"):
            geom(theta=1e300)


class TestGeometricalLoss:
    def test_reference_configuration(self):
        assert geometrical_loss(geom()) == pytest.approx(50.96910013008056, rel=1e-12)

    def test_capped_regime_is_zero_loss(self):
        assert geometrical_loss(geom(theta=1e-6)) == 0.0

    def test_10_microradian(self):
        assert geometrical_loss(geom(theta=1e-5)) == pytest.approx(
            10.969100130080566, rel=1e-12
        )

    def test_nothing_captured_is_an_infinite_loss(self):
        assert capture_loss_db(0.0) == math.inf
        # No geometry of the domain gets there: its widest beam loses ~324 dB.
        widest = geom(h=1e6, elevation=math.degrees(1e-4), theta=math.pi, r=1e-6)
        assert geometrical_loss(widest) == pytest.approx(323.9, abs=0.1)
        with pytest.raises(ValueError, match=r"^receiver_radius_m must be in \[1e-06, 1e\+06\]"):
            geom(r=1e-7)

    @given(st.floats(min_value=2e-4, max_value=1e-2), st.floats(min_value=1.1, max_value=8.0))
    def test_scaling_divergence_adds_20log10(self, theta, k):
        # valid in the uncapped regime, which theta >= 0.2 mrad guarantees here
        base = geometrical_loss(geom(theta=theta))
        scaled = geometrical_loss(geom(theta=k * theta))
        assert scaled - base == pytest.approx(20.0 * math.log10(k), abs=1e-9)

    @given(st.floats(min_value=1.1, max_value=5.0))
    def test_scaling_path_adds_20log10(self, k):
        base = geometrical_loss(geom(h=10000.0))
        scaled = geometrical_loss(geom(h=k * 10000.0))
        assert scaled - base == pytest.approx(20.0 * math.log10(k), abs=1e-9)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0.0},
            {"h": -5.0},
            {"elevation": 0.0},
            {"elevation": math.degrees(math.pi / 2 + 0.001)},
            {"theta": 0.0},
            {"r": -0.01},
        ],
    )
    def test_rejects_invalid_geometry(self, kwargs):
        with pytest.raises(ValueError):
            geom(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["nfp_altitude_m", "elevation_deg", "divergence_rad", "receiver_radius_m"]
    )
    def test_rejects_non_finite_geometry(self, field, value):
        kwargs = dict(
            nfp_altitude_m=20000.0, elevation_deg=45.0, divergence_rad=1e-3, receiver_radius_m=0.04
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LinkGeometry(**kwargs)


# One valid instance of every constructor that takes numbers; the property
# below makes one field of one of them non-finite.
VALID_KWARGS = {
    LinkGeometry: dict(
        nfp_altitude_m=20000.0, elevation_deg=45.0, divergence_rad=1e-3, receiver_radius_m=0.04
    ),
    FogDescriptor: dict(visibility_m=50.0, layer_thickness_m=50.0),
    RainDescriptor: dict(rate_mm_per_hour=50.0, layer_thickness_m=1000.0),
    CloudLayer: dict(
        base_altitude_m=1000.0, thickness_m=48.0, lwc_g_per_m3=1.0, droplet_density_per_cm3=250.0
    ),
    TurbulenceDescriptor: dict(
        wind_speed_m_per_s=21.0, structure_constant_a=1.7e-14, reference_altitude_m=3000.0
    ),
    TransceiverParams: dict(
        transmit_power_w=0.2,
        tx_efficiency=0.9,
        rx_efficiency=0.9,
        wavelength_nm=1550.0,
        pointing_loss_db=2.0,
        receiver_sensitivity_photons_per_bit=100.0,
    ),
    TrafficProfile: dict(busy_rate_bps=50e6, peak_rate_bps=300e6),
    Area: dict(width_m=5000.0, height_m=5000.0),
}


@given(st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_every_constructor_rejects_non_finite_fields(data, value):
    cls = data.draw(st.sampled_from(list(VALID_KWARGS)), label="class")
    field = data.draw(st.sampled_from([f.name for f in fields(cls)]), label="field")
    kwargs = {**VALID_KWARGS[cls], field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        cls(**kwargs)
