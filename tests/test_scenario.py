"""Tests of presets, reference defaults, and sweeps."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from vfso.scenario import (
    ALTITUDE_SWEEP_BOUNDS_M,
    DEFAULT_CLOUD_PROFILE,
    PRESET_NAMES,
    SweepSpec,
    default_parameters,
    preset,
    run_sweep,
)
from vfso.atmosphere import CloudLayer, FogDescriptor, WeatherScenario
from vfso.link_budget import LossBreakdown, evaluate_link

from golden import FixedGrid, budget, sweep_row

TX, GEOMETRY, TURB = default_parameters()
SWEPT_FIELD = {"altitude": "nfp_altitude_m", "divergence": "divergence_rad"}


class TestDefaultParameters:
    def test_transmit_power(self):
        assert TX.transmit_power_w == 0.2

    def test_receiver_radius(self):
        assert GEOMETRY.receiver_radius_m == 0.04

    def test_wind_speed(self):
        assert TURB.wind_speed_m_per_s == 21.0

    def test_remaining_reference_values(self):
        assert TX.pointing_loss_db == 2.0
        assert TX.wavelength_nm == 1550.0
        assert TX.receiver_sensitivity_photons_per_bit == 100.0
        assert TX.optical_loss_db == 2.0
        assert GEOMETRY.divergence_rad == 1e-3
        assert GEOMETRY.elevation_deg == pytest.approx(45.0, rel=1e-15, abs=0)
        assert TURB.structure_constant_a == 1.7e-14
        assert ALTITUDE_SWEEP_BOUNDS_M == (1000.0, 20000.0)


class TestPresets:
    def test_clear_sky_has_only_turbulence(self):
        scenario = preset("clear_sky")
        assert scenario.fog is None and scenario.rain is None
        assert scenario.clouds == ()
        assert scenario.turbulence == TURB

    def test_fog_dense_visibility(self):
        scenario = preset("fog_dense")
        assert scenario.fog.visibility_m == pytest.approx(50.0)
        assert scenario.fog.layer_thickness_m == 50.0

    def test_heavy_rain_layer(self):
        scenario = preset("heavy_rain")
        assert scenario.rain.rate_mm_per_hour == 50.0
        assert scenario.rain.layer_thickness_m == 1000.0

    def test_cloud_presets_carry_default_profile(self):
        assert preset("cloud_and_fog").clouds == DEFAULT_CLOUD_PROFILE
        assert preset("rain_and_cloud").clouds == DEFAULT_CLOUD_PROFILE
        layer = DEFAULT_CLOUD_PROFILE[0]
        assert layer.base_altitude_m == 1000.0
        assert layer.thickness_m == 48.0
        assert layer.lwc_g_per_m3 == 1.0
        assert layer.droplet_density_per_cm3 == 250.0

    def test_component_override(self):
        light = FogDescriptor(visibility_m=770.0, layer_thickness_m=50.0)
        scenario = preset("fog_dense", fog=light)
        assert scenario.fog.visibility_m == 770.0

    def test_override_does_not_leak_into_other_presets(self):
        scenario = preset("clear_sky", fog=FogDescriptor(770.0, 50.0))
        assert scenario.fog is None

    @pytest.mark.parametrize(
        "name", ["fog_dense", "heavy_rain", "cloud_and_fog", "rain_and_cloud"]
    )
    def test_clear_sky_dominates_every_weathered_preset(self, name):
        from vfso.link_budget import achievable_rate

        for altitude in (1000.0, 5000.0, 20000.0):
            geometry = replace(GEOMETRY, nfp_altitude_m=altitude)
            clear = achievable_rate(TX, geometry, preset("clear_sky"))
            weathered = achievable_rate(TX, geometry, preset(name))
            assert clear >= weathered


class TestSweepSpec:
    def test_linear_grid_hits_endpoints(self):
        spec = SweepSpec(variable="altitude", start=1000.0, stop=2000.0, points=2)
        assert spec.grid() == [1000.0, 2000.0]

    def test_log_grid_hits_decades(self):
        spec = SweepSpec(variable="divergence", start=1e-6, stop=1e-3, points=4, scale="log")
        grid = spec.grid()
        assert grid == pytest.approx([1e-6, 1e-5, 1e-4, 1e-3], rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale, space", [("linear", np.linspace), ("log", np.geomspace)])
    def test_grid_is_a_list_of_python_floats(self, scale, space):
        grid = SweepSpec("divergence", 1e-6, 1e-2, 1001, scale=scale).grid()
        assert type(grid) is list and all(type(x) is float for x in grid)
        assert grid == [float(x) for x in space(1e-6, 1e-2, 1001)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variable": "wavelength"},
            {"variable": ["altitude"]},  # unhashable: still a ValueError, not a TypeError
            {"start": 2000.0, "stop": 1000.0},
            {"scale": "cubic"},
            {"start": 0.0, "scale": "log"},
        ],
    )
    def test_rejects_invalid_specs(self, kwargs):
        base = dict(variable="altitude", start=1000.0, stop=20000.0, points=10, scale="linear")
        base.update(kwargs)
        with pytest.raises(ValueError):
            SweepSpec(**base)


class TestRunSweep:
    def test_altitude_sweep_rate_decreases(self):
        spec = SweepSpec(variable="altitude", start=1000.0, stop=20000.0, points=40)
        result = run_sweep(spec, preset("clear_sky"), TX, GEOMETRY)
        assert result.errors == (None,) * 40
        rates = result.columns["data_rate_bps"].tolist()
        assert len(rates) == 40
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_divergence_sweep_rate_increases_as_beam_narrows(self):
        spec = SweepSpec(variable="divergence", start=1e-6, stop=1e-3, points=4, scale="log")
        result = run_sweep(spec, preset("cloud_and_fog"), TX, GEOMETRY)
        assert result.errors == (None,) * 4
        rates = result.columns["data_rate_bps"].tolist()
        assert all(a >= b for a, b in zip(rates, rates[1:]))  # theta ascending, rate falling

    @pytest.mark.parametrize("variable", SWEPT_FIELD)
    def test_every_term_is_a_column_over_the_grid_even_without_weather(self, variable):
        value = getattr(GEOMETRY, SWEPT_FIELD[variable])
        spec = FixedGrid(variable, 1.0, 2.0, 2, values=(value, 2.0 * value))
        sweep = run_sweep(spec, WeatherScenario("none"), TX, GEOMETRY)
        assert list(sweep.columns) == BUDGET
        for column in sweep.columns.values():
            assert type(column) is np.ndarray and column.dtype == np.float64 and column.shape == (2,)
        assert sweep.columns["cloud_db"].tolist() == [0.0, 0.0]
        assert sweep.columns["scintillation_db"].tolist() == [0.0, 0.0]

    def test_scenario_label_is_recorded(self):
        spec = SweepSpec(variable="altitude", start=1000.0, stop=2000.0, points=2)
        result = run_sweep(spec, preset("fog_dense"), TX, GEOMETRY)
        assert result.scenario_label == "fog_dense"
        assert result.errors == (None, None)


def per_point_reference(spec, scenario, tx, geometry):
    """The sweep as one evaluate_link call per grid point: (value, result, error) rows."""
    rows = []
    for value in spec.grid():
        try:
            point = replace(geometry, **{SWEPT_FIELD[spec.variable]: value})
        except ValueError as exc:
            rows.append((value, None, str(exc)))
        else:
            rows.append((value, evaluate_link(tx, point, scenario), None))
    return rows


# The ten columns of a sweep, in order: the seven LossBreakdown fields, then
# the received power, the rate and the margin.
BUDGET = [*(f.name for f in fields(LossBreakdown)), "received_power_w", "data_rate_bps", "link_margin_db"]


def assert_rows_match(sweep, reference) -> None:
    """Each row of the sweep against per_point_reference's: the same error; where
    that is one, NaN in all ten columns, else each column within 1e-12 of
    evaluate_link at the row's point, the same verdict and the same target."""
    assert sweep.errors == tuple(error for _, _, error in reference)
    assert list(sweep.columns) == BUDGET
    for i, (value, result, error) in enumerate(reference):
        row = sweep_row(sweep, i)
        if result is None:
            assert all(math.isnan(x) for x in row.values()), (value, row)
            continue
        assert (row["link_margin_db"] >= 0.0) == result.link_viable
        assert sweep.target_rate_bps == result.target_rate_bps
        for name, want in budget(result).items():
            assert math.isclose(row[name], want, rel_tol=1e-12), (value, name, row[name], want)


class TestSweepMatchesPerPointEvaluation:
    GRIDS = {
        # crosses the 1000-1048 m cloud deck in ~5 m steps and starts at
        # non-positive altitudes, which are row errors
        "altitude": SweepSpec("altitude", -1000.0, 20000.0, 4001),
        "log_divergence": SweepSpec("divergence", 1e-7, 1e-1, 601, scale="log"),
        "linear_divergence": SweepSpec("divergence", -1e-3, 1e-2, 221),
    }
    # The presets, plus Cn^2 sampled at a fixed altitude, no turbulence at
    # all, the strongest wind of the domain, and a second cloud layer that the
    # altitude grid also crosses.
    SCENARIOS = {
        **{name: preset(name) for name in PRESET_NAMES},
        "reference_altitude": preset(
            "cloud_and_fog", turbulence=replace(TURB, reference_altitude_m=2500.0)
        ),
        "no_turbulence": replace(preset("rain_and_cloud"), label="no_turbulence", turbulence=None),
        "wind_1e3": preset("cloud_and_fog", turbulence=replace(TURB, wind_speed_m_per_s=1e3)),
        "two_cloud_layers": preset(
            "cloud_and_fog",
            clouds=(
                *DEFAULT_CLOUD_PROFILE,
                CloudLayer(
                    base_altitude_m=3000.0,
                    thickness_m=500.0,
                    lwc_g_per_m3=0.5,
                    droplet_density_per_cm3=100.0,
                ),
            ),
        ),
    }

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_rows_agree_to_1e12(self, name, grid):
        spec = self.GRIDS[grid]
        scenario = self.SCENARIOS[name]
        sweep = run_sweep(spec, scenario, TX, GEOMETRY)
        reference = per_point_reference(spec, scenario, TX, GEOMETRY)
        assert sweep.values.tolist() == [value for value, _, _ in reference]
        assert_rows_match(sweep, reference)
        if grid != "log_divergence":
            assert any(error is not None for _, _, error in reference)


@pytest.mark.parametrize("variable", SWEPT_FIELD)
def test_non_finite_grid_points_become_row_errors(variable):
    field = SWEPT_FIELD[variable]
    finite = getattr(GEOMETRY, field)
    spec = FixedGrid(variable, 1.0, 2.0, 4, values=(math.nan, math.inf, -math.inf, finite))
    result = run_sweep(spec, preset("cloud_and_fog"), TX, GEOMETRY)
    assert result.errors == (
        *(f"{field} must be finite, got {value}" for value in (math.nan, math.inf, -math.inf)),
        None,
    )
    point = evaluate_link(TX, GEOMETRY, preset("cloud_and_fog"))
    assert sweep_row(result, 3) == budget(point) and result.target_rate_bps == point.target_rate_bps
    for column in result.columns.values():
        assert np.isnan(column[:3]).all()
    assert np.isfinite(result.columns["data_rate_bps"][3])


@pytest.mark.parametrize("variable", SWEPT_FIELD)
def test_invalid_points_anywhere_leave_the_valid_rows_unchanged(variable):
    # Invalid points first, in the middle and last. Each valid row equals the
    # sweep over the valid points alone, bit for bit, and evaluate_link to
    # 1e-12; each invalid row is NaN in every column.
    field = SWEPT_FIELD[variable]
    own = getattr(GEOMETRY, field)
    values = (-5.0, 0.5 * own, math.nan, 0.0, own, 2.0 * own, -0.0, math.inf)
    spec = FixedGrid(variable, 1.0, 2.0, len(values), values=values)
    scenario = preset("cloud_and_fog")
    sweep = run_sweep(spec, scenario, TX, GEOMETRY)
    valid = np.array([v > 0 and math.isfinite(v) for v in values])
    kept = tuple(np.array(values)[valid].tolist())
    alone = run_sweep(replace(spec, points=len(kept), values=kept), scenario, TX, GEOMETRY)
    assert alone.errors == (None,) * len(kept)
    assert list(sweep.columns) == list(alone.columns) == BUDGET
    for name, got in sweep.columns.items():
        assert alone.columns[name].tobytes() == got[valid].tobytes()
        assert np.isnan(got[~valid]).all()
    assert_rows_match(sweep, per_point_reference(spec, scenario, TX, GEOMETRY))
    assert [error is None for error in sweep.errors] == valid.tolist()


class TestSweepEquality:
    SPEC = FixedGrid("altitude", 1.0, 2.0, 2, values=(math.nan, 5000.0))

    def test_a_rerun_with_a_nan_point_is_equal(self):
        a = run_sweep(self.SPEC, preset("fog_dense"), TX, GEOMETRY)
        b = run_sweep(self.SPEC, preset("fog_dense"), TX, GEOMETRY)
        assert a == b and not a != b

    def test_a_column_cell_of_minus_zero_is_unequal(self):
        spec = FixedGrid("altitude", 1.0, 2.0, 2, values=(1000.0, 5000.0))  # no NaN: cells compare equal
        a = run_sweep(spec, preset("clear_sky"), TX, GEOMETRY)
        fog = a.columns["fog_db"].copy()
        assert fog[1] == 0.0 and math.copysign(1.0, fog[1]) == 1.0
        fog[1] = -0.0
        b = replace(a, columns={**a.columns, "fog_db": fog})
        assert list(b.columns) == list(a.columns)
        assert all((a.columns[name] == b.columns[name]).all() for name in a.columns)  # 0.0 == -0.0
        assert a != b

    def test_other_fields_take_part(self):
        a = run_sweep(self.SPEC, preset("clear_sky"), TX, GEOMETRY)
        assert a != replace(a, spec=replace(self.SPEC, points=3))
        assert a != replace(a, scenario_label="other")
        assert a != replace(a, errors=(None, None))
        assert a != replace(a, target_rate_bps=1.0)
        assert a != replace(a, columns={**a.columns, "data_rate_bps": a.columns["data_rate_bps"][::-1].copy()})
        assert a != run_sweep(self.SPEC, preset("clear_sky"), TX, GEOMETRY, 1e9)

    def test_is_not_equal_to_another_type(self):
        a = run_sweep(self.SPEC, preset("clear_sky"), TX, GEOMETRY)
        assert a.__eq__(object()) is NotImplemented
        assert a != object() and not a == object()


def matching_per_point_evaluation(spec, scenario, tx=TX, geometry=GEOMETRY):
    """The sweep, after checking that each row is evaluate_link at its point, to
    1e-12, or the error LinkGeometry gives there; and those per-point results."""
    sweep = run_sweep(spec, scenario, tx, geometry)
    reference = per_point_reference(spec, scenario, tx, geometry)
    assert_rows_match(sweep, reference)
    return sweep, [result for _, result, _ in reference]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_extreme_divergences_match_per_point_evaluation(name):
    # 1e-300 rad: the footprint is far inside the aperture, so all is captured.
    # pi rad, the widest beam of the domain: a finite geometrical loss. 1e300
    # rad, whose capture fraction would underflow to 0, is a row error.
    spec = FixedGrid("divergence", 1.0, 2.0, 3, values=(1e-300, math.pi, 1e300))
    sweep, (narrow, wide, beyond) = matching_per_point_evaluation(spec, preset(name))
    assert narrow.loss_breakdown.geometrical_db == 0.0
    assert 0.0 < wide.data_rate_bps and wide.loss_breakdown.geometrical_db < math.inf
    assert beyond is None
    assert sweep.errors[2] == "divergence_rad must be in (0, pi], got 1e+300"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_extreme_altitudes_match_per_point_evaluation(name):
    # The domain's top, 1e6 m, is answered; beyond it, where (1e-5 h)^10 in the
    # Cn^2 wind term and later l^(11/6) would overflow, each point is a row error.
    # No RuntimeWarning may be raised (pytest turns it into an error).
    spec = FixedGrid("altitude", 1.0, 2.0, 4, values=(1e6, 1e36, 1e200, 1e300))
    sweep, (top, *beyond) = matching_per_point_evaluation(spec, preset(name))
    assert 0.0 < top.loss_breakdown.scintillation_db < 1e-100 and not top.link_viable
    assert beyond == [None, None, None]
    assert sweep.errors[1] == "nfp_altitude_m must be in (0, 1e+06], got 1e+36"


@pytest.mark.parametrize("wavelength_nm", [100.0, 1e5])
def test_extreme_wavelengths_match_per_point_evaluation(wavelength_nm):
    # The domain's shortest and longest wavelengths, up to its top altitude.
    # Beyond them, where k^(7/6) would overflow or 23.17 k^(7/6) underflow, the
    # transceiver is rejected.
    tx = replace(TX, wavelength_nm=wavelength_nm)
    spec = FixedGrid("altitude", 1.0, 2.0, 3, values=(1e3, 2e4, 1e6))
    _, results = matching_per_point_evaluation(spec, preset("clear_sky"), tx)
    for result in results:
        assert 0.0 < result.loss_breakdown.scintillation_db < math.inf
        assert math.isfinite(result.link_margin_db)
    for beyond in (1e-300, 1e-260, 1e290):
        with pytest.raises(ValueError, match=r"^wavelength_nm must be in \[100, 100000\]"):
            replace(TX, wavelength_nm=beyond)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_longest_path_matches_per_point_evaluation(name):
    # Cn^2 sampled at 1 km stays positive up the domain's longest path, ~1e10
    # m at the least elevation. The paths where l^(11/6) would overflow, beyond
    # ~1.377e168 m, lie beyond the domain's altitudes: row errors.
    scenario = preset(name, turbulence=replace(TURB, reference_altitude_m=1000.0))
    grazing = replace(GEOMETRY, elevation_deg=math.degrees(1e-4))
    spec = FixedGrid("altitude", 1.0, 2.0, 3, values=(2e4, 1e6, 1e168))
    sweep, (*answered, beyond) = matching_per_point_evaluation(spec, scenario, geometry=grazing)
    for result in answered:
        assert 0.0 < result.loss_breakdown.scintillation_db < math.inf
    assert beyond is None
    assert sweep.errors[2] == "nfp_altitude_m must be in (0, 1e+06], got 1e+168"
