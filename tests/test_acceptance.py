"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (failures surface as ordinary pytest failures).
"""

import math
import os
import random
import time
from dataclasses import replace

from vfso.aggregation import TrafficProfile, aggregated_demand, supported_cells
from vfso.atmosphere import (
    RainDescriptor,
    WeatherScenario,
    mie_specific_attenuation,
    rain_attenuation,
    refractive_index_structure,
)
from vfso.cli import main
from vfso.geometry import geometrical_capture_fraction, geometrical_loss
from vfso.hetnet_cost import CostParams, compare_tco, generate_layout
from vfso.link_budget import achievable_rate, evaluate_link, link_margin, received_power
from vfso.scenario import default_parameters, preset

from golden import FOG_TABLE_CELLS

TX, GEOMETRY_20KM, TURB = default_parameters()
TARGET_BPS = 3.0e9


def _ok(number: int, description: str) -> None:
    print(f"ACCEPTANCE PASS [{number}]: {description}")


def test_criterion_1_fog_attenuation_golden_table():
    """All 20 (visibility, wavelength) reference cells within 0.5%."""
    for visibility_m, wavelength_nm, expected in FOG_TABLE_CELLS:
        got = mie_specific_attenuation(visibility_m / 1000.0, wavelength_nm)
        assert abs(got - expected) / expected < 5e-3, (visibility_m, wavelength_nm)
    _ok(1, "20-cell specific-attenuation table reproduced within 0.5%")


def test_criterion_2_clear_sky_rate_at_20km():
    """Reference parameters at 20 km, 45 deg: 42 Gbit/s within 5%."""
    rate = achievable_rate(TX, GEOMETRY_20KM, preset("clear_sky"))
    assert abs(rate - 42e9) / 42e9 < 0.05, rate
    _ok(2, f"clear-sky rate at 20 km = {rate / 1e9:.2f} Gbit/s (42 +/- 5%)")


def test_criterion_3_clear_sky_margins():
    """Margins vs the 3 Gbit/s target: ~23 dB at 5 km and ~11.5 dB at 20 km."""
    rate_20 = achievable_rate(TX, GEOMETRY_20KM, preset("clear_sky"))
    margin_20 = link_margin(rate_20, TARGET_BPS)
    geometry_5 = replace(GEOMETRY_20KM, nfp_altitude_m=5000.0)
    rate_5 = achievable_rate(TX, geometry_5, preset("clear_sky"))
    margin_5 = link_margin(rate_5, TARGET_BPS)
    assert abs(margin_5 - 23.0) <= 1.0, margin_5
    assert abs(margin_20 - 11.5) <= 1.0, margin_20
    _ok(3, f"clear-sky margins {margin_5:.2f} dB @ 5 km, {margin_20:.2f} dB @ 20 km")


def test_criterion_4_cloud_and_fog_failure_margin():
    """Worst-weather link at 20 km: margin -42 +/- 3 dB, rate within 2x of 198 kbit/s."""
    result = evaluate_link(TX, GEOMETRY_20KM, preset("cloud_and_fog"), TARGET_BPS)
    assert abs(result.link_margin_db - (-42.0)) <= 3.0, result.link_margin_db
    assert 0.5 <= result.data_rate_bps / 198e3 <= 2.0, result.data_rate_bps
    assert not result.link_viable
    _ok(
        4,
        f"cloud+fog margin {result.link_margin_db:.2f} dB, "
        f"rate {result.data_rate_bps / 1e3:.1f} kbit/s",
    )


def test_criterion_5_divergence_ceiling_and_ordering():
    """1 urad beam is fully captured; rates follow the capped-geometry ratios."""
    narrow = replace(GEOMETRY_20KM, divergence_rad=1e-6)
    mid = replace(GEOMETRY_20KM, divergence_rad=1e-5)
    assert geometrical_loss(narrow) == 0.0

    weather = preset("cloud_and_fog")
    rate_1mrad = achievable_rate(TX, GEOMETRY_20KM, weather)
    rate_10urad = achievable_rate(TX, mid, weather)
    rate_1urad = achievable_rate(TX, narrow, weather)

    capped_factor = 1.0 / geometrical_capture_fraction(mid)
    assert math.isclose(rate_1urad / rate_10urad, capped_factor, rel_tol=1e-9)

    for rate, reference in ((rate_1mrad, 198e3), (rate_10urad, 1.6e9), (rate_1urad, 46e9)):
        assert 0.5 <= rate / reference <= 2.0, (rate, reference)
    assert rate_1mrad < rate_10urad < rate_1urad
    _ok(
        5,
        f"divergence ceiling: 0 dB geometric loss at 1 urad, rates "
        f"{rate_1mrad / 1e3:.0f} kbit/s < {rate_10urad / 1e9:.2f} Gbit/s "
        f"< {rate_1urad / 1e9:.1f} Gbit/s",
    )


def test_criterion_6_exact_property_suite():
    """Exact identities: power laws, dB additivity, profile oracle, margin."""
    # rain power-law ratio is exactly 2^0.67
    for rate_mm in (1.0, 12.5, 50.0, 180.0):
        single = RainDescriptor(rate_mm_per_hour=rate_mm, layer_thickness_m=1000.0)
        double = RainDescriptor(rate_mm_per_hour=2 * rate_mm, layer_thickness_m=1000.0)
        ratio = rain_attenuation(double, 45.0) / rain_attenuation(single, 45.0)
        assert math.isclose(ratio, 2**0.67, rel_tol=1e-12)

    # 1/l^2 and 1/theta^2 rate scaling in the uncapped regime (no turbulence,
    # so geometry is the only altitude-dependent term)
    vacuum = WeatherScenario(label="vacuum")
    for k in (1.5, 2.0, 4.0):
        g1 = replace(GEOMETRY_20KM, nfp_altitude_m=5000.0)
        g2 = replace(GEOMETRY_20KM, nfp_altitude_m=k * 5000.0)
        assert math.isclose(
            achievable_rate(TX, g1, vacuum) / achievable_rate(TX, g2, vacuum),
            k**2,
            rel_tol=1e-9,
        )
        t1 = replace(GEOMETRY_20KM, divergence_rad=1e-4)
        t2 = replace(GEOMETRY_20KM, divergence_rad=k * 1e-4)
        assert math.isclose(
            achievable_rate(TX, t1, vacuum) / achievable_rate(TX, t2, vacuum),
            k**2,
            rel_tol=1e-9,
        )

    # adding X dB of atmospheric loss divides the received power by 10^(X/10)
    for extra_db in (0.1, 3.0, 17.3, 42.0):
        base = received_power(TX, GEOMETRY_20KM, 5.0)
        attenuated = received_power(TX, GEOMETRY_20KM, 5.0 + extra_db)
        assert math.isclose(attenuated, base * 10 ** (-extra_db / 10), rel_tol=1e-9)

    # turbulence profile against an independently written three-term oracle
    rng = random.Random(20)
    for _ in range(20):
        h = rng.uniform(0.0, 20000.0)
        oracle = (
            0.00594 * (21.0 / 27.0) ** 2 * (1e-5 * h) ** 10 * math.exp(-h / 1000.0)
            + 2.7e-16 * math.exp(-h / 1500.0)
            + 1.7e-14 * math.exp(-h / 100.0)
        )
        assert math.isclose(refractive_index_structure(h, TURB), oracle, rel_tol=1e-12)

    # margin identity
    for k in (1e-4, 0.5, 1.0, 14.02, 1e5):
        assert math.isclose(
            link_margin(k * TARGET_BPS, TARGET_BPS), 10 * math.log10(k), abs_tol=1e-9
        )
    _ok(6, "exact property suite (power laws, dB additivity, profile oracle, margin)")


def test_criterion_7_aggregation():
    """supported_cells(42 Gbit/s, 50 Mbit/s) = 840; demand matches brute force."""
    profile = TrafficProfile(busy_rate_bps=50e6, peak_rate_bps=300e6)
    assert supported_cells(42e9, profile) == 840

    rng = random.Random(7)
    for _ in range(1000):
        busy = rng.uniform(1e6, 500e6)
        peak = busy * rng.uniform(1.0, 30.0)
        n = rng.randint(1, 2000)
        p = TrafficProfile(busy_rate_bps=busy, peak_rate_bps=peak)
        assert aggregated_demand(n, p) == max(n * busy, peak)
    _ok(7, "supported cells = 840 at 42 Gbit/s; demand matches brute force x1000")


def test_criterion_8_cost_ordering_over_100_seeds():
    """1-year TCO ordering holds for 100 seeds, with the stated dollar bands."""
    started = time.monotonic()
    expected_order = ["rf_nlos_ptm", "terrestrial_fso", "fiber", "vertical_fso"]
    params = CostParams()
    for seed in range(100):
        layout = generate_layout(100, 1000, seed=seed)
        results = compare_tco(layout, params, years=1.0)
        assert [r.technology for r in results] == expected_order, seed
        by_tech = {r.technology: r for r in results}
        assert 110e6 <= by_tech["vertical_fso"].tco(1.0) <= 130e6
        assert 38e6 <= by_tech["terrestrial_fso"].tco(1.0) <= 50e6
        capex_only = compare_tco(layout, params, years=0.0)
        assert capex_only[-1].technology == "fiber", seed
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"cost sweep took {elapsed:.1f} s"
    _ok(8, f"TCO ordering and bands stable over 100 seeds ({elapsed:.1f} s)")


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    """Identical config + seed produce byte-identical CSV bundles."""
    outdir = str(tmp_path / "bundle")
    argv = [
        "sweep",
        "--set=scenarios=[clear_sky, cloud_and_fog]",
        "--set=sweep.points=15",
        "--set=seed=11",
        f"--set=output_dir={outdir}",
    ]
    assert main(list(argv)) == 0
    first = {
        name: (tmp_path / "bundle" / name).read_bytes()
        for name in sorted(os.listdir(outdir))
    }
    assert any(name.endswith(".csv") for name in first)
    assert main(list(argv)) == 0
    second = {
        name: (tmp_path / "bundle" / name).read_bytes()
        for name in sorted(os.listdir(outdir))
    }
    assert first == second
    capsys.readouterr()
    _ok(9, f"two consecutive runs produced byte-identical bundles ({len(first)} files)")
