"""Tests of the command-line interface: exit codes, CSV bundles, determinism."""

import csv
import io
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vfso import cli
from vfso.cli import EXIT_LINK_FAILURE, EXIT_OK, EXIT_USAGE, main
from vfso.config import load_config
from vfso.hetnet_cost import generate_layout
from vfso.scenario import run_sweep


def run(tmp_path, *argv):
    outdir = str(tmp_path / "out")
    return main(list(argv) + [f"--set=output_dir={outdir}"]), outdir


def cloud_override(lwc, density):
    return f"clouds=[{{lwc_g_per_m3: {lwc}, droplet_density_per_cm3: {density}}}]"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestEvaluate:
    def test_clear_sky_is_viable(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "evaluate")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "VIABLE" in out
        rows = read_csv(os.path.join(outdir, "evaluate.csv"))
        assert len(rows) == 1
        rate = float(rows[0]["data_rate_bps"])
        assert rate == pytest.approx(42.06e9, rel=0.01)
        assert float(rows[0]["link_margin_db"]) == pytest.approx(11.47, abs=0.01)
        assert rows[0]["link_viable"] == "true"

    def test_cloud_and_fog_fails_with_exit_2(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "evaluate", "--set=scenarios=[cloud_and_fog]")
        assert code == EXIT_LINK_FAILURE
        assert "LINK FAILURE" in capsys.readouterr().out
        rows = read_csv(os.path.join(outdir, "evaluate.csv"))
        assert rows[0]["link_viable"] == "false"

    def test_margin_zero_when_target_equals_rate(self, tmp_path, capsys):
        code1, outdir = run(tmp_path, "evaluate")
        achieved = read_csv(os.path.join(outdir, "evaluate.csv"))[0]["data_rate_bps"]
        code2, outdir2 = run(
            tmp_path / "again", "evaluate", f"--set=target_rate_bps={achieved}"
        )
        assert code2 == EXIT_OK
        rows = read_csv(os.path.join(outdir2, "evaluate.csv"))
        assert float(rows[0]["link_margin_db"]) == 0.0

    def test_bundle_contains_echo_and_summary(self, tmp_path):
        _, outdir = run(tmp_path, "evaluate")
        assert os.path.exists(os.path.join(outdir, "resolved_config.yaml"))
        assert os.path.exists(os.path.join(outdir, "summary.txt"))


class TestSweep:
    def test_one_csv_per_scenario(self, tmp_path):
        code, outdir = run(
            tmp_path,
            "sweep",
            "--set=scenarios=[clear_sky, heavy_rain, cloud_and_fog]",
            "--set=sweep.points=5",
        )
        assert code == EXIT_OK
        for name in ("clear_sky", "heavy_rain", "cloud_and_fog"):
            assert os.path.exists(os.path.join(outdir, f"sweep_{name}.csv"))

    def test_column_schema_and_row_count(self, tmp_path):
        _, outdir = run(tmp_path, "sweep", "--set=sweep.points=2")
        path = os.path.join(outdir, "sweep_clear_sky.csv")
        with open(path, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle))
        assert header == [
            "variable", "data_rate_bps", "link_margin_db",
            "l_fog_db", "l_rain_db", "l_cloud_db", "l_sci_db", "l_geo_db",
        ]
        rows = read_csv(path)
        assert len(rows) == 2
        assert [float(r["variable"]) for r in rows] == [1000.0, 20000.0]

    def test_divergence_variants_make_one_csv_each(self, tmp_path):
        code, outdir = run(
            tmp_path,
            "sweep",
            "--set=scenarios=[cloud_and_fog]",
            "--set=divergence_values_rad=[1e-3, 1e-5, 1e-6]",
            "--set=sweep.points=3",
        )
        assert code == EXIT_OK
        for tag in ("theta_1000urad", "theta_10urad", "theta_1urad"):
            assert os.path.exists(os.path.join(outdir, f"sweep_cloud_and_fog_{tag}.csv"))

    def test_rate_column_decreases_with_altitude(self, tmp_path):
        _, outdir = run(tmp_path, "sweep", "--set=sweep.points=12")
        rows = read_csv(os.path.join(outdir, "sweep_clear_sky.csv"))
        rates = [float(r["data_rate_bps"]) for r in rows]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_failed_rows_marked_nan_run_continues(self, tmp_path, capsys):
        code, outdir = run(
            tmp_path, "sweep", "--set=sweep.start=-1000", "--set=sweep.points=4"
        )
        assert code == EXIT_OK
        assert "warning" in capsys.readouterr().err
        rows = read_csv(os.path.join(outdir, "sweep_clear_sky.csv"))
        assert len(rows) == 4
        assert math.isnan(float(rows[0]["data_rate_bps"]))
        assert not math.isnan(float(rows[-1]["data_rate_bps"]))


class TestCost:
    def test_writes_all_csvs_and_ranking(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "cost")
        assert code == EXIT_OK
        for name in ("layout.csv", "cost_items.csv", "cost_summary.csv"):
            assert os.path.exists(os.path.join(outdir, name))
        summary = read_csv(os.path.join(outdir, "cost_summary.csv"))
        assert [r["technology"] for r in summary] == [
            "rf_nlos_ptm", "terrestrial_fso", "fiber", "vertical_fso",
        ]
        assert "vertical_fso" in capsys.readouterr().out

    def test_layout_csv_has_all_cells(self, tmp_path):
        _, outdir = run(tmp_path, "cost")
        rows = read_csv(os.path.join(outdir, "layout.csv"))
        kinds = [r["kind"] for r in rows]
        assert kinds.count("macro") == 100
        assert kinds.count("small") == 1000

    def test_capex_only_ranking_puts_fiber_last(self, tmp_path):
        _, outdir = run(tmp_path, "cost", "--set=cost.years=0")
        summary = read_csv(os.path.join(outdir, "cost_summary.csv"))
        assert summary[-1]["technology"] == "fiber"

    def test_seed_changes_layout_but_not_ordering(self, tmp_path):
        _, outdir1 = run(tmp_path / "a", "cost", "--set=seed=1")
        _, outdir2 = run(tmp_path / "b", "cost", "--set=seed=2")
        layout1 = open(os.path.join(outdir1, "layout.csv")).read()
        layout2 = open(os.path.join(outdir2, "layout.csv")).read()
        assert layout1 != layout2
        order1 = [r["technology"] for r in read_csv(os.path.join(outdir1, "cost_summary.csv"))]
        order2 = [r["technology"] for r in read_csv(os.path.join(outdir2, "cost_summary.csv"))]
        assert order1 == order2

    def test_items_sum_to_summary_totals(self, tmp_path):
        _, outdir = run(tmp_path, "cost")
        items = read_csv(os.path.join(outdir, "cost_items.csv"))
        summary = read_csv(os.path.join(outdir, "cost_summary.csv"))
        for row in summary:
            tech = row["technology"]
            capex = sum(
                float(i["total"]) for i in items if i["technology"] == tech and i["kind"] == "capex"
            )
            assert float(row["capex_usd"]) == pytest.approx(capex, rel=1e-12)

    def test_overflowing_area_diagonal_exits_1(self, tmp_path, capsys):
        code, outdir = run(
            tmp_path, "cost", "--set=cost.area_width_m=1e160", "--set=cost.area_height_m=1e160"
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: cost: width_m * width_m + height_m * height_m must be finite, "
            "got 1e+160 x 1e+160\n"
        )
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize(
        "overrides",
        [
            [],
            ["cost.vertical_fso.platform_cost=1e300"],
            ["cost.vertical_fso.cost_per_flight_hour=1e300", "cost.years=1e7"],
            ["cost.years=1e300"],
            ["cost.vertical_fso.platform_cost=1.7976931348623157e308"],
        ],
        ids=["default", "platform_cost", "opex", "years", "largest_price"],
    )
    def test_report_lines_fit_75_characters(self, tmp_path, capsys, overrides):
        code, _ = run(tmp_path, "cost", *[f"--set={override}" for override in overrides])
        assert code == EXIT_OK
        assert max(map(len, capsys.readouterr().out.splitlines())) <= 75

    def test_huge_prices_print_in_e_notation(self, tmp_path, capsys):
        run(tmp_path, "cost", "--set=cost.vertical_fso.platform_cost=1e300")
        assert (
            "  4    vertical_fso           2.0000e+301     118,971,500       2.0000e+301"
            in capsys.readouterr().out.splitlines()
        )

    @pytest.mark.parametrize(
        "value, text",
        [
            (math.nextafter(1e12 - 0.5, 0.0), "999,999,999,999"),
            (-math.nextafter(1e12 - 0.5, 0.0), "-999,999,999,999"),
            (1e12 - 0.5, "1.0000e+12"),  # rounds to 1,000,000,000,000
            (-1e12, "-1.0000e+12"),
            (math.inf, "inf"),
        ],
    )
    def test_report_switches_to_e_notation_where_dollars_reach_1e12(self, value, text):
        assert cli._dollars(value) == text

    @pytest.mark.filterwarnings("error")
    def test_largest_area_costs_finitely(self, tmp_path, capsys):
        code, outdir = run(
            tmp_path, "cost", "--set=cost.area_width_m=9e153", "--set=cost.area_height_m=9e153"
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        summary = read_csv(os.path.join(outdir, "cost_summary.csv"))
        assert all(math.isfinite(float(row["tco_usd"])) for row in summary)


class TestAggregate:
    def test_reports_supported_cells(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "aggregate")
        assert code == EXIT_OK
        rows = read_csv(os.path.join(outdir, "aggregate.csv"))
        assert len(rows) == 1
        cells = int(rows[0]["supported_cells_ceil"])
        rate = float(rows[0]["data_rate_bps"])
        assert cells == math.ceil(rate / 50e6)
        assert int(rows[0]["supported_cells_floor"]) <= cells

    def test_exact_multiple_is_not_oversubscribed(self, tmp_path):
        _, outdir = run(
            tmp_path, "aggregate", "--set=traffic.busy_rate_bps=1e6",
            "--set=traffic.peak_rate_bps=1e6",
        )
        rows = read_csv(os.path.join(outdir, "aggregate.csv"))
        assert rows[0]["oversubscribed"] in ("true", "false")


class TestErrorsAndDeterminism:
    def test_config_error_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "evaluate", "--set=geometry.divergence_rad=-1")
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override", ["geometry.divergence_rad=.nan", "geometry.nfp_altitude_m=.inf"]
    )
    def test_non_finite_geometry_exits_1(self, tmp_path, capsys, override):
        code, _ = run(tmp_path, "evaluate", f"--set={override}")
        assert code == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, override, message",
        [
            ("evaluate", "transceiver.transmit_power_w=.inf", "transceiver.transmit_power_w: "),
            ("evaluate", "fog.visibility_m=.nan", "fog.visibility_m: "),
            ("evaluate", "fog.visibility_m=1e-322", "fog.visibility_m: 1e-322 underflows to 0"),
            (
                "evaluate",
                "geometry.elevation_deg=1e-322",
                "geometry.elevation_deg: 1e-322 underflows to 0",
            ),
            (
                "evaluate",
                "turbulence.reference_altitude_m=.nan",
                "turbulence.reference_altitude_m: ",
            ),
            ("evaluate", 'geometry.divergence_rad="inf"', "geometry.divergence_rad: "),
            ("cost", "cost.area_width_m=.inf", "cost.area_width_m: "),
            ("cost", "cost.years=.inf", "cost.years: "),
            (
                "cost",
                "cost.fiber.install_cost_per_m=-5",
                "cost.fiber: install_cost_per_m must be non-negative",
            ),
            ("cost", "cost.rf_nlos.modules_per_hub=0", "cost.rf_nlos: modules_per_hub must be >= 1"),
            (
                "cost",
                "cost.terrestrial_fso.nlos_fraction=1.5",
                "cost.terrestrial_fso: nlos_fraction must be in [0, 1]",
            ),
            (
                "cost",
                "cost.terrestrial_fso.nlos_hop_count=0",
                "cost.terrestrial_fso: nlos_hop_count must be >= 1",
            ),
            (
                "cost",
                "cost.vertical_fso.n_platforms=-1",
                "cost.vertical_fso: n_platforms must be non-negative",
            ),
            ("aggregate", "traffic.peak_rate_bps=-.inf", "traffic.peak_rate_bps: "),
            (
                "aggregate",
                "traffic={busy_rate_bps: 1e-300, peak_rate_bps: 1e-300}",
                "traffic: link_rate_bps / busy_rate_bps must be finite",
            ),
            (
                "evaluate",
                "transceiver.wavelength_nm=5e-324",
                "transceiver: wavelength_nm * 1e-9 must be positive",
            ),
            (
                "evaluate",
                "transceiver.receiver_sensitivity_photons_per_bit=5e-324",
                "transceiver: the lossless rate",
            ),
            ("evaluate", "transceiver.transmit_power_w=1e300", "transceiver: the lossless rate"),
            ("sweep", "transceiver.transmit_power_w=1e300", "transceiver: the lossless rate"),
            ("sweep", "divergence_values_rad=[.nan]", "divergence_values_rad[0]: "),
            ("evaluate", "target_rate_bps=1e-300", "config: target_rate_bps 1e-300 overflows"),
            ("sweep", "target_rate_bps=1e-300", "config: target_rate_bps 1e-300 overflows"),
            (
                "evaluate",
                "clouds=[{base_altitude_m: 1000}, {base_altitude_m: 1010}]",
                "clouds: cloud layers overlap",
            ),
        ],
    )
    def test_invalid_numbers_exit_1_without_traceback(
        self, tmp_path, capsys, command, override, message
    ):
        code, outdir = run(tmp_path, command, f"--set={override}")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize(
        "overrides",
        [
            # (lambda / 550)^(-delta) overflows in the Mie term: inf dB of fog.
            ["scenarios=[fog_dense]", "transceiver.wavelength_nm=1e-300", "fog.visibility_m=1e4"],
            # LWC * N_d underflows: a cloud visibility of ~8e258 km.
            ["scenarios=[cloud_and_fog]", cloud_override("1e-200", "1e-200")],
            # LWC * N_d overflows and the visibility underflows to 0: inf dB of cloud.
            ["scenarios=[cloud_and_fog]", cloud_override("1e300", "1e300")],
        ],
    )
    def test_weather_at_the_float_edges_is_answered(self, tmp_path, capsys, overrides):
        settings = [f"--set={override}" for override in overrides]
        code, outdir = run(tmp_path, "evaluate", *settings)
        assert code == EXIT_LINK_FAILURE
        point = read_csv(os.path.join(outdir, "evaluate.csv"))[0]
        code, outdir = run(tmp_path / "sweep", "sweep", *settings)
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = read_csv(os.path.join(outdir, f"sweep_{point['scenario']}.csv"))
        assert all("nan" not in row.values() for row in rows)
        # The first row sits at the cloud base, the last at the evaluated 20 km.
        assert rows[0]["l_cloud_db"] == "0.0"
        for key in ("l_fog_db", "l_cloud_db", "link_margin_db"):
            assert math.isclose(float(rows[-1][key]), float(point[key]), rel_tol=1e-12), key

    @pytest.mark.parametrize(
        "overrides",
        [
            # No rain over an infinite slant.
            [
                "scenarios=[heavy_rain]",
                "rain.rate_mm_per_hour=0",
                "rain.layer_thickness_m=1e308",
                "geometry.elevation_deg=1e-300",
            ],
            # A Mie loss that underflows to 0 over an infinite slant.
            [
                "scenarios=[fog_dense]",
                "fog.visibility_m=1e300",
                "fog.layer_thickness_m=1e308",
                "transceiver.wavelength_nm=1e290",
                "geometry.elevation_deg=1e-300",
            ],
        ],
        ids=["rain", "fog"],
    )
    def test_zero_specific_loss_over_an_infinite_slant_is_answered(
        self, tmp_path, capsys, overrides
    ):
        settings = [f"--set={override}" for override in overrides]
        code, outdir = run(tmp_path, "evaluate", *settings)
        assert code == EXIT_LINK_FAILURE
        report = capsys.readouterr().out
        assert "fog=0.000 rain=0.000" in report and "nan" not in report
        point = read_csv(os.path.join(outdir, "evaluate.csv"))[0]
        assert point["l_fog_db"] == point["l_rain_db"] == "0.0"
        assert "nan" not in point.values()
        code, outdir = run(tmp_path / "sweep", "sweep", *settings)
        assert code == EXIT_OK
        assert "nan" not in capsys.readouterr().out
        rows = read_csv(os.path.join(outdir, f"sweep_{point['scenario']}.csv"))
        assert all("nan" not in row.values() for row in rows)

    def test_underflowing_efficiencies_are_answered(self, tmp_path, capsys):
        # 1e-200 * 1e-200 underflows: 4000 dB of optical loss, no power left.
        code, outdir = run(
            tmp_path,
            "evaluate",
            "--set=transceiver.tx_efficiency=1e-200",
            "--set=transceiver.rx_efficiency=1e-200",
        )
        assert code == EXIT_LINK_FAILURE
        assert capsys.readouterr().err == ""
        row = read_csv(os.path.join(outdir, "evaluate.csv"))[0]
        cells = (row["l_opt_db"], row["data_rate_bps"], row["link_margin_db"])
        assert cells == ("4000.0", "0.0", "-inf")

    def test_longest_wavelength_is_answered(self, tmp_path, capsys):
        # 23.17 k^(7/6) underflows to 0 at 1e290 nm; the log of it is built
        # from its factors. The sweep's last row is the evaluated point.
        override = "--set=transceiver.wavelength_nm=1e290"
        code, outdir = run(tmp_path, "evaluate", override)
        assert code == EXIT_OK
        point = read_csv(os.path.join(outdir, "evaluate.csv"))[0]
        code, outdir = run(tmp_path / "sweep", "sweep", override)
        assert code == EXIT_OK
        last = read_csv(os.path.join(outdir, "sweep_clear_sky.csv"))[-1]
        assert float(last["variable"]) == float(point["nfp_altitude_m"])
        for key in ("data_rate_bps", "link_margin_db", "l_sci_db", "l_geo_db"):
            assert math.isclose(float(last[key]), float(point[key]), rel_tol=1e-12), key
        assert math.isfinite(float(point["link_margin_db"]))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "divergence, expected", [("1e-300", EXIT_OK), ("1e300", EXIT_LINK_FAILURE)]
    )
    def test_extreme_divergence_is_answered(self, tmp_path, capsys, divergence, expected):
        code, outdir = run(tmp_path, "evaluate", f"--set=geometry.divergence_rad={divergence}")
        assert code == expected
        row = read_csv(os.path.join(outdir, "evaluate.csv"))[0]
        if expected == EXIT_OK:
            assert row["l_geo_db"] == "0.0"
        else:
            cells = (row["l_geo_db"], row["data_rate_bps"], row["link_margin_db"])
            assert cells == ("inf", "0.0", "-inf")

    def test_extreme_altitude_is_answered(self, tmp_path, capsys):
        # (1e-5 h)^10 would overflow in the Cn^2 wind term; capped, Cn^2 is 0.
        code, outdir = run(tmp_path, "evaluate", "--set=geometry.nfp_altitude_m=1e36")
        assert code == EXIT_LINK_FAILURE
        row = read_csv(os.path.join(outdir, "evaluate.csv"))[0]
        assert row["l_sci_db"] == "0.0"
        assert float(row["link_margin_db"]) == pytest.approx(-621.79, abs=0.01)

    @pytest.mark.parametrize(
        "overrides, line",
        [
            (["geometry.nfp_altitude_m=1e36"], "  NFP altitude         : 1.0e+36 m"),
            (
                [
                    "scenarios=[heavy_rain]",
                    "rain.layer_thickness_m=1e308",
                    "rain.rate_mm_per_hour=0",
                    "geometry.elevation_deg=1e-300",
                ],
                "  losses (dB)          : fog=0.000 rain=0.000 cloud=0.000 "
                "scintillation=2.150e+276 geometrical=inf pointing=2.000 optical=2.000",
            ),
        ],
        ids=["altitude", "loss"],
    )
    def test_huge_report_fields_print_in_e_notation(self, tmp_path, capsys, overrides, line):
        run(tmp_path, "evaluate", *[f"--set={override}" for override in overrides])
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "value, digits, text",
        [
            (999999999.94, 1, "999999999.9"),
            (-999999999.9994, 3, "-999999999.999"),
            (1e9, 1, "1.0e+09"),
            (-1e9, 3, "-1.000e+09"),
            (math.inf, 3, "inf"),
        ],
    )
    def test_report_switches_to_e_notation_at_1e9(self, value, digits, text):
        assert cli._fixed(value, digits) == text

    @pytest.mark.parametrize("altitude", ["1e200", "1e300"])
    def test_overflowing_slant_path_is_answered(self, tmp_path, capsys, altitude):
        # l^(11/6) in the scintillation term overflows; Cn^2 is 0 there, so 0 dB.
        code, outdir = run(tmp_path, "evaluate", f"--set=geometry.nfp_altitude_m={altitude}")
        assert code in (EXIT_OK, EXIT_LINK_FAILURE)
        assert capsys.readouterr().err == ""
        row = read_csv(os.path.join(outdir, "evaluate.csv"))[0]
        assert row["l_sci_db"] == "0.0"

    def test_overflowing_wind_term_is_answered(self, tmp_path, capsys):
        # (v / 27)^2 in the Cn^2 wind term overflows; Cn^2 is inf at 20 km.
        code, outdir = run(tmp_path, "evaluate", "--set=turbulence.wind_speed_m_per_s=1e200")
        assert code == EXIT_LINK_FAILURE
        row = read_csv(os.path.join(outdir, "evaluate.csv"))[0]
        assert (row["l_sci_db"], row["link_margin_db"]) == ("inf", "-inf")
        code, outdir = run(
            tmp_path / "sweep", "sweep", "--set=turbulence.wind_speed_m_per_s=1e200"
        )
        assert code == EXIT_OK
        rows = read_csv(os.path.join(outdir, "sweep_clear_sky.csv"))
        assert rows and all("nan" not in row.values() for row in rows)
        assert capsys.readouterr().err == ""

    def test_unknown_command_exits_1(self, capsys):
        assert main(["fly"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "evaluate", "--set=warp_drive=1")
        assert code == EXIT_USAGE

    def test_identical_runs_are_byte_identical(self, tmp_path):
        _, outdir1 = run(tmp_path / "a", "sweep", "--set=sweep.points=7", "--set=seed=5")
        _, outdir2 = run(tmp_path / "b", "sweep", "--set=sweep.points=7", "--set=seed=5")
        names1 = sorted(os.listdir(outdir1))
        assert names1 == sorted(os.listdir(outdir2))
        for name in names1:
            a = open(os.path.join(outdir1, name), "rb").read()
            b = open(os.path.join(outdir2, name), "rb").read()
            if name == "resolved_config.yaml":
                # differs only in the output_dir line, by construction
                continue
            assert a == b, name

    def test_resolved_echo_reproduces_the_bundle(self, tmp_path):
        _, outdir1 = run(tmp_path / "a", "sweep", "--set=sweep.points=4")
        echo = os.path.join(outdir1, "resolved_config.yaml")
        outdir2 = str(tmp_path / "b")
        code = main(["sweep", "--config", echo, f"--set=output_dir={outdir2}"])
        assert code == EXIT_OK
        for name in sorted(os.listdir(outdir1)):
            if name == "resolved_config.yaml":
                continue
            a = open(os.path.join(outdir1, name), "rb").read()
            b = open(os.path.join(outdir2, name), "rb").read()
            assert a == b, name


# Each CSV's columns, in order. The CLI states them only in its table literals.
@pytest.mark.parametrize(
    "command, name, header",
    [
        (
            "evaluate",
            "evaluate.csv",
            [
                "scenario", "nfp_altitude_m", "data_rate_bps", "link_margin_db",
                "received_power_w", "l_fog_db", "l_rain_db", "l_cloud_db", "l_sci_db",
                "l_geo_db", "l_poi_db", "l_opt_db", "link_viable",
            ],
        ),
        (
            "aggregate",
            "aggregate.csv",
            [
                "scenario", "data_rate_bps", "busy_rate_bps", "peak_rate_bps",
                "supported_cells_ceil", "supported_cells_floor", "oversubscribed",
                "aggregated_demand_bps",
            ],
        ),
        (
            "sweep",
            "sweep_clear_sky.csv",
            [
                "variable", "data_rate_bps", "link_margin_db",
                "l_fog_db", "l_rain_db", "l_cloud_db", "l_sci_db", "l_geo_db",
            ],
        ),
        ("cost", "layout.csv", ["kind", "x_m", "y_m"]),
        (
            "cost",
            "cost_items.csv",
            ["technology", "item", "kind", "unit_cost", "quantity", "total"],
        ),
        (
            "cost",
            "cost_summary.csv",
            ["rank", "technology", "capex_usd", "opex_per_year_usd", "years", "tco_usd"],
        ),
    ],
    ids=["evaluate", "aggregate", "sweep", "layout", "cost_items", "cost_summary"],
)
def test_csv_header(tmp_path, capsys, command, name, header):
    code, outdir = run(tmp_path, command)
    assert code == EXIT_OK
    with open(os.path.join(outdir, name), "rb") as handle:
        assert handle.readline() == (",".join(header) + "\r\n").encode("utf-8")


def row_writer_bytes(header, rows):
    """The reference rendering of a table: csv.writer over per-cell strings
    (bools as true/false, floats as repr, anything else as str)."""

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(value) for value in row])
    return buffer.getvalue().encode("utf-8")


def column_writer_bytes(tmp_path, header, columns):
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), dict(zip(header, columns)))
    return path.read_bytes()


def as_rows(columns):
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


SPECIAL_FLOATS = [
    math.nan,
    -math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,  # smallest normal
    2.225073858507201e-308,  # largest subnormal
    1.7976931348623157e308,
    0.1,
    1e16,
    123456.789,
]
# No NUL: csv.writer before Python 3.11 refuses it ("need to escape").
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", '"', "\r", "\n", " ", "a"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=6,
)
SMALL_CHUNK = 5

# Cells with the same repr whose bits differ, or with different reprs whose
# values compare equal: a chunk that holds one where the last file held the
# other must not take the last file's cells, and neighbouring cells must not
# share a run.
NAN_WITH_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
TWINS = [(0.0, -0.0), (-0.0, 0.0), (math.nan, -math.nan), (math.nan, NAN_WITH_PAYLOAD)]
TWIN_CELLS = [cell for pair in TWINS for cell in pair]


def column_strategy(n_rows):
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    # A small pool makes most values repeat, scattered more often than in runs.
    pooled = st.lists(floats, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)
    )
    # Runs of equal cells, twins often side by side, which the writer formats once per run.
    runs = st.lists(st.one_of(floats, st.sampled_from(TWIN_CELLS)), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.integers(1, n_rows), min_size=len(pool), max_size=len(pool)).map(
            lambda lengths: np.resize(np.repeat(pool, lengths), n_rows)
        )
    )
    return st.one_of(
        st.lists(floats, min_size=n_rows, max_size=n_rows).map(np.array),
        pooled.map(np.array),
        runs,
        st.lists(st.integers(), min_size=n_rows, max_size=n_rows),
        st.lists(st.booleans(), min_size=n_rows, max_size=n_rows),
        st.lists(TEXT, min_size=n_rows, max_size=n_rows),
        st.lists(st.one_of(floats, st.integers(), st.booleans(), TEXT), min_size=n_rows, max_size=n_rows),
    )


@st.composite
def tables(draw):
    n_rows = draw(st.sampled_from([1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 3]))
    n_columns = draw(st.integers(min_value=2, max_value=5))
    # A mapping holds each column name once, as every command's CSV does.
    header = draw(st.lists(TEXT, min_size=n_columns, max_size=n_columns, unique=True))
    return header, [draw(column_strategy(n_rows)) for _ in range(n_columns)]


@st.composite
def sweep_files(draw):
    """The float64 columns of a run of CSV files that share a reuse map. Each
    column of a file after the first repeats the last file's, repeats it but
    for twin cells, or is new; row counts span more than one chunk and are
    not a multiple of it."""
    n_rows = draw(st.sampled_from([SMALL_CHUNK + 1, 2 * SMALL_CHUNK - 1, 2 * SMALL_CHUNK + 3]))
    n_columns = draw(st.integers(min_value=1, max_value=3))
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    column = st.lists(floats, min_size=n_rows, max_size=n_rows).map(np.array)
    files = [[draw(column) for _ in range(n_columns)]]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        columns = []
        for last in files[-1]:
            kind = draw(st.sampled_from(["same", "twins", "new"]))
            if kind == "new":
                columns.append(draw(column))
                continue
            current = last.copy()
            if kind == "twins":
                for row in draw(st.sets(st.integers(0, n_rows - 1), min_size=1, max_size=3)):
                    last[row], current[row] = draw(st.sampled_from(TWINS))
            columns.append(current)
        files.append(columns)
    return files


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestColumnWriter:
    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_matches_csv_writer(self, csv_dir, table):
        header, columns = table
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", SMALL_CHUNK):
            got = column_writer_bytes(csv_dir, header, columns)
        assert got == row_writer_bytes(header, as_rows(columns))

    # 1, chunk - 1, chunk, chunk + 1 and 2 * chunk + 3 rows
    @pytest.mark.parametrize("chunks, extra_rows", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_matches_csv_writer_at_the_real_chunk_size(self, tmp_path, chunks, extra_rows):
        n_rows = chunks * cli.CSV_CHUNK_ROWS + extra_rows
        rng = np.random.default_rng(n_rows)
        distinct = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows)
        repeated = rng.choice(np.array(SPECIAL_FLOATS), n_rows)
        texts = rng.choice(["a,b", 'say "hi"', "line\r\nbreak", "plain", ""], n_rows).tolist()
        columns = [distinct, repeated, texts, rng.integers(-9, 9, n_rows).tolist()]
        header = ["distinct", "repeated", "text", "int"]
        got = column_writer_bytes(tmp_path, header, columns)
        assert got == row_writer_bytes(header, as_rows(columns))

    def test_fig2_sweeps_match_csv_writer(self, tmp_path):
        fig2 = os.path.join(os.path.dirname(__file__), "..", "configs", "fig2.cfg")
        code, outdir = run(tmp_path, "sweep", "--config", fig2)
        assert code == EXIT_OK
        config = load_config(fig2)
        for scenario in config.scenarios():
            sweep = run_sweep(
                config.sweep, scenario, config.transceiver, config.geometry, config.target_rate_bps
            )
            c, b = sweep.columns, sweep.columns.loss_breakdown
            columns = (
                sweep.values, c.data_rate_bps, c.link_margin_db,
                b.fog_db, b.rain_db, b.cloud_db, b.scintillation_db, b.geometrical_db,
            )
            header = [
                "variable", "data_rate_bps", "link_margin_db",
                "l_fog_db", "l_rain_db", "l_cloud_db", "l_sci_db", "l_geo_db",
            ]
            with open(os.path.join(outdir, f"sweep_{scenario.label}.csv"), "rb") as handle:
                assert handle.read() == row_writer_bytes(header, as_rows(columns))

    def test_layout_matches_csv_writer(self, tmp_path):
        code, outdir = run(
            tmp_path, "cost", "--set=cost.n_macro=1000", "--set=cost.n_small=2000", "--set=seed=3"
        )
        assert code == EXIT_OK
        config = load_config(None, ["cost.n_macro=1000", "cost.n_small=2000", "seed=3"])
        layout = generate_layout(1000, 2000, config.cost.area, 3)
        rows = [("macro", x, y) for x, y in layout.macro_positions.tolist()]
        rows += [("small", x, y) for x, y in layout.small_positions.tolist()]
        with open(os.path.join(outdir, "layout.csv"), "rb") as handle:
            assert handle.read() == row_writer_bytes(("kind", "x_m", "y_m"), rows)

    @settings(max_examples=150, deadline=None)
    @given(sweep_files())
    def test_reuse_map_writes_the_same_bytes(self, csv_dir, files):
        header = [f"c{index}" for index in range(len(files[0]))]
        reuse = {}
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", SMALL_CHUNK):
            for columns in files:
                path = csv_dir / "reused.csv"
                cli._write_csv(str(path), dict(zip(header, columns)), reuse)
                assert path.read_bytes() == column_writer_bytes(csv_dir, header, columns)

    def test_repeated_chunks_are_formatted_once(self, tmp_path):
        n_rows = 2 * cli.CSV_CHUNK_ROWS + 3
        grid = np.linspace(0.0, 1.0, n_rows)
        zeros = np.zeros(n_rows)
        reuse = {}
        with mock.patch.object(cli, "_format_column", wraps=cli._format_column) as formatter:
            cli._write_csv(str(tmp_path / "a.csv"), {"x": grid, "y": zeros}, reuse)
            assert formatter.call_count == 6
            cli._write_csv(str(tmp_path / "b.csv"), {"x": grid.copy(), "y": -zeros}, reuse)
            assert formatter.call_count == 9
        assert len(reuse) == 6
        got = (tmp_path / "b.csv").read_bytes()
        assert got == row_writer_bytes(["x", "y"], as_rows([grid, -zeros]))
        assert b",-0.0\r\n" in got and b",0.0\r\n" not in got

    @pytest.mark.parametrize(
        "lengths, repr_calls",
        [
            ([4, 1, 3, 2], 4),  # 4 runs over 10 cells: one repr per run
            ([2, 2, 2, 2, 2, 2], 6),  # 6 runs over 12 cells, half repeating: one per run
            ([2, 2, 2, 2, 2, 1], 11),  # 6 runs over 11 cells: one repr per cell
        ],
    )
    def test_a_chunk_of_runs_calls_repr_once_per_run(self, lengths, repr_calls):
        chunk = np.repeat([0.5, 0.0, -0.0, math.nan, NAN_WITH_PAYLOAD, 0.5, 1e16][: len(lengths)], lengths)
        with mock.patch.object(cli, "repr", wraps=repr, create=True) as counted:
            cells = cli._format_column(chunk)
        assert counted.call_count == repr_calls
        assert cells == list(map(repr, chunk.tolist()))

    def test_adjacent_twins_stay_distinct_inside_runs(self):
        twins = np.array([0.0, -0.0, math.nan, NAN_WITH_PAYLOAD, -math.nan, math.nan])
        chunk = np.repeat(twins, 3)
        with mock.patch.object(cli, "repr", wraps=repr, create=True) as counted:
            cells = cli._format_column(chunk)
        assert counted.call_count == len(twins)
        assert cells == ["0.0"] * 3 + ["-0.0"] * 3 + ["nan"] * 12
        assert [call.args[0] for call in counted.call_args_list[:2]] == [0.0, -0.0]
        assert math.copysign(1.0, counted.call_args_list[1].args[0]) == -1.0

    def test_a_mixed_column_keeps_each_cell_apart(self):
        assert cli._format_column([True, 1, 1.0, "1"]) == ["true", "1", "1.0", "1"]
        assert cli._format_column([0.0, -0.0, False, 0]) == ["0.0", "-0.0", "false", "0"]
        assert cli._format_column(["a,b", "1", "a,b"]) == ['"a,b"', "1", '"a,b"']

    def test_layout_labels_are_formatted_once_per_chunk(self, tmp_path):
        with mock.patch.object(cli, "_fmt", wraps=cli._fmt) as fmt:
            code, outdir = run(tmp_path, "cost", "--set=cost.n_macro=1000", "--set=cost.n_small=5000")
        assert code == EXIT_OK
        labels = [call.args[0] for call in fmt.call_args_list if call.args[0] in ("macro", "small")]
        # 6000 rows in chunks of 2048: macro and small in the first, small in the other two.
        assert sorted(labels) == ["macro", "small", "small", "small"]
        rows = read_csv(os.path.join(outdir, "layout.csv"))
        assert [row["kind"] for row in rows] == ["macro"] * 1000 + ["small"] * 5000

    @pytest.mark.parametrize(
        "sweep",
        [
            ["--set=sweep.start=0", "--set=sweep.stop=20000"],  # row 0 fails
            [
                "--set=sweep.variable=divergence",
                "--set=sweep.scale=log",
                "--set=sweep.start=1e-6",
                "--set=sweep.stop=1e-2",
            ],
        ],
        ids=["altitude_from_0_m", "log_divergence"],
    )
    def test_sweep_bundle_matches_a_run_without_reuse(self, tmp_path, capsys, sweep):
        argv = [
            "sweep",
            "--set=scenarios=[clear_sky, fog_dense, heavy_rain, cloud_and_fog, rain_and_cloud]",
            "--set=sweep.points=10000",
            *sweep,
        ]
        write_csv = cli._write_csv

        def without_reuse(path, table, reuse=None):
            write_csv(path, table)

        with mock.patch.object(cli, "_format_column", wraps=cli._format_column) as formatter:
            code, outdir = run(tmp_path / "reused", *argv)
            assert code == EXIT_OK
            reused_calls = formatter.call_count
            with mock.patch.object(cli, "_write_csv", without_reuse):
                code, plain_outdir = run(tmp_path / "plain", *argv)
            assert code == EXIT_OK
            plain_calls = formatter.call_count - reused_calls
        assert reused_calls < plain_calls
        names = sorted(os.listdir(outdir))
        assert names == sorted(os.listdir(plain_outdir)) and len(names) == 7
        for name in names:
            if name != "resolved_config.yaml":  # differs in output_dir alone
                with open(os.path.join(outdir, name), "rb") as a, open(
                    os.path.join(plain_outdir, name), "rb"
                ) as b:
                    assert a.read() == b.read(), name
