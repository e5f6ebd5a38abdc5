"""Tests of the command-line interface: exit codes, CSV bundles, determinism."""

import csv
import math
import os

import pytest

from vfso.cli import EXIT_LINK_FAILURE, EXIT_OK, EXIT_USAGE, main


def run(tmp_path, *argv):
    outdir = str(tmp_path / "out")
    return main(list(argv) + [f"--set=output_dir={outdir}"]), outdir


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
            (
                "evaluate",
                "turbulence.reference_altitude_m=.nan",
                "turbulence.reference_altitude_m: ",
            ),
            ("evaluate", 'geometry.divergence_rad="inf"', "geometry.divergence_rad: "),
            ("cost", "cost.area_width_m=.inf", "cost.area_width_m: "),
            ("cost", "cost.years=.inf", "cost.years: "),
            ("aggregate", "traffic.peak_rate_bps=-.inf", "traffic.peak_rate_bps: "),
            ("sweep", "divergence_values_rad=[.nan]", "divergence_values_rad[0]: "),
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
