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

    def test_the_report_gives_the_elevation_to_two_decimals(self, tmp_path, capsys):
        run(tmp_path, "evaluate", "--set=geometry.elevation_deg=33.25")
        assert "  elevation            : 33.25 deg\n" in capsys.readouterr().out

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

    def test_row_count_and_grid(self, tmp_path):
        _, outdir = run(tmp_path, "sweep", "--set=sweep.points=2")
        rows = read_csv(os.path.join(outdir, "sweep_clear_sky.csv"))
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

    @pytest.mark.parametrize(
        "overrides",
        [
            [],
            ["cost.vertical_fso.platform_cost=1e9", "cost.vertical_fso.n_platforms=10000000"],
            ["cost.vertical_fso.cost_per_flight_hour=1e9", "cost.vertical_fso.flight_hours_per_year=8760"],
            ["cost.years=1000"],
            # The largest TCO of the domain on this layout: 1e10 links at 1e9 $ a year for 1000 years.
            [
                "cost.terrestrial_fso.nlos_fraction=1",
                "cost.terrestrial_fso.nlos_hop_count=10000000",
                "cost.terrestrial_fso.power_maintenance_per_link_year=1e9",
                "cost.years=1000",
            ],
        ],
        ids=["default", "platform_cost", "opex", "years", "largest_tco"],
    )
    def test_report_lines_fit_75_characters(self, tmp_path, capsys, overrides):
        code, _ = run(tmp_path, "cost", *[f"--set={override}" for override in overrides])
        assert code == EXIT_OK
        assert max(map(len, capsys.readouterr().out.splitlines())) <= 75

    def test_huge_prices_print_in_e_notation(self, tmp_path, capsys):
        run(
            tmp_path, "cost", "--set=cost.vertical_fso.platform_cost=1e9",
            "--set=cost.vertical_fso.n_platforms=10000000",
        )
        assert (
            "  4    vertical_fso            1.0000e+16      5.9486e+13        1.0059e+16"
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
            tmp_path, "cost", "--set=cost.area_width_m=1e6", "--set=cost.area_height_m=1e6"
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

    def test_the_advisory_is_printed_exactly_when_the_link_is_oversubscribed(self, tmp_path, capsys):
        advisory = "  advisory             : ceiling count oversubscribes the link during busy hour\n"
        _, outdir = run(tmp_path, "aggregate")
        rows = read_csv(os.path.join(outdir, "aggregate.csv"))
        assert rows[0]["oversubscribed"] == "true"  # 42.06 Gbit/s is no multiple of 50 Mbit/s
        assert advisory in capsys.readouterr().out
        rate = rows[0]["data_rate_bps"]  # one cell whose busy rate is the link's
        _, outdir = run(tmp_path / "exact", "aggregate", f"--set=traffic.busy_rate_bps={rate}",
                        f"--set=traffic.peak_rate_bps={rate}")
        assert read_csv(os.path.join(outdir, "aggregate.csv"))[0]["oversubscribed"] == "false"
        assert advisory not in capsys.readouterr().out


class TestErrorsAndDeterminism:
    # 1e300 rad, whose capture would underflow to 0, is beyond the domain: a config error.
    @pytest.mark.parametrize("divergence, expected", [("1e-300", EXIT_OK)])
    def test_extreme_divergence_is_answered(self, tmp_path, capsys, divergence, expected):
        code, outdir = run(tmp_path, "evaluate", f"--set=geometry.divergence_rad={divergence}")
        assert code == expected
        assert read_csv(os.path.join(outdir, "evaluate.csv"))[0]["l_geo_db"] == "0.0"

    def test_huge_losses_print_in_e_notation(self, tmp_path, capsys):
        # The domain's longest rain slant, ~1e7 km, and its heaviest rain.
        overrides = [
            "scenarios=[heavy_rain]",
            "rain.layer_thickness_m=1e6",
            "rain.rate_mm_per_hour=1e300",
            "geometry.elevation_deg=0.00573",
        ]
        run(tmp_path, "evaluate", *[f"--set={override}" for override in overrides])
        (line,) = [line for line in capsys.readouterr().out.splitlines() if "losses" in line]
        assert line.startswith("  losses (dB)          : fog=0.000 rain=1.")
        assert "e+208 cloud=0.000 scintillation=" in line

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

    def test_unknown_command_exits_1(self, capsys):
        assert main(["fly"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unwritable_output_dir_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main(["evaluate", f"--set=output_dir={blocker / 'out'}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(blocker) in err and err.count("\n") == 1

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "evaluate", "--set=warp_drive=1")
        assert code == EXIT_USAGE


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
