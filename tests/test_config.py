"""Tests of config loading, validation, overrides, and the resolved echo."""

import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, strategies as st

from vfso.aggregation import DEFAULT_TRAFFIC
from vfso.config import (
    ConfigError,
    CostConfig,
    RunConfig,
    config_from_mapping,
    load_config,
    parse_overrides,
    resolved_mapping,
    resolved_yaml,
)
from vfso.hetnet_cost import DEFAULT_AREA, CostParams
from vfso.link_budget import DEFAULT_TARGET_RATE_BPS, evaluate_link
from vfso.scenario import (
    DEFAULT_CLOUD_PROFILE,
    DEFAULT_FOG,
    DEFAULT_RAIN,
    DEFAULT_SWEEP,
    DEFAULT_TURBULENCE,
    default_parameters,
)

REPO = Path(__file__).resolve().parent.parent


class TestDefaults:
    def test_empty_document_gives_reference_defaults(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        config = load_config(str(empty))
        assert config.transceiver.transmit_power_w == 0.2
        assert config.transceiver.wavelength_nm == 1550.0
        assert config.geometry.nfp_altitude_m == 20000.0
        assert config.geometry.elevation_rad == pytest.approx(math.radians(45.0))
        assert config.geometry.receiver_radius_m == 0.04
        assert config.turbulence.wind_speed_m_per_s == 21.0
        assert config.fog.visibility_km == pytest.approx(0.05)
        assert config.rain.rate_mm_per_hour == 50.0
        assert config.target_rate_bps == 3.0e9
        assert config.scenario_names == ("clear_sky",)
        assert config.sweep.points == 40
        assert config.cost.n_macro == 100 and config.cost.n_small == 1000

    def test_no_path_equals_empty_document(self):
        assert load_config() == config_from_mapping({})

    def test_output_dir_env_var_provides_default(self, monkeypatch):
        monkeypatch.setenv("VFSO_OUTDIR", "/tmp/from-env")
        assert load_config().output_dir == "/tmp/from-env"
        # explicit config still wins
        assert config_from_mapping({"output_dir": "elsewhere"}).output_dir == "elsewhere"

    def test_output_dir_defaults_to_out(self, monkeypatch):
        monkeypatch.delenv("VFSO_OUTDIR", raising=False)
        assert load_config().output_dir == "out"

    def test_optical_loss_resolves_to_even_split(self):
        config = load_config()
        assert config.transceiver.tx_efficiency == pytest.approx(10 ** -0.1, rel=1e-12, abs=0)
        product = config.transceiver.tx_efficiency * config.transceiver.rx_efficiency
        assert -10 * math.log10(product) == pytest.approx(2.0, rel=1e-12)


class TestValidation:
    def test_negative_divergence_names_the_field(self):
        with pytest.raises(ConfigError, match="geometry.*divergence_rad"):
            config_from_mapping({"geometry": {"divergence_rad": -1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key.*'telescope'"):
            config_from_mapping({"telescope": 1})

    def test_unknown_nested_key_carries_path(self):
        with pytest.raises(ConfigError, match="transceiver.*'gain'"):
            config_from_mapping({"transceiver": {"gain": 30}})

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="scenarios\\[1\\]"):
            config_from_mapping({"scenarios": ["clear_sky", "blizzard"]})

    def test_duplicate_scenario_name(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_mapping({"scenarios": ["clear_sky", "clear_sky"]})

    def test_efficiencies_and_optical_loss_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            config_from_mapping(
                {"transceiver": {"optical_loss_db": 2.0, "tx_efficiency": 0.8}}
            )

    def test_non_numeric_value_is_rejected(self):
        with pytest.raises(ConfigError, match="fog.visibility_m"):
            config_from_mapping({"fog": {"visibility_m": "dense"}})

    def test_section_that_is_not_a_mapping(self):
        with pytest.raises(ConfigError, match="^fog: expected a mapping, got int$"):
            config_from_mapping(parse_overrides(["fog=3"]))

    def test_string_field_given_a_number(self):
        with pytest.raises(ConfigError, match="^sweep.variable: expected a string, got 5$"):
            config_from_mapping(parse_overrides(["sweep.variable=5"]))

    @pytest.mark.parametrize("text, kind", [("3", "int"), ("{thickness_m: 48}", "dict"), ("deck", "str")])
    def test_clouds_given_a_non_list(self, text, kind):
        with pytest.raises(ConfigError, match=f"^clouds: expected a list of layers, got {kind}$"):
            config_from_mapping(parse_overrides([f"clouds={text}"]))

    @pytest.mark.parametrize("key", ["clouds", "scenarios"])
    def test_null_list_keeps_its_default(self, key):
        assert config_from_mapping({key: None}) == RunConfig()
        assert config_from_mapping(parse_overrides([f"{key}=null"])) == RunConfig()

    def test_string_scientific_notation_is_accepted(self):
        # YAML 1.1 parses 1e-6 as a string; the loader copes
        config = config_from_mapping({"geometry": {"divergence_rad": "1e-6"}})
        assert config.geometry.divergence_rad == 1e-6

    def test_bad_yaml_file(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("geometry: [unclosed")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(bad))

    def test_a_file_with_an_int_of_too_many_digits(self, tmp_path):
        path = tmp_path / "huge.yaml"
        path.write_text("seed: " + "7" * 5000 + "\n")
        with pytest.raises(ConfigError, match="^config file .* is not valid YAML: .*4300 digits") as exc:
            load_config(str(path))
        assert "7777" not in str(exc.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/nowhere.yaml")


class TestOverrides:
    def test_fog_visibility_override_reaches_presets(self):
        config = config_from_mapping({"fog": {"visibility_m": 770}})
        assert config.fog.visibility_km == pytest.approx(0.77)
        scenario = config.scenario("fog_dense")
        assert scenario.fog.visibility_km == pytest.approx(0.77)

    def test_parse_overrides_builds_nested_tree(self):
        tree = parse_overrides(
            ["geometry.divergence_rad=1.0e-6", "scenarios=[clear_sky, heavy_rain]", "seed=9"]
        )
        assert tree == {
            "geometry": {"divergence_rad": 1e-6},
            "scenarios": ["clear_sky", "heavy_rain"],
            "seed": 9,
        }

    def test_yaml11_scientific_notation_survives_overrides(self):
        # PyYAML leaves "1e-6" as a string; validation coerces it
        config = config_from_mapping(parse_overrides(["geometry.divergence_rad=1e-6"]))
        assert config.geometry.divergence_rad == 1e-6

    def test_set_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 1\ngeometry:\n  nfp_altitude_m: 5000\n")
        config = load_config(str(path), ["geometry.nfp_altitude_m=12000"])
        assert config.seed == 1
        assert config.geometry.nfp_altitude_m == 12000.0

    def test_malformed_override_is_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_overrides(["geometry.divergence_rad"])

    def test_unparseable_override_value(self):
        with pytest.raises(ConfigError, match=r"^override of 'scenarios': unparseable value \("):
            parse_overrides(["scenarios=[clear_sky"])

    def test_an_int_of_too_many_digits_is_a_config_error(self):
        # int() refuses to read more than 4300 digits; the message names the limit, not the digits.
        with pytest.raises(ConfigError, match="^override of 'seed': unparseable value .*4300 digits") as exc:
            parse_overrides(["seed=" + "7" * 5000])
        assert "7777" not in str(exc.value)

    @pytest.mark.parametrize("first", ["fog=3", "fog.visibility_m=3"])
    def test_conflicting_overrides(self, first):
        # A key set to a value, then used as a section, or one level deeper.
        second = "fog.visibility_m=5" if first == "fog=3" else "fog.visibility_m.x=5"
        with pytest.raises(ConfigError, match=f"^override '{second}' conflicts with an earlier override$"):
            parse_overrides([first, second])


class TestResolvedEcho:
    def test_round_trip_reproduces_config(self):
        config = config_from_mapping(
            {
                "seed": 42,
                "scenarios": ["clear_sky", "cloud_and_fog"],
                "geometry": {"divergence_rad": 1e-5, "elevation_deg": 60.0},
                "fog": {"visibility_m": 200.0},
                "divergence_values_rad": [1e-3, 1e-5, 1e-6],
                "cost": {"years": 3.0, "fiber": {"routing_factor": 1.3}},
            }
        )
        assert config_from_mapping(resolved_mapping(config)) == config

    def test_yaml_echo_round_trips(self):
        import yaml

        config = load_config()
        reparsed = yaml.safe_load(resolved_yaml(config))
        assert config_from_mapping(reparsed) == config

    def test_elevation_echo_reloads_to_the_same_radians(self):
        # math.degrees of its radians is 85.10172725207606, which reloads to the next double.
        config = load_config(overrides=["geometry.elevation_deg=85.10172725207605"])
        assert resolved_mapping(config)["geometry"]["elevation_deg"] == 85.10172725207605
        assert config_from_mapping(resolved_mapping(config)) == config
        assert math.radians(math.degrees(config.geometry.elevation_rad)) != config.geometry.elevation_rad

    @pytest.mark.parametrize("degrees, echo", [(45.0, 45.0), (60.0, 59.99999999999999)])
    def test_where_math_degrees_reloads_it_is_the_echo(self, degrees, echo):
        # 59.99999999999999 reloads to the radians of 60.0 too, and is what the echo has printed.
        config = load_config(overrides=[f"geometry.elevation_deg={degrees}"])
        assert resolved_mapping(config)["geometry"]["elevation_deg"] == echo

    @given(st.floats(0.00573, 90.0))  # the domain's elevations, 1e-4 rad to pi/2
    @example(85.10172725207605)
    def test_every_elevation_echo_reloads_to_the_same_radians(self, degrees):
        config = config_from_mapping({"geometry": {"elevation_deg": degrees}})
        echoed = yaml.safe_load(resolved_yaml(config))
        assert config_from_mapping(echoed).geometry.elevation_rad == config.geometry.elevation_rad

    def test_an_elevation_built_in_code_may_reload_one_ulp_off(self):
        radians = 1.258084464684313
        config = RunConfig(geometry=replace(RunConfig().geometry, elevation_rad=radians))
        degrees = resolved_mapping(config)["geometry"]["elevation_deg"]
        assert degrees == math.degrees(radians)
        reloaded = config_from_mapping(resolved_mapping(config))
        assert reloaded.geometry.elevation_rad == math.nextafter(radians, math.inf)
        assert reloaded != config
        # math.radians is one correctly rounded product, so monotone: the degrees next to
        # the echo convert to either side of the radians, and no double converts onto them.
        below = math.nextafter(degrees, 0.0)
        assert math.radians(below) < radians < math.radians(degrees)

    def test_echo_is_complete(self):
        mapping = resolved_mapping(load_config())
        for key in (
            "output_dir", "seed", "target_rate_bps", "transceiver", "geometry",
            "turbulence", "fog", "rain", "clouds", "scenarios", "sweep",
            "divergence_values_rad", "traffic", "cost",
        ):
            assert key in mapping


# One float key per section, plus a nested cost section and a list entry.
FLOAT_KEYS = [
    "target_rate_bps",
    "transceiver.transmit_power_w",
    "transceiver.optical_loss_db",
    "geometry.elevation_deg",
    "geometry.divergence_rad",
    "turbulence.reference_altitude_m",
    "fog.visibility_m",
    "rain.rate_mm_per_hour",
    "sweep.start",
    "traffic.busy_rate_bps",
    "cost.area_width_m",
    "cost.years",
    "cost.fiber.routing_factor",
]
NON_FINITE = [".nan", ".inf", "-.inf", "nan", "inf", '"-inf"', "1e999"]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("text", NON_FINITE)
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_rejected_with_the_key_path(self, key, text):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be finite"):
            config_from_mapping(parse_overrides([f"{key}={text}"]))

    @pytest.mark.parametrize("text", NON_FINITE)
    def test_rejected_in_lists(self, text):
        with pytest.raises(ConfigError, match=r"^divergence_values_rad\[1\]: must be finite"):
            config_from_mapping(parse_overrides([f"divergence_values_rad=[1.0e-3, {text}]"]))
        with pytest.raises(ConfigError, match=r"^clouds\[0\].thickness_m: must be finite"):
            config_from_mapping(parse_overrides([f"clouds=[{{thickness_m: {text}}}]"]))

    @pytest.mark.parametrize(
        "value, shown",
        [(10**400, "a 401-digit int"), (-(10**400), "a negative 401-digit int"),
         (10**400 - 1, "a 400-digit int"), (2**1024, "a 309-digit int"), (10**5000, "a 5001-digit int")],
        ids=["1e400", "minus_1e400", "400_nines", "2_to_1024", "beyond_the_str_limit"],
    )
    def test_integer_beyond_the_float_range(self, value, shown):
        # Its digit count, not its digits: str of an int fails beyond 4300 of them.
        with pytest.raises(ConfigError, match=f"^sweep.stop: must be finite, got {shown}$"):
            config_from_mapping({"sweep": {"stop": value}})


# The numeric fields of the three constructors that also hold strings or
# dataclasses, each with a valid instance.
NUMERIC_FIELDS = [
    (DEFAULT_SWEEP, "start"),
    (DEFAULT_SWEEP, "stop"),
    (DEFAULT_SWEEP, "points"),
    (RunConfig(), "seed"),
    (RunConfig(), "target_rate_bps"),
    (CostConfig(), "n_macro"),
    (CostConfig(), "n_small"),
    (CostConfig(), "years"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "valid, name", NUMERIC_FIELDS, ids=[f"{type(v).__name__}.{n}" for v, n in NUMERIC_FIELDS]
)
def test_constructors_reject_non_finite_fields(valid, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        replace(valid, **{name: value})


CUMULUS = DEFAULT_CLOUD_PROFILE[0]


class TestRunConfigChecksItsLists:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"scenario_names": ("nope",)}, r"^scenario_names\[0\]: unknown preset 'nope'"),
            ({"scenario_names": ()}, "^scenario_names: expected a non-empty list of preset"),
            (
                {"scenario_names": ("clear_sky", "clear_sky")},
                r"^scenario_names\[1\]: duplicate preset 'clear_sky'$",
            ),
            (
                {"divergence_values_rad": (-1.0,)},
                r"^divergence_values_rad\[0\]: divergence_rad must be positive, got -1.0$",
            ),
            ({"divergence_values_rad": ()}, "^divergence_values_rad: expected a non-empty list"),
            (
                {"clouds": (CUMULUS, replace(CUMULUS, base_altitude_m=1010.0))},
                "^cloud layers overlap: ",
            ),
            ({"target_rate_bps": 1e-300}, r"^target_rate_bps must be in \[1, 1e\+12\], got 1e-300$"),
        ],
    )
    def test_rejects(self, changes, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**changes)

    def test_target_bound_is_the_domain_s(self):
        # 1 bit/s to 1 Tbit/s: the margin of any rate the domain yields is finite.
        for target in (1.0, 1e12):
            config = RunConfig(target_rate_bps=target)
            args = (config.transceiver, config.geometry, config.scenario("clear_sky"), target)
            assert math.isfinite(evaluate_link(*args).link_margin_db)
        for target in (0.5, 2e12):
            with pytest.raises(ValueError, match=rf"^target_rate_bps must be in \[1, 1e\+12\], got {target}$"):
                RunConfig(target_rate_bps=target)


class TestWholeConfigValidatedAtLoad:
    def test_overlapping_clouds(self):
        clouds = [{"base_altitude_m": 1000.0}, {"base_altitude_m": 1010.0}]
        with pytest.raises(ConfigError, match="^clouds: cloud layers overlap"):
            config_from_mapping({"clouds": clouds})

    def test_stacked_clouds_are_accepted(self):
        clouds = [{"base_altitude_m": 1000.0}, {"base_altitude_m": 1048.0}]
        config = config_from_mapping({"clouds": clouds, "scenarios": ["cloud_and_fog"]})
        assert [layer.top_altitude_m for layer in config.scenarios()[0].clouds] == [1048.0, 1096.0]

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1e-3, 0.0], r"^divergence_values_rad\[1\]: divergence_rad must be positive"),
            ([-1e-3], r"^divergence_values_rad\[0\]: divergence_rad must be positive"),
            (["wide"], r"^divergence_values_rad\[0\]: expected a number, got 'wide'$"),
        ],
    )
    def test_each_divergence_must_make_a_geometry(self, values, message):
        with pytest.raises(ConfigError, match=message):
            config_from_mapping({"divergence_values_rad": values})

    @pytest.mark.parametrize(
        "cost, message",
        [
            ({"n_macro": 0}, "^cost: n_macro must be positive, got 0$"),
            ({"years": -1}, "^cost: years must be non-negative"),
            ({"area_height_m": 0}, "^cost: area_height_m must be positive, got 0.0$"),
            ({"rf_nlos": {"population": 2.5}}, "^cost.rf_nlos.population: expected an integer"),
        ],
    )
    def test_cost_section(self, cost, message):
        with pytest.raises(ConfigError, match=message):
            config_from_mapping({"cost": cost})

    @pytest.mark.parametrize(
        "values, first, second, tag",
        [
            # 1000.0000999999999 urad, shown to 6 digits: one file name for both.
            ([0.001, 0.0010000001], 0, 1, "theta_1000urad"),
            ([1e-5, 1e-3, 1e-3], 1, 2, "theta_1000urad"),  # an exact duplicate
            ([2e-6, 1e-5, 2.0000004e-6], 0, 2, "theta_2urad"),
        ],
    )
    def test_two_divergences_with_one_file_name_are_rejected(self, values, first, second, tag):
        message = (
            f"divergence_values_rad[{second}]: {values[second]!r} shares the file name "
            f"sweep_<scenario>_{tag}.csv with divergence_values_rad[{first}]"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_mapping({"divergence_values_rad": values})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(divergence_values_rad=tuple(values))

    def test_cost_config_checks_itself(self):
        with pytest.raises(ValueError, match="years must be non-negative"):
            CostConfig(years=-1.0)


class TestOneSourceOfDefaults:
    def test_defaults_are_the_library_objects(self, monkeypatch):
        monkeypatch.delenv("VFSO_OUTDIR", raising=False)
        config = load_config()
        tx, geometry, turbulence = default_parameters()
        assert config.transceiver == tx
        assert config.geometry == geometry
        assert config.turbulence == turbulence == DEFAULT_TURBULENCE
        assert config.fog == DEFAULT_FOG
        assert config.rain == DEFAULT_RAIN
        assert config.clouds == DEFAULT_CLOUD_PROFILE
        assert config.target_rate_bps == DEFAULT_TARGET_RATE_BPS
        assert config.traffic == DEFAULT_TRAFFIC
        assert config.sweep == DEFAULT_SWEEP
        assert config.cost.area == DEFAULT_AREA
        assert config.cost.params == CostParams()
        assert config == RunConfig()

    def test_partial_cloud_layer_takes_the_default_layer(self):
        config = config_from_mapping({"clouds": [{"base_altitude_m": 3000.0}]})
        (layer,) = config.clouds
        assert layer.thickness_m == DEFAULT_CLOUD_PROFILE[0].thickness_m
        assert layer.lwc_g_per_m3 == DEFAULT_CLOUD_PROFILE[0].lwc_g_per_m3

    def test_readme_configuration_block_is_the_defaults(self, monkeypatch):
        monkeypatch.delenv("VFSO_OUTDIR", raising=False)
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1)
        assert config_from_mapping(yaml.safe_load(block)) == load_config()


EVERY_SECTION = [
    "seed=3",
    "target_rate_bps=2.5e9",
    "transceiver.optical_loss_db=3",
    "geometry.elevation_deg=60",
    "turbulence.reference_altitude_m=500",
    "fog.visibility_m=200",
    "rain.rate_mm_per_hour=25",
    "clouds=[{base_altitude_m: 800}, {base_altitude_m: 2000, lwc_g_per_m3: 0.5}]",
    "scenarios=[clear_sky, rain_and_cloud]",
    "sweep.points=9",
    "divergence_values_rad=[1.0e-3, 2.0e-5]",
    "traffic.busy_rate_bps=4.0e+7",
    "cost.area_width_m=3000",
    "cost.rf_nlos.population=90000",
    "cost.fiber.routing_factor=1.3",
    "cost.terrestrial_fso.nlos_hop_count=3",
    "cost.vertical_fso.n_platforms=7",
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path, overrides",
        [
            (None, []),
            ("configs/fig2.cfg", []),
            ("configs/fig3.cfg", []),
            ("configs/fig4.cfg", []),
            (None, EVERY_SECTION),
            (None, ["transceiver.tx_efficiency=0.9"]),
            (None, ["clouds=[]", "turbulence.reference_altitude_m=null"]),
        ],
    )
    def test_echo_reproduces_the_config(self, path, overrides):
        config = load_config(path and str(REPO / path), overrides)
        assert config_from_mapping(resolved_mapping(config)) == config
        assert config_from_mapping(yaml.safe_load(resolved_yaml(config))) == config

    def test_every_section_override_lands(self):
        config = load_config(None, EVERY_SECTION)
        assert config.geometry.elevation_rad == math.radians(60.0)
        assert config.fog.visibility_km == 0.2
        assert config.cost.area.width_m == 3000.0
        assert config.cost.params.vertical_fso.n_platforms == 7
        assert resolved_mapping(config)["cost"]["area_width_m"] == 3000.0

    def test_lone_efficiency_pairs_with_a_lossless_one(self):
        config = config_from_mapping({"transceiver": {"tx_efficiency": 0.9}})
        assert (config.transceiver.tx_efficiency, config.transceiver.rx_efficiency) == (0.9, 1.0)
