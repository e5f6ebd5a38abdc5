"""Tests of config loading, validation, overrides, and the resolved echo."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from vfso.aggregation import DEFAULT_TRAFFIC
from vfso.config import (
    ConfigError,
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
        assert config.geometry.elevation_deg == pytest.approx(45.0)
        assert config.geometry.receiver_radius_m == 0.04
        assert config.turbulence.wind_speed_m_per_s == 21.0
        assert config.fog.visibility_m == pytest.approx(50.0)
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
    def test_efficiencies_and_optical_loss_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            config_from_mapping(
                {"transceiver": {"optical_loss_db": 2.0, "tx_efficiency": 0.8}}
            )

    def test_string_field_given_a_number(self):
        with pytest.raises(ConfigError, match="^sweep: variable must be a string, got 5$"):
            config_from_mapping(parse_overrides(["sweep.variable=5"]))

    @pytest.mark.parametrize("text, kind", [("3", "int"), ("{thickness_m: 48}", "dict"), ("deck", "str")])
    def test_clouds_given_a_non_list(self, text, kind):
        with pytest.raises(ConfigError, match=f"^clouds: expected a list of layers, got {kind}$"):
            config_from_mapping(parse_overrides([f"clouds={text}"]))

    def test_a_single_scenario_name_is_a_list_of_one(self):
        assert config_from_mapping(parse_overrides(["scenarios=fog_dense"])).scenario_names == ("fog_dense",)

    @pytest.mark.parametrize("key", ["clouds", "scenarios"])
    def test_null_list_keeps_its_default(self, key):
        assert config_from_mapping({key: None}) == RunConfig()
        assert config_from_mapping(parse_overrides([f"{key}=null"])) == RunConfig()

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
        assert config.fog.visibility_m == pytest.approx(770.0)
        scenario = config.scenario("fog_dense")
        assert scenario.fog.visibility_m == pytest.approx(770.0)

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
    # math.degrees(math.radians(d)) is another double for 60.0 (59.99999999999999) and
    # 85.10172725207605 (...606): the echo is the field, not a conversion back.
    @pytest.mark.parametrize("degrees", [45.0, 60.0, 85.10172725207605])
    def test_an_elevation_echoes_as_given(self, degrees):
        config = load_config(overrides=[f"geometry.elevation_deg={degrees}"])
        assert resolved_mapping(config)["geometry"]["elevation_deg"] == degrees
        assert f"  elevation_deg: {degrees!r}\n" in resolved_yaml(config)


def leaves(mapping: dict, section: str = "") -> dict:
    """{dotted key path: value} of every key of a resolved mapping that holds no section."""
    flat = {}
    for key, value in mapping.items():
        path = f"{section}{key}"
        flat.update(leaves(value, f"{path}.") if isinstance(value, dict) else {path: value})
    return flat


# Every key of the config, with its default, and a valid value other than the default:
# one double below a float, one above an int, or the value given here.
KEYS = leaves(resolved_mapping(RunConfig()))
OTHER_VALUES = {
    "output_dir": "elsewhere",
    "turbulence.reference_altitude_m": 500.0,
    "clouds": [
        {"base_altitude_m": 2000.0, "thickness_m": 30.0, "lwc_g_per_m3": 0.5, "droplet_density_per_cm3": 100.0}
    ],
    "scenarios": ["fog_dense", "heavy_rain"],
    "sweep.variable": "divergence",
    "sweep.scale": "log",
    "divergence_values_rad": [2e-5],
}
CHANGED = {
    path: OTHER_VALUES[path] if path in OTHER_VALUES
    else value + 1 if isinstance(value, int) else math.nextafter(value, 0.0)
    for path, value in KEYS.items()
}
NUMERIC_KEYS = [path for path, value in CHANGED.items() if isinstance(value, (int, float))]


def setting(path: str, value) -> str:
    """The --set text that gives the key at path its value."""
    return f"{path}={json.dumps(value)}"


def every_key_changed() -> RunConfig:
    """The config with every key at its other value."""
    return load_config(None, [setting(path, value) for path, value in CHANGED.items()])


def named(path: str) -> str:
    """How a message names the key at path: its section, then the key."""
    section, _, key = path.rpartition(".")
    return f"{section}: {key}" if section else key


class TestEveryKey:
    def test_the_changed_values_make_a_config(self):
        assert leaves(resolved_mapping(every_key_changed())) == CHANGED

    @pytest.fixture(scope="class")
    def every_key_file(self, tmp_path_factory):
        file = tmp_path_factory.mktemp("config") / "every_key.yaml"
        file.write_text(resolved_yaml(every_key_changed()))
        return str(file)

    @pytest.mark.parametrize("path", KEYS)
    def test_set_over_a_file_changes_that_key_alone(self, every_key_file, path):
        # The file gives every key another value; --set gives one key its default back.
        config = load_config(every_key_file, [setting(path, KEYS[path])])
        assert leaves(resolved_mapping(config)) == {**CHANGED, path: KEYS[path]}

    @pytest.mark.parametrize("path", KEYS)
    def test_the_yaml_echo_holds_the_value_read(self, path):
        config = load_config(None, [setting(path, CHANGED[path])])
        echo = yaml.safe_load(resolved_yaml(config))
        assert leaves(echo)[path] == CHANGED[path]
        assert config_from_mapping(echo) == config

    @pytest.mark.parametrize("path", NUMERIC_KEYS)
    def test_a_word_is_no_number(self, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(named(path))} must be a number, got 'dense'$"):
            config_from_mapping(parse_overrides([f"{path}=dense"]))

    # Each section as its dotted path, "" the document itself, "config" in a message.
    SECTIONS = sorted({path.rpartition(".")[0] for path in KEYS})

    @pytest.mark.parametrize("section", SECTIONS)
    def test_an_unknown_key_is_named_with_its_section(self, section):
        with pytest.raises(ConfigError, match=f"^{section or 'config'}: unknown key\\(s\\) 'gain'$"):
            config_from_mapping(parse_overrides([f"{section}.gain=30".lstrip(".")]))

    @pytest.mark.parametrize("section", SECTIONS)
    def test_a_section_must_be_a_mapping(self, section):
        document = parse_overrides([f"{section}=3"]) if section else 3
        with pytest.raises(ConfigError, match=f"^{section or 'config'}: expected a mapping, got int$"):
            config_from_mapping(document)


NON_FINITE = [".nan", ".inf", "-.inf", "nan", "inf", '"-inf"', "1e999"]


class TestNonFiniteNumbers:
    # The key path comes from one generic _build and the value from one _number: each key
    # with one spelling, and each spelling at one key.
    @pytest.mark.parametrize(
        "key, text",
        [(key, ".nan") for key in [*NUMERIC_KEYS, "transceiver.optical_loss_db"]]
        + [("fog.visibility_m", text) for text in NON_FINITE[1:]],
    )
    def test_rejected_with_the_key_path(self, key, text):
        with pytest.raises(ConfigError, match=f"^{re.escape(named(key))} must be finite"):
            config_from_mapping(parse_overrides([f"{key}={text}"]))

    @pytest.mark.parametrize("text", NON_FINITE)
    def test_rejected_in_lists(self, text):
        with pytest.raises(ConfigError, match=r"^divergence_values_rad\[1\]: divergence_rad must be finite"):
            config_from_mapping(parse_overrides([f"divergence_values_rad=[1.0e-3, {text}]"]))
        with pytest.raises(ConfigError, match=r"^clouds\[0\]: thickness_m must be finite"):
            config_from_mapping(parse_overrides([f"clouds=[{{thickness_m: {text}}}]"]))

    @pytest.mark.parametrize(
        "value, shown",
        [(10**400, "a 401-digit int"), (-(10**400), "a negative 401-digit int"),
         (10**400 - 1, "a 400-digit int"), (2**1024, "a 309-digit int"), (10**5000, "a 5001-digit int")],
        ids=["1e400", "minus_1e400", "400_nines", "2_to_1024", "beyond_the_str_limit"],
    )
    def test_integer_beyond_the_float_range(self, value, shown):
        # Its digit count, not its digits: str of an int fails beyond 4300 of them.
        with pytest.raises(ConfigError, match=f"^sweep: stop must be finite, got {shown}$"):
            config_from_mapping({"sweep": {"stop": value}})


CUMULUS = DEFAULT_CLOUD_PROFILE[0]


class TestRunConfigChecksItsLists:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"scenario_names": ("nope",)}, r"^scenarios\[0\]: unknown preset 'nope'"),
            ({"scenario_names": ()}, "^scenarios: expected a non-empty list of preset"),
            (
                {"scenario_names": ("clear_sky", "clear_sky")},
                r"^scenarios\[1\]: duplicate preset 'clear_sky'$",
            ),
            (
                {"divergence_values_rad": (-1.0,)},
                r"^divergence_values_rad\[0\]: divergence_rad must be positive, got -1.0$",
            ),
            ({"divergence_values_rad": ()}, "^divergence_values_rad: expected a non-empty list"),
            (
                {"clouds": (CUMULUS, replace(CUMULUS, base_altitude_m=1010.0))},
                "^clouds: cloud layers overlap: ",
            ),
        ],
    )
    def test_rejects(self, changes, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**changes)

    @pytest.mark.parametrize(
        "name, value",
        [("clouds", list(DEFAULT_CLOUD_PROFILE)), ("scenario_names", ["clear_sky"]), ("divergence_values_rad", [1e-3])],
        ids=["clouds", "scenario_names", "divergence_values_rad"],
    )
    def test_a_list_given_for_a_tuple_field_is_held_as_a_tuple(self, name, value):
        config = RunConfig(**{name: value})
        assert getattr(config, name) == tuple(value)
        assert config_from_mapping(yaml.safe_load(resolved_yaml(config))) == config

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
    def test_stacked_clouds_are_accepted(self):
        clouds = [{"base_altitude_m": 1000.0}, {"base_altitude_m": 1048.0}]
        config = config_from_mapping({"clouds": clouds, "scenarios": ["cloud_and_fog"]})
        assert [layer.top_altitude_m for layer in config.scenarios()[0].clouds] == [1048.0, 1096.0]

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1e-3, 0.0], r"^divergence_values_rad\[1\]: divergence_rad must be positive"),
            ([-1e-3], r"^divergence_values_rad\[0\]: divergence_rad must be positive"),
            (["wide"], r"^divergence_values_rad\[0\]: divergence_rad must be a number, got 'wide'$"),
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
            ({"rf_nlos": {"population": 2.5}}, "^cost.rf_nlos: population must be an integer"),
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
        # It names every key the echo writes, the efficiency pair by its other spelling; so the
        # tests that walk KEYS walk every key.
        spelled = {"transceiver.tx_efficiency", "transceiver.rx_efficiency", "transceiver.optical_loss_db"}
        assert set(leaves(yaml.safe_load(block))) ^ set(KEYS) == spelled


class TestRoundTrip:
    def test_lone_efficiency_pairs_with_a_lossless_one(self):
        config = config_from_mapping({"transceiver": {"tx_efficiency": 0.9}})
        assert (config.transceiver.tx_efficiency, config.transceiver.rx_efficiency) == (0.9, 1.0)
