"""Tests of config loading, validation, overrides, and the resolved echo."""

import math
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
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
from vfso.link_budget import (
    DEFAULT_TARGET_RATE_BPS,
    _lossless_rate_bps,
    evaluate_grid,
    evaluate_link,
)
from vfso.scenario import (
    DEFAULT_CLOUD_PROFILE,
    DEFAULT_FOG,
    DEFAULT_RAIN,
    DEFAULT_SWEEP,
    DEFAULT_TURBULENCE,
    PRESET_NAMES,
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

    def test_string_scientific_notation_is_accepted(self):
        # YAML 1.1 parses 1e-6 as a string; the loader copes
        config = config_from_mapping({"geometry": {"divergence_rad": "1e-6"}})
        assert config.geometry.divergence_rad == 1e-6

    def test_bad_yaml_file(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("geometry: [unclosed")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(bad))

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

    def test_integer_beyond_the_float_range(self):
        with pytest.raises(ConfigError, match="^sweep.stop: must be finite"):
            config_from_mapping({"sweep": {"stop": 10**400}})


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


# Each transceiver field over its whole domain of finite doubles, from the
# smallest subnormal up to the largest finite value.
TINIEST, LARGEST = math.ulp(0.0), sys.float_info.max
TRANSCEIVER_DOMAIN = {
    "transmit_power_w": (TINIEST, LARGEST),
    "tx_efficiency": (TINIEST, 1.0),
    "rx_efficiency": (TINIEST, 1.0),
    "wavelength_nm": (TINIEST, LARGEST),
    "pointing_loss_db": (0.0, LARGEST),
    "receiver_sensitivity_photons_per_bit": (TINIEST, LARGEST),
}
DEFAULT_TRANSCEIVER = asdict(default_parameters()[0])


def transceiver(**changes):
    return {**DEFAULT_TRANSCEIVER, **changes}


@given(
    st.fixed_dictionaries(
        {name: st.floats(low, high) for name, (low, high) in TRANSCEIVER_DOMAIN.items()}
    )
)
@example(transceiver(tx_efficiency=1e-200, rx_efficiency=1e-200))
@example(transceiver(wavelength_nm=1e290))
@example(transceiver(wavelength_nm=1e-260))
@example(transceiver(wavelength_nm=1e-300))
@example(transceiver(wavelength_nm=TINIEST))
@example(transceiver(receiver_sensitivity_photons_per_bit=TINIEST))
@example(transceiver(transmit_power_w=1e300))
@example(transceiver(transmit_power_w=LARGEST, receiver_sensitivity_photons_per_bit=LARGEST))
def test_transceiver_gives_a_finite_answer_or_a_config_error(values):
    overrides = [f"transceiver.{name}={value!r}" for name, value in values.items()]
    try:
        config = load_config(overrides=overrides)
    except ConfigError as exc:
        assert str(exc).startswith("transceiver: ")
        return
    args = (config.transceiver, config.geometry, config.scenario("clear_sky"))
    point = evaluate_link(*args)
    grid = evaluate_grid(*args, nfp_altitude_m=np.array([1e3, 2e4, 1e7]))
    for power_w, rate_bps, margin_db in [
        (point.received_power_w, point.data_rate_bps, point.link_margin_db),
        *zip(grid.received_power_w, grid.data_rate_bps, grid.link_margin_db),
    ]:
        assert math.isfinite(power_w) and math.isfinite(rate_bps)
        assert math.isfinite(margin_db) or margin_db == -math.inf


# Each field of the weather sections over its whole domain of finite doubles.
WEATHER_DOMAIN = {
    "fog": {"visibility_m": (TINIEST, LARGEST), "layer_thickness_m": (0.0, LARGEST)},
    "rain": {"rate_mm_per_hour": (0.0, LARGEST), "layer_thickness_m": (0.0, LARGEST)},
    "clouds": {
        "base_altitude_m": (0.0, LARGEST),
        "thickness_m": (0.0, LARGEST),
        "lwc_g_per_m3": (TINIEST, LARGEST),
        "droplet_density_per_cm3": (TINIEST, LARGEST),
    },
    "turbulence": {
        "wind_speed_m_per_s": (0.0, LARGEST),
        "structure_constant_a": (0.0, LARGEST),
        "reference_altitude_m": (0.0, LARGEST),
    },
}
WEATHER_DRAWS = st.sampled_from(sorted(WEATHER_DOMAIN)).flatmap(
    lambda section: st.tuples(
        st.just(section),
        st.fixed_dictionaries(
            {name: st.floats(low, high) for name, (low, high) in WEATHER_DOMAIN[section].items()}
        ),
    )
)


def cloud(**changes):
    return "clouds", {**asdict(DEFAULT_CLOUD_PROFILE[0]), **changes}


@given(WEATHER_DRAWS, st.floats(TINIEST, LARGEST))
@example(("fog", {"visibility_m": 1e4, "layer_thickness_m": 50.0}), 1e-300)
@example(("fog", {"visibility_m": 1e-318, "layer_thickness_m": 50.0}), 1550.0)
@example(cloud(lwc_g_per_m3=1e-200, droplet_density_per_cm3=1e-200), 1550.0)
@example(cloud(lwc_g_per_m3=1e300, droplet_density_per_cm3=1e300), 1550.0)
@example(cloud(lwc_g_per_m3=1e200, droplet_density_per_cm3=1e200), 1e-300)
@example(cloud(lwc_g_per_m3=1e-240, droplet_density_per_cm3=1e-240), 1e-300)
@example(cloud(base_altitude_m=0.0, lwc_g_per_m3=LARGEST, droplet_density_per_cm3=LARGEST), 1550.0)
def test_weather_gives_a_finite_answer_or_a_config_error(drawn, wavelength_nm):
    section, values = drawn
    if section == "clouds":
        layer = ", ".join(f"{name}: {value!r}" for name, value in values.items())
        overrides = [f"clouds=[{{{layer}}}]"]
    else:
        overrides = [f"{section}.{name}={value!r}" for name, value in values.items()]
    overrides.append(f"transceiver.wavelength_nm={wavelength_nm!r}")
    try:
        config = load_config(overrides=overrides)
    except ConfigError as exc:
        assert re.match(rf"({section}|transceiver)(\[0\])?: ", str(exc)), str(exc)
        return
    # Below, inside and above the (first) cloud deck, where the altitude is positive.
    deck = config.clouds[0]
    altitudes = [
        max(deck.base_altitude_m / 2.0, TINIEST),
        min(deck.base_altitude_m + deck.thickness_m / 2.0, LARGEST / 2.0),
        min(2.0 * deck.top_altitude_m, LARGEST / 2.0),
    ]
    for name in PRESET_NAMES:
        args = (config.transceiver, config.geometry, config.scenario(name))
        point = evaluate_link(*args)
        grid = evaluate_grid(*args, nfp_altitude_m=np.array(altitudes))
        for result in (point, grid):
            for loss in vars(result.loss_breakdown).values():
                assert not np.isnan(loss).any() and (np.asarray(loss) >= 0.0).all()
        for power_w, rate_bps, margin_db in [
            (point.received_power_w, point.data_rate_bps, point.link_margin_db),
            *zip(grid.received_power_w, grid.data_rate_bps, grid.link_margin_db),
        ]:
            assert math.isfinite(power_w) and math.isfinite(rate_bps)
            assert math.isfinite(margin_db) or margin_db == -math.inf


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
            ({"target_rate_bps": 1e-300}, "^target_rate_bps 1e-300 overflows rate_bps / "),
        ],
    )
    def test_rejects(self, changes, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**changes)

    def test_target_bound_is_the_lossless_rate(self):
        lossless_bps = _lossless_rate_bps(default_parameters()[0])
        config = RunConfig(target_rate_bps=2.0 * lossless_bps / LARGEST)
        scenario = config.scenario("clear_sky")
        args = (config.transceiver, config.geometry, scenario, config.target_rate_bps)
        assert math.isfinite(evaluate_link(*args).link_margin_db)
        with pytest.raises(ValueError, match="overflows rate_bps / target_rate_bps"):
            RunConfig(target_rate_bps=0.5 * lossless_bps / LARGEST)


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
            ({"n_macro": 0}, "^cost: cell counts must be positive"),
            ({"years": -1}, "^cost: years must be non-negative"),
            ({"area_height_m": 0}, "^cost: area sides must be positive"),
            ({"rf_nlos": {"population": 2.5}}, "^cost.rf_nlos.population: expected an integer"),
        ],
    )
    def test_cost_section(self, cost, message):
        with pytest.raises(ConfigError, match=message):
            config_from_mapping({"cost": cost})

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
