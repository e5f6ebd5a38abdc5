"""Run configuration: YAML documents validated into typed parameter objects.

A config file is a YAML mapping; every key is optional and falls back to
the library's own default objects (``default_parameters()``, the
``DEFAULT_*`` constants, the cost dataclass defaults), unknown keys are
rejected with their full path. ``--set a.b.c=value`` overrides are
deep-merged over the document before validation. The fully resolved
configuration can be dumped back to YAML and re-fed as input, reproducing
the same run.

Reading and writing both walk the dataclass fields of the default
RunConfig: a section holds one key per field and a nested dataclass is a
nested section. The loader only parses YAML spellings (a number written as
a string, say); every value is checked by the constructors, whose messages
name the section and the key. The few fields that are spelled differently
in YAML are listed in ``_SPECIAL`` and ``_FLATTENED``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Optional, Sequence

import yaml

from .aggregation import DEFAULT_TRAFFIC, TrafficProfile
from .atmosphere import (
    CloudLayer,
    FogDescriptor,
    RainDescriptor,
    TurbulenceDescriptor,
    WeatherScenario,
    _check_no_overlap,
)
from .geometry import LinkGeometry, _Checked, _require_bounds
from .hetnet_cost import DEFAULT_AREA, Area, CostParams
from .link_budget import DEFAULT_TARGET_RATE_BPS, TransceiverParams, efficiencies_from_optical_loss
from .scenario import (
    DEFAULT_CLOUD_PROFILE,
    DEFAULT_FOG,
    DEFAULT_RAIN,
    DEFAULT_SWEEP,
    DEFAULT_TURBULENCE,
    PRESET_NAMES,
    SweepSpec,
    default_parameters,
    preset,
)

OUTPUT_DIR_ENV_VAR = "VFSO_OUTDIR"

_DEFAULT_TRANSCEIVER, _DEFAULT_GEOMETRY, _ = default_parameters()


class ConfigError(ValueError):
    """Configuration parse or validation failure; message carries the field path."""


@dataclass(frozen=True)
class CostConfig(_Checked):
    """Layout size, area, horizon in years and technology prices of a cost run."""

    n_macro: int = 100
    n_small: int = 1000
    area: Area = DEFAULT_AREA
    years: float = 1.0
    params: CostParams = field(default_factory=CostParams)


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, fully validated; the defaults are the reference run."""

    output_dir: str = "out"
    seed: int = 0
    target_rate_bps: float = DEFAULT_TARGET_RATE_BPS
    transceiver: TransceiverParams = _DEFAULT_TRANSCEIVER
    geometry: LinkGeometry = _DEFAULT_GEOMETRY
    turbulence: TurbulenceDescriptor = DEFAULT_TURBULENCE
    fog: FogDescriptor = DEFAULT_FOG
    rain: RainDescriptor = DEFAULT_RAIN
    clouds: tuple[CloudLayer, ...] = DEFAULT_CLOUD_PROFILE
    scenario_names: tuple[str, ...] = PRESET_NAMES[:1]
    sweep: SweepSpec = DEFAULT_SWEEP
    divergence_values_rad: Optional[tuple[float, ...]] = None
    traffic: TrafficProfile = DEFAULT_TRAFFIC
    cost: CostConfig = field(default_factory=CostConfig)

    def __post_init__(self) -> None:
        # The only check of the list fields; each message names its config key.
        _require_bounds(self)
        _build(lambda: _check_no_overlap(self.clouds), "clouds")
        _check_scenarios(self.scenario_names)
        if self.divergence_values_rad is not None:
            _check_divergences(self.divergence_values_rad)

    def scenario(self, name: str) -> WeatherScenario:
        """Build one named preset with this config's weather components."""
        return preset(
            name,
            fog=self.fog,
            rain=self.rain,
            clouds=self.clouds,
            turbulence=self.turbulence,
        )

    def scenarios(self) -> list[WeatherScenario]:
        return [self.scenario(name) for name in self.scenario_names]


def _check_scenarios(names: Sequence) -> None:
    if not names:
        raise ConfigError("scenarios: expected a non-empty list of preset names")
    for i, name in enumerate(names):
        _build(lambda: preset(name), f"scenarios[{i}]")
        if name in names[:i]:
            raise ConfigError(f"scenarios[{i}]: duplicate preset {name!r}")


def _check_divergences(angles: Sequence) -> None:
    path = "divergence_values_rad"
    if not angles:
        raise ConfigError(f"{path}: expected a non-empty list of angles")
    first_with = {}  # file name tag -> the first index that has it
    for i, angle in enumerate(angles):
        _build(lambda: replace(_DEFAULT_GEOMETRY, divergence_rad=angle), f"{path}[{i}]")
        first = first_with.setdefault(_theta_tag(angle), i)
        if first != i:
            raise ConfigError(
                f"{path}[{i}]: {angle!r} shares the file name "
                f"sweep_<scenario>_{_theta_tag(angle)}.csv with {path}[{first}]"
            )


def _theta_tag(divergence_rad: float) -> str:
    """A divergence's part of the sweep file names: its microradians to 6 digits."""
    return f"theta_{divergence_rad * 1e6:g}urad"


# --- parsing -------------------------------------------------------------------

_ROOT = "config"


def _join(path: str, key: str) -> str:
    return key if path == _ROOT else f"{path}.{key}"


def _mapping(raw: Any, path: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(raw).__name__}")
    return dict(raw)


def _reject_unknown(section: dict, path: str) -> None:
    if section:
        keys = ", ".join(repr(k) for k in sorted(map(str, section)))
        raise ConfigError(f"{path}: unknown key(s) {keys}")


def _number(raw: Any) -> Any:
    """A float field's YAML value parsed: an int, or a numeric string (YAML 1.1 leaves forms
    like "1e-6" as strings), as a float. Anything else, an int beyond the float range too,
    is left as it is, for the constructor to judge."""
    if isinstance(raw, (int, str)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except (ValueError, OverflowError):
            pass
    return raw


def _build(factory, path: str, prefix: str = ""):
    """factory(), with a ValueError it raises led by path (and its field name by prefix);
    a root key's error, which names the key, stays as it is."""
    try:
        return factory()
    except ValueError as exc:
        message = f"{prefix}{exc}"
        raise ConfigError(message if path == _ROOT else f"{path}: {message}") from exc


# --- fields read by hand -------------------------------------------------------


def _read_transceiver(default: TransceiverParams, raw: Any, path: str) -> TransceiverParams:
    # optical_loss_db is a second spelling of the tx/rx efficiency pair.
    section = _mapping(raw, path)
    pair = {"tx_efficiency", "rx_efficiency"} & section.keys()
    if "optical_loss_db" in section:
        if pair:
            raise ConfigError(
                f"{path}: give either optical_loss_db or the "
                "tx_efficiency/rx_efficiency pair, not both"
            )
        loss = _number(section.pop("optical_loss_db"))
        etas = _build(lambda: efficiencies_from_optical_loss(loss), path)
        section["tx_efficiency"], section["rx_efficiency"] = etas
    elif pair:
        for key in ("tx_efficiency", "rx_efficiency"):
            section.setdefault(key, 1.0)  # the member left out is lossless
    return _read(default, section, path)


def _read_clouds(default: tuple, raw: Any, path: str) -> tuple[CloudLayer, ...]:
    if raw is None:
        return default
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of layers, got {type(raw).__name__}")
    # The keys a layer leaves out come from the default deck's layer.
    return tuple(_read(DEFAULT_CLOUD_PROFILE[0], layer, f"{path}[{i}]") for i, layer in enumerate(raw))


def _read_scenarios(default: tuple, raw: Any, path: str) -> tuple[str, ...]:
    if raw is None:
        return default
    names = [raw] if isinstance(raw, str) else raw
    return tuple(names) if isinstance(names, list) else ()


def _read_divergences(default: Optional[tuple], raw: Any, path: str) -> Optional[tuple[float, ...]]:
    if raw is None:
        return default
    return tuple(map(_number, raw)) if isinstance(raw, list) else ()


# --- the generic reader and writer ---------------------------------------------


def _read(default, raw: Any, path: str):
    """`default` with the entries of the mapping `raw` in place of its fields."""
    section = _mapping(raw, path)
    value = _fill(default, section, path)
    _reject_unknown(section, path)
    return value


def _fill(default, section: dict, path: str, prefix: str = ""):
    """Like _read, but pops its keys from `section` and leaves the rest there."""
    given = {}
    for f in fields(default):
        spec = (type(default), f.name)
        current = getattr(default, f.name)
        if spec in _FLATTENED:
            given[f.name] = _fill(current, section, path, _FLATTENED[spec])
            continue
        key, reader = _SPECIAL.get(spec, (f.name, None))
        key = prefix + key
        if key not in section:
            continue
        raw, key_path = section.pop(key), _join(path, key)
        if reader is not None:
            given[f.name] = reader(current, raw, key_path)
        elif is_dataclass(current):
            given[f.name] = _read(current, raw, key_path)
        else:
            given[f.name] = _number(raw) if f.type in ("float", "Optional[float]") else raw
    # The constructor judges every value; a flattened section's prefix makes its field a key.
    return _build(lambda: replace(default, **given), path, prefix)


def _emit(value: Any) -> Any:
    if is_dataclass(value):
        return _write(value, {})
    if isinstance(value, tuple):
        return [_emit(item) for item in value]
    return value


def _write(obj, out: dict, prefix: str = "") -> dict:
    for f in fields(obj):
        spec = (type(obj), f.name)
        value = getattr(obj, f.name)
        if spec in _FLATTENED:
            _write(value, out, _FLATTENED[spec])
        else:
            key, _ = _SPECIAL.get(spec, (f.name, None))
            out[prefix + key] = _emit(value)
    return out


# Fields read by hand, each written back by _emit: (owner, field) -> (YAML key, reader).
# reader(default, raw, path) gives the field value.
_SPECIAL = {
    (RunConfig, "transceiver"): ("transceiver", _read_transceiver),
    (RunConfig, "clouds"): ("clouds", _read_clouds),
    (RunConfig, "scenario_names"): ("scenarios", _read_scenarios),
    (RunConfig, "divergence_values_rad"): ("divergence_values_rad", _read_divergences),
}

# Nested dataclasses whose fields sit in the parent's section: (owner, field) -> key prefix.
_FLATTENED = {(CostConfig, "area"): "area_", (CostConfig, "params"): ""}


# --- public API ---------------------------------------------------------------


def parse_overrides(assignments: Sequence[str]) -> dict:
    """Turn ``a.b.c=value`` strings into a nested mapping.

    Values are parsed as YAML scalars, so numbers, booleans, null, and
    inline lists/maps all work.
    """
    tree: dict = {}
    for assignment in assignments:
        key, sep, value_text = assignment.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        try:
            value = yaml.safe_load(value_text)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of over 4300 digits
            raise ConfigError(f"override of {key!r}: unparseable value ({exc})") from exc
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {assignment!r} conflicts with an earlier override")
        node[parts[-1]] = value
    return tree


def _deep_merge(base: dict, extra: dict) -> dict:
    merged = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def config_from_mapping(document: Optional[dict]) -> RunConfig:
    """Validate a raw mapping into a RunConfig; empty input means all defaults."""
    default = RunConfig(output_dir=os.environ.get(OUTPUT_DIR_ENV_VAR, RunConfig.output_dir))
    return _read(default, document, _ROOT)


def load_config(path: Optional[str] = None, overrides: Sequence[str] = ()) -> RunConfig:
    """Load and validate a config file, with optional ``key=value`` overrides.

    No path means an empty document: the full default parameter set.
    """
    document: Any = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = yaml.safe_load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of over 4300 digits
            raise ConfigError(f"config file {path!r} is not valid YAML: {exc}") from exc
    merged = _deep_merge(_mapping(document, _ROOT), parse_overrides(overrides))
    return config_from_mapping(merged)


def resolved_mapping(config: RunConfig) -> dict:
    """The fully resolved configuration as a plain mapping.

    Feeding this back through config_from_mapping reconstructs an equal
    RunConfig, which is what makes result bundles self-reproducing.
    """
    return _emit(config)


def resolved_yaml(config: RunConfig) -> str:
    """Canonical YAML echo of the resolved configuration."""
    return yaml.safe_dump(resolved_mapping(config), sort_keys=True, default_flow_style=False)
