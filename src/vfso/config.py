"""Run configuration: YAML documents validated into typed parameter objects.

A config file is a YAML mapping; every key is optional and falls back to
the library's own default objects (``default_parameters()``, the
``DEFAULT_*`` constants, the cost dataclass defaults), unknown keys are
rejected with their full path. ``--set a.b.c=value`` overrides are
deep-merged over the document before validation. The fully resolved
configuration can be dumped back to YAML and re-fed as input, reproducing
the same run.

Reading and writing both walk the dataclass fields of the default
RunConfig: a section holds one key per field, a nested dataclass is a
nested section, and each value is checked against its field's annotation
before the constructor validates the whole object. The few fields that are
spelled differently in YAML are listed in ``_SPECIAL`` and ``_FLATTENED``.
"""

from __future__ import annotations

import math
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
from .geometry import LinkGeometry, _Checked, _require, _require_bounds, _shown
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
        _require_bounds(self)
        _check_no_overlap(self.clouds)
        _check_scenarios(self.scenario_names, "scenario_names")
        if self.divergence_values_rad is not None:
            _check_divergences(self.divergence_values_rad, "divergence_values_rad")

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


# Rules for the list fields, shared by RunConfig and the loader (path: the YAML key).


def _check_scenarios(names: Sequence, path: str) -> None:
    if not names:
        raise ConfigError(f"{path}: expected a non-empty list of preset names")
    for i, name in enumerate(names):
        _build(lambda: preset(name), f"{path}[{i}]")
        if name in names[:i]:
            raise ConfigError(f"{path}[{i}]: duplicate preset {name!r}")


def _check_divergences(angles: Sequence, path: str) -> None:
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


# --- scalar values -----------------------------------------------------------

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


def _number(raw: Any, path: str) -> float:
    value = None
    try:
        # YAML 1.1 leaves forms like "1e-6" as strings; accept them anyway.
        if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
            value = float(raw)
    except ValueError:
        pass
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if value is None:
        raise ConfigError(f"{path}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {_shown(raw, repr)}")
    return value


def _integer(raw: Any, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{path}: expected an integer, got {raw!r}")
    return raw


def _string(raw: Any, path: str) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{path}: expected a string, got {raw!r}")
    return raw


def _optional_number(raw: Any, path: str) -> Optional[float]:
    return None if raw is None else _number(raw, path)


# Field annotation -> reader of a value of that type.
_SCALARS = {"float": _number, "int": _integer, "str": _string, "Optional[float]": _optional_number}


def _build(factory, path: str):
    try:
        return factory()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
        loss_path = _join(path, "optical_loss_db")
        loss = _number(section.pop("optical_loss_db"), loss_path)
        etas = _build(lambda: efficiencies_from_optical_loss(loss), loss_path)
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
    layers = tuple(
        _read(DEFAULT_CLOUD_PROFILE[0], layer, f"{path}[{i}]") for i, layer in enumerate(raw)
    )
    _build(lambda: _check_no_overlap(layers), path)
    return layers


def _read_scenarios(default: tuple, raw: Any, path: str) -> tuple[str, ...]:
    if raw is None:
        return default
    names = [raw] if isinstance(raw, str) else raw
    names = tuple(names) if isinstance(names, list) else ()
    _check_scenarios(names, path)
    return names


def _read_divergences(default: Optional[tuple], raw: Any, path: str) -> Optional[tuple[float, ...]]:
    if raw is None:
        return default
    items = raw if isinstance(raw, list) else []
    angles = tuple(_number(item, f"{path}[{i}]") for i, item in enumerate(items))
    _check_divergences(angles, path)
    return angles


def _converted(key: str, to_field, to_yaml):
    """A field given in other units under `key`, the key's range checked before conversion."""
    def read(default, raw: Any, path: str):
        value = _number(raw, path)
        _build(lambda: _require(key, value), path.rpartition(".")[0])
        return to_field(value)

    return key, read, to_yaml


def _echoed_degrees(radians: float) -> float:
    """The degrees to echo for an elevation: math.degrees(radians), or where that does not
    reload to radians, the double a few ulps away that does. A value read from a config
    always has one within an ulp."""
    guess = math.degrees(radians)
    toward = math.inf if math.radians(guess) < radians else -math.inf
    near = guess
    for _ in range(3):
        if math.radians(near) == radians:
            return near
        near = math.nextafter(near, toward)
    return guess


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
        key, reader, _ = _SPECIAL.get(spec, (f.name, None, None))
        key = prefix + key
        if key not in section:
            continue
        raw, key_path = section.pop(key), _join(path, key)
        if reader is not None:
            given[f.name] = reader(current, raw, key_path)
        elif is_dataclass(current):
            given[f.name] = _read(current, raw, key_path)
        else:
            given[f.name] = _SCALARS[f.type](raw, key_path)
    try:
        return replace(default, **given)
    except ValueError as exc:  # a field's rule names it; a flattened section's key adds prefix
        named = any(str(exc).startswith(f"{f.name} must be ") for f in fields(default))
        raise ConfigError(f"{path}: {prefix if named else ''}{exc}") from exc


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
            key, _, writer = _SPECIAL.get(spec, (f.name, None, _emit))
            out[prefix + key] = writer(value)
    return out


# Fields spelled differently in YAML: (owner, field) -> (YAML key, reader, writer).
# reader(default, raw, path) gives the field value, writer(value) the YAML value.
_SPECIAL = {
    (LinkGeometry, "elevation_rad"): _converted("elevation_deg", math.radians, _echoed_degrees),
    (FogDescriptor, "visibility_km"): _converted(
        "visibility_m", lambda m: m / 1000.0, lambda km: km * 1000.0
    ),
    (RunConfig, "transceiver"): ("transceiver", _read_transceiver, _emit),
    (RunConfig, "clouds"): ("clouds", _read_clouds, _emit),
    (RunConfig, "scenario_names"): ("scenarios", _read_scenarios, _emit),
    (RunConfig, "divergence_values_rad"): ("divergence_values_rad", _read_divergences, _emit),
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
    RunConfig for every config that was loaded, which is what makes result
    bundles self-reproducing. A RunConfig built in code may hold an
    elevation_rad that no degrees value converts to (1.258084464684313, say);
    its echo then reloads as the neighbouring double, one ulp off.
    """
    return _emit(config)


def resolved_yaml(config: RunConfig) -> str:
    """Canonical YAML echo of the resolved configuration."""
    return yaml.safe_dump(resolved_mapping(config), sort_keys=True, default_flow_style=False)
