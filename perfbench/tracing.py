"""Span tracing of vfso, installed from outside the package.

install() replaces every public function of the layer modules with a timing
wrapper. The wrapper is bound under every name that holds the function: in
the defining module, in each vfso module that imported it (for example
``vfso.link_budget.total_atmospheric_loss`` or ``vfso.scenario.evaluate_link``),
in the ``vfso`` package namespace, and inside module-level dicts such as the
CLI's command table. Calls between layers therefore nest as spans.

A span records its id, its parent's id, its name, start and end (ns) and the
op id set by the benchmark loop. The first ``span_cap`` spans are kept in
memory and written out when the run ends; every span, kept or not, is folded
into per-name totals (calls, self ns, total ns). Self time is a span's
duration minus the time its child spans cover. A few spans also update
counters from their arguments and results (rows and row errors of a sweep,
bytes of the nearest-hub distance array).

Only the traced run calls install(); timed runs measure an unpatched vfso.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = (
    "config",
    "geometry",
    "atmosphere",
    "link_budget",
    "scenario",
    "aggregation",
    "hetnet_cost",
    "cli",
)
_LAYER_MODULES = {f"vfso.{layer}": layer for layer in LAYERS}


def _count_sweep_rows(counters: dict, args: tuple, result) -> None:
    counters["scenario.rows"] = counters.get("scenario.rows", 0) + len(result.rows)
    errors = sum(1 for row in result.rows if row.error is not None)
    counters["scenario.row_errors"] = counters.get("scenario.row_errors", 0) + errors


def _count_nearest_bytes(counters: dict, args: tuple, result) -> None:
    # Computed, not measured: the n_small x n_macro x 2 float64 difference array.
    layout = args[0]
    n_bytes = len(layout.small_positions) * len(layout.macro_positions) * 2 * 8
    key = "hetnet_cost.nearest.bytes_computed"
    counters[key] = counters.get(key, 0) + n_bytes


HOOKS = {
    "scenario.run_sweep": _count_sweep_rows,
    "hetnet_cost.nearest_macro_distances": _count_nearest_bytes,
}


class Tracer:
    def __init__(self, span_cap: int = 20000):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns, total_ns]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent_id, name, start_ns, end_ns, op_id)
        self.span_cap = span_cap
        self.next_id = 0
        self.op_id = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                stat[0] += 1
                stat[1] += total - frame[1]
                stat[2] += total
                if stack:
                    stack[-1][1] += total
                if span_id < tracer.span_cap:
                    parent = stack[-1][0] if stack else -1
                    tracer.spans.append((span_id, parent, name, start, end, tracer.op_id))
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, under all its names."""
        modules = [importlib.import_module(name) for name in _LAYER_MODULES]
        modules.append(importlib.import_module("vfso"))
        wrappers: dict[int, object] = {}

        def wrapper_for(obj):
            if not (
                inspect.isfunction(obj)
                and obj.__module__ in _LAYER_MODULES
                and not obj.__name__.startswith("_")
            ):
                return None
            if id(obj) not in wrappers:
                name = f"{_LAYER_MODULES[obj.__module__]}.{obj.__name__}"
                wrappers[id(obj)] = self.wrap(name, obj)
            return wrappers[id(obj)]

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        wrapped = wrapper_for(value)
                        if wrapped is not None:
                            self._patches.append((obj.__setitem__, key, value))
                            obj[key] = wrapped
                    continue
                wrapped = wrapper_for(obj)
                if wrapped is not None:
                    self._patches.append((functools.partial(setattr, module), attr, obj))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            restore, key, original = self._patches.pop()
            restore(key, original)

    def dump(self) -> dict:
        return {"stats": self.stats, "counters": self.counters, "spans": self.spans}


def merge(total: dict, part: dict) -> None:
    """Add one tracer dump's totals and counters into another (spans excluded)."""
    for name, (calls, self_ns, total_ns) in part["stats"].items():
        row = total["stats"].setdefault(name, [0, 0, 0])
        row[0] += calls
        row[1] += self_ns
        row[2] += total_ns
    for name, value in part["counters"].items():
        total["counters"][name] = total["counters"].get(name, 0) + value


def layer_metrics(stats: dict, counters: dict, n_ops: int) -> dict[str, float]:
    """Per-layer metric values: ``*_ms`` and ``calls`` per op, ``*_us`` per call."""

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def self_ns(name):
        return stats.get(name, [0, 0, 0])[1]

    def layer_sum(prefix, field):
        return sum(row[field] for name, row in stats.items() if name.startswith(prefix))

    def per_call_us(name):
        return self_ns(name) / calls(name) / 1e3 if calls(name) else 0.0

    def per_op_ms(ns):
        return ns / n_ops / 1e6

    rows = counters.get("scenario.rows", 0)
    cmd_self = sum(row[1] for name, row in stats.items() if name.startswith("cli.cmd_"))
    return {
        "config.load_config.self_ms": per_op_ms(self_ns("config.load_config")),
        "config.resolved_yaml.self_ms": per_op_ms(self_ns("config.resolved_yaml")),
        "geometry.calls": layer_sum("geometry.", 0) / n_ops,
        "geometry.self_ms": per_op_ms(layer_sum("geometry.", 1)),
        "geometry.capture_fraction.calls": calls("geometry.geometrical_capture_fraction") / n_ops,
        "atmosphere.fog.self_us": per_call_us("atmosphere.fog_attenuation"),
        "atmosphere.rain.self_us": per_call_us("atmosphere.rain_attenuation"),
        "atmosphere.cloud.self_us": per_call_us("atmosphere.cloud_attenuation"),
        "atmosphere.scintillation.self_us": per_call_us("atmosphere.scintillation_loss"),
        "atmosphere.total.self_us": per_call_us("atmosphere.total_atmospheric_loss"),
        "atmosphere.calls": layer_sum("atmosphere.", 0) / n_ops,
        "atmosphere.mie.calls": calls("atmosphere.mie_specific_attenuation") / n_ops,
        "link_budget.evaluate_link.calls": calls("link_budget.evaluate_link") / n_ops,
        "link_budget.evaluate_link.self_us": per_call_us("link_budget.evaluate_link"),
        "scenario.run_sweep.self_ms": per_op_ms(self_ns("scenario.run_sweep")),
        "scenario.rows": rows / n_ops,
        "scenario.row_errors": counters.get("scenario.row_errors", 0) / n_ops,
        "scenario.ok_ratio": (rows - counters.get("scenario.row_errors", 0)) / rows if rows else 0.0,
        "aggregation.supported_cells.self_us": per_call_us("aggregation.supported_cells"),
        "hetnet_cost.generate_layout.self_ms": per_op_ms(self_ns("hetnet_cost.generate_layout")),
        "hetnet_cost.nearest.self_ms": per_op_ms(self_ns("hetnet_cost.nearest_macro_distances")),
        "hetnet_cost.nearest.bytes_computed": counters.get("hetnet_cost.nearest.bytes_computed", 0)
        / n_ops,
        "hetnet_cost.compare_tco.self_ms": per_op_ms(self_ns("hetnet_cost.compare_tco")),
        "cli.cmd.self_ms": per_op_ms(cmd_self),
    }
