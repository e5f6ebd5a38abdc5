"""The package's public names, and which of its modules may import numpy."""

import ast
import inspect
from pathlib import Path

import pytest

import vfso

from test_bounds import ARGUMENTS


def test_every_exported_name_resolves_once():
    assert len(vfso.__all__) == len(set(vfso.__all__))
    for name in vfso.__all__:
        assert hasattr(vfso, name), name


def test_every_float_argument_of_a_public_function_has_a_checked_rule():
    listed = {(function, name) for function, name, _, _ in ARGUMENTS}
    functions = [getattr(vfso, name) for name in vfso.__all__]
    unlisted = [
        f"{function.__name__}({parameter.name})"
        for function in functions
        if inspect.isfunction(function)
        for parameter in inspect.signature(function).parameters.values()
        if parameter.annotation in ("float", float) and (function, parameter.name) not in listed
    ]
    assert not unlisted


@pytest.mark.parametrize("module", ["geometry", "atmosphere", "link_budget", "aggregation", "config"])
def test_the_modules_that_build_no_array_import_no_numpy(module):
    # Arrays are built in scenario, hetnet_cost and cli alone; the formulas take numpy as `xp`.
    tree = ast.parse((Path(vfso.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
