"""The package's public names."""

import inspect

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
