"""The public surface of each package module matches its __all__.

The benchmark tracer wraps every name in a module's __all__ (or every
public name when there is none), so a name left in __all__ after its
definition is deleted breaks every traced run, and a public function
missing from __all__ goes untraced."""

import importlib
import inspect

import pytest

MODULES = (
    "cli",
    "distributions",
    "guarantees",
    "mmv",
    "montecarlo",
    "presets",
    "reports",
    "sensing",
    "sequences",
    "signmatrix",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(f"mwclab.{name}")
    listed = getattr(mod, "__all__", None)
    if listed is None:  # the tracer takes the module's public names
        return
    missing = [n for n in listed if not hasattr(mod, n)]
    assert not missing, f"__all__ names with no definition: {missing}"
    defined = {
        n
        for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    assert defined <= set(listed), f"public but not in __all__: {sorted(defined - set(listed))}"
