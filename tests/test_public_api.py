"""The public surface of each package module matches its __all__.

The benchmark tracer wraps every name in a module's __all__ (or every
public name when there is none), so a name left in __all__ after its
definition is deleted breaks every traced run, and a public function
missing from __all__ goes untraced.  The tracer's annotators also read
some arguments and result fields by name; a rename there fails every
traced run, so those names are pinned too."""

import dataclasses
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


# (module, function, parameter) the tracer's annotators read by name
TRACED_PARAMETERS = (
    ("sensing", "quality_measures", "S"),
    ("sensing", "coherence", "S"),
    ("sensing", "spectral_norm_sq", "S"),
    ("montecarlo", "empirical_exrip", "trials"),
)
# (module, dataclass, field) the tracer reads off a result
TRACED_FIELDS = (
    ("distributions", "MomentConstants", "samples"),
    ("mmv", "SompResult", "early_stop"),
)
# (module, function, first parameter): the tracer takes the first
# argument as the path or handle whose bytes it counts
TRACED_STREAMS = (
    ("signmatrix", "read_pattern_file", "path"),
    ("signmatrix", "write_pattern_file", "path"),
    ("reports", "write_csv", "out"),
    ("reports", "write_json", "out"),
)


@pytest.mark.parametrize("module, func, param", TRACED_PARAMETERS)
def test_traced_parameter_names(module, func, param):
    sig = inspect.signature(getattr(importlib.import_module(f"mwclab.{module}"), func))
    assert param in sig.parameters, f"{module}.{func} lost parameter {param!r}"


@pytest.mark.parametrize("module, cls, name", TRACED_FIELDS)
def test_traced_result_fields(module, cls, name):
    obj = getattr(importlib.import_module(f"mwclab.{module}"), cls)
    assert name in {f.name for f in dataclasses.fields(obj)}, f"{cls} lost field {name!r}"


@pytest.mark.parametrize("module, func, first", TRACED_STREAMS)
def test_traced_stream_is_first_argument(module, func, first):
    sig = inspect.signature(getattr(importlib.import_module(f"mwclab.{module}"), func))
    assert next(iter(sig.parameters)) == first, f"{module}.{func} must take {first!r} first"
