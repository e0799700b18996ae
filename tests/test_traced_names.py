"""The benchmark's traced run (``perfbench/tracing.py``) wraps functions and
methods of ``sparsegp`` by name.  Each named one must still exist where the
tracer looks for it, so a refactor that moves one fails here instead of
breaking the traced run."""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in tracing.FUNCTIONS.items() for name in names],
)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"sparsegp.{module}"), name))


@pytest.mark.parametrize(
    "module,cls,method",
    [
        (module, cls, method)
        for module, classes in tracing.METHODS.items()
        for cls, methods in classes.items()
        for method in methods
    ],
)
def test_traced_method_is_defined_on_its_class(module, cls, method):
    owner = getattr(importlib.import_module(f"sparsegp.{module}"), cls)
    assert callable(vars(owner).get(method))  # the tracer rebinds the class's own
