"""The benchmark's tracer wraps program functions by name: every
``(module, attribute)`` in ``perfbench.trace.LAYERS`` must resolve, so a
deleted or renamed layer fails here, not only in a later traced run."""

from __future__ import annotations

import importlib

import pytest

from perfbench.trace import LAYERS


@pytest.mark.parametrize("mod_name,attr",
                         sorted({(m, a) for _, m, a, _ in LAYERS}))
def test_traced_layer_resolves(mod_name, attr):
    obj = importlib.import_module(mod_name)
    for name in attr.split("."):
        obj = getattr(obj, name)
    assert callable(obj)
