"""Every name a module exports in ``__all__`` exists."""

import importlib

import pytest

MODULES = (
    "idkit",
    "idkit.adapters",
    "idkit.cli",
    "idkit.engine",
    "idkit.harness",
    "idkit.optimizers",
    "idkit.problems",
    "idkit.records",
    "idkit.shapes",
    "idkit.space",
    "idkit.surrogate",
    "idkit.tmm",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
