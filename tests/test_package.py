"""Every name a ``bmrnn`` module lists in ``__all__`` exists, so a deletion
that leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import bmrnn

MODULES = ["bmrnn"] + [f"bmrnn.{m.name}" for m in pkgutil.iter_modules(bmrnn.__path__)]


def test_every_module_is_listed():
    assert {"bmrnn.cells", "bmrnn.network", "bmrnn.objective", "bmrnn.skips"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
