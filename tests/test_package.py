"""Every name a ``bmrnn`` module lists in ``__all__`` exists, so a deletion
that leaves a stale export fails here; and the declared numpy floor is one
the package runs on."""

import importlib
import pkgutil
from pathlib import Path

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


def test_numpy_floor_has_matrix_transpose():
    """The gradients use ``ndarray.mT``, which NumPy 2.0 added."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())
    assert project["project"]["dependencies"] == ["numpy>=2.0"]
