"""Every name a package exports in ``__all__`` exists, and none is listed twice."""

import importlib

import pytest

PACKAGES = ["tsr.surreal", "tsr.transseries", "tsr.resummation", "tsr.operators"]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_are_unique(package):
    names = importlib.import_module(package).__all__
    assert len(names) == len(set(names))
