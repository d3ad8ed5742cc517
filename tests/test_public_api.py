"""Every name a package exports in ``__all__`` exists, and none is listed
twice; the surreal layer imports no layer above it."""

import importlib
import os
import subprocess
import sys

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


def test_the_surreal_layer_loads_no_layer_above_it():
    import tsr

    code = (
        "import sys, tsr.surreal; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['tsr', 'transseries'], ['tsr', 'resummation'], ['tsr', 'operators'])))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsr.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
