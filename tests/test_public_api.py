"""Every name a module exports in ``__all__`` exists, and none is listed
twice in a package's; the surreal and transseries layers import no layer
above them."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import tsr

PACKAGES = ["tsr.surreal", "tsr.transseries", "tsr.resummation", "tsr.operators"]
#: every module under tsr that defines ``__all__``, so that ``import *`` works
EXPORTING = sorted(
    info.name for info in pkgutil.walk_packages(tsr.__path__, "tsr.") if hasattr(importlib.import_module(info.name), "__all__")
)


@pytest.mark.parametrize("package", EXPORTING)
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_are_unique(package):
    names = importlib.import_module(package).__all__
    assert len(names) == len(set(names))


def _loaded_after_import(package: str, prefixes: tuple[str, ...]) -> list[str]:
    """The modules under ``prefixes`` a fresh interpreter holds after importing ``package``."""
    import tsr

    code = f"import json, sys, {package}; print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsr.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_surreal_layer_loads_no_layer_above_it():
    assert _loaded_after_import("tsr.surreal", ("tsr.transseries", "tsr.resummation", "tsr.operators")) == []


def test_the_transseries_layer_loads_no_layer_above_it():
    # nor mpmath: the T1 algebra is exact, and only summing it is numeric
    layers = ("tsr.surreal", "tsr.resummation", "tsr.operators", "mpmath")
    assert _loaded_after_import("tsr.transseries", layers) == []
