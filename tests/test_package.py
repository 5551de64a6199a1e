"""The top-level package: one lazy export table and a cheap import."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sawkit

EXPORTED = [name for name in sawkit.__all__ if name != "__version__"]


def home_module(name):
    return importlib.import_module(f"sawkit.{sawkit._EXPORTS[name]}")


def test_exports_are_their_home_objects():
    for name in EXPORTED:
        obj = getattr(sawkit, name)
        home = home_module(name)
        assert obj is getattr(home, name), name
        # classes and functions are exported from the module defining them
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_exports_are_listed_once_and_by_dir():
    assert len(set(sawkit.__all__)) == len(sawkit.__all__)
    listed = dir(sawkit)
    for name in sawkit.__all__:
        assert name in listed, name


def test_lookups_are_not_cached_in_the_package():
    home = home_module("phonon_budget")
    assert sawkit.phonon_budget is home.phonon_budget
    assert "phonon_budget" not in vars(sawkit)
    original = home.phonon_budget
    try:
        home.phonon_budget = replacement = object()
        assert sawkit.phonon_budget is replacement
    finally:
        home.phonon_budget = original


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "line_plot_svg"):
        with pytest.raises(AttributeError, match=name):
            getattr(sawkit, name)


def test_submodules_still_import_through_the_package():
    from sawkit import ingest, qdyn

    assert ingest.parse_touchstone is sawkit.parse_touchstone
    assert qdyn.fit_rabi is sawkit.fit_rabi


def test_bare_import_loads_neither_numpy_nor_scipy():
    src = str(Path(sawkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, sawkit; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules)); "
        "print(sawkit.__version__)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", sawkit.__version__]


def test_cli_and_analysis_modules_load_no_scipy():
    src = str(Path(sawkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, sawkit.cli, sawkit.specanalysis, sawkit.qdyn; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        "from sawkit.numerics import bessel_j; "
        "import scipy.special; "
        "print(bessel_j(1, 1.2) == float(scipy.special.jv(1, 1.2)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "True"]
