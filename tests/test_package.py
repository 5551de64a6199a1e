"""The top-level package: one home per public name and a cheap import."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sawkit


def public_modules():
    """Every sawkit module that declares an __all__."""
    for info in pkgutil.iter_modules(sawkit.__path__):
        module = importlib.import_module(f"sawkit.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_submodule_exports_exist():
    # an __all__ entry left behind by a deleted name fails here
    for module in public_modules():
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_each_public_name_has_one_home():
    # no module lists a class or function that another module defines
    for module in public_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)


def test_api_surface_lists_every_public_name():
    root = Path(sawkit.__file__).resolve().parent.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, str(root / "tools" / "api_surface.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    # each line is "<module> <name><signature>" or "<module> <name>: <type>"
    listed = [re.match(r"(\S+) (\w+)", line).groups() for line in out.stdout.splitlines()]
    expected = [(m.__name__, name) for m in public_modules() for name in m.__all__]
    assert sorted(listed) == sorted(expected)


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "line_plot_svg"):
        with pytest.raises(AttributeError, match=name):
            getattr(sawkit, name)


def test_submodules_still_import_through_the_package():
    from sawkit import ingest, qdyn

    assert ingest.__name__ == "sawkit.ingest"
    assert qdyn.__name__ == "sawkit.qdyn"


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
        "import sys, numpy, sawkit.cli, sawkit.specanalysis, sawkit.qdyn; "
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy')); "
        "print(loaded()); "
        "from sawkit.numerics import bessel_j; "
        "bessel_j(1, 1.2); "
        "print(loaded()); "
        "sawkit.qdyn.sideband_spectrum(0.0, 1e9, 1.2, 1e8, 3, numpy.linspace(-4e9, 4e9, 101)); "
        "print(loaded())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:3] == ["[]", "[]", "[]"]


# The README session, one call per subcommand; inputs are relative to the out dir.
README_SESSION = [
    ["--seed", "7", "synth", "--t", "0.3", "--r", "0.1", "--alpha-db-mm", "3.2",
     "--length", "130u", "--noise", "1e-5", "--name", "echo.s2p"],
    ["synth", "--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0", "--name", "paper.s2p"],
    ["--plot", "cavity", "--input", "paper.s2p", "--d", "50u", "--lambda0", "1.7u",
     "--n-mirror", "40", "--vg", "6161", "--alpha-db-mm", "2.0"],
    ["echo-loss", "--input", "echo.s2p", "--length", "130u", "--vg", "6161", "--known-r", "0.1"],
    ["gate", "--input", "echo.s2p", "--start", "10n", "--stop", "200n"],
    ["convert", "--input", "echo.s2p", "--output", "sweep.csv"],
    ["budget", "--power-dbm", "0", "--loss", "-10", "--loss", "-10", "--g", "30k",
     "--f0", "3.8G", "--t0", "20n"],
    ["coupling", "--f-m", "3.83G", "--eps-xx", "2e-10"],
    ["--seed", "7", "simulate", "rabi", "--rabi-mhz", "33.4", "--decay-tau-ns", "150",
     "--t-max-ns", "600", "--points", "2401", "--noise", "0.02"],
    ["simulate", "odar", "--rabi-mhz", "25", "--f-spin-ghz", "3.83", "--pulse-ns", "20"],
    ["simulate", "sidebands", "--carrier", "3.83G", "--mod-freq", "1G", "--mod-index", "1.2"],
]


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    """A None entry in sys.modules makes any import of scipy raise ImportError."""
    src = str(Path(sawkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, os, sys\n"
        "sys.modules['scipy'] = None\n"
        "from click.testing import CliRunner\n"
        "from sawkit.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    result = CliRunner().invoke(main, ['--out-dir', os.getcwd(), *args])\n"
        "    print(result.exit_code, repr(result.exception) if result.exit_code else '')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(README_SESSION)],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    codes = out.stdout.splitlines()
    assert len(codes) == len(README_SESSION), out.stderr
    for args, line in zip(README_SESSION, codes):
        assert line.rstrip() == "0", (args, line)
    written = {p.name for p in tmp_path.iterdir()}
    assert {"cavity_plot.svg", "loss_model.txt", "gated.s2p", "sweep.csv",
            "rabi_trace.csv", "odar_spectrum.csv", "sideband_spectrum.csv"} <= written


# The sawkit modules a README call loads besides the package, cli, config and
# errors. textformat comes with the first file written; plotting with --plot.
SUBCOMMAND_MODULES = {
    "synth": {"timedomain", "ingest", "numerics", "textformat"},
    "cavity": {"specanalysis", "ingest", "numerics", "plotting", "textformat"},
    "echo-loss": {"timedomain", "ingest", "numerics", "textformat"},
    "gate": {"timedomain", "ingest", "numerics", "textformat"},
    "convert": {"ingest", "textformat"},
    "budget": {"spinphonon"},
    "coupling": {"spinphonon"},
    "simulate": {"qdyn", "numerics", "textformat"},
}


def test_each_subcommand_loads_only_its_modules(tmp_path):
    """One fresh interpreter per README call; budget and coupling load no numpy."""
    src = str(Path(sawkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, os, sys\n"
        "from click.testing import CliRunner\n"
        "from sawkit.cli import main\n"
        "result = CliRunner().invoke(main, ['--out-dir', os.getcwd(), *json.loads(sys.argv[1])])\n"
        "print(json.dumps([result.exit_code, 'numpy' in sys.modules,\n"
        "                  sorted(m for m in sys.modules if m.split('.')[0] == 'sawkit')]))\n"
    )
    for args in README_SESSION:
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(args)],
            env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
        )
        exit_code, numpy_loaded, modules = json.loads(out.stdout)
        command = next(a for a in args if a in SUBCOMMAND_MODULES)
        assert exit_code == 0, (args, out.stderr)
        expected = {"sawkit", "sawkit.cli", "sawkit.config", "sawkit.errors"}
        expected |= {f"sawkit.{m}" for m in SUBCOMMAND_MODULES[command]}
        assert set(modules) == expected, args
        assert numpy_loaded == (command not in ("budget", "coupling")), args
