"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py -q

A one-second run of every workload, untraced and traced, must print
exactly the metrics BENCHMARK.json names, with their units, and report
no failed operation. The output checks must fire on corrupted outputs.
Takes about two minutes, most of it in the 64,001-point and cold-CLI runs.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metric_names_match_benchmark_json(workload, trace):
    lines, result = _run(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"]), m["name"]
        # every metric is also printed by name with its unit
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("error_rate = 0.0 ratio") for line in lines)


def test_workload_names_match_the_workload_classes():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for p in BENCH.glob("*.py"):
        (tmp_path / "bench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_script", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_tail_has_samples_beyond_it():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0, 4.0, 5.0]) == (4.0, 80.0, 1)
    assert run.tail([2.0]) == (2.0, 100.0, 0)


def _flip_last_bit(a: np.ndarray) -> np.ndarray:
    b = a.copy()
    b.view(np.uint64)[-1] ^= 1
    return b


@pytest.fixture(scope="module")
def sweep_io(tmp_path_factory):
    w = workloads.SweepIO()
    w.n_points = 4001  # same chain, small enough to run in a test
    w.setup(tmp_path_factory.mktemp("sweep"), seed=5)
    outputs = w.run(0)
    assert w.check(outputs) is None
    return w, outputs


@pytest.mark.parametrize("key", ["s21_touchstone", "s21_csv"])
def test_sweep_round_trip_check_fires(sweep_io, key):
    w, outputs = sweep_io
    bad = [dict(o) for o in outputs]
    bad[1][key] = _flip_last_bit(bad[1][key])
    assert "round trip" in w.check(bad)


def test_sweep_alpha_check_fires(sweep_io):
    w, outputs = sweep_io
    bad = [dict(o) for o in outputs]
    bad[0]["alpha"] *= 1.0 + 2 * workloads.ALPHA_TOL
    assert "alpha" in w.check(bad)


def test_sweep_output_must_repeat(sweep_io):
    w, outputs = sweep_io
    bad = [dict(o) for o in outputs]
    bad[1]["out"] = bad[1]["out"].replace(b"0", b"1", 1)
    assert "differs" in w.check(bad)


@pytest.fixture(scope="module")
def cavity_fits(tmp_path_factory):
    w = workloads.CavityFits()
    w.setup(tmp_path_factory.mktemp("cavity"), seed=5)
    outputs = w.run(0)
    assert w.check(outputs) is None
    return w, outputs


def test_cavity_checks_fire(cavity_fits):
    w, outputs = cavity_fits
    paper = outputs["paper"]
    assert "fsr" in w.check(dict(outputs, paper=dataclasses.replace(paper, fsr=paper.fsr * 1.002)))
    assert "l_p" in w.check(dict(outputs, paper=dataclasses.replace(paper, l_p=paper.l_p * 1.05)))
    rabi = dataclasses.replace(outputs["rabi"], rabi=outputs["rabi"].rabi * 1.05)
    assert "fit_rabi" in w.check(dict(outputs, rabi=rabi))
    odar = outputs["odar"]
    shifted = type(odar)(odar.x, np.roll(odar.y, 1))
    assert "odar" in w.check(dict(outputs, odar=shifted))
    hf = outputs["high_finesse"]
    moved = dataclasses.replace(hf, fsr=hf.fsr * 1.01)
    assert "high-finesse" in w.check(dict(outputs, high_finesse=moved))


def test_cli_checks_fire():
    first = {"rabi_trace.csv": b"t_s,population\n0,0\n", "<stdout>": b"wrote rabi_trace.csv\n"}
    assert workloads.check_cli_call("simulate_rabi", 0, dict(first), first) is None
    assert "exit code" in workloads.check_cli_call("simulate_rabi", 2, dict(first), first)
    corrupt = dict(first, **{"rabi_trace.csv": b"t_s,population\n0,1\n"})
    assert "rabi_trace.csv" in workloads.check_cli_call("simulate_rabi", 0, corrupt, first)
    missing = {"<stdout>": first["<stdout>"]}
    assert "rabi_trace.csv" in workloads.check_cli_call("simulate_rabi", 0, missing, first)
    summary = b"fsr=52700000\nl_p=4.3e-06\n"
    assert "fsr" in workloads.check_cli_call("cavity", 0, {"cavity_summary.txt": summary}, None)
