"""The benchmark's three workloads: fixtures, one operation, output checks.

Each workload builds its inputs from the seed in ``setup``, times one
operation per ``run`` call, and judges that operation's outputs in
``check``, which returns None when they are correct and a one-line
reason otherwise. Every workload is a closed loop with a single caller.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from sawkit import ingest, qdyn, specanalysis, timedomain
from sawkit.timedomain import LossModel

V_G = 6161.0
BAND = (2.8e9, 4.8e9)
PAPER_LENGTH = 58.565e-6
PAPER_FSR = 52.6e6
PAPER_L_P = 4.3e-6
RABI_HZ = 33.4e6
# fit_echo_decay must land within this share of the synthesized alpha.
ALPHA_TOL = 0.05


def db_mm(value: float) -> float:
    """Power attenuation in 1/m from dB/mm."""
    return value * 1000.0 * math.log(10.0) / 10.0


# README echo device (about 7 arrivals) and a long-train device (about
# 240 arrivals); the arrival count is what synthesis time and memory
# depend on.
ECHO_DEVICE = LossModel(t=0.3, r=0.1, alpha=db_mm(3.2), length=130e-6)
LONG_TRAIN = LossModel(t=0.3, r=0.95, alpha=db_mm(0.5), length=PAPER_LENGTH)
PAPER_CAVITY = LossModel(t=0.3, r=0.6, alpha=db_mm(2.0), length=PAPER_LENGTH)
GEOMETRY = specanalysis.CavityGeometry(d=50e-6, lambda0=1.7e-6, n_mirror=40, v_g=V_G)


def _close(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def check_paper_cavity(fsr: float, l_p: float) -> Optional[str]:
    if not _close(fsr, PAPER_FSR, 1e-3):
        return f"paper cavity fsr {fsr:.6g} Hz is not within 1e-3 of {PAPER_FSR:.6g}"
    if not _close(l_p, PAPER_L_P, 0.03):
        return f"paper cavity l_p {l_p:.4g} m is not within 3% of {PAPER_L_P:.4g}"
    return None


class SweepIO:
    """64,001-point library chain over two seeded noisy devices."""

    name = "sweep_io_64k"
    group = 1
    n_points = 64001
    noise = 1e-5

    def setup(self, work: Path, seed: int):
        self.devices = [(ECHO_DEVICE, 2 * seed), (LONG_TRAIN, 2 * seed + 1)]
        self.first: Optional[List[str]] = None
        self.working_set = 0

    def _chain(self, model: LossModel, seed: int) -> Dict:
        sweep = timedomain.synthesize_echo_network(
            model, V_G, BAND, self.n_points, noise_sigma=self.noise, seed=seed
        )
        text = ingest.write_touchstone(sweep)
        parsed = ingest.parse_touchstone(text)
        csv = ingest.write_csv(parsed, sorted(parsed.s), representation="ri")
        parsed_csv = ingest.parse_csv_sweep(csv)
        ir = timedomain.impulse_response(parsed_csv, edge_fraction=0.5, oversample=16)
        round_trip = 2.0 * model.length / V_G
        train = timedomain.detect_echoes(ir, round_trip, 4)
        loss = timedomain.fit_echo_decay(train, model.length, known_r=model.r)
        gated = timedomain.time_gate(parsed_csv, (0.0, round_trip))
        out = ingest.write_touchstone(gated)
        return {
            "model": model,
            "s21": sweep.pair((2, 1)),
            "s21_touchstone": parsed.pair((2, 1)),
            "s21_csv": parsed_csv.pair((2, 1)),
            "alpha": loss.alpha,
            "gated": gated.pair((2, 1)),
            "text_bytes": len(text) + len(csv),
            "out": out,
        }

    def prepare(self, i: int):
        gc.collect()

    def run(self, i: int) -> List[Dict]:
        return [self._chain(model, seed) for model, seed in self.devices]

    def check(self, outputs: List[Dict]) -> Optional[str]:
        digests = []
        for k, o in enumerate(outputs):
            if not np.array_equal(o["s21_touchstone"], o["s21"]):
                return f"device {k}: RI Touchstone round trip changed S21"
            if not np.array_equal(o["s21_csv"], o["s21"]):
                return f"device {k}: ri CSV round trip changed S21"
            alpha = o["model"].alpha
            if not _close(o["alpha"], alpha, ALPHA_TOL):
                return f"device {k}: fitted alpha {o['alpha']:.6g} 1/m, synthesized {alpha:.6g}"
            energy = float(np.vdot(o["s21"], o["s21"]).real)
            gated = float(np.vdot(o["gated"], o["gated"]).real)
            if not 0.0 < gated <= energy * (1.0 + 1e-9):
                return f"device {k}: gated energy {gated:.6g} outside (0, {energy:.6g}]"
            digests.append(hashlib.sha256(o["out"]).hexdigest())
        if self.first is None:
            self.first = digests
            self.working_set = sum(
                o["text_bytes"] + 4 * o["s21"].nbytes for o in outputs
            )
        elif digests != self.first:
            return "gated Touchstone output differs from the first operation's"
        return None


class CavityFits:
    """Cavity reports and spin-dynamics fits on fixtures built in setup."""

    name = "cavity_fits"
    group = 1
    n_points = 4001

    def setup(self, work: Path, seed: int):
        self.paper = timedomain.synthesize_echo_network(
            PAPER_CAVITY, V_G, BAND, self.n_points, noise_sigma=1e-4, seed=3 * seed
        )
        self.high_finesse = timedomain.synthesize_echo_network(
            LONG_TRAIN, V_G, BAND, self.n_points, noise_sigma=1e-4, seed=3 * seed + 1
        )
        t = np.linspace(0.0, 600e-9, 2401)
        self.trace = qdyn.simulate_rabi_trace(RABI_HZ, 150e-9, t, noise_sigma=0.02, seed=3 * seed + 2)
        # CLI defaults of `simulate odar` and `simulate sidebands`
        self.odar_grid = np.linspace(3.83e9 - 100e6, 3.83e9 + 100e6, 801)
        span = 4 * 3.83e9
        self.sideband_grid = np.linspace(-span, span, 2001)
        self.first: Optional[Tuple] = None
        self.working_set = sum(
            a.nbytes
            for a in (
                self.paper.freqs, *self.paper.s.values(),
                self.high_finesse.freqs, *self.high_finesse.s.values(),
                self.trace.x, self.trace.y, self.odar_grid, self.sideband_grid,
            )
        )

    def prepare(self, i: int):
        gc.collect()

    def run(self, i: int) -> Dict:
        return {
            "paper": specanalysis.cavity_report(self.paper, GEOMETRY, alpha_db_per_mm=2.0),
            "high_finesse": specanalysis.cavity_report(self.high_finesse, GEOMETRY, alpha_db_per_mm=0.5),
            "rabi": qdyn.fit_rabi(self.trace),
            "odar": qdyn.odar_spectrum(25e6, 3.83e9, 20e-9, self.odar_grid),
            "sidebands": qdyn.sideband_spectrum(0.0, 3.83e9, 0.5, 1e9, 3, self.sideband_grid),
        }

    def check(self, o: Dict) -> Optional[str]:
        paper, hf = o["paper"], o["high_finesse"]
        reason = check_paper_cavity(paper.fsr, paper.l_p)
        if reason:
            return reason
        if len(hf.q_loaded) < 2 or not _close(hf.fsr, PAPER_FSR, 1e-3):
            return f"high-finesse cavity: {len(hf.q_loaded)} modes, fsr {hf.fsr:.6g} Hz"
        if not _close(o["rabi"].rabi, RABI_HZ, 0.02):
            return f"fit_rabi gave {o['rabi'].rabi:.6g} Hz, expected {RABI_HZ:.6g}"
        odar = o["odar"]
        k = int(np.argmax(odar.y))
        if odar.x[k] != 3.83e9 or abs(odar.y[k] - 1.0) > 1e-9:
            return f"odar peak {odar.y[k]:.6g} at {odar.x[k]:.6g} Hz, expected 1 at 3.83e9"
        sb = o["sidebands"].y
        if np.max(np.abs(sb - sb[::-1])) > 1e-12 * np.max(sb) or np.argmax(sb) != sb.size // 2:
            return "sideband comb is not symmetric about its carrier"
        summary = (
            specanalysis.report_csv(paper) + specanalysis.report_csv(hf)
            + repr(o["rabi"].rabi).encode() + odar.y.tobytes() + sb.tobytes()
        )
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            return "results differ from the first operation's"
        return None


# The README shell session, one cold `sawkit` process per entry.
# {fixtures} is the fixture directory and {seed} the benchmark seed.
CLI_CYCLE = [
    ("synth", ["--seed", "{seed}", "synth", "--t", "0.3", "--r", "0.1", "--alpha-db-mm", "3.2",
               "--length", "130u", "--noise", "1e-5"]),
    ("cavity", ["--config", "{fixtures}/device.cfg", "--plot", "cavity",
                "--input", "{fixtures}/paper.s2p", "--alpha-db-mm", "2.0"]),
    ("echo_loss", ["echo-loss", "--input", "{fixtures}/echo.s2p", "--length", "130u",
                   "--vg", "6161", "--known-r", "0.1"]),
    ("gate", ["gate", "--input", "{fixtures}/echo.s2p", "--start", "10n", "--stop", "200n"]),
    ("convert", ["convert", "--input", "{fixtures}/echo.s2p", "--output", "sweep.csv"]),
    ("budget", ["budget", "--power-dbm", "0", "--loss", "-10", "--loss", "-10", "--g", "30k",
                "--f0", "3.8G", "--t0", "20n"]),
    ("coupling", ["coupling", "--f-m", "3.83G", "--eps-xx", "2e-10"]),
    ("simulate_rabi", ["--seed", "{seed}", "simulate", "rabi", "--rabi-mhz", "33.4",
                       "--decay-tau-ns", "150", "--t-max-ns", "600", "--points", "2401",
                       "--noise", "0.02"]),
    ("simulate_odar", ["simulate", "odar", "--rabi-mhz", "25", "--f-spin-ghz", "3.83",
                       "--pulse-ns", "20"]),
    ("simulate_sidebands", ["simulate", "sidebands", "--carrier", "3.83G", "--mod-freq", "1G",
                            "--mod-index", "1.2"]),
]
CLI_NAMES = [name for name, _ in CLI_CYCLE]

DEVICE_CFG = b"# paper cavity geometry\nd = 50u\nlambda0 = 1.7u\nn_mirror = 40\nvg = 6161\n"


def cli_args(i: int, fixtures: Path, seed: int) -> Tuple[str, List[str]]:
    name, template = CLI_CYCLE[i % len(CLI_CYCLE)]
    return name, [a.format(seed=seed, fixtures=fixtures) for a in template]


def check_cli_call(name: str, returncode: int, files: Dict[str, bytes],
                   first: Optional[Dict[str, bytes]]) -> Optional[str]:
    """A call is correct when it exits 0 and matches the first call byte for byte."""
    if returncode != 0:
        return f"{name}: exit code {returncode}"
    if name == "cavity":
        values = dict(
            line.split("=", 1) for line in files["cavity_summary.txt"].decode().splitlines()
        )
        reason = check_paper_cavity(float(values["fsr"]), float(values["l_p"]))
        if reason:
            return f"cavity: {reason}"
    if first is not None and files != first:
        changed = sorted(k for k in set(files) | set(first) if files.get(k) != first.get(k))
        return f"{name}: output differs from the first call: {', '.join(changed)}"
    return None


class CliScript:
    """Cold `sawkit` subprocesses replaying the README shell session."""

    name = "cli_script"
    group = len(CLI_CYCLE)  # the loop stops only between whole cycles
    n_points = 4001

    def setup(self, work: Path, seed: int):
        self.seed = seed
        self.fixtures = work / "fixtures"
        self.fixtures.mkdir(parents=True)
        echo = timedomain.synthesize_echo_network(
            ECHO_DEVICE, V_G, BAND, self.n_points, noise_sigma=1e-5, seed=2 * seed
        )
        paper = timedomain.synthesize_echo_network(
            PAPER_CAVITY, V_G, BAND, self.n_points, noise_sigma=1e-4, seed=2 * seed + 1
        )
        (self.fixtures / "echo.s2p").write_bytes(ingest.write_touchstone(echo))
        (self.fixtures / "paper.s2p").write_bytes(ingest.write_touchstone(paper))
        (self.fixtures / "device.cfg").write_bytes(DEVICE_CFG)
        self.out = {name: work / "out" / name for name in CLI_NAMES}
        for d in self.out.values():
            d.mkdir(parents=True)
        self.env = dict(os.environ)
        src = str(Path(ingest.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.first: Dict[str, Dict[str, bytes]] = {}
        self.peak_rss_kib = 0
        self.working_set = sum(p.stat().st_size for p in self.fixtures.iterdir())

    def prepare(self, i: int):
        name = CLI_NAMES[i % len(CLI_NAMES)]
        shutil.rmtree(self.out[name])
        self.out[name].mkdir()

    def run(self, i: int) -> Tuple[str, int]:
        name, args = cli_args(i, self.fixtures, self.seed)
        out_dir = self.out[name]
        argv = [sys.executable, "-m", "sawkit.cli", "--out-dir", str(out_dir), *args]
        with open(out_dir.parent / f"{name}.stdout", "wb") as stdout, \
                open(out_dir.parent / f"{name}.stderr", "wb") as stderr:
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=self.env,
                                    cwd=self.fixtures)
            # wait4 reaps the child and returns its own rusage (max RSS)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return name, proc.returncode

    def check(self, outputs) -> Optional[str]:
        name, returncode = outputs
        files = {p.name: p.read_bytes() for p in sorted(self.out[name].iterdir()) if p.is_file()}
        files["<stdout>"] = (self.out[name].parent / f"{name}.stdout").read_bytes()
        reason = check_cli_call(name, returncode, files, self.first.get(name))
        if reason is None and name not in self.first:
            self.first[name] = files
        return reason


WORKLOADS = {w.name: w for w in (CliScript, SweepIO, CavityFits)}


def peak_rss_mb(workload) -> float:
    """Largest child's max RSS for cli_script, this process's otherwise."""
    if isinstance(workload, CliScript):
        return workload.peak_rss_kib / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
