"""Hash every output of a fixed set of `sawkit` CLI calls.

Prints one `<call> <file> <sha256>` line per output file, with `<stdout>`
and `<stderr>` standing for the call's standard output and standard
error, so warnings such as a left-out cavity candidate are checked too.
The calls are the README session that the benchmark's `cli_script`
workload replays (its `CLI_CYCLE` on fixtures built by its `CliScript`
set-up), then a few calls that exercise flags the session does not
reach.

The `sawkit` package that runs is the one on PYTHONPATH, so two
checkouts can be compared output for output:

    PYTHONPATH=<old checkout>/src python tools/cli_digest.py > old.txt
    PYTHONPATH=src python tools/cli_digest.py > new.txt
    diff old.txt new.txt    # empty when every output is byte-identical

The fixtures come from synthesis, so a change to `synth` moves them too,
and with them the hash of every call that reads one. With `--fixtures
DIR` the first run writes its fixtures to DIR and later runs read them
from there, so both checkouts see the same input bytes and only the
outputs the change itself moves differ:

    PYTHONPATH=<old checkout>/src python tools/cli_digest.py --fixtures fx > old.txt
    PYTHONPATH=src python tools/cli_digest.py --fixtures fx > new.txt

Exits 1 if any call fails.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import CLI_CYCLE, DEVICE_CFG, CliScript, cli_args  # noqa: E402

from sawkit import ingest  # noqa: E402

# Config files written into the fixtures, for calls that take their
# values from a config file; a relative input is read from the fixtures,
# where every call runs.
CONFIGS = {
    "siv.cfg": b"gamma_s = 14.2G\ntheta_deg = 50\neps_xy = 1.5e-10\neps_yz = 3e-11\n",
    "echo_loss.cfg": b"length = 130u\nvg = 6161\n",
    "cavity.cfg": DEVICE_CFG + b"input = paper.s2p\nalpha_db_mm = 2.0\n",
}

# {fixtures}, {seed} as in CLI_CYCLE; {out} is the directory holding each
# call's output directory, so a later call can read an earlier output.
EXTRA_CALLS = [
    ("budget_beam", ["budget", "--power-dbm", "0", "--loss", "-10", "--loss", "-10",
                     "--g", "30k", "--f0", "3.8G", "--t0", "20n", "--waist", "6.8u",
                     "--beam-wavelength", "1.1u", "--r", "10u", "--z", "70u"]),
    ("coupling_beam", ["coupling", "--f-m", "3.83G", "--eps-xx", "2e-10", "--eps-zx", "1e-10",
                       "--waist", "6.8u", "--beam-wavelength", "1.1u", "--r", "2u"]),
    ("coupling_siv", ["coupling", "--f-m", "3.83G", "--eps-xy", "1.5e-10", "--eps-yz", "3e-11",
                      "--gamma-s", "14.2G", "--theta-deg", "50"]),
    # twins of coupling_siv, CLI_CYCLE's echo_loss and its cavity without
    # --plot, with values from a config file: each hashes as its twin does
    ("coupling_siv_config", ["--config", "{fixtures}/siv.cfg", "coupling", "--f-m", "3.83G"]),
    ("echo_loss_config", ["--config", "{fixtures}/echo_loss.cfg", "echo-loss",
                          "--input", "{fixtures}/echo.s2p", "--known-r", "0.1"]),
    ("cavity_config", ["--config", "{fixtures}/cavity.cfg", "cavity"]),
    ("echo_loss_alpha", ["echo-loss", "--input", "{fixtures}/echo.s2p", "--length", "130u",
                         "--vg", "6161", "--known-alpha", "3.2"]),
    # a narrower window on a coarser grid, and echo windows that run to
    # the end of the un-oversampled grid
    ("echo_loss_coarse", ["echo-loss", "--input", "{fixtures}/echo.s2p", "--length", "130u",
                          "--vg", "6161", "--known-r", "0.1", "--oversample", "3",
                          "--edge-fraction", "0.25", "--n-max", "6"]),
    ("echo_loss_grid_end", ["echo-loss", "--input", "{fixtures}/echo.s2p", "--length", "130u",
                            "--vg", "6161", "--known-r", "0.1", "--oversample", "1",
                            "--n-max", "47"]),
    ("synth_csv", ["--seed", "{seed}", "synth", "--noise", "1e-5", "--name", "x.csv"]),
    ("convert_db_phase", ["convert", "--input", "{fixtures}/echo.s2p", "--output", "sweep.csv",
                          "--representation", "db_phase"]),
    ("echo_loss_csv", ["echo-loss", "--input", "{out}/synth_csv/x.csv", "--length", "130u",
                       "--vg", "6161", "--known-r", "0.1"]),
    ("gate_db_phase_csv", ["gate", "--input", "{out}/convert_db_phase/sweep.csv",
                           "--start", "10n", "--stop", "200n", "--output", "gated.csv"]),
    ("convert_csv_s2p", ["convert", "--input", "{out}/synth_csv/x.csv", "--output", "x.s2p"]),
    ("convert_s2p_s2p", ["convert", "--input", "{fixtures}/echo.s2p", "--output", "echo.s2p"]),
    # the readers' bulk path, past comments and blank lines, and their
    # row-by-row path, which the underscore in one cell forces
    ("convert_commented", ["convert", "--input", "{fixtures}/echo_commented.s2p",
                           "--output", "echo.s2p"]),
    ("convert_underscored", ["convert", "--input", "{fixtures}/echo_underscored.s2p",
                             "--output", "echo.csv", "--representation", "db_phase"]),
    # the writers' hard cases, rewritten in each layout
    ("convert_edge_s2p", ["convert", "--input", "{fixtures}/edge.s2p", "--output", "edge.s2p"]),
    ("convert_edge_ri", ["convert", "--input", "{fixtures}/edge.s2p", "--output", "edge.csv"]),
    ("convert_edge_db_phase", ["convert", "--input", "{fixtures}/edge.s2p", "--output", "edge.csv",
                               "--representation", "db_phase"]),
    # prominence 0 keeps every noise maximum, so the spacing thinning
    # decides which candidates are modes
    ("cavity_peak_overrides", ["--config", "{fixtures}/device.cfg", "cavity",
                               "--input", "{fixtures}/paper.s2p", "--prominence", "0",
                               "--spacing", "30M"]),
    # a cut just above the edge mode's prominence drops that mode, so the
    # prominence values themselves decide the output
    ("cavity_prominence_cut", ["--config", "{fixtures}/device.cfg", "cavity",
                               "--input", "{fixtures}/paper.s2p", "--prominence", "0.5"]),
    # a cut below every mode's prominence: the same modes as the default cut
    ("cavity_prominence_low", ["--config", "{fixtures}/device.cfg", "cavity",
                               "--input", "{fixtures}/paper.s2p", "--prominence", "0.1"]),
    # a spacing that keeps every noise maximum as a candidate: the two that
    # do not fit are left out, with a warning on stderr
    ("cavity_all_candidates", ["--config", "{fixtures}/device.cfg", "cavity",
                               "--input", "{fixtures}/paper.s2p", "--prominence", "0",
                               "--spacing", "5M"]),
    # the benchmark's high-finesse cavity (R = 0.95, 0.5 dB/mm; 38 modes and
    # about 380 Gauss-Newton steps in all), synthesized, then characterized
    # from that output
    ("synth_high_finesse", ["--seed", "{seed}", "synth", "--r", "0.95", "--alpha-db-mm", "0.5",
                            "--length", "58.565u", "--noise", "1e-4"]),
    ("cavity_high_finesse", ["--config", "{fixtures}/device.cfg", "cavity",
                             "--input", "{out}/synth_high_finesse/synthetic.s2p",
                             "--alpha-db-mm", "0.5"]),
    # the paper cavity with an |S11| dip under each mode: internal Qs from
    # the dips, and, with S11 alone, modes found on the inverted |S11|
    ("cavity_with_s11", ["--config", "{fixtures}/device.cfg", "cavity",
                         "--input", "{fixtures}/paper_s11.s2p", "--alpha-db-mm", "2.0"]),
    ("cavity_s11_only", ["--config", "{fixtures}/device.cfg", "cavity",
                         "--input", "{fixtures}/paper_s11.csv", "--alpha-db-mm", "2.0"]),
    # a narrower drive sweep away from the default spin frequency
    ("simulate_odar_narrow", ["simulate", "odar", "--f-spin-ghz", "2.5", "--span-mhz", "50"]),
    # orders up to 10 at a large modulation index: weights far from the
    # carrier, where bessel_j's recurrence start order matters
    ("simulate_sidebands_high_order", ["simulate", "sidebands", "--mod-index", "7.5",
                                       "--orders", "10"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commented(touchstone: bytes, underscore: bool) -> bytes:
    """A Touchstone text with comment lines, blank lines and inline comments.

    With underscore, the first frequency cell gains a trailing "_0",
    which float() reads as the same number and numpy's loadtxt rejects.
    """
    lines = touchstone.decode().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("#")) + 1
    first = lines[start].split(" ", 1)
    assert "." in first[0] and "e" not in first[0], first[0]
    if underscore:
        first[0] += "_0"
    out = ["! written by cli_digest", "", *lines[:start], "", "! data",
           " ".join(first) + "  ! first row"]
    for i, row in enumerate(lines[start + 1:]):
        out.append(row)
        if i % 1000 == 500:
            out += ["", "   ! indented comment", "\t"]
    return ("\n".join(out) + "\n").encode()


def edge_touchstone() -> bytes:
    """An RI Touchstone text whose S columns hold the number writers' hard cases.

    Both zeros, the smallest subnormal and normal doubles, the largest
    double, every power of ten in range with its neighbour towards zero,
    both sides of the switch to exponent notation at 1e-5 and 1e17,
    integers with trailing zeros, and the negatives of all of them.
    """
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              1e-5, 9.9999999999999995e-05, 1e16, 1e17, 99999999999999999.0,
              2800000000.0, 120.0, 1000.0, 1.2e15]
    for p in range(-323, 309):
        values += [10.0 ** p, math.nextafter(10.0 ** p, 0.0)]
    values += [-v for v in values]
    values += [0.0] * (-len(values) % 8)
    rows = [f"{i + 1} " + " ".join(map(repr, values[8 * i:8 * i + 8]))
            for i in range(len(values) // 8)]
    return ("# HZ S RI R 50\n" + "\n".join(rows) + "\n").encode()


def with_reflection(touchstone: bytes):
    """A sweep's Touchstone text and S11-only CSV, with an |S11| dip under each |S21| peak.

    S11 = 1 - 0.8 |S21| / max |S21| is real, so |S11| falls to 0.2 at the
    highest mode and each dip has its mode's shape.
    """
    sweep = ingest.parse_touchstone(touchstone)
    s21 = np.abs(sweep.pair((2, 1)))
    s11 = 1.0 - 0.8 * s21 / s21.max()
    both = ingest.NetworkSweep(sweep.freqs, {**sweep.s, (1, 1): s11}, sweep.ref_impedance)
    alone = ingest.NetworkSweep(sweep.freqs, {(1, 1): s11}, sweep.ref_impedance)
    return ingest.write_touchstone(both), ingest.write_csv(alone, [(1, 1)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="Fixture and noise seed.")
    parser.add_argument("--fixtures", type=Path, metavar="DIR",
                        help="Read the fixtures from DIR if it holds any, else write them there.")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="cli_digest-"))
    failed = False
    try:
        script = CliScript()
        script.setup(work, args.seed)
        fixtures = script.fixtures
        echo = (fixtures / "echo.s2p").read_bytes()
        for name, underscore in (("echo_commented.s2p", False), ("echo_underscored.s2p", True)):
            (fixtures / name).write_bytes(commented(echo, underscore))
        (fixtures / "edge.s2p").write_bytes(edge_touchstone())
        s2p, csv = with_reflection((fixtures / "paper.s2p").read_bytes())
        (fixtures / "paper_s11.s2p").write_bytes(s2p)
        (fixtures / "paper_s11.csv").write_bytes(csv)
        for name, data in CONFIGS.items():
            (fixtures / name).write_bytes(data)
        if args.fixtures is not None:
            if not (args.fixtures.is_dir() and any(args.fixtures.iterdir())):
                shutil.copytree(fixtures, args.fixtures, dirs_exist_ok=True)
            fixtures = args.fixtures.resolve()
        for fixture in sorted(fixtures.iterdir()):
            print(f"setup {fixture.name} {sha256(fixture.read_bytes())}")

        calls = [cli_args(i, fixtures, args.seed) for i in range(len(CLI_CYCLE))]
        out_root = work / "extra"
        calls += [
            (name, [a.format(fixtures=fixtures, seed=args.seed, out=out_root)
                    for a in template])
            for name, template in EXTRA_CALLS
        ]
        for name, call_args in calls:
            out_dir = out_root / name
            out_dir.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, "-m", "sawkit.cli", "--out-dir", str(out_dir), *call_args],
                env=script.env, cwd=fixtures, capture_output=True,
            )
            if proc.returncode != 0:
                failed = True
                print(f"{name}: exit {proc.returncode}: {proc.stderr.decode().strip()}",
                      file=sys.stderr)
            # output paths echoed on stdout or stderr name the temporary work directory
            for stream, data in (("<stdout>", proc.stdout), ("<stderr>", proc.stderr)):
                data = data.replace(str(work).encode(), b"<work>")
                data = data.replace(str(fixtures).encode(), b"<fixtures>")
                print(f"{name} {stream} {sha256(data)}")
            for path in sorted(out_dir.iterdir()):
                print(f"{name} {path.name} {sha256(path.read_bytes())}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
