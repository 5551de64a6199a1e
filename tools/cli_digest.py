"""Hash every output of a fixed set of `sawkit` CLI calls.

Prints one `<call> <file> <sha256>` line per output file, with `<stdout>`
standing for the call's standard output. The calls are the README
session that the benchmark's `cli_script` workload replays (its
`CLI_CYCLE` on fixtures built by its `CliScript` set-up), then a few
calls that exercise flags the session does not reach.

The `sawkit` package that runs is the one on PYTHONPATH, so two
checkouts can be compared output for output:

    PYTHONPATH=<old checkout>/src python tools/cli_digest.py > old.txt
    PYTHONPATH=src python tools/cli_digest.py > new.txt
    diff old.txt new.txt    # empty when every output is byte-identical

Exits 1 if any call fails.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import CLI_CYCLE, CliScript, cli_args  # noqa: E402

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
    ("echo_loss_alpha", ["echo-loss", "--input", "{fixtures}/echo.s2p", "--length", "130u",
                         "--vg", "6161", "--known-alpha", "3.2"]),
    ("synth_csv", ["--seed", "{seed}", "synth", "--noise", "1e-5", "--name", "x.csv"]),
    ("convert_db_phase", ["convert", "--input", "{fixtures}/echo.s2p", "--output", "sweep.csv",
                          "--representation", "db_phase"]),
    ("echo_loss_csv", ["echo-loss", "--input", "{out}/synth_csv/x.csv", "--length", "130u",
                       "--vg", "6161", "--known-r", "0.1"]),
    ("gate_db_phase_csv", ["gate", "--input", "{out}/convert_db_phase/sweep.csv",
                           "--start", "10n", "--stop", "200n", "--output", "gated.csv"]),
    # prominence 0 keeps every noise maximum, so the spacing thinning
    # decides which candidates are modes
    ("cavity_peak_overrides", ["--config", "{fixtures}/device.cfg", "cavity",
                               "--input", "{fixtures}/paper.s2p", "--prominence", "0",
                               "--spacing", "30M"]),
    # a cut just above the edge mode's prominence drops that mode, so the
    # prominence values themselves decide the output
    ("cavity_prominence_cut", ["--config", "{fixtures}/device.cfg", "cavity",
                               "--input", "{fixtures}/paper.s2p", "--prominence", "0.5"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="Fixture and noise seed.")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="cli_digest-"))
    failed = False
    try:
        script = CliScript()
        script.setup(work, args.seed)
        for fixture in sorted(script.fixtures.iterdir()):
            print(f"setup {fixture.name} {sha256(fixture.read_bytes())}")

        calls = [cli_args(i, script.fixtures, args.seed) for i in range(len(CLI_CYCLE))]
        out_root = work / "extra"
        calls += [
            (name, [a.format(fixtures=script.fixtures, seed=args.seed, out=out_root)
                    for a in template])
            for name, template in EXTRA_CALLS
        ]
        for name, call_args in calls:
            out_dir = out_root / name
            out_dir.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, "-m", "sawkit.cli", "--out-dir", str(out_dir), *call_args],
                env=script.env, cwd=script.fixtures, capture_output=True,
            )
            if proc.returncode != 0:
                failed = True
                print(f"{name}: exit {proc.returncode}: {proc.stderr.decode().strip()}",
                      file=sys.stderr)
            # output paths echoed on stdout name the temporary work directory
            stdout = proc.stdout.replace(str(work).encode(), b"<work>")
            print(f"{name} <stdout> {sha256(stdout)}")
            for path in sorted(out_dir.iterdir()):
                print(f"{name} {path.name} {sha256(path.read_bytes())}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
