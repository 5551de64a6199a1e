"""Hash every Levenberg-Marquardt fit of the `cavity_fits` benchmark set-up.

Prints one line per fit:

    <seed> <call> <row> <iterations> <converged> <message> <params> <covariance> <residual norm>

where the last three fields are the sha256 of the bytes of the fitted
params, of the covariance (`none` when the fit has none) and of the
residual norm as a float64, and <message> is the fit's message in
quotes. A cavity report's line ends with the mode's internal Q,
`q_internal=<value>` (`nan` without S11 data). Each candidate a cavity
report left out prints one more line,
`<seed> <call> rejected <frequency> <reason>`. The fits are those of the
benchmark's `CavityFits` set-up (bench/workloads.py, read only) for
seeds 1 to 5:

- `paper` and `high_finesse`: the default `cavity_report` of each cavity;
- `paper_all_candidates`: the paper cavity with every noise maximum as a
  candidate (`min_prominence=0`, `min_spacing=5e6`), whose two rejected
  candidates run the full iteration budget;
- `paper_s11_only`: the paper cavity as an S11-only sweep, S11 = 1 -
  0.8 |S21| / max |S21| (as `tools/cli_digest.py` builds `paper_s11`),
  whose modes are fitted on the inverted |S11| and whose dips give each
  mode's internal Q;
- `rabi`: `qdyn.fit_rabi` on the noisy Rabi trace, a stack of one fit.

The `sawkit` package that runs is the one on PYTHONPATH, so two
checkouts can be compared fit for fit:

    PYTHONPATH=<old checkout>/src python tools/fit_digest.py > old.txt
    PYTHONPATH=src python tools/fit_digest.py > new.txt
    diff old.txt new.txt    # empty when every fit is bit-identical
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import GEOMETRY, CavityFits  # noqa: E402

from sawkit import ingest, qdyn, specanalysis  # noqa: E402

SEEDS = range(1, 6)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fit_line(seed: int, call: str, row: int, result) -> str:
    covariance = "none" if result.covariance is None else sha256(result.covariance.tobytes())
    return (
        f"{seed} {call} {row} {result.iterations} {result.converged} {result.message!r} "
        f"{sha256(result.params.tobytes())} {covariance} "
        f"{sha256(np.float64(result.residual_norm).tobytes())}"
    )


def digest_lines(seed: int):
    bench = CavityFits()
    with tempfile.TemporaryDirectory(prefix="fit_digest-") as work:
        bench.setup(Path(work), seed)
    s21 = np.abs(bench.paper.pair((2, 1)))
    s11_only = ingest.NetworkSweep(bench.paper.freqs, {(1, 1): 1.0 - 0.8 * s21 / s21.max()})
    reports = {
        "paper": specanalysis.cavity_report(bench.paper, GEOMETRY, alpha_db_per_mm=2.0),
        "high_finesse": specanalysis.cavity_report(
            bench.high_finesse, GEOMETRY, alpha_db_per_mm=0.5
        ),
        "paper_all_candidates": specanalysis.cavity_report(
            bench.paper, GEOMETRY, min_prominence=0, min_spacing=5e6
        ),
        "paper_s11_only": specanalysis.cavity_report(s11_only, GEOMETRY, alpha_db_per_mm=2.0),
    }
    for call, report in reports.items():
        for row, (result, q) in enumerate(zip(report.mode_fits, report.q_internal.tolist())):
            yield f"{fit_line(seed, call, row, result)} q_internal={q!r}"
        for freq, reason in report.rejected:
            yield f"{seed} {call} rejected {freq!r} {reason}"
    yield fit_line(seed, "rabi", 0, qdyn.fit_rabi(bench.trace).result)


def main() -> None:
    for seed in SEEDS:
        for line in digest_lines(seed):
            print(line)


if __name__ == "__main__":
    main()
