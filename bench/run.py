"""sawkit benchmark: one workload per call, one JSON result line at the end.

    python3 bench/run.py --workload cli_script --seed 1 --seconds 35 --trace 0

Workloads are listed in BENCHMARK.json and built in workloads.py. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from spans recorded around sawkit's
public functions (spans.py), plus the tracing overhead. Every metric is
printed on its own line with its unit; the last line of standard output
is the JSON result. Run from anywhere: paths are resolved from this file.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
WARM_REPEATS = 3
TAIL_BEYOND = 10

# One caller: BLAS gets one thread (never more than nproc), here and in
# every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit (used for the setup_s median)")
    return p.parse_args(argv)


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".calls", ".iterations", ".points", ".modes")):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    raise ValueError(f"no unit for metric {name!r}")


def tail(latencies):
    """Highest sample with TAIL_BEYOND samples above it (a quarter of them
    when fewer than 4 * TAIL_BEYOND were taken): value, percentile, count."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n // 4)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def environment(workload) -> dict:
    def cache(code):
        try:
            return os.sysconf(code)
        except (ValueError, OSError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas_threads": BLAS_THREADS,
        # glibc sysconf codes for the L1d, L2 and L3 sizes (per core for L1/L2)
        "l1d_bytes": cache(188),
        "l2_bytes": cache(191),
        "l3_bytes": cache(194),
        "working_set_mb": round(workload.working_set / 2**20, 3),
    }


def timed_loop(workload, seconds, tracer=None, min_ops=1):
    """Closed loop: run operations in whole groups of ``workload.group``
    until the next group would end more than half a group past the
    deadline. With a tracer, every second operation runs traced, so both
    kinds see the same machine. Returns untraced latencies, traced
    latencies and failures."""
    latencies, traced, failures = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        group_start = time.perf_counter()
        for _ in range(workload.group):
            workload.prepare(i)
            tracing = tracer is not None and i % 2 == 1
            if tracing:
                tracer.op = i
                tracer.install()
            t0 = time.perf_counter()
            try:
                outputs = workload.run(i)
                elapsed = time.perf_counter() - t0
                reason = workload.check(outputs)
            except Exception as exc:  # an operation that raises is a failed operation
                elapsed = time.perf_counter() - t0
                reason = f"{type(exc).__name__}: {exc}"
            finally:
                if tracing:
                    tracer.uninstall()
            outputs = None  # free this operation's outputs before the next one starts
            (traced if tracing else latencies).append(elapsed)
            if reason is not None:
                failures.append(f"operation {i}: {reason}")
            i += 1
        now = time.perf_counter()
        if i >= min_ops and now - start + 0.5 * (now - group_start) > seconds:
            return latencies, traced, failures


def setup_repeats(args):
    """Set-up times of fresh processes, for the setup_s median."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def importtime(src: Path):
    """cli.* import metrics from `python -X importtime -c 'import sawkit.cli'`."""
    code = ("import time; t = time.perf_counter(); import sawkit.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        cumulative, sawkit_self = {}, 0.0
        for line in out.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            cumulative.setdefault(name, int(cum_us) / 1e6)
            if name == "sawkit" or name.startswith("sawkit."):
                sawkit_self += int(self_us) / 1e6
        samples.append({
            "cli.import_s": float(out.stdout.split()[-1]),
            "cli.importtime.scipy_signal_s": cumulative.get("scipy.signal", 0.0),
            "cli.importtime.scipy_special_s": cumulative.get("scipy.special", 0.0),
            "cli.importtime.click_s": cumulative.get("click", 0.0),
            "cli.importtime.numpy_s": cumulative.get("numpy", 0.0),
            "cli.importtime.sawkit_self_s": sawkit_self,
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def warm_cli(workload, tracer):
    """In-process CliRunner calls after one warm-up pass: each subcommand
    runs untraced then traced, WARM_REPEATS times."""
    from click.testing import CliRunner

    from sawkit import cli
    from workloads import CLI_NAMES, cli_args

    runner = CliRunner()
    warm_dir = workload.fixtures.parent / "warm"
    failures = []

    def call(k):
        name, args = cli_args(k, workload.fixtures, workload.seed)
        t0 = time.perf_counter()
        result = runner.invoke(cli.main, ["--out-dir", str(warm_dir / name), *args])
        elapsed = time.perf_counter() - t0
        if result.exit_code != 0:
            failures.append(f"warm {name}: exit code {result.exit_code}")
        return elapsed

    for k in range(len(CLI_NAMES)):
        call(k)
    untraced = {name: [] for name in CLI_NAMES}
    traced = []
    for r in range(WARM_REPEATS):
        for k, name in enumerate(CLI_NAMES):
            untraced[name].append(call(k))
            tracer.op = r * len(CLI_NAMES) + k
            tracer.install()
            try:
                traced.append(call(k))
            finally:
                tracer.uninstall()
    warm = {f"cli.{name}.warm_s": statistics.median(untraced[name]) for name in CLI_NAMES}
    return warm, [t for ts in untraced.values() for t in ts], traced, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sawkit" / "__init__.py").is_file():
        print(f"error: no sawkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, peak_rss_mb

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.setup(work, args.seed)
        setup_self = time.perf_counter() - T_START
        if args.setup_only:
            print(f"setup_s {setup_self!r}")
            return 0
        notes = {}
        if args.trace == 0:
            setup_times = [setup_self] + setup_repeats(args)
            latencies, _, failures = timed_loop(workload, args.seconds)
            value, pct, beyond = tail(latencies)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": value,
                "throughput_ops_per_s": len(latencies) / sum(latencies),
                "peak_rss_mb": peak_rss_mb(workload),
            }
            notes["setup_s"] = f"median of {len(setup_times)} set-ups"
            notes["latency_p50_s"] = f"{len(latencies)} samples"
            notes["latency_tail_s"] = f"p{pct:.1f}, {beyond} of {len(latencies)} samples beyond"
            attempted = len(latencies)
        else:
            metrics, attempted, failures = traced_run(args, workload)
        env = environment(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    for reason in failures[:20]:
        print(f"failure: {reason}", file=sys.stderr)
    print(f"error_rate = {len(failures) / attempted!r} ratio ({len(failures)} of {attempted} failed)")
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {unit_of(name)}{note}")

    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in wanted["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, workload):
    """Per-layer metrics from spans, import times and the tracing overhead."""
    from spans import Tracer, layer_metrics, write_spans
    from workloads import CLI_NAMES, CliScript

    tracer = Tracer()
    metrics = {}
    if isinstance(workload, CliScript):
        # Cold calls run in child processes, which are never traced.
        latencies, _, failures = timed_loop(workload, args.seconds)
        for k, name in enumerate(CLI_NAMES):
            metrics[f"cli.{name}.cold_s"] = statistics.median(latencies[k::len(CLI_NAMES)])
        warm, untraced, traced, warm_failures = warm_cli(workload, tracer)
        metrics.update(warm)
        failures += warm_failures
        attempted = len(latencies) + len(untraced) + len(traced)
    else:
        untraced, traced, failures = timed_loop(workload, args.seconds, tracer=tracer, min_ops=2)
        attempted = len(untraced) + len(traced)
        for name in CLI_NAMES:
            metrics[f"cli.{name}.cold_s"] = 0.0
            metrics[f"cli.{name}.warm_s"] = 0.0
    metrics.update(layer_metrics(tracer.spans, len(traced)))
    metrics.update(importtime(SRC))
    base = statistics.median(untraced)
    metrics["trace.overhead_p50_s"] = statistics.median(traced) - base
    metrics["trace.overhead_share"] = metrics["trace.overhead_p50_s"] / base
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{args.workload}-seed{args.seed}.tsv"
    write_spans(path, tracer.spans)
    print(f"spans written to {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return metrics, attempted, failures


if __name__ == "__main__":
    sys.exit(main())
