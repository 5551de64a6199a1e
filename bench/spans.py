"""In-memory spans around sawkit's public functions, for the traced run.

The tracer wraps functions from outside the package: it replaces a
function object wherever a loaded ``sawkit`` module holds it, so a call
one layer makes into another (``specanalysis.least_squares`` is
``numerics.least_squares``) is recorded as well. Nothing under ``src/``
is edited, and nothing is wrapped unless ``Tracer.install`` is called.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# (module, function) pairs wrapped in the traced run; the span name is
# "<module>.<function>" and doubles as the per-layer metric prefix.
TRACED = [
    ("ingest", "parse_touchstone"),
    ("ingest", "write_touchstone"),
    ("ingest", "parse_csv_sweep"),
    ("ingest", "write_csv"),
    ("timedomain", "synthesize_echo_network"),
    ("timedomain", "impulse_response"),
    ("timedomain", "detect_echoes"),
    ("timedomain", "fit_echo_decay"),
    ("timedomain", "time_gate"),
    ("numerics", "dft"),
    ("numerics", "least_squares"),
    ("specanalysis", "cavity_report"),
    ("specanalysis", "find_peaks"),
    ("specanalysis", "fit_lorentzian"),
    ("qdyn", "fit_rabi"),
    ("qdyn", "simulate_rabi_trace"),
    ("qdyn", "odar_spectrum"),
    ("qdyn", "sideband_spectrum"),
    ("spinphonon", "phonon_budget"),
    ("spinphonon", "coupling_rate"),
]

# Spans around these calls also record the tracemalloc peak, in bytes.
MEMORY_TRACED = {"timedomain.synthesize_echo_network"}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs(name: str, args, result) -> Dict[str, float]:
    """Counts taken at the layer boundary from arguments and results."""
    if name in ("ingest.parse_touchstone", "ingest.parse_csv_sweep"):
        return {"bytes": float(len(args[0]))}
    if name in ("ingest.write_touchstone", "ingest.write_csv"):
        return {"bytes": float(len(result))}
    if name == "numerics.dft":
        return {"points": float(len(args[0]))}
    if name == "numerics.least_squares":
        return {"iterations": float(result.iterations), "converged": float(result.converged)}
    if name == "timedomain.detect_echoes":
        above = sum(1 for p in result.peaks if not p.below_noise_floor)
        return {"above_floor": float(above), "peaks": float(len(result.peaks))}
    if name == "specanalysis.cavity_report":
        return {"modes": float(len(result.q_loaded))}
    return {}


class Tracer:
    """Records one span per wrapped call, tagged with the current operation."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op = 0
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(span_id, name, 0.0, 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(span_id)
            memory = name in MEMORY_TRACED and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    span.attrs["peak_bytes"] = float(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._stack.pop()
            span.attrs.update(_attrs(name, args, result))
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED function in every loaded sawkit module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sawkit" or n.startswith("sawkit.")]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"sawkit.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()


def layer_metrics(spans: List[Span], n_ops: int) -> Dict[str, float]:
    """Per-operation busy seconds, self seconds and counts per span name."""
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    busy: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    peak: Dict[str, float] = defaultdict(float)
    for s in spans:
        busy[s.name] += s.duration
        self_time[s.name] += s.duration - child_time[s.span_id]
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if key == "peak_bytes":
                peak[s.name] = max(peak[s.name], value)
            else:
                attrs[s.name][key] += value

    ops = max(n_ops, 1)
    out: Dict[str, float] = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.s"] = busy[name] / ops
        out[f"{name}.self_s"] = self_time[name] / ops
        out[f"{name}.calls"] = calls[name] / ops
    a = attrs  # short alias for the count lookups below
    out["ingest.bytes"] = sum(a[f"ingest.{f}"]["bytes"] for f in (
        "parse_touchstone", "write_touchstone", "parse_csv_sweep", "write_csv")) / ops
    out["timedomain.synthesize_echo_network.peak_mb"] = peak["timedomain.synthesize_echo_network"] / 2**20
    peaks = a["timedomain.detect_echoes"]["peaks"]
    out["timedomain.detect_echoes.above_floor_ratio"] = (
        a["timedomain.detect_echoes"]["above_floor"] / peaks if peaks else 0.0
    )
    out["numerics.dft.points"] = a["numerics.dft"]["points"] / ops
    fits = calls["numerics.least_squares"]
    out["numerics.least_squares.iterations"] = a["numerics.least_squares"]["iterations"] / ops
    out["numerics.least_squares.converged_ratio"] = (
        a["numerics.least_squares"]["converged"] / fits if fits else 0.0
    )
    out["specanalysis.cavity_report.modes"] = a["specanalysis.cavity_report"]["modes"] / ops
    return out


def write_spans(path, spans: List[Span]):
    """One tab-separated line per span: id, parent, op, name, start, end."""
    with open(path, "w") as fh:
        fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.span_id}\t{parent}\t{s.op}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n")
