"""Frequency-domain cavity characterization.

Peak finding, Lorentzian fits, the FSR / penetration-depth / mirror
reflectivity chain, the Q budget, finesse, phase velocity and k². The
`cavity_report` entry point composes the individual pieces over a
measured or synthesized sweep.
"""

from __future__ import annotations

import bisect
import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import numerics
from .errors import ArgumentError, FitError, InconsistencyError
from .numerics import Series, db_convert, least_squares

if TYPE_CHECKING:
    from .ingest import NetworkSweep

__all__ = [
    "LorentzianPeak",
    "CavityGeometry",
    "CavityReport",
    "VelocityPair",
    "DoubleLorentzianFit",
    "find_peaks",
    "fit_lorentzian",
    "fit_double_lorentzian",
    "estimate_fsr",
    "penetration_depth",
    "mirror_reflectivity",
    "q_mirror",
    "q_propagation",
    "combine_q",
    "q_internal_from_reflection",
    "finesse",
    "phase_velocity",
    "k_squared",
    "cavity_report",
    "report_csv",
    "report_summary",
]


@dataclass
class LorentzianPeak:
    """One fitted cavity mode."""

    f0: float
    fwhm: float
    amplitude: float
    offset: float

    def __post_init__(self):
        if self.fwhm <= 0:
            raise ArgumentError("fwhm must be positive")

    def q_loaded(self) -> float:
        return self.f0 / self.fwhm


@dataclass
class CavityGeometry:
    """Device geometry: IDT separation, acoustic wavelength, mirror size."""

    d: float
    lambda0: float
    n_mirror: int
    v_g: float

    def __post_init__(self):
        if self.d <= 0 or self.lambda0 <= 0 or self.v_g <= 0:
            raise ArgumentError("geometry lengths and velocity must be positive")
        if self.n_mirror < 1:
            raise ArgumentError("n_mirror must be at least 1")


@dataclass
class CavityReport:
    """Derived cavity quantities; fields stay None when inputs were absent.

    rejected holds (frequency, reason) for each candidate peak left unfitted.
    """

    fsr: Optional[float] = None
    l_p: Optional[float] = None
    r_s: Optional[float] = None
    q_loaded: List[Tuple[float, float]] = field(default_factory=list)
    q_internal: List[Tuple[float, float]] = field(default_factory=list)
    q_mirror: Optional[float] = None
    q_propagation: Optional[float] = None
    finesse: Optional[float] = None
    rejected: List[Tuple[float, str]] = field(default_factory=list)

    def __post_init__(self):
        if self.r_s is not None and not 0 < self.r_s < 1:
            raise InconsistencyError(f"r_s = {self.r_s:.4g} outside (0, 1)")
        if self.l_p is not None and self.l_p <= 0:
            raise InconsistencyError("penetration depth must be positive")
        if self.finesse is not None and self.finesse <= 0:
            raise InconsistencyError("finesse must be positive")
        if self.q_internal and len(self.q_internal) == len(self.q_loaded):
            for (_, qi), (_, ql) in zip(self.q_internal, self.q_loaded):
                if qi < ql * (1 - 1e-12):
                    raise InconsistencyError(
                        "internal Q below loaded Q; check the reflection dip data"
                    )


@dataclass
class VelocityPair:
    """Phase velocities over electrically open and shorted surfaces."""

    v_open: float
    v_short: float

    def __post_init__(self):
        if self.v_open <= 0 or self.v_short <= 0:
            raise ArgumentError("velocities must be positive")
        if self.v_short > self.v_open:
            raise ArgumentError("v_short exceeds v_open; piezo stiffening forbids this")


class DoubleLorentzianFit(NamedTuple):
    lower: LorentzianPeak
    upper: LorentzianPeak
    degenerate: bool


# ---------------------------------------------------------------------------
# Peak finding and fitting


def _prominent_peaks(y: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of y with prominence >= min_prominence.

    Index for index the same as ``scipy.signal.find_peaks(y,
    prominence=min_prominence)[0]`` on finite y. A maximum is a strict
    rise, an optional flat run and a strict fall; it sits at the midpoint
    of its flat run. Its base on each side is the lowest sample between
    it and the nearest strictly higher sample, or the array edge, and its
    prominence is its height above the higher of the two bases.
    """
    y = np.asarray(y, dtype=float)
    slope = np.sign(np.diff(y))
    turns = np.flatnonzero(slope)
    top = np.flatnonzero((slope[turns[:-1]] > 0) & (slope[turns[1:]] < 0))
    peaks = (turns[top] + 1 + turns[top + 1]) // 2
    if peaks.size == 0:
        return peaks
    # valleys[i] is the lowest sample between peaks i-1 and i, with the
    # array edges standing in for peaks -1 and k
    valleys = np.minimum.reduceat(y, np.concatenate(([0], peaks))).tolist()
    heights = y[peaks].tolist()
    left = _bases(heights, valleys[:-1])
    right = _bases(heights[::-1], valleys[:0:-1])[::-1]
    prominence = y[peaks] - np.maximum(left, right)
    return peaks[prominence >= min_prominence]


def _bases(heights: List[float], valleys: List[float]) -> List[float]:
    """Base of each peak on the side the lists run from.

    valleys[i] is the lowest sample between peak i and the peak before
    it (or the array edge). Between two neighbouring peaks the samples
    fall, then rise, so a sample higher than a peak lies beyond a higher
    peak, or in the edge run before the edge run's lowest sample. A stack
    of the peaks not yet overtaken therefore finds each base in O(k) over
    the k peaks.
    """
    # the stack as two lists over a NaN sentinel: NaN <= height is false
    # for every height, so the sentinel is never popped
    stack_heights, stack_lows = [math.nan], [math.nan]
    bases = []
    for height, low in zip(heights, valleys):
        while stack_heights[-1] <= height:
            del stack_heights[-1]
            below = stack_lows.pop()
            if below < low:
                low = below
        bases.append(low)
        stack_heights.append(height)
        stack_lows.append(low)
    return bases


def find_peaks(trace: Series, min_prominence: float, min_spacing: float) -> List[float]:
    """Local maxima above a prominence, thinned to a minimum spacing.

    When two candidates sit closer than min_spacing the taller one wins;
    equal heights keep the lower frequency. Returns frequencies sorted
    ascending; an empty list is a valid result.
    """
    if len(trace) < 3:
        raise ArgumentError("peak finding needs at least 3 samples")
    y = np.abs(trace.y) if np.iscomplexobj(trace.y) else np.asarray(trace.y, float)
    if not np.all(np.isfinite(y)):
        raise ArgumentError("peak finding needs finite samples")
    idx = _prominent_peaks(y, min_prominence)
    freqs = trace.x[idx]
    # tallest first, lower frequency first among equal heights; a
    # candidate survives when both kept neighbours in frequency are far enough
    kept: List[float] = []
    for f in freqs[np.lexsort((freqs, -y[idx]))].tolist():
        j = bisect.bisect_left(kept, f)
        if (j == 0 or f - kept[j - 1] >= min_spacing) and (
            j == len(kept) or kept[j] - f >= min_spacing
        ):
            kept.insert(j, f)
    return kept


def _window_slice(trace: Series, window, min_samples: int):
    lo, hi = window
    if not (lo < hi):
        raise ArgumentError("window must satisfy lo < hi")
    mask = (trace.x >= lo) & (trace.x <= hi)
    if int(mask.sum()) < min_samples:
        raise ArgumentError(
            f"window contains {int(mask.sum())} samples, needs at least {min_samples}"
        )
    y = trace.y
    if np.iscomplexobj(y):
        y = np.abs(y)
    x, y = trace.x[mask], np.asarray(y, float)[mask]
    scale = max(abs(float(np.median(y))), float(np.ptp(y)), 1.0)
    if np.ptp(y) <= 1e-14 * scale:
        raise FitError("degenerate fit: trace is flat in the window")
    return x, y


def _half_height_width(x, y, i_max, offset, amplitude):
    level = offset + amplitude / 2.0
    j = i_max
    while j > 0 and y[j] > level:
        j -= 1
    k = i_max
    while k < y.size - 1 and y[k] > level:
        k += 1
    width = x[k] - x[j]
    if width <= 0:
        width = (x[-1] - x[0]) / 6.0
    return width


def _fit_peaks(name: str, x, y, window, init) -> np.ndarray:
    """Fitted params of SHIPPED_MODELS[name], peaks on one offset, in a window.

    Each f0 stays in the window and each fwhm in [step/1000, 10 span]. A fit
    that does not converge raises FitError with the FitResult attached.
    """
    step = float(np.min(np.diff(x)))
    peak = [(window[0], window[1]), (step * 1e-3, (x[-1] - x[0]) * 10.0), (None, None)]
    bounds = peak * (len(init) // 3) + [(None, None)]
    model, jacobian = numerics.SHIPPED_MODELS[name]
    result = least_squares(model, Series(x, y), init, bounds=bounds, jacobian=jacobian)
    if not result.converged:
        raise FitError(f"{name.replace('_', ' ')} fit did not converge: {result.message}", result)
    return result.params


def fit_lorentzian(trace: Series, window: Tuple[float, float]) -> LorentzianPeak:
    """Fit offset + amplitude (fwhm/2)² / ((f-f0)² + (fwhm/2)²) in a window.

    The initial guess comes from the window itself (argmax, median
    offset, width at half prominence). Raises FitError on degenerate or
    non-converged fits with the FitResult attached.
    """
    x, y = _window_slice(trace, window, 8)
    i_max = int(np.argmax(y))
    off0 = float(np.median(y))
    amp0 = float(y[i_max] - off0)
    init = (float(x[i_max]), _half_height_width(x, y, i_max, off0, amp0), amp0, off0)
    f0, fwhm, amplitude, offset = _fit_peaks("lorentzian", x, y, window, init)
    return LorentzianPeak(float(f0), float(fwhm), float(amplitude), float(offset))


def fit_double_lorentzian(trace: Series, window: Tuple[float, float]) -> DoubleLorentzianFit:
    """Fit two Lorentzians sharing one offset; peaks returned by ascending f0.

    The degenerate flag is set when one amplitude collapses below 1% of
    the other, which is what single-peak data produces.
    """
    x, y = _window_slice(trace, window, 16)
    off0 = float(np.median(y))
    idx = _prominent_peaks(y, 0.05 * np.ptp(y))
    idx = sorted(idx, key=lambda i: -y[i])[:2]
    if len(idx) == 0:
        idx = [int(np.argmax(y))]
    if len(idx) == 2:
        i1, i2 = sorted(idx)
        a1 = float(y[i1] - off0)
        a2 = float(y[i2] - off0)
        w1 = _half_height_width(x, y, i1, off0, a1)
        w2 = _half_height_width(x, y, i2, off0, a2)
        init = (float(x[i1]), w1, a1, float(x[i2]), w2, a2, off0)
    else:
        i1 = idx[0]
        a1 = float(y[i1] - off0)
        w1 = _half_height_width(x, y, i1, off0, a1)
        f2 = float(x[i1]) + (x[-1] - x[0]) / 4.0
        f2 = min(max(f2, float(x[0])), float(x[-1]))
        init = (float(x[i1]), w1, a1, f2, w1, a1 / 100.0, off0)
    f1, w1, a1, f2, w2, a2, off = _fit_peaks("double_lorentzian", x, y, window, init)
    first = LorentzianPeak(float(f1), float(w1), float(a1), float(off))
    second = LorentzianPeak(float(f2), float(w2), float(a2), float(off))
    if second.f0 < first.f0:
        first, second = second, first
    amps = sorted([abs(first.amplitude), abs(second.amplitude)])
    degenerate = amps[1] == 0 or amps[0] < 1e-2 * amps[1]
    return DoubleLorentzianFit(first, second, degenerate)


# ---------------------------------------------------------------------------
# Scalar cavity relations


def estimate_fsr(peak_freqs: Sequence[float]) -> float:
    """Median spacing of adjacent peaks; robust to one bad spacing."""
    freqs = np.sort(np.asarray(peak_freqs, dtype=float))
    if freqs.size < 2:
        raise ArgumentError("FSR needs at least two peaks")
    return float(np.median(np.diff(freqs)))


def penetration_depth(fsr: float, v_g: float, d: float) -> float:
    """Mirror penetration depth from the mode spacing.

    The effective cavity length v_g/(2 fsr) equals d + 2 L_p, so
    L_p = (v_g/(2 fsr) - d)/2.
    """
    if fsr <= 0 or v_g <= 0 or d <= 0:
        raise ArgumentError("fsr, v_g and d must be positive")
    l_eff = v_g / (2.0 * fsr)
    # Equality (zero penetration) is legal; the slack absorbs the float
    # round trip fsr = v_g/(2d) -> l_eff = d.
    if l_eff < d * (1.0 - 1e-12):
        raise InconsistencyError(
            f"effective length {l_eff:.4g} m is smaller than d = {d:.4g} m; "
            "check v_g or d"
        )
    return max(0.0, (l_eff - d) / 2.0)


def mirror_reflectivity(l_p: float, lambda0: float) -> float:
    """Per-electrode amplitude reflectivity r_s = lambda0 / (4 L_p)."""
    if l_p <= 0 or lambda0 <= 0:
        raise ArgumentError("l_p and lambda0 must be positive")
    r_s = lambda0 / (4.0 * l_p)
    if r_s >= 1.0:
        raise InconsistencyError(
            f"r_s = {r_s:.4g} is not below 1; penetration depth shorter than lambda0/4"
        )
    return r_s


def q_mirror(geom: CavityGeometry, l_p: float, r_s: float) -> float:
    """Mirror-scattering-limited Q: pi (d + L_p) / (lambda0 (1 - tanh(N r_s)))."""
    if l_p <= 0:
        raise ArgumentError("l_p must be positive")
    if not 0 < r_s < 1:
        raise ArgumentError("r_s must lie in (0, 1)")
    x = geom.n_mirror * r_s
    if x >= 20:
        raise ArgumentError(
            f"N r_s = {x:.3g} saturates tanh; "
            "the mirror-limited Q is no longer resolvable"
        )
    # 1 - tanh(x) written as 2/(1 + e^{2x}): plain subtraction rounds to
    # zero already near x = 19.5, inside the guarded domain.
    one_minus_tanh = 2.0 / (1.0 + math.exp(2.0 * x))
    return math.pi * (geom.d + l_p) / (geom.lambda0 * one_minus_tanh)


def q_propagation(f: float, v_g: float, alpha_db_per_mm: float) -> float:
    """Propagation-loss-limited Q = 2 pi f / (2 v_g alpha).

    alpha_db_per_mm is a power attenuation; it is converted to 1/m via
    1000 ln(10)/10 per dB/mm.
    """
    if f <= 0 or v_g <= 0:
        raise ArgumentError("frequency and velocity must be positive")
    if alpha_db_per_mm < 0:
        raise ArgumentError("attenuation must be nonnegative")
    if alpha_db_per_mm == 0:
        raise ArgumentError("zero attenuation gives an unbounded propagation Q")
    alpha = db_convert(alpha_db_per_mm, "db_per_mm_to_per_m_power")
    return 2.0 * math.pi * f / (2.0 * v_g * alpha)


def combine_q(qs: Sequence[float]) -> float:
    """Reciprocal sum of reciprocals; never exceeds the smallest input."""
    qs = list(qs)
    if not qs:
        raise ArgumentError("need at least one Q")
    if any(q <= 0 for q in qs):
        raise ArgumentError("all Q values must be positive")
    return 1.0 / sum(1.0 / q for q in qs)


def q_internal_from_reflection(
    q_loaded: float, s11_min: float, convention: str = "undercoupled"
) -> float:
    """Internal Q from a reflection dip.

    With the undercoupled one-port convention the coupling parameter is
    beta = (1 - s11_min)/(1 + s11_min) and Q_i = (1 + beta) Q_L; the
    overcoupled branch inverts the ratio. The measurement alone does not
    distinguish them, hence the flag.
    """
    if q_loaded <= 0:
        raise ArgumentError("loaded Q must be positive")
    if not 0 <= s11_min <= 1:
        raise ArgumentError("|S11| minimum must lie in [0, 1]")
    if convention == "undercoupled":
        beta = (1.0 - s11_min) / (1.0 + s11_min)
    elif convention == "overcoupled":
        if s11_min == 0:
            beta = 1.0
        else:
            beta = (1.0 + s11_min) / (1.0 - s11_min) if s11_min < 1 else math.inf
    else:
        raise ArgumentError(f"unknown coupling convention {convention!r}")
    return (1.0 + beta) * q_loaded


def finesse(q_total: float, lam: float, d: float, l_p: float) -> float:
    """Cavity finesse Q lambda / (2 (d + 2 L_p))."""
    if q_total <= 0 or lam <= 0 or d <= 0 or l_p <= 0:
        raise ArgumentError("finesse inputs must be positive")
    return q_total * lam / (2.0 * (d + 2.0 * l_p))


def phase_velocity(f0: float, lambda0: float) -> float:
    """Phase velocity f0 lambda0."""
    if f0 <= 0 or lambda0 <= 0:
        raise ArgumentError("frequency and wavelength must be positive")
    return f0 * lambda0


def k_squared(v: VelocityPair) -> float:
    """Electromechanical coupling k² = 2 (v_open - v_short) / v_open."""
    return 2.0 * (v.v_open - v.v_short) / v.v_open


# ---------------------------------------------------------------------------
# Report pipeline


def _peak_windows(x, peak_freqs, spacing):
    """Symmetric fit windows around each peak, at least 9 samples wide."""
    step = float(np.median(np.diff(x)))
    half = max(0.35 * spacing, 4.5 * step)
    for f in peak_freqs:
        lo = max(f - half, float(x[0]))
        hi = min(f + half, float(x[-1]))
        yield lo, hi


def cavity_report(
    sweep: NetworkSweep,
    geom: CavityGeometry,
    alpha_db_per_mm: Optional[float] = None,
    min_prominence: Optional[float] = None,
    min_spacing: Optional[float] = None,
    convention: str = "undercoupled",
) -> CavityReport:
    """Characterize a cavity sweep end to end.

    Peaks are taken from |S21| when present, otherwise from inverted
    |S11| dips. Each mode gets a Lorentzian fit; the FSR is the median
    fitted spacing, from which penetration depth, per-electrode
    reflectivity and the mirror-limited Q follow. Internal Qs are derived
    from the |S11| dip under each mode when reflection data exists, the
    propagation Q is filled in when an attenuation is supplied, and the
    finesse uses the median loaded Q. A candidate whose fit fails is left
    out and listed in `rejected`; fewer than two candidates or fitted
    modes is a FitError, a sweep not starting above 0 Hz an ArgumentError,
    and modes that the geometry cannot explain raise InconsistencyError.
    """
    if not sweep.freqs[0] > 0:
        raise ArgumentError(
            f"cavity frequencies must be positive; the sweep starts at {sweep.freqs[0]:.6g} Hz"
        )
    if sweep.has_pair((2, 1)):
        y = np.abs(sweep.pair((2, 1)))
        trace = Series(sweep.freqs, y)
    elif sweep.has_pair((1, 1)):
        mag = np.abs(sweep.pair((1, 1)))
        trace = Series(sweep.freqs, np.max(mag) - mag)
    else:
        raise ArgumentError("sweep has neither S21 nor S11")

    yv = np.asarray(trace.y, float)
    prom = min_prominence if min_prominence is not None else 0.1 * float(np.ptp(yv))
    step = float(np.median(np.diff(sweep.freqs)))
    spacing_floor = min_spacing if min_spacing is not None else 5.0 * step
    raw_peaks = find_peaks(trace, prom, spacing_floor)
    if len(raw_peaks) < 2:
        raise FitError(
            f"found {len(raw_peaks)} peak(s); the free spectral range is a mode "
            "spacing and needs at least two modes in the sweep"
        )
    raw_spacing = float(np.median(np.diff(raw_peaks)))

    peaks: List[LorentzianPeak] = []
    rejected: List[Tuple[float, str]] = []
    for f, window in zip(raw_peaks, _peak_windows(sweep.freqs, raw_peaks, raw_spacing)):
        try:
            peaks.append(fit_lorentzian(trace, window))
        except (FitError, ArgumentError) as exc:
            rejected.append((f, str(exc)))
    if len(peaks) < 2:
        raise FitError(
            f"{len(peaks)} of {len(raw_peaks)} peaks fitted; the free spectral range "
            "needs at least two fitted modes"
        )

    f0s = [p.f0 for p in peaks]
    q_loaded = [(p.f0, p.q_loaded()) for p in peaks]
    q_med = float(np.median([q for _, q in q_loaded]))
    # only fits and checked geometry go in: a failed precondition is an inconsistency
    try:
        fsr = estimate_fsr(f0s)
        l_p = penetration_depth(fsr, geom.v_g, geom.d)
        r_s = mirror_reflectivity(l_p, geom.lambda0)
        qm = q_mirror(geom, l_p, r_s)
        fin = finesse(q_med, geom.lambda0, geom.d, l_p)
    except ArgumentError as exc:
        raise InconsistencyError(str(exc)) from exc

    q_internal: List[Tuple[float, float]] = []
    if sweep.has_pair((1, 1)):
        s11 = np.abs(sweep.pair((1, 1)))
        for p, window in zip(peaks, _peak_windows(sweep.freqs, f0s, fsr)):
            mask = (sweep.freqs >= window[0]) & (sweep.freqs <= window[1])
            dip = float(np.min(s11[mask]))
            dip = min(dip, 1.0)
            q_internal.append((p.f0, q_internal_from_reflection(p.q_loaded(), dip, convention)))

    qp = None
    if alpha_db_per_mm is not None:
        qp = q_propagation(float(np.median(f0s)), geom.v_g, alpha_db_per_mm)
    return CavityReport(
        fsr=fsr,
        l_p=l_p,
        r_s=r_s,
        q_loaded=q_loaded,
        q_internal=q_internal,
        q_mirror=qm,
        q_propagation=qp,
        finesse=fin,
        rejected=rejected,
    )


def report_csv(report: CavityReport) -> bytes:
    """One row per fitted mode: f0, fwhm, loaded Q and internal Q."""
    out = io.StringIO()
    out.write("f0_hz,fwhm_hz,q_loaded,q_internal\n")
    internal = dict(report.q_internal)
    for f0, ql in report.q_loaded:
        qi = internal.get(f0)
        cells = [f"{f0:.17g}", f"{f0 / ql:.17g}", f"{ql:.17g}"]
        cells.append(f"{qi:.17g}" if qi is not None else "")
        out.write(",".join(cells) + "\n")
    return out.getvalue().encode()


def report_summary(report: CavityReport) -> str:
    """Key-value block of the scalar cavity quantities (SI units)."""
    pairs = [
        ("fsr", report.fsr),
        ("l_p", report.l_p),
        ("r_s", report.r_s),
        ("q_mirror", report.q_mirror),
        ("q_propagation", report.q_propagation),
        ("finesse", report.finesse),
    ]
    lines = [f"{key}={value:.9g}" for key, value in pairs if value is not None]
    return "\n".join(lines) + "\n"
