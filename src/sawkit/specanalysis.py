"""Frequency-domain cavity characterization.

Peak finding, Lorentzian fits, the FSR / penetration-depth / mirror
reflectivity chain, the Q budget, finesse and phase velocity. The
`cavity_report` entry point composes the individual pieces over a
measured or synthesized sweep.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import numerics
from .errors import ArgumentError, FitError, InconsistencyError
from .numerics import FitResult, Series, db_convert

if TYPE_CHECKING:
    from .ingest import NetworkSweep

__all__ = [
    "CavityGeometry",
    "CavityReport",
    "find_peaks",
    "fit_lorentzian",
    "estimate_fsr",
    "penetration_depth",
    "mirror_reflectivity",
    "q_mirror",
    "q_propagation",
    "combine_q",
    "q_internal_from_reflection",
    "finesse",
    "phase_velocity",
    "cavity_report",
    "report_csv",
    "report_summary",
]


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
    """The mode table of a cavity and the quantities derived from it.

    One row per fitted mode, in the ascending order of the candidate
    peaks: the columns f0, fwhm and q_internal (NaN without S11 data),
    and mode_fits, each mode's FitResult with params (f0, fwhm,
    amplitude, offset), covariance, iteration count and message.
    rejected holds (frequency, reason) for each candidate peak left
    unfitted. q_propagation is None when no attenuation was given.
    """

    f0: np.ndarray
    fwhm: np.ndarray
    q_internal: np.ndarray
    mode_fits: List[FitResult]
    rejected: List[Tuple[float, str]]
    fsr: float
    l_p: float
    r_s: float
    q_mirror: float
    finesse: float
    q_propagation: Optional[float] = None

    @property
    def q_loaded(self) -> np.ndarray:
        return self.f0 / self.fwhm

    def __post_init__(self):
        if not 0 < self.r_s < 1:
            raise InconsistencyError(f"r_s = {self.r_s:.4g} outside (0, 1)")
        if self.l_p <= 0:
            raise InconsistencyError("penetration depth must be positive")
        if self.finesse <= 0:
            raise InconsistencyError("finesse must be positive")
        # a NaN internal Q (no reflection data) compares false
        if np.any(self.q_internal < self.q_loaded * (1 - 1e-12)):
            raise InconsistencyError("internal Q below loaded Q; check the reflection dip data")


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


def _magnitude(y) -> np.ndarray:
    """A trace's real samples: |y| of complex ones, float otherwise."""
    return np.abs(y) if np.iscomplexobj(y) else np.asarray(y, float)


def find_peaks(trace: Series, min_prominence: float, min_spacing: float) -> List[float]:
    """Local maxima above a prominence, thinned to a minimum spacing.

    When two candidates sit closer than min_spacing the taller one wins;
    equal heights keep the lower frequency. Returns frequencies sorted
    ascending; an empty list is a valid result.
    """
    if len(trace) < 3:
        raise ArgumentError("peak finding needs at least 3 samples")
    y = _magnitude(trace.y)
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


def _sample_ranges(x: np.ndarray, windows: np.ndarray):
    """[start, stop) of the samples lo <= x <= hi of each (lo, hi) row of windows."""
    return np.searchsorted(x, windows[:, 0], "left"), np.searchsorted(x, windows[:, 1], "right")


def _half_height_width(x, y, i_peak, offset, amplitude):
    """Width at half height of the peak at column i_peak[j] of each row j.

    Each side ends at the peak's nearest sample at or below offset + amplitude / 2,
    or at the row's end; a width that is not positive falls back to a sixth of the span.
    """
    level = (offset + amplitude / 2.0)[:, None]
    cols = np.arange(y.shape[1])
    low = ~(y > level)
    left = np.where(low & (cols <= i_peak[:, None]), cols, 0).max(axis=1)
    right = np.where(low & (cols >= i_peak[:, None]), cols, cols.size - 1).min(axis=1)
    rows = np.arange(y.shape[0])
    width = x[rows, right] - x[rows, left]
    return np.where(width <= 0, (x[:, -1] - x[:, 0]) / 6.0, width)


def _fit_windows(trace: Series, windows) -> List[Union[FitResult, ArgumentError, FitError]]:
    """Fit the Lorentzian (f0, fwhm, amplitude, offset) in each (lo, hi) window.

    A fit starts at the window's argmax, with its median as offset and
    its width at half height. Each f0 stays in its window and each fwhm
    in [step/1000, 10 span]. The windows are gathered as one 2-D block
    per sample count, and every fit goes into one least_squares_stack
    call, whatever its length. Returns one outcome per window: the fit's
    converged FitResult; an ArgumentError for fewer than 8 samples; or a
    FitError for a flat trace, or for a fit that did not converge, with
    the FitResult attached.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.shape[1:] != (2,):
        raise ArgumentError("a window is one (lo, hi) pair")
    if not np.all(windows[:, 0] < windows[:, 1]):
        raise ArgumentError("window must satisfy lo < hi")
    start, stop = _sample_ranges(trace.x, windows)
    n = stop - start
    outcomes = [
        ArgumentError(f"window contains {size} samples, needs at least 8") if size < 8 else None
        for size in n.tolist()
    ]
    values = _magnitude(trace.y)
    rows, xs, ys, inits, lower, upper = [], [], [], [], [], []
    for size in np.unique(n[n >= 8]).tolist():
        block = np.flatnonzero(n == size)
        take = start[block, None] + np.arange(size)
        x, y = trace.x[take], values[take]
        off0 = np.median(y, axis=1)
        ptp = y.max(axis=1) - y.min(axis=1)
        flat = ptp <= 1e-14 * np.maximum(np.maximum(np.abs(off0), ptp), 1.0)
        for i in block[flat].tolist():
            outcomes[i] = FitError("degenerate fit: trace is flat in the window")
        block, x, y, off0 = block[~flat], x[~flat], y[~flat], off0[~flat]
        i_max, r = y.argmax(axis=1), np.arange(block.size)
        amp0 = y[r, i_max] - off0
        width = _half_height_width(x, y, i_max, off0, amp0)
        inits.append(np.column_stack([x[r, i_max], width, amp0, off0]))
        inf = np.full(block.size, np.inf)
        step, span = np.diff(x, axis=1).min(axis=1), x[:, -1] - x[:, 0]
        lower.append(np.column_stack([windows[block, 0], step * 1e-3, -inf, -inf]))
        upper.append(np.column_stack([windows[block, 1], span * 10.0, inf, inf]))
        rows += block.tolist()
        xs += list(x)
        ys += list(y)
    if rows:
        model, jacobian = numerics.SHIPPED_MODELS["lorentzian"]
        fits = numerics.least_squares_stack(
            model, xs, ys, np.concatenate(inits), np.concatenate(lower), np.concatenate(upper),
            jacobian=jacobian,
        )
        # each stack row is fitted as if alone, so block order gives each window its own result
        for i, fit in zip(rows, fits):
            outcomes[i] = (
                FitError(f"lorentzian fit did not converge: {fit.message}", fit)
                if isinstance(fit, FitResult) and not fit.converged else fit
            )
    return outcomes


def fit_lorentzian(trace: Series, window: Tuple[float, float]) -> FitResult:
    """Fit offset + amplitude (fwhm/2)² / ((f-f0)² + (fwhm/2)²) in a window.

    Returns the converged FitResult, whose params are (f0, fwhm,
    amplitude, offset). The initial guess comes from the window itself
    (argmax, median offset, width at half prominence). Raises
    ArgumentError on a window with too few samples and FitError on
    degenerate or non-converged fits, with the FitResult attached.
    """
    (outcome,) = _fit_windows(trace, [window])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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


# ---------------------------------------------------------------------------
# Report pipeline


def _peak_windows(x, step, peak_freqs, spacing) -> np.ndarray:
    """Symmetric (lo, hi) fit windows around each peak, at least 9 samples wide."""
    half = max(0.35 * spacing, 4.5 * step)
    f = np.asarray(peak_freqs, dtype=float)
    return np.column_stack([np.maximum(f - half, x[0]), np.minimum(f + half, x[-1])])


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

    prom = min_prominence if min_prominence is not None else 0.1 * float(np.ptp(trace.y))
    step = float(np.median(np.diff(sweep.freqs)))
    spacing_floor = min_spacing if min_spacing is not None else 5.0 * step
    raw_peaks = find_peaks(trace, prom, spacing_floor)
    if len(raw_peaks) < 2:
        raise FitError(
            f"found {len(raw_peaks)} peak(s); the free spectral range is a mode "
            "spacing and needs at least two modes in the sweep"
        )
    raw_spacing = float(np.median(np.diff(raw_peaks)))

    outcomes = _fit_windows(trace, _peak_windows(sweep.freqs, step, raw_peaks, raw_spacing))
    mode_fits = [outcome for outcome in outcomes if isinstance(outcome, FitResult)]
    rejected = [
        (f, str(outcome)) for f, outcome in zip(raw_peaks, outcomes)
        if not isinstance(outcome, FitResult)
    ]
    if len(mode_fits) < 2:
        raise FitError(
            f"{len(mode_fits)} of {len(raw_peaks)} peaks fitted; the free spectral range "
            "needs at least two fitted modes"
        )

    f0, fwhm = np.array([fit.params[:2] for fit in mode_fits]).T
    q_loaded = f0 / fwhm
    q_med = float(np.median(q_loaded))
    # only fits and checked geometry go in: a failed precondition is an inconsistency
    try:
        fsr = estimate_fsr(f0)
        l_p = penetration_depth(fsr, geom.v_g, geom.d)
        r_s = mirror_reflectivity(l_p, geom.lambda0)
        qm = q_mirror(geom, l_p, r_s)
        fin = finesse(q_med, geom.lambda0, geom.d, l_p)
    except ArgumentError as exc:
        raise InconsistencyError(str(exc)) from exc

    q_internal = np.full(f0.size, math.nan)
    if sweep.has_pair((1, 1)):
        s11 = np.abs(sweep.pair((1, 1)))
        start, stop = _sample_ranges(sweep.freqs, _peak_windows(sweep.freqs, step, f0, fsr))
        for i, (ql, a, b) in enumerate(zip(q_loaded.tolist(), start.tolist(), stop.tolist())):
            dip = min(float(np.min(s11[a:b])), 1.0)
            q_internal[i] = q_internal_from_reflection(ql, dip, convention)

    qp = None
    if alpha_db_per_mm is not None:
        qp = q_propagation(float(np.median(f0)), geom.v_g, alpha_db_per_mm)
    return CavityReport(
        f0=f0,
        fwhm=fwhm,
        q_internal=q_internal,
        mode_fits=mode_fits,
        rejected=rejected,
        fsr=fsr,
        l_p=l_p,
        r_s=r_s,
        q_mirror=qm,
        finesse=fin,
        q_propagation=qp,
    )


def report_csv(report: CavityReport) -> bytes:
    """One row per fitted mode: f0, fwhm, loaded Q and internal Q, as "%.17g".

    A mode without an internal Q (no reflection data) has an empty cell.
    """
    from .textformat import format_table  # loaded by the first write, as in ingest

    ql = report.q_loaded
    # fwhm_hz is written as f0 / q_loaded, which may differ from fwhm in the last bit
    grid = np.column_stack((report.f0, report.f0 / ql, ql, report.q_internal))
    text = format_table("f0_hz,fwhm_hz,q_loaded,q_internal\n", grid, ",")
    return text.replace(b",nan\n", b",\n")


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
