"""Impulse-response analysis of two-port sweeps.

Inverse transform of S21, time gating, echo detection, and the
echo-decay regression that extracts propagation loss. The synthetic echo
network is the forward model the analysis chain is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (
    ArgumentError,
    FitError,
    GridError,
    InconsistencyError,
    NonphysicalGrowthError,
    ResolutionError,
)
from .ingest import NetworkSweep
from .numerics import db_convert, dft, grid_step, seeded_rng

__all__ = [
    "ImpulseResponse",
    "EchoTrain",
    "LossModel",
    "impulse_response",
    "time_gate",
    "detect_echoes",
    "fit_echo_decay",
    "synthesize_echo_network",
    "echo_train_csv",
    "loss_model_summary",
]


@dataclass
class ImpulseResponse:
    """Time-domain response of one port pair.

    h[j] lies at tau = j step, step = 1/(M df) for M transform bins, so a
    physical delay lands on the same tau whatever the sweep's point count.
    window_gain is sum(window)/sqrt(M) for the unitary transform of M
    (possibly zero-padded) bins; dividing a peak of |h| by it recovers the
    arrival's amplitude as it appears in S21. magnitude is |h|, formed once
    with h for echo detection.
    """

    h: np.ndarray
    step: float
    window_gain: float = 1.0
    magnitude: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex)
        if self.h.ndim != 1 or self.h.size < 2:
            raise ArgumentError("impulse response needs a 1-D array of at least two samples")
        if not 0 < self.step < math.inf:
            raise ArgumentError("tau step must be positive and finite")
        if not 0 < self.window_gain < math.inf:
            raise ArgumentError("window_gain must be positive and finite")
        self.magnitude = np.abs(self.h)

    @property
    def tau(self) -> np.ndarray:
        return np.arange(self.h.size) * self.step


_PEAK = np.dtype([("n", np.int64), ("tau", float), ("h_max", float), ("below_noise_floor", bool)])


@dataclass
class EchoTrain:
    """Detected echoes as one record array, peaks, and their round trip.

    Rows are (n, tau, h_max, below_noise_floor), one per echo: n consecutive
    from 0, arrival time tau in s (finite, rising), window maximum h_max
    (finite, nonnegative); a sequence of such 4-item rows is coerced.
    """

    peaks: np.recarray
    round_trip: float

    def __post_init__(self):
        rows = self.peaks
        try:  # np.array, not np.rec.array, so an empty list is an empty table
            if getattr(rows, "dtype", None) != _PEAK and any(len(row) != 4 for row in rows):
                raise ValueError("each row needs 4 items")  # not numpy's spread of a bare number
            self.peaks = p = np.array(rows, dtype=_PEAK).view(np.recarray)
        except (TypeError, ValueError) as exc:
            raise ArgumentError(f"malformed echo rows: {exc}") from None
        if not 0 < self.round_trip < math.inf:
            raise ArgumentError("round trip must be positive and finite")
        if p.ndim != 1 or not np.array_equal(p.n, np.arange(p.size)):
            raise ArgumentError("echo indices must be consecutive from 0")
        if not (np.isfinite(p.tau).all() and (np.diff(p.tau) > 0).all()):
            raise ArgumentError("echo arrival times must be finite and increasing")
        if not (np.isfinite(p.h_max).all() and (p.h_max >= 0).all()):
            raise ArgumentError("echo magnitudes must be finite and nonnegative")


@dataclass
class LossModel:
    """Echo-train parameters: |h_max(n)|² = T² R^(2n) e^(-α(2n+1)L).

    T is the IDT power conversion efficiency, R the mirror power
    reflection coefficient, alpha the power attenuation in 1/m over
    propagation length L. T = 0 or R = 0 are allowed for synthesis
    (crosstalk-only and single-arrival cases); fitted values are
    additionally required to land in (0, 1].
    """

    t: float
    r: float
    alpha: float
    length: float

    def __post_init__(self):
        if not 0 <= self.t <= 1:
            raise ArgumentError("T must lie in [0, 1]")
        if not 0 <= self.r <= 1:
            raise ArgumentError("R must lie in [0, 1]")
        if not 0 <= self.alpha < math.inf:
            raise ArgumentError("alpha must be nonnegative and finite")
        if not 0 < self.length < math.inf:
            raise ArgumentError("length must be positive and finite")

    @property
    def alpha_db_per_mm(self) -> float:
        return db_convert(self.alpha, "per_m_to_db_per_mm_power")


def _window_array(n: int, edge_fraction: float) -> np.ndarray:
    if not 0.0 <= edge_fraction <= 0.5:
        raise ArgumentError("edge_fraction must lie in [0, 0.5]")
    w = np.ones(n)
    edge = int(round(edge_fraction * n))
    if edge > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(edge) + 0.5) / edge))
        w[:edge] = ramp
        w[-edge:] = ramp[::-1]
    return w


def _fast_length(m: int) -> int:
    """Smallest integer at least m with no prime factor above 5."""
    best, p5 = 1 << (m - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def impulse_response(
    sweep: NetworkSweep,
    edge_fraction: float = 0.1,
    oversample: int = 1,
) -> ImpulseResponse:
    """Windowed inverse DFT of S21 onto a uniform tau grid.

    A raised-cosine window tapers edge_fraction of the band at each edge
    (10% by default) to suppress leakage into late-time bins;
    edge_fraction=0 keeps the transform exactly unitary for property
    checks. oversample is a lower bound on the refinement: 1 is the plain
    n-point DFT, and more zero-pads to the fast 2·3·5-smooth length M at
    least n·oversample (tau step 1/(M df)); no physical delay moves.
    """
    df = grid_step(sweep.freqs)
    s = sweep.pair((2, 1))
    if not isinstance(oversample, (int, np.integer)) or oversample < 1:
        raise ArgumentError("oversample must be a positive integer")
    n = s.size
    w = _window_array(n, edge_fraction)
    m = n if oversample == 1 else _fast_length(n * oversample)
    h = dft(s * w, "inverse", n=m)
    return ImpulseResponse(h=h, step=1.0 / (m * df), window_gain=float(w.sum()) / math.sqrt(m))


def time_gate(sweep: NetworkSweep, gate: Tuple[float, float]) -> NetworkSweep:
    """Zero the impulse response outside [tau_start, tau_stop], per pair.

    No window is applied, so a full-support gate is the identity to
    rounding. An inverted interval, or one that keeps no sample of the
    time axis, is an ArgumentError.
    """
    start, stop = gate
    if stop < start:
        raise ArgumentError("gate stop precedes gate start")
    df = grid_step(sweep.freqs)
    n = sweep.freqs.size
    tau = np.arange(n) / (n * df)
    keep = (tau >= start) & (tau <= stop)
    if not keep.any():
        raise ArgumentError(
            f"gate [{start:.3g}, {stop:.3g}] s keeps no sample of time axis [0, {tau[-1]:.3g}] s"
        )
    gated = {}
    for pair, s in sweep.s.items():
        h = dft(s, "inverse")
        h = np.where(keep, h, 0.0)
        gated[pair] = dft(h, "forward")
    return NetworkSweep(
        freqs=sweep.freqs.copy(),
        s=gated,
        ref_impedance=sweep.ref_impedance,
        label=sweep.label,
    )


def _refine_peak(mag: np.ndarray, j: int, dtau: float):
    """Parabolic vertex through the peak bin and its two neighbors, on a grid from tau = 0."""
    if j <= 0 or j >= mag.size - 1:
        return j * dtau, float(mag[j])
    y0, y1, y2 = float(mag[j - 1]), float(mag[j]), float(mag[j + 1])
    den = y0 - 2.0 * y1 + y2
    if den >= 0:
        return j * dtau, y1
    x = (y0 - y2) / (2.0 * den)
    if abs(x) > 1:
        return j * dtau, y1
    y = y1 + 0.5 * (y2 - y0) * x + 0.5 * den * x * x
    return (j + x) * dtau, y


def _first_at_or_after(t: float, step: float, m: int) -> int:
    """np.searchsorted(np.arange(m) * step, t) for any t but NaN, without the grid.

    j -> fl(j step) is monotone, so stepping from ceil(t / step) against
    the rounded grid values lands on the first j whose sample is >= t.
    """
    j = max(0, math.ceil(min(t / step, m)))
    while j > 0 and (j - 1) * step >= t:
        j -= 1
    while j < m and j * step < t:
        j += 1
    return j


def detect_echoes(
    ir: ImpulseResponse,
    expected_round_trip: float,
    n_max: int,
) -> EchoTrain:
    """Pick the strongest |h| sample near each predicted echo arrival.

    Echo n is searched in [n, n+1) round trips, the window of width
    expected_round_trip centered on the arrival at (2n+1)/2 round trips;
    times before a quarter round trip are excluded as electrical
    crosstalk. Each window's samples of ir.magnitude are found by index
    arithmetic on ir.step, so the tau grid is never built. Magnitudes are
    normalized by the transform's window gain, refined off-grid with a
    three-point parabola, and flagged when they fall below three times the
    median magnitude of the analysis region.
    """
    if n_max < 0:
        raise ArgumentError("n_max must be nonnegative")
    rt = expected_round_trip
    if not 0 < rt < math.inf:
        raise ArgumentError(f"round trip {rt!r} s is not positive and finite")
    dtau = ir.step
    if rt < 2.0 * dtau:
        raise ArgumentError(
            f"round trip {rt:.3g} s needs a time step of at most "
            f"half its length; have {dtau:.3g} s"
        )
    mag = ir.magnitude

    found = []
    for n in range(n_max + 1):
        lo = max(n * rt, rt / 4.0)
        hi = (n + 1) * rt
        # mag[a:b] holds exactly the samples with lo <= tau < hi
        a, b = (_first_at_or_after(t, dtau, mag.size) for t in (lo, hi))
        if a >= b:
            raise ResolutionError(
                f"no samples in echo window {n} ([{lo:.3g}, {hi:.3g}) s); "
                "increase the band span or oversampling"
            )
        offset = a + int(np.argmax(mag[a:b]))
        tau_n, h_n = _refine_peak(mag, offset, dtau)
        found.append((min(max(tau_n, lo), hi - dtau), h_n))

    # window 0 holds a sample, so the analysis region does too
    noise_floor = 3.0 * float(np.median(mag[_first_at_or_after(rt / 4.0, dtau, mag.size):]))
    peaks = [(n, t, h / ir.window_gain, h < noise_floor) for n, (t, h) in enumerate(found)]
    taus = [t for t, _ in found]
    return EchoTrain(peaks, float(np.median(np.diff(taus))) if len(taus) >= 2 else rt)


def fit_echo_decay(
    train: EchoTrain,
    length: float,
    known_r: Optional[float] = None,
    known_alpha: Optional[float] = None,
) -> LossModel:
    """Ordinary least squares on 2 ln h_max(n) = a + b n.

    The slope conflates mirror reflection and propagation loss
    (b = 2 ln R - 2 alpha L), so exactly one of known_r or known_alpha
    (power units: dimensionless and 1/m) must pin the other down. The
    regression uses the train up to, not including, the first echo
    flagged below the noise floor; once one window is dominated by
    noise, later window maxima are biased upward and would flatten the
    slope.
    """
    if (known_r is None) == (known_alpha is None):
        raise ArgumentError("supply exactly one of known_r or known_alpha")
    if length <= 0:
        raise ArgumentError("length must be positive")
    usable = train.peaks[~np.logical_or.accumulate(train.peaks.below_noise_floor)]
    if usable.size < 2:
        raise FitError("need at least two echoes above the noise floor")
    if (usable.h_max <= 0).any():
        raise FitError("echo magnitudes must be positive to take logs")
    ns = usable.n.astype(float)
    # a contiguous copy: np.log may take another kernel, with other last bits, on a strided view
    ys = 2.0 * np.log(usable.h_max.copy())
    b, a = np.polyfit(ns, ys, 1)

    # Growth tolerance expressed on the regression slope itself: window
    # maxima from a detected train jitter 2 ln h by well under this even
    # for a perfectly flat (R = 1, alpha = 0) device, while any real
    # growth shows up orders of magnitude above it.
    b_tol = 1e-4
    if known_r is not None:
        if not 0 < known_r <= 1:
            raise ArgumentError("known_r must lie in (0, 1]")
        alpha = (2.0 * math.log(known_r) - b) / (2.0 * length)
        if alpha < -b_tol / (2.0 * length):
            raise NonphysicalGrowthError(
                f"echo train grows with index (slope {b:.3g} implies negative loss "
                f"{alpha:.3g} 1/m for R = {known_r:.3g})"
            )
        alpha = max(alpha, 0.0)
        r = known_r
    else:
        if known_alpha < 0:
            raise ArgumentError("known_alpha must be nonnegative")
        alpha = known_alpha
        r = math.exp((b + 2.0 * alpha * length) / 2.0)
        if r > math.exp(b_tol / 2.0):
            raise NonphysicalGrowthError(
                f"recovered reflection {r:.4g} exceeds 1; echo train grows faster "
                "than the supplied attenuation allows"
            )
        r = min(r, 1.0)
        if r <= 0:
            raise InconsistencyError("recovered reflection is not positive")
    t = math.exp((a + alpha * length) / 2.0)
    if t > 1 + 1e-9:
        raise InconsistencyError(f"recovered conversion efficiency {t:.4g} exceeds 1")
    t = min(t, 1.0)
    if t <= 0:
        raise InconsistencyError("recovered conversion efficiency is not positive")
    return LossModel(t=t, r=r, alpha=alpha, length=length)


def _one_minus(r: float, one_minus_r: float, angle: np.ndarray) -> np.ndarray:
    """1 - r e^(-2i angle), its real part as (1 - r) + 2 r sin²(angle), free of cancellation."""
    s, c = np.sin(angle), np.cos(angle)
    return (one_minus_r + 2.0 * r * s * s) + 2j * r * s * c


def _echo_sum(x: np.ndarray, rho: float, m: int) -> np.ndarray:
    """Sum over n < m of rho^n e^(-i (2n+1) pi x), in O(x.size) memory.

    With pi x = k pi + phi and |phi| <= pi/2 the sum is (-1)^k e^(-i phi)
    (1 - q^m) / (1 - q), q = rho e^(-2i phi). Near the resonances phi = 0
    it is formed without cancellation: for rho = 1 as the Dirichlet kernel
    e^(-i (m-1) phi) sin(m phi) / sin(phi), which is m where sin(phi) = 0,
    and for rho < 1 with 1 - rho^m from expm1.
    """
    k = np.rint(x)
    phi = np.pi * (x - k)
    head = (1.0 - 2.0 * (k % 2)) * np.exp(-1j * phi)
    if m == 1:
        return head
    if rho == 1.0:
        s = np.sin(phi)
        ratio = np.divide(np.sin(m * phi), s, out=np.full_like(phi, float(m)), where=s != 0)
        return head * np.exp(-1j * (m - 1) * phi) * ratio
    log_rho_m = m * math.log(rho)
    numerator = _one_minus(math.exp(log_rho_m), -math.expm1(log_rho_m), m * phi)
    return head * numerator / _one_minus(rho, 1.0 - rho, phi)


def synthesize_echo_network(
    model: LossModel,
    v_g: float,
    band: Tuple[float, float],
    n_points: int,
    crosstalk: complex = 0.0,
    idt_response: Optional[Tuple[float, float]] = None,
    noise_sigma: float = 0.0,
    seed: Optional[int] = None,
) -> NetworkSweep:
    """Forward model: S21 as a sum of delayed, attenuated echo arrivals.

    Each arrival n has amplitude sqrt(T² R^(2n) e^(-alpha (2n+1) L)) and
    delay (2n+1) L / v_g. The series is truncated at N <= 10,000 once the
    omitted tail falls below 1e-6 of the first term (or once arrivals
    leave the transform's unaliased time window when rho = R e^(-alpha L)
    = 1), and summed in O(n_points) memory as the Fabry–Pérot transmission
    T e^(-alpha L/2) e^(-i theta) (1 - q^(N+1)) / (1 - q), with
    q = rho e^(-2i theta) and theta = 2 pi f L / v_g.
    idt_response = (center_hz, fractional_bandwidth) multiplies in a
    raised-cosine passband envelope. Complex Gaussian noise of scale
    noise_sigma requires an explicit nonnegative integer seed; the RNG is
    never ambient.
    """
    f_lo, f_hi = band
    if not (f_lo > 0 and f_hi > f_lo):
        raise ArgumentError("band must be positive with f_hi > f_lo")
    if n_points < 16:
        raise ArgumentError("n_points must be at least 16")
    if not 0 < v_g < math.inf:
        raise ArgumentError("group velocity must be positive and finite")
    if not np.isfinite(crosstalk):
        raise ArgumentError("crosstalk must be finite")
    if not 0 <= noise_sigma < math.inf:
        raise ArgumentError("noise_sigma must be nonnegative and finite")
    if idt_response is not None:
        center, frac_bw = idt_response
        if not (0 < center < math.inf and 0 < frac_bw < math.inf):
            raise ArgumentError("idt_response needs positive, finite center and bandwidth")
    f = np.linspace(f_lo, f_hi, n_points)
    df = f[1] - f[0]

    rho = model.r * math.exp(-model.alpha * model.length)
    if rho <= 0:
        n_cut = 0
    elif rho < 1:
        n_cut = int(math.ceil(math.log(1e-6) / math.log(rho)))
    else:
        # lossless train: stop before arrivals wrap around the time window
        t_window = 1.0 / df
        n_cut = int(math.floor((t_window * v_g / model.length - 1.0) / 2.0))
    n_cut = max(0, min(n_cut, 10000))

    s21 = np.full(n_points, complex(crosstalk))
    if model.t > 0:
        amplitude = model.t * math.exp(-model.alpha * model.length / 2.0)
        arrivals = amplitude * _echo_sum(f * (2.0 * model.length / v_g), rho, n_cut + 1)
        if idt_response is not None:
            half = center * frac_bw / 2.0
            x = np.clip((f - center) / half, -1.0, 1.0)
            envelope = np.where(np.abs(f - center) <= half, np.cos(np.pi * x / 2.0) ** 2, 0.0)
            arrivals = arrivals * envelope
        s21 = s21 + arrivals
    if noise_sigma > 0:
        rng = seeded_rng(seed)
        s21 = s21 + noise_sigma * (
            rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
        )
    s = {(2, 1): s21, (1, 2): s21.copy()}
    return NetworkSweep(freqs=f, s=s, label="synthetic echo network")


def echo_train_csv(train: EchoTrain) -> bytes:
    """Rows of n, arrival time in ns, magnitude, and 2 ln magnitude, as "%.17g".

    2 ln magnitude is -inf for a zero magnitude.
    """
    from .textformat import format_table  # loaded by the first write, as in ingest

    p = train.peaks
    grid = np.column_stack((
        p.n,
        p.tau * 1e9,
        p.h_max,
        # math.log, not np.log, whose SIMD kernels do not promise the same last bit
        [2.0 * math.log(h) if h > 0 else -math.inf for h in p.h_max.tolist()],
    ))
    return format_table("n,tau_ns,h_max,2ln_h_max\n", grid, ",")


def loss_model_summary(model: LossModel) -> str:
    """Key-value block with attenuation in both 1/m and dB/mm."""
    lines = [
        f"t={model.t:.9g}",
        f"r={model.r:.9g}",
        f"alpha_per_m={model.alpha:.9g}",
        f"alpha_db_per_mm={model.alpha_db_per_mm:.9g}",
        f"length={model.length:.9g}",
    ]
    return "\n".join(lines) + "\n"
