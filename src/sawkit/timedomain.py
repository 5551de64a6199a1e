"""Impulse-response analysis of two-port sweeps.

Inverse transform of S21, time gating, echo detection, and the
echo-decay regression that extracts propagation loss. The synthetic echo
network is the forward model the analysis chain is validated against.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ArgumentError,
    GridError,
    InconsistencyError,
    NonphysicalGrowthError,
    ResolutionError,
)
from .ingest import NetworkSweep
from .numerics import db_convert, dft, grid_step

__all__ = [
    "ImpulseResponse",
    "EchoPeak",
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

    tau is a uniform grid starting at 0 with step 1/(N df), so a physical
    delay lands on the same tau regardless of how many points the sweep
    has. window_gain is sum(window)/sqrt(M) for the unitary transform of
    M (possibly zero-padded) bins; dividing a peak of |h| by it recovers
    the arrival's amplitude as it appears in S21.
    """

    tau: np.ndarray
    h: np.ndarray
    window_gain: float = 1.0

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.h = np.asarray(self.h, dtype=complex)
        if self.tau.shape != self.h.shape:
            raise ArgumentError("tau and h lengths differ")
        if self.tau.size < 2:
            raise ArgumentError("impulse response needs at least two samples")
        if self.tau[0] != 0.0:
            raise ArgumentError("tau grid must start at 0")
        grid_step(self.tau)
        if self.window_gain <= 0:
            raise ArgumentError("window_gain must be positive")

    @property
    def step(self) -> float:
        return float(self.tau[1] - self.tau[0])


@dataclass
class EchoPeak:
    n: int
    tau: float
    h_max: float
    below_noise_floor: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ArgumentError("echo index must be nonnegative")
        if self.h_max < 0:
            raise ArgumentError("echo magnitude must be nonnegative")


@dataclass
class EchoTrain:
    peaks: List[EchoPeak]
    round_trip: float

    def __post_init__(self):
        if self.round_trip <= 0:
            raise ArgumentError("round trip must be positive")
        for i, p in enumerate(self.peaks):
            if p.n != i:
                raise ArgumentError("echo indices must be consecutive from 0")
        taus = [p.tau for p in self.peaks]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ArgumentError("echo arrival times must be increasing")


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
        if self.alpha < 0:
            raise ArgumentError("alpha must be nonnegative")
        if self.length <= 0:
            raise ArgumentError("length must be positive")

    @property
    def alpha_db_per_mm(self) -> float:
        return db_convert(self.alpha, "per_m_to_db_per_mm_power")


def _window_array(n: int, window: Optional[str], edge_fraction: float) -> np.ndarray:
    if window in (None, "none"):
        return np.ones(n)
    if window != "raised_cosine":
        raise ArgumentError(f"unknown window {window!r}")
    if not 0.0 <= edge_fraction <= 0.5:
        raise ArgumentError("edge_fraction must lie in [0, 0.5]")
    w = np.ones(n)
    edge = int(round(edge_fraction * n))
    if edge > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(edge) + 0.5) / edge))
        w[:edge] = ramp
        w[-edge:] = ramp[::-1]
    return w


def impulse_response(
    sweep: NetworkSweep,
    window: Optional[str] = "raised_cosine",
    edge_fraction: float = 0.1,
    oversample: int = 1,
    pair: Tuple[int, int] = (2, 1),
) -> ImpulseResponse:
    """Windowed inverse DFT of one S-parameter onto a uniform tau grid.

    The default raised-cosine window tapers 10% of the band at each edge
    to suppress leakage into late-time bins; window='none' keeps the
    transform exactly unitary for property checks. oversample zero-pads
    the spectrum by that integer factor, refining the tau grid without
    changing which physical delays exist.
    """
    df = grid_step(sweep.freqs)
    s = sweep.pair(pair)
    if not isinstance(oversample, (int, np.integer)) or oversample < 1:
        raise ArgumentError("oversample must be a positive integer")
    n = s.size
    w = _window_array(n, window, edge_fraction)
    padded = np.zeros(n * oversample, dtype=complex)
    padded[:n] = s * w
    h = dft(padded, "inverse")
    m = padded.size
    dtau = 1.0 / (m * df)
    tau = np.arange(m) * dtau
    gain = float(w.sum()) / math.sqrt(m)
    return ImpulseResponse(tau=tau, h=h, window_gain=gain)


def time_gate(sweep: NetworkSweep, gate: Tuple[float, float]) -> NetworkSweep:
    """Zero the impulse response outside [tau_start, tau_stop], per pair.

    No window is applied, so a full-support gate is the identity to
    rounding. A gate interval that contains no sample yields an all-zero
    sweep; an inverted interval is an error.
    """
    start, stop = gate
    if stop < start:
        raise ArgumentError("gate stop precedes gate start")
    df = grid_step(sweep.freqs)
    n = sweep.freqs.size
    tau = np.arange(n) / (n * df)
    keep = (tau >= start) & (tau <= stop)
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


def _refine_peak(mag: np.ndarray, j: int, dtau: float, tau0: float):
    """Parabolic vertex through the peak bin and its two neighbors."""
    if j <= 0 or j >= mag.size - 1:
        return tau0 + j * dtau, float(mag[j])
    y0, y1, y2 = float(mag[j - 1]), float(mag[j]), float(mag[j + 1])
    den = y0 - 2.0 * y1 + y2
    if den >= 0:
        return tau0 + j * dtau, y1
    x = (y0 - y2) / (2.0 * den)
    if abs(x) > 1:
        return tau0 + j * dtau, y1
    y = y1 + 0.5 * (y2 - y0) * x + 0.5 * den * x * x
    return tau0 + (j + x) * dtau, y


def detect_echoes(
    ir: ImpulseResponse,
    expected_round_trip: float,
    n_max: int,
    refine: bool = True,
) -> EchoTrain:
    """Pick the strongest |h| sample near each predicted echo arrival.

    Echo n is searched in [n, n+1) round trips, the window of width
    expected_round_trip centered on the arrival at (2n+1)/2 round trips;
    times before a quarter round trip are excluded as electrical
    crosstalk. Magnitudes are normalized by the transform's window gain,
    refined off-grid with a three-point parabola unless refine is false,
    and flagged when they fall below three times the median magnitude of
    the analysis region.
    """
    if n_max < 0:
        raise ArgumentError("n_max must be nonnegative")
    dtau = ir.step
    if expected_round_trip < 2.0 * dtau:
        raise ArgumentError(
            f"round trip {expected_round_trip:.3g} s needs a time step of at most "
            f"half its length; have {dtau:.3g} s"
        )
    rt = expected_round_trip
    mag = np.abs(ir.h)
    floor_region = mag[ir.tau >= rt / 4.0]
    noise_floor = 3.0 * float(np.median(floor_region)) if floor_region.size else 0.0

    peaks = []
    for n in range(n_max + 1):
        lo = max(n * rt, rt / 4.0)
        hi = (n + 1) * rt
        mask = (ir.tau >= lo) & (ir.tau < hi)
        if not np.any(mask):
            raise ResolutionError(
                f"no samples in echo window {n} ([{lo:.3g}, {hi:.3g}) s); "
                "increase the band span or oversampling"
            )
        offset = int(np.argmax(np.where(mask, mag, -1.0)))
        if refine:
            tau_n, h_n = _refine_peak(mag, offset, dtau, 0.0)
            tau_n = min(max(tau_n, lo), hi - dtau)
        else:
            tau_n, h_n = float(ir.tau[offset]), float(mag[offset])
        h_phys = h_n / ir.window_gain
        peaks.append(
            EchoPeak(
                n=n,
                tau=tau_n,
                h_max=h_phys,
                below_noise_floor=h_n < noise_floor,
            )
        )
    if len(peaks) >= 2:
        round_trip = float(np.median(np.diff([p.tau for p in peaks])))
    else:
        round_trip = rt
    return EchoTrain(peaks=peaks, round_trip=round_trip)


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
    usable = []
    for p in train.peaks:
        if p.below_noise_floor:
            break
        usable.append(p)
    if len(usable) < 2:
        raise ArgumentError("need at least two echoes above the noise floor")
    if any(p.h_max <= 0 for p in usable):
        raise ArgumentError("echo magnitudes must be positive to take logs")
    ns = np.asarray([p.n for p in usable], dtype=float)
    ys = 2.0 * np.log([p.h_max for p in usable])
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
    label: str = "synthetic echo network",
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
    noise_sigma requires an explicit seed; the RNG is never ambient.
    """
    f_lo, f_hi = band
    if not (f_lo > 0 and f_hi > f_lo):
        raise ArgumentError("band must be positive with f_hi > f_lo")
    if n_points < 16:
        raise ArgumentError("n_points must be at least 16")
    if v_g <= 0:
        raise ArgumentError("group velocity must be positive")
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
            center, frac_bw = idt_response
            if center <= 0 or frac_bw <= 0:
                raise ArgumentError("idt_response needs positive center and bandwidth")
            half = center * frac_bw / 2.0
            x = np.clip((f - center) / half, -1.0, 1.0)
            envelope = np.where(np.abs(f - center) <= half, np.cos(np.pi * x / 2.0) ** 2, 0.0)
            arrivals = arrivals * envelope
        s21 = s21 + arrivals
    if noise_sigma > 0:
        if seed is None:
            raise ArgumentError("noise requires an explicit seed")
        rng = np.random.default_rng(seed)
        s21 = s21 + noise_sigma * (
            rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
        )
    s = {(2, 1): s21, (1, 2): s21.copy()}
    return NetworkSweep(freqs=f, s=s, label=label)


def echo_train_csv(train: EchoTrain) -> bytes:
    """Rows of n, arrival time in ns, magnitude, and 2 ln magnitude."""
    out = io.StringIO()
    out.write("n,tau_ns,h_max,2ln_h_max\n")
    for p in train.peaks:
        two_ln = 2.0 * math.log(p.h_max) if p.h_max > 0 else -math.inf
        out.write(f"{p.n},{p.tau * 1e9:.17g},{p.h_max:.17g},{two_ln:.17g}\n")
    return out.getvalue().encode()


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
