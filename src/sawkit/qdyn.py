"""Two-level spin dynamics under acoustic drive.

Closed-form detuned Rabi populations, decaying-oscillation traces and
their fits, the swept-drive resonance spectrum, the square-root power
law, and the phase-modulation sideband model used to generate optical
spectra fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import numerics
from .errors import ArgumentError, FitError
from .numerics import FitResult, Series, bessel_j

__all__ = [
    "TwoLevelDrive",
    "RabiFit",
    "PowerScalingFit",
    "rabi_population",
    "simulate_rabi_trace",
    "fit_rabi",
    "odar_spectrum",
    "fit_power_scaling",
    "sideband_spectrum",
    "series_csv",
]


@dataclass
class TwoLevelDrive:
    """Drive parameters: cyclic Rabi frequency, detuning, decay time.

    rabi is the cyclic frequency of the population oscillation (the
    period on resonance is 1/rabi); detuning may be an array to sweep
    the drive; decay_tau may be math.inf for an undamped drive.
    """

    rabi: float
    detuning: Union[float, np.ndarray] = 0.0
    decay_tau: float = math.inf

    def __post_init__(self):
        if self.rabi < 0:
            raise ArgumentError("rabi frequency must be nonnegative")
        if not self.decay_tau > 0:
            raise ArgumentError("decay_tau must be positive (inf allowed)")


@dataclass
class RabiFit:
    rabi: float
    decay_tau: float
    amplitude: float
    offset: float
    result: FitResult


@dataclass
class PowerScalingFit:
    slope_hz_per_sqrt_mw: float
    residual: float


def rabi_population(drive: TwoLevelDrive, t):
    """Excited-state probability of a driven two-level system.

    P(t) = (omega² / (omega² + delta²)) sin²(pi sqrt(omega² + delta²) t)
    with cyclic omega and delta; a finite decay_tau relaxes the
    oscillation toward 1/2 as P = 1/2 + (P_ideal - 1/2) e^(-t/tau).
    Accepts a scalar or array t (seconds, nonnegative) and a scalar or
    array drive.detuning; the two broadcast against each other, and
    omega = delta = 0 gives P = 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ArgumentError("time must be nonnegative")
    omega, delta = drive.rabi, np.asarray(drive.detuning, dtype=float)
    g2 = omega * omega + delta * delta
    with np.errstate(invalid="ignore", divide="ignore"):
        ideal = np.where(
            g2 > 0,
            (omega * omega / np.where(g2 > 0, g2, 1.0))
            * np.sin(math.pi * np.sqrt(g2) * t) ** 2,
            0.0,
        )
    if math.isinf(drive.decay_tau):
        out = ideal
    else:
        out = 0.5 + (ideal - 0.5) * np.exp(-t / drive.decay_tau)
    return float(out) if out.ndim == 0 else out


def simulate_rabi_trace(
    rabi: float,
    decay_tau: float,
    t_grid,
    noise_sigma: float = 0.0,
    seed: Optional[int] = None,
) -> Series:
    """Resonant Rabi trace 1/2 (1 - e^(-t/tau) cos(2 pi rabi t)) plus noise.

    Gaussian noise of scale noise_sigma requires an explicit nonnegative
    integer seed and is deterministic for a fixed one.
    """
    if not 0 <= noise_sigma < math.inf:
        raise ArgumentError("noise_sigma must be nonnegative and finite")
    drive = TwoLevelDrive(rabi=rabi, decay_tau=decay_tau)
    t = np.asarray(t_grid, dtype=float)
    y = rabi_population(drive, t)
    if noise_sigma > 0:
        rng = numerics.seeded_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, t.size)
    return Series(t, y)


def _initial_rabi(t, y, dt):
    """Dominant non-DC bin of the zero-padded spectrum, log-parabola refined; dt is t's step."""
    detrended = y - y.mean()
    m = 4 * t.size
    mag = np.abs(np.fft.rfft(detrended, n=m))
    if mag.size < 3:
        raise FitError("trace too short to locate an oscillation")
    rest = mag[1:]
    peak = float(rest.max())
    floor = float(np.median(rest))
    if peak <= 0 or peak < 3.0 * floor:
        raise FitError("no spectral peak above the noise floor; nothing to fit")
    i = 1 + int(np.argmax(rest))
    dfreq = 1.0 / (m * dt)
    f0 = i * dfreq
    if 1 <= i - 1 and i + 1 < mag.size and mag[i - 1] > 0 and mag[i + 1] > 0:
        l0, l1, l2 = math.log(mag[i - 1]), math.log(mag[i]), math.log(mag[i + 1])
        den = l0 - 2.0 * l1 + l2
        if den < 0:
            f0 = (i + 0.5 * (l0 - l2) / den) * dfreq
    return f0


def fit_rabi(trace: Series) -> RabiFit:
    """Fit offset - amplitude e^(-t/tau) cos(2 pi f t) to a trace.

    The frequency is initialized from the dominant DFT bin, so the trace
    should cover at least two oscillation periods on a uniform time
    grid. The returned rabi is the cyclic frequency f in Hz.
    """
    t = trace.x
    y = np.asarray(trace.y, dtype=float)
    dt = numerics.grid_step(t)
    f0 = _initial_rabi(t, y, dt)
    span = float(t[-1] - t[0])
    init = (f0, span / 2.0, float(np.ptp(y)) / 2.0, float(y.mean()))
    lower = (f0 / 4.0, dt * 1e-3, -np.inf, -np.inf)
    upper = (f0 * 4.0, span * 1e6, np.inf, np.inf)
    model, jacobian = numerics.SHIPPED_MODELS["decaying_cosine"]
    (result,) = numerics.least_squares_stack(
        model, t[None], y[None], [init], lower, upper, jacobian=jacobian
    )
    if isinstance(result, FitError):
        raise result
    if not result.converged:
        raise FitError(f"rabi fit did not converge: {result.message}", result)
    f, tau, amplitude, offset = (float(v) for v in result.params)
    return RabiFit(rabi=f, decay_tau=tau, amplitude=amplitude, offset=offset, result=result)


def odar_spectrum(rabi: float, f_spin: float, pulse_len: float, f_grid) -> Series:
    """Population after a fixed pulse versus swept drive frequency.

    Evaluates the detuned Rabi formula with delta = f - f_spin at
    t = pulse_len; the peak sits exactly at the spin splitting.
    """
    if pulse_len <= 0:
        raise ArgumentError("pulse length must be positive")
    f = np.asarray(f_grid, dtype=float)
    return Series(f, rabi_population(TwoLevelDrive(rabi=rabi, detuning=f - f_spin), pulse_len))


def fit_power_scaling(points: Sequence[Tuple[float, float]]) -> PowerScalingFit:
    """Through-origin least squares of rabi = c sqrt(P_mW).

    points are (power_dBm, rabi_Hz) pairs; P_mW = 10^(dBm/10). Returns
    the slope in Hz per sqrt(mW) and the residual norm normalized by the
    norm of the rabi values (zero for exact-law points).
    """
    pts = list(points)
    if len(pts) < 2:
        raise ArgumentError("power scaling needs at least two points")
    dbm = np.asarray([p[0] for p in pts], dtype=float)
    rabi = np.asarray([p[1] for p in pts], dtype=float)
    if np.any(rabi < 0):
        raise ArgumentError("rabi frequencies must be nonnegative")
    root_p = np.sqrt(10.0 ** (dbm / 10.0))
    c = float((rabi * root_p).sum() / (root_p * root_p).sum())
    norm = float(np.linalg.norm(rabi))
    resid = float(np.linalg.norm(rabi - c * root_p)) / norm if norm > 0 else 0.0
    return PowerScalingFit(slope_hz_per_sqrt_mw=c, residual=resid)


def sideband_spectrum(
    carrier: float,
    mod_freq: float,
    mod_index: float,
    linewidth: float,
    orders: int,
    f_grid,
) -> Series:
    """Phase-modulation spectrum: Bessel-weighted Lorentzian comb.

    Sum over k in [-orders, orders] of J_k(mod_index)² times a
    unit-height Lorentzian at carrier + k mod_freq, so mod_index = 0
    leaves a single unit carrier. The weight model generates synthetic
    optical spectra.
    """
    if orders < 0 or orders > 10:
        raise ArgumentError("orders must lie in 0..10")
    if linewidth <= 0 or mod_freq <= 0:
        raise ArgumentError("linewidth and mod_freq must be positive")
    if not 0 < (linewidth / 2.0) * (linewidth / 2.0) < math.inf:  # the Lorentzian's hw²
        raise ArgumentError(f"linewidth {linewidth:g} Hz squares out of the float range")
    f = np.asarray(f_grid, dtype=float)
    y = np.zeros_like(f)
    for k in range(-orders, orders + 1):
        # J_{-k} = (-1)^k J_k, so the squared weight only needs |k|
        weight = bessel_j(abs(k), mod_index) ** 2
        y += numerics.lorentzian(f, (carrier + k * mod_freq, linewidth, weight, 0.0))
    return Series(f, y)


def series_csv(series: Series, x_name: str = "x", y_name: str = "y") -> bytes:
    """Two-column CSV of a series, a complex one by its magnitude, as "%.17g"."""
    from .textformat import format_table  # loaded by the first write, as in ingest

    y = series.y
    if np.iscomplexobj(y):
        y = np.hypot(y.real, y.imag)
    return format_table(f"{x_name},{y_name}\n", np.column_stack((series.x, y)), ",")
