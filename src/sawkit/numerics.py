"""Shared numerical services: least squares, DFT, Bessel, dB conversions.

Everything here is a pure function of its inputs. The fitter is one
damped Gauss-Newton (Levenberg-Marquardt) loop, least_squares_stack,
sized for the small, smooth models used elsewhere in the package. It
fits a stack of fits at once. The rows still fitting form a working
stack, and every round takes each of them through the same steps: the
normal matrices by one np.matmul, the damped systems by one stacked
np.linalg.solve, then the trial steps and their tests. Each row keeps
its own damping, step acceptance, convergence test and iteration
budget. A row that stops, whether it converged or failed, leaves the
stack at the end of the round, and a failure ends only its own row.
Shorter rows are padded with masked exact zeros; each row's result
matched its solo fit bit for bit on one BLAS. A single fit is a stack
of one. There is no finite-difference fallback: every fit passes its
model's analytic Jacobian, and SHIPPED_MODELS pairs each model with
one; the shipped models evaluate a whole stack as well as a single fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from .errors import ArgumentError, FitError, GridError

__all__ = [
    "Series",
    "FitResult",
    "least_squares_stack",
    "dft",
    "bessel_j",
    "db_convert",
    "grid_step",
    "seeded_rng",
    "SHIPPED_MODELS",
    "lorentzian",
    "decaying_cosine",
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


def grid_step(x) -> float:
    """Spacing of a uniform grid: the mean step.

    Raises GridError if a point is not finite, the grid does not rise, or
    a step differs from the mean by more than 1e-6 of it.
    """
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
    if steps.max() > 1e-6 * abs(mean):
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

# Gauss-Newton steps a fit may take before it is reported as not converged.
MAX_ITERATIONS = 200

# How a row's fit stops, in the order a round meets them; a row takes the first
# that holds. A "non-finite" ending fails the row with a FitError, and only the
# "converged" ones converge.
_ENDINGS = (
    "non-finite jacobian during fit",
    "singular normal equations: jacobian is identically zero",
    "singular normal equations",
    "non-finite model output during fit",
    "damping exhausted without an acceptable step",
    "converged: relative step below 1e-10",
    "converged: relative residual change below 1e-12",
    "max iterations reached",
)


def _row_dot(a, b):
    """a[i] @ b[i] for every row, by the same BLAS dot as a 1-D a[i] @ b[i]."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _solve_stack(a, b):
    """Solve a[i] x[i] = b[i] for every row; returns x and a mask of singular rows.

    A stacked np.linalg.solve raises for the whole stack when one matrix
    is singular. Then every row is solved alone, and only the singular
    ones fail, with NaN in x.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.full(b.shape, np.nan)
    singular = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            x[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return x, singular


def least_squares_stack(
    model: Callable,
    x,
    y,
    initial_params,
    lower=-np.inf,
    upper=np.inf,
    *,
    jacobian: Callable,
) -> List[Union[FitResult, FitError]]:
    """Fit every row of a stack: row i minimizes sum((model - y[i])**2).

    x and y are stacks of m fits, (m, n) arrays or sequences of 1-D rows,
    and initial_params is (m, k). model(x, cols) and jacobian(x, cols)
    take a (r, n) block of x rows and the parameters as columns, cols =
    params.T[..., None], so a model that unpacks ``a, b = params`` gets
    one (r, 1) column per parameter. model returns (r, n) values and
    jacobian the (r, n, k) analytic Jacobian. lower and upper broadcast
    to (m, k), with -inf or inf for an open side.

    Rows may differ in length. Each is padded to the longest, x with
    copies of its last sample and y with zeros, and a 0/1 mask zeroes the
    padded residuals and Jacobian rows, so J^T J and J^T r gain exact
    zero terms. Bit identity with the unpadded row needs a BLAS that sums
    them in sample order; it was checked on one x86-64 OpenBLAS only.
    r @ r, whose BLAS dot sums in lanes set by its length, is summed over
    the row's own samples, and the covariance uses the row's own n_i - k.

    Damped Gauss-Newton (Levenberg-Marquardt) on a working stack: the
    rows still fitting, held as whole arrays. Every working row takes
    each round's steps together. In the first round, and after a round
    in which some row took a step, every row's J^T J is formed with one
    np.matmul, the same BLAS call per row as a single fit's ``J.T @ J``
    (a row that did not step gets its old system back). Every row's
    damped system is solved with one stacked np.linalg.solve, and every
    trial step is tested at once. Each row has its own damping lam: its
    normal matrix is damped with lam * diag(J^T J), lam divided by 10 on
    an accepted step and multiplied by 10 on a rejected one. Trial steps
    are clipped into the bounds. A row converges on relative step <
    1e-10 or relative residual-norm change < 1e-12 within MAX_ITERATIONS
    steps. A row that stops leaves the stack at the end of the round.
    Each row's arithmetic is that of the row fitted alone, so on such a
    BLAS no row depends on the others.

    A failure ends only its own row. Returns one entry per row: a
    FitResult, with ``converged=False`` and a message when the normal
    equations go singular, the damping runs out or the iteration budget
    does, and with the covariance of a converged fit; or a FitError for
    a row whose model output or Jacobian went non-finite. Bad arguments
    raise ArgumentError, and a model or jacobian output of the wrong
    shape raises FitError, for the whole stack.
    """
    try:
        xs, ys = [np.asarray(row, dtype=float) for row in x], [np.asarray(row) for row in y]
    except TypeError:  # a scalar x or y has no rows
        xs = ys = []
    if any(np.iscomplexobj(row) for row in ys):
        raise ArgumentError("least_squares_stack fits real-valued data")
    p = np.array(initial_params, dtype=float)
    rows_1d = ys and all(row.ndim == 1 for row in ys)
    if not rows_1d or p.ndim != 2 or p.shape[0] != len(ys) or p.shape[1] == 0:
        raise ArgumentError("a fit stack needs one data row and one parameter vector per fit")
    if [row.shape for row in xs] != [row.shape for row in ys]:
        raise ArgumentError("x and y stacks differ in shape")
    if not np.all(np.isfinite(p)):
        raise ArgumentError("initial_params must be finite")
    lengths = np.array([row.size for row in ys])
    m, n, k = len(ys), int(lengths.max()), p.shape[1]
    if lengths.min() < k:
        raise ArgumentError("data must have at least as many points as parameters")
    # pad each shorter row to n samples, x with its last sample; mask is 0 there, 1 elsewhere
    take = np.cumsum(lengths)[:, None] + np.minimum(np.arange(n) - lengths[:, None], -1)
    mask = (np.arange(n) < lengths[:, None]).astype(float)
    x, y = np.concatenate(xs)[take], np.concatenate(ys).astype(float)[take] * mask
    try:
        lo = np.broadcast_to(np.asarray(lower, dtype=float), p.shape)
        hi = np.broadcast_to(np.asarray(upper, dtype=float), p.shape)
    except ValueError:
        raise ArgumentError("bounds must broadcast to the parameter stack") from None
    inverted = np.any(lo > hi, axis=0)
    if np.any(inverted):
        raise ArgumentError(f"bound {int(np.argmax(inverted))} has lower > upper")
    p = np.clip(p, lo, hi)

    def residuals(x, y, mask, params):
        f = np.asarray(model(x, params.T[..., None]), dtype=float)
        if f.shape != y.shape:
            raise FitError("model output shape does not match data")
        return (f - y) * mask, np.isfinite(f).all(axis=1)

    def squares(r, lengths):
        # a short row's r @ r is summed over its own samples, as when it is fitted alone
        out = _row_dot(r, r)
        for i in np.flatnonzero(lengths < n).tolist():
            out[i] = r[i, :lengths[i]] @ r[i, :lengths[i]]
        return out

    r, started = residuals(x, y, mask, p)
    cost = squares(r, lengths)
    # every row's result, written when the row leaves the working stack
    messages = [None if ok else "non-finite model output during fit" for ok in started.tolist()]
    params, costs, iterations = p, cost, np.ones(m, dtype=int)

    # The working stack: the rows still fitting (at[j] is row j's index), with their data,
    # params, residuals, cost, Jacobian count, damping and last damped system A, g, d.
    at = np.flatnonzero(started)
    wx, wy, wmask, wlen, wlo, whi, p, r, cost, iters = (
        v[at] for v in (x, y, mask, lengths, lo, hi, params, r, costs, iterations)
    )
    lam = np.full(at.size, 1e-3)
    eye = np.eye(k)
    tiny = np.finfo(float).tiny
    moved = True
    while at.size:
        bad_jacobian = blank = np.zeros(at.size, dtype=bool)
        # a new J only after some row stepped: a row that did not would get its last one back
        if moved:
            J = np.asarray(jacobian(wx, p.T[..., None]), dtype=float)
            if J.shape != (at.size, n, k):
                raise FitError("jacobian shape does not match data and parameters")
            bad_jacobian = ~np.isfinite(J).all(axis=(1, 2))
            # a non-finite row takes a zero J, so no arithmetic below warns on it
            if bad_jacobian.any():
                J = np.where(bad_jacobian[:, None, None], 0.0, J)
            J = J * wmask[:, :, None]
            Jt = J.transpose(0, 2, 1)
            g = np.matmul(Jt, r[:, :, None])[:, :, 0]
            A = np.matmul(Jt, J)
            diag = np.diagonal(A, axis1=1, axis2=2)
            positive = diag > 0
            blank = ~positive.any(axis=1)
            # an all-zero column is damped by the row's least positive diagonal, a blank row by 1
            floor = np.where(positive, diag, np.inf).min(axis=1, keepdims=True)
            floor[blank] = 1.0
            d = np.where(positive, diag, floor)

        delta = _solve_stack(A + (lam[:, None] * d)[:, :, None] * eye, -g[:, :, None])[0][:, :, 0]
        singular = ~np.isfinite(delta).all(axis=1)
        # a row that has stopped this round tries no step, so its params stand
        delta[blank | singular] = 0.0
        p_try = np.clip(p + delta, wlo, whi)
        step = p_try - p
        r_try, finite = residuals(wx, wy, wmask, p_try)
        cost_try = squares(r_try, wlen)
        better = cost_try <= cost
        rel_step = np.sqrt(_row_dot(step, step)) / np.maximum(np.sqrt(_row_dot(p_try, p_try)), tiny)
        rel_drop = (cost - cost_try) / np.maximum(cost, tiny)
        lam = np.where(better, np.maximum(lam / 10.0, 1e-14), lam * 10.0)
        p = np.where(better[:, None], p_try, p)
        r = np.where(better[:, None], r_try, r)
        cost = np.where(better, cost_try, cost)

        # row e holds the rows that meet _ENDINGS[e] this round; a row takes its first
        ended = np.array([
            bad_jacobian, blank, singular, ~finite, lam > 1e14, better & (rel_step < 1e-10),
            better & (rel_drop < 1e-12), better & (iters == MAX_ITERATIONS),
        ])
        fitting = ~ended.any(axis=0)
        iters += better & fitting
        moved = (better & fitting).any()
        stopped = ~fitting
        if stopped.any():
            left = at[stopped]
            params[left], costs[left], iterations[left] = p[stopped], cost[stopped], iters[stopped]
            for i, e in zip(left.tolist(), ended[:, stopped].argmax(axis=0).tolist()):
                messages[i] = _ENDINGS[e]
            at, wx, wy, wmask, wlen, wlo, whi, p, r, cost, iters, lam, A, g, d = (
                v[fitting]
                for v in (at, wx, wy, wmask, wlen, wlo, whi, p, r, cost, iters, lam, A, g, d)
            )

    converged = np.array([message.startswith("converged") for message in messages])
    covariance = [None] * m
    done = np.flatnonzero(converged & (lengths > k))
    if done.size:
        J = np.asarray(jacobian(x[done], params[done].T[..., None]), dtype=float) * mask[done, :, None]
        inverse, singular = _solve_stack(
            np.matmul(J.transpose(0, 2, 1), J), np.broadcast_to(eye, (done.size, k, k))
        )
        for i, inv, bad in zip(done.tolist(), inverse, singular.tolist()):
            if not bad:
                covariance[i] = inv * (costs[i] / (lengths[i] - k))
    return [
        FitError(message) if message.startswith("non-finite") else FitResult(
            params=params[i].copy(),
            residual_norm=float(np.sqrt(costs[i])),
            converged=bool(converged[i]),
            iterations=int(iterations[i]),
            covariance=covariance[i],
            message=message,
        )
        for i, message in enumerate(messages)
    ]


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
# The same code fits a stack: with x an (m, n) block and each parameter an
# (m, 1) column (least_squares_stack's params.T[..., None]), y is (m, n)
# and the Jacobian (m, n, n_params).


def lorentzian(x, params):
    """Peak on a flat offset: params (f0, fwhm, amplitude, offset)."""
    f0, fwhm, amplitude, offset = params
    hw = fwhm / 2.0
    d = np.asarray(x, dtype=float) - f0
    with np.errstate(over="ignore"):  # d² overflowing to inf gives hw²/inf = 0, the right value
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
    return np.stack([df0, dfwhm, damp, doff], axis=-1)


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
    return np.stack([df, dtau, damp, doff], axis=-1)


SHIPPED_MODELS = {
    "lorentzian": (lorentzian, lorentzian_jacobian),
    "decaying_cosine": (decaying_cosine, decaying_cosine_jacobian),
}
