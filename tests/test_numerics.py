"""Numeric substrate: grids, DFT, fitter, Bessel, dB conversions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sawkit.errors import ArgumentError, FitError, GridError
from sawkit.numerics import (
    MAX_ITERATIONS,
    SHIPPED_MODELS,
    Series,
    bessel_j,
    db_convert,
    decaying_cosine,
    dft,
    grid_step,
    least_squares_stack,
    lorentzian,
    lorentzian_jacobian,
)

# Independently summed ascending series for J1(0.5), frozen as an oracle.
J1_HALF = 0.2422684576748739


class TestSeries:
    def test_basic_construction(self):
        s = Series(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert len(s) == 3

    def test_rejects_length_mismatch(self):
        with pytest.raises(ArgumentError):
            Series(np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_short(self):
        with pytest.raises(ArgumentError):
            Series(np.array([0.0]), np.array([1.0]))

    def test_rejects_non_increasing_x(self):
        with pytest.raises(ArgumentError):
            Series(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_rejects_non_finite_x(self):
        with pytest.raises(ArgumentError):
            Series(np.array([0.0, np.nan, 1.0]), np.zeros(3))


class TestGridStep:
    def test_uniform(self):
        assert grid_step(np.linspace(0.0, 1.0, 11)) == pytest.approx(0.1)

    def test_non_uniform_raises(self):
        with pytest.raises(GridError):
            grid_step(np.array([0.0, 1.0, 2.5]))

    def test_decreasing_raises(self):
        with pytest.raises(GridError):
            grid_step(np.array([2.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, bad):
        # a NaN point used to give a NaN step that passed every comparison
        with pytest.raises(GridError, match="not finite"):
            grid_step(np.array([0.0, 1.0, bad, 3.0]))


class TestDft:
    @given(
        st.integers(min_value=2, max_value=600),
        st.integers(min_value=1, max_value=16),
        st.sampled_from(["forward", "inverse"]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_length_zero_pads_bit_for_bit(self, size, factor, direction, real):
        rng = np.random.default_rng(size * 17 + factor)
        x = rng.normal(size=size) if real else rng.normal(size=size) + 1j * rng.normal(size=size)
        m = size * factor + int(rng.integers(0, 3))
        padded = np.zeros(m, dtype=complex)
        padded[:size] = x
        assert dft(x, direction, n=m).tobytes() == dft(padded, direction).tobytes()

    def test_length_below_input_rejected(self):
        with pytest.raises(ArgumentError, match="below the input length"):
            dft(np.ones(8), "inverse", n=7)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 257, 1000, 4096])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = dft(dft(x, "forward"), "inverse")
        assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-12

    @given(st.integers(min_value=2, max_value=4096))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any_length(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = dft(dft(x, "inverse"), "forward")
        assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5, 64, 1023])
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        fwd = dft(x, "forward")
        a = float(np.sum(np.abs(x) ** 2))
        b = float(np.sum(np.abs(fwd) ** 2))
        assert abs(a - b) / a <= 1e-10

    def test_rejects_short_input(self):
        with pytest.raises(ArgumentError):
            dft(np.array([1.0]))

    def test_rejects_unknown_direction(self):
        with pytest.raises(ArgumentError):
            dft(np.zeros(4), "sideways")


def line(x, params):
    """y = a + b x with params (a, b): a linear test model, stack-native like the shipped ones."""
    a, b = params
    return a + b * np.asarray(x, dtype=float)


def line_jacobian(x, params):
    x = np.asarray(x, dtype=float)
    return np.stack([np.ones_like(x), x], axis=-1)


# the shipped models and the linear test model
MODELS = {**SHIPPED_MODELS, "line": (line, line_jacobian)}

TRUE_PARAMS = {
    "line": (0.7, -1.3),
    "lorentzian": (0.1, 0.35, 2.0, 0.2),
    "decaying_cosine": (1.7, 2.5, 0.8, 0.5),
}

X_GRID = {
    "line": np.linspace(-2.0, 2.0, 41),
    "lorentzian": np.linspace(-3.0, 3.0, 101),
    "decaying_cosine": np.linspace(0.0, 3.0, 121),
}


def fit_one(model, x, y, init, lower=-np.inf, upper=np.inf, *, jacobian):
    """least_squares_stack on a stack of one fit; a returned FitError is raised."""
    (result,) = least_squares_stack(
        model, np.asarray(x)[None], np.asarray(y)[None], np.asarray(init, dtype=float)[None],
        lower, upper, jacobian=jacobian,
    )
    if isinstance(result, FitError):
        raise result
    return result


class TestLeastSquares:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_exact_recovery(self, name):
        func, jac = MODELS[name]
        p_true = np.array(TRUE_PARAMS[name])
        x = X_GRID[name]
        init = p_true * 1.15 + 0.05
        fit = fit_one(func, x, func(x, p_true), init, jacobian=jac)
        assert fit.converged, fit.message
        assert np.allclose(fit.params, p_true, rtol=1e-6, atol=1e-8)
        assert fit.residual_norm < 1e-8

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_jacobian_matches_finite_differences(self, name):
        func, jac = MODELS[name]
        p = np.array(TRUE_PARAMS[name])
        x = X_GRID[name]
        analytic = np.asarray(jac(x, p), dtype=float)
        h = 6.055e-6 * np.maximum(1.0, np.abs(p))
        for j in range(p.size):
            lo, hi = p.copy(), p.copy()
            lo[j] -= h[j]
            hi[j] += h[j]
            fd = (np.asarray(func(x, hi)) - np.asarray(func(x, lo))) / (2 * h[j])
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(analytic[:, j] - fd)) / scale <= 1e-6, (name, j)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_lorentzian_jacobian_property(self, f0, fwhm, amp, off):
        func, jac = SHIPPED_MODELS["lorentzian"]
        x = np.linspace(-4.0, 4.0, 33)
        p = np.array([f0, fwhm, amp, off])
        analytic = np.asarray(jac(x, p))
        h = 6.055e-6 * np.maximum(1.0, np.abs(p))
        for j in range(4):
            lo, hi = p.copy(), p.copy()
            lo[j] -= h[j]
            hi[j] += h[j]
            fd = (func(x, hi) - func(x, lo)) / (2 * h[j])
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(analytic[:, j] - fd)) / scale <= 1e-6

    def test_noisy_fit_reports_covariance(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 10.0, 200)
        y = line(x, (1.0, 0.5)) + rng.normal(scale=0.05, size=x.size)
        fit = fit_one(line, x, y, (0.0, 0.0), jacobian=line_jacobian)
        assert fit.converged
        assert fit.covariance is not None
        assert fit.covariance.shape == (2, 2)
        assert np.allclose(fit.params, (1.0, 0.5), atol=0.05)

    def test_bounds_are_respected(self):
        x = np.linspace(-2.0, 2.0, 50)
        fit = fit_one(
            lorentzian,
            x,
            lorentzian(x, (0.0, 0.5, 1.0, 0.0)),
            (0.4, 0.8, 0.5, 0.1),
            (0.2, 0.1, 0.0, -1.0),
            (1.0, 2.0, 3.0, 1.0),
            jacobian=lorentzian_jacobian,
        )
        assert 0.2 <= fit.params[0] <= 1.0

    def test_non_finite_model_raises(self):
        def bad(x, params):
            return np.full_like(np.asarray(x, float), np.nan)

        def bad_jacobian(x, params):
            return np.ones(np.shape(x) + (1,))

        with pytest.raises(FitError, match="non-finite model output"):
            fit_one(bad, np.arange(5.0), np.ones(5), (1.0,), jacobian=bad_jacobian)

    def test_jacobian_is_required(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(TypeError, match="jacobian"):
            least_squares_stack(line, x[None], x[None], [(0.0, 1.0)])

    def test_underdetermined_raises(self):
        with pytest.raises(ArgumentError, match="at least as many points as parameters"):
            fit_one(line, [0.0, 1.0], [0.0, 1.0], (0.0, 1.0, 2.0), jacobian=line_jacobian)

    def test_zero_direction_still_converges(self):
        # second parameter has no effect; diagonal damping keeps it solvable
        def degenerate(x, params):
            return params[0] + 0.0 * params[1] + np.asarray(x, float)

        def degenerate_jacobian(x, params):
            x = np.asarray(x, float)
            return np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)

        fit = fit_one(
            degenerate, np.arange(6.0), np.arange(6.0) + 2.0, (0.0, 1.0),
            jacobian=degenerate_jacobian,
        )
        assert fit.converged
        assert fit.params[0] == pytest.approx(2.0, abs=1e-8)

    def test_singular_problem_reports_not_converged(self):
        def inert(x, params):
            return np.zeros_like(np.asarray(x, float)) + 0.0 * params[0]

        def inert_jacobian(x, params):
            return np.zeros(np.shape(x) + (1,))

        fit = fit_one(inert, np.arange(6.0), np.ones(6), (1.0,), jacobian=inert_jacobian)
        assert not fit.converged
        assert "singular" in fit.message


def serial_least_squares(model, x, y, p, lo, hi, jacobian):
    """The one-fit-at-a-time Levenberg-Marquardt loop, kept as the reference.

    least_squares_stack must give every row exactly this result: the same
    params, iterations, message, residual norm and covariance, or the same
    FitError. model and jacobian take 1-D x and params.
    """
    p = np.clip(np.asarray(p, dtype=float), lo, hi)

    def residuals(pv):
        f = np.asarray(model(x, pv), dtype=float)
        if not np.all(np.isfinite(f)):
            raise FitError("non-finite model output during fit")
        return f - y

    r = residuals(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    message = "max iterations reached"
    tiny = np.finfo(float).tiny
    for iterations in range(1, MAX_ITERATIONS + 1):
        J = np.asarray(jacobian(x, p), dtype=float)
        if not np.all(np.isfinite(J)):
            raise FitError("non-finite jacobian during fit")
        g = J.T @ r
        A = J.T @ J
        d = np.diag(A).copy()
        if not np.any(d > 0):
            message = "singular normal equations: jacobian is identically zero"
            break
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
    if converged and y.size > p.size:
        J = np.asarray(jacobian(x, p), dtype=float)
        covariance = np.linalg.inv(J.T @ J) * (cost / (y.size - p.size))
    return p, float(np.sqrt(cost)), converged, iterations, covariance, message


def assert_same_fit(result, reference):
    """result (a FitResult or FitError) is bit for bit the reference's outcome."""
    if isinstance(reference, FitError):
        assert isinstance(result, FitError) and str(result) == str(reference)
        return
    p, norm, converged, iterations, covariance, message = reference
    assert result.params.tobytes() == p.tobytes()
    assert (result.residual_norm, result.converged, result.iterations, result.message) == (
        norm, converged, iterations, message
    )
    if covariance is None:
        assert result.covariance is None
    else:
        assert result.covariance.tobytes() == covariance.tobytes()


def reference_outcome(*args):
    try:
        return serial_least_squares(*args)
    except FitError as exc:
        return exc


def poisoned_lorentzian(kinds):
    """The lorentzian model and Jacobian, broken per row; a row is named by its first x.

    "nan" gives NaN output once the fwhm falls below 0.45, "zero" an all-zero
    Jacobian, "singular" a Jacobian whose damped normal matrix is exactly
    singular, "uphill" a negated Jacobian (every step is rejected) and
    "stall" one scaled by 1e6 (every step is a millionth of the
    Gauss-Newton step, so the fit never converges).
    """
    def model(x, params):
        y = lorentzian(x, params)
        for i, x0 in enumerate(x[:, 0].tolist()):
            if kinds.get(x0) == "nan" and params[1][i, 0] < 0.45:
                y[i] = np.nan
        return y

    def jacobian(x, params):
        J = lorentzian_jacobian(x, params)
        for i, x0 in enumerate(x[:, 0].tolist()):
            kind = kinds.get(x0)
            if kind in ("zero", "singular"):
                J[i] = 0.0
            if kind == "singular":
                # A[0, 0] is the smallest subnormal, and lam times it rounds to 0
                J[i, 0, 0] = 2.3e-162
            if kind == "uphill":
                J[i] *= -1.0
            if kind == "stall":
                J[i] *= 1e6
        return J

    return model, jacobian


class TestLeastSquaresStack:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_stack_of_one_is_the_serial_fit(self, name):
        func, jac = MODELS[name]
        p_true = np.array(TRUE_PARAMS[name])
        x = X_GRID[name]
        rng = np.random.default_rng(7)
        y = func(x, p_true) + rng.normal(scale=1e-3, size=x.size)
        init = p_true * 1.15 + 0.05
        lo = np.full(p_true.size, -np.inf)
        hi = np.full(p_true.size, np.inf)
        reference = serial_least_squares(func, x, y, init, lo, hi, jac)
        (stacked,) = least_squares_stack(func, x[None], y[None], init[None], jacobian=jac)
        assert_same_fit(stacked, reference)
        assert stacked.converged and stacked.covariance is not None

    def test_each_row_is_its_solo_fit(self):
        x = np.linspace(-3.0, 3.0, 101)
        rng = np.random.default_rng(11)
        kinds = ["good", "nan", "good", "zero", "singular", "good", "uphill", "stall", "good"]
        xs = np.stack([x + 1e-3 * i for i in range(len(kinds))])
        model, jac = poisoned_lorentzian({float(row[0]): k for row, k in zip(xs, kinds)})
        ys = lorentzian(xs, np.array(TRUE_PARAMS["lorentzian"])[:, None, None])
        ys = ys + rng.normal(scale=1e-2, size=ys.shape)
        inits = np.tile([0.3, 0.5, 1.5, 0.1], (len(kinds), 1)) + 0.01 * np.arange(len(kinds))[:, None]
        lo = np.array([-1.0, 1e-3, -np.inf, -np.inf])
        hi = np.array([1.0, 10.0, np.inf, np.inf])

        results = least_squares_stack(model, xs, ys, inits, lo, hi, jacobian=jac)
        for i, result in enumerate(results):
            (solo,) = least_squares_stack(
                model, xs[i:i + 1], ys[i:i + 1], inits[i:i + 1], lo, hi, jacobian=jac
            )
            assert_same_fit(solo, reference_outcome(
                lambda x, p: model(x[None], p[:, None, None])[0], xs[i], ys[i], inits[i], lo, hi,
                lambda x, p: jac(x[None], p[:, None, None])[0],
            ))
            if isinstance(solo, FitError):
                assert isinstance(result, FitError) and str(result) == str(solo)
            else:
                assert_same_fit(result, (solo.params, solo.residual_norm, solo.converged,
                                         solo.iterations, solo.covariance, solo.message))

        outcome = dict(zip(kinds, results))
        assert all(r.converged for k, r in zip(kinds, results) if k == "good")
        assert str(outcome["nan"]) == "non-finite model output during fit"
        assert outcome["zero"].message == "singular normal equations: jacobian is identically zero"
        assert outcome["zero"].iterations == 1
        assert outcome["singular"].message == "singular normal equations"
        assert outcome["uphill"].message == "damping exhausted without an acceptable step"
        assert outcome["stall"].message == "max iterations reached"
        assert outcome["stall"].iterations == MAX_ITERATIONS
        for k in ("zero", "singular", "uphill", "stall"):
            assert not outcome[k].converged and outcome[k].covariance is None

    def test_ragged_rows_are_their_solo_fits(self):
        # the short rows are padded to 101 samples; a dot product over a padded
        # row of 73 samples can sum in other SIMD lanes than over the row alone
        kinds = ["good", "nan", "good", "zero", "singular", "good", "uphill", "stall", "good"]
        sizes = [73, 64, 101, 73, 101, 64, 101, 64, 73]
        rng = np.random.default_rng(13)
        xs = [np.linspace(-3.0, 3.0, n) + 1e-3 * i for i, n in enumerate(sizes)]
        true = TRUE_PARAMS["lorentzian"]
        ys = [lorentzian(x, true) + rng.normal(scale=1e-2, size=x.size) for x in xs]
        model, jac = poisoned_lorentzian({float(x[0]): k for x, k in zip(xs, kinds)})
        inits = np.tile([0.3, 0.5, 1.5, 0.1], (len(kinds), 1)) + 0.01 * np.arange(len(kinds))[:, None]
        lo = np.array([-1.0, 1e-3, -np.inf, -np.inf])
        hi = np.array([1.0, 10.0, np.inf, np.inf])

        results = least_squares_stack(model, xs, ys, inits, lo, hi, jacobian=jac)
        for x, y, init, result in zip(xs, ys, inits, results):
            assert_same_fit(result, reference_outcome(
                lambda x, p: model(x[None], p[:, None, None])[0], x, y, init, lo, hi,
                lambda x, p: jac(x[None], p[:, None, None])[0],
            ))
        # every poison still bites, on rows padded or not
        good = [r for k, r in zip(kinds, results) if k == "good"]
        assert all(r.converged and r.covariance is not None for r in good)
        outcome = dict(zip(kinds, results))
        assert str(outcome["nan"]) == "non-finite model output during fit"
        assert outcome["zero"].message == "singular normal equations: jacobian is identically zero"
        assert outcome["singular"].message == "singular normal equations"
        assert outcome["uphill"].message == "damping exhausted without an acceptable step"
        assert outcome["stall"].message == "max iterations reached"

    def test_ragged_rows_are_checked_row_by_row(self):
        x2, x5 = np.array([0.0, 1.0]), np.linspace(0.0, 1.0, 5)
        p0 = np.zeros((2, 2))
        with pytest.raises(ArgumentError, match="at least as many points as parameters"):
            least_squares_stack(line, [x5, x5[:1]], [x5, x5[:1]], p0, jacobian=line_jacobian)
        with pytest.raises(ArgumentError, match="differ in shape"):
            least_squares_stack(line, [x5, x5[:4]], [x5[:4], x5], p0, jacobian=line_jacobian)
        for x, y in ((1.0, [x5, x5]), ([x5, x5], 1.0)):
            with pytest.raises(ArgumentError, match="one data row and one parameter vector"):
                least_squares_stack(line, x, y, p0, jacobian=line_jacobian)
        with pytest.raises(ArgumentError, match="^least_squares_stack fits real-valued data$"):
            least_squares_stack(line, [x5, x5], [x5, x5 + 0j], p0, jacobian=line_jacobian)
        # a row of exactly k samples fits exactly and has no covariance, beside one that has
        y5 = 1.0 + 2.0 * x5 + np.array([0.01, -0.02, 0.0, 0.02, -0.01])
        exact, noisy = least_squares_stack(
            line, [x2, x5], [1.0 + 2.0 * x2, y5], np.zeros((2, 2)), jacobian=line_jacobian
        )
        assert exact.converged and exact.covariance is None
        assert noisy.converged and noisy.covariance is not None
        open_bounds = np.full(2, -np.inf), np.full(2, np.inf)
        for x, y, result in ((x2, 1.0 + 2.0 * x2, exact), (x5, y5, noisy)):
            assert_same_fit(result, serial_least_squares(
                line, x, y, np.zeros(2), *open_bounds, line_jacobian
            ))

    def test_non_finite_jacobian_fails_its_row_only(self):
        x = np.linspace(-3.0, 3.0, 41)
        xs = np.stack([x, x + 0.5])
        ys = lorentzian(xs, np.array(TRUE_PARAMS["lorentzian"])[:, None, None])

        def jac(x, params):
            J = lorentzian_jacobian(x, params)
            J[x[:, 0] > -3.0] = np.inf
            return J

        good, bad = least_squares_stack(lorentzian, xs, ys, [[0.2, 0.4, 1.8, 0.1]] * 2, jacobian=jac)
        assert good.converged
        assert isinstance(bad, FitError) and str(bad) == "non-finite jacobian during fit"

    @pytest.mark.parametrize("x_shape,p_shape,match", [
        ((2, 5), (3, 2), "one data row and one parameter vector per fit"),
        ((2, 5), (2, 0), "one data row and one parameter vector per fit"),
        ((2, 4), (2, 2), "differ in shape"),
    ])
    def test_rejects_mismatched_stacks(self, x_shape, p_shape, match):
        with pytest.raises(ArgumentError, match=match):
            least_squares_stack(line, np.zeros(x_shape), np.zeros((2, 5)), np.zeros(p_shape),
                                jacobian=line_jacobian)

    def test_rejects_inverted_bounds(self):
        x = np.tile(np.linspace(0.0, 1.0, 5), (2, 1))
        with pytest.raises(ArgumentError, match="bound 1 has lower > upper"):
            least_squares_stack(line, x, x, np.zeros((2, 2)), [0.0, 1.0], [1.0, 0.0],
                                jacobian=line_jacobian)


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_j1_at_zero(self):
        assert bessel_j(1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_j1_half_series_oracle(self):
        assert bessel_j(1, 0.5) == pytest.approx(J1_HALF, rel=1e-13)

    def test_against_ascending_series(self):
        mp = pytest.importorskip("mpmath")
        for order in (0, 1, 2, 5):
            for x in (0.3, 1.0, 4.0, 12.0, 20.0):
                want = float(mp.besselj(order, x))
                assert bessel_j(order, x) == pytest.approx(want, abs=1e-12)

    def test_against_40_digit_mpmath(self):
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(40):
            for order in range(11):
                for x in np.linspace(-20.0, 20.0, 2001):
                    want = mp.besselj(order, mp.mpf(float(x)))
                    worst = max(worst, float(abs(mp.mpf(bessel_j(order, x)) - want)))
        assert worst <= 1e-15

    def test_exact_at_zero(self):
        for order in range(11):
            for x in (0.0, -0.0):
                assert bessel_j(order, x) == (1.0 if order == 0 else 0.0)

    @pytest.mark.parametrize("x", [1e-300, 1e-9, 1e-8, 3e-8, 0.25, 2.404825557695773, 7.5, 19.99, 20.0])
    def test_reflection_bit_for_bit(self, x):
        for order in range(11):
            assert bessel_j(order, -x) == (-1) ** order * bessel_j(order, x)

    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-12, 9.99e-9, 1e-8, 1.01e-8, 1e-6])
    def test_small_arguments_against_mpmath(self, x):
        # below 1e-8 the leading series term; above it the recurrence, which
        # rescales here; relative error, since J_10(1e-8) is about 3e-90
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for order in range(11):
                want = mp.besselj(order, mp.mpf(x))
                got = bessel_j(order, x)
                assert abs(mp.mpf(got) - want) <= 2e-15 * abs(want) + 5e-324

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_recurrence(self, n, x):
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = (2.0 * n / x) * bessel_j(n, x)
        assert abs(lhs - rhs) <= 1e-8

    def test_rejects_bad_order(self):
        with pytest.raises(ArgumentError):
            bessel_j(-1, 1.0)
        with pytest.raises(ArgumentError):
            bessel_j(11, 1.0)
        with pytest.raises(ArgumentError):
            bessel_j(True, 1.0)
        with pytest.raises(ArgumentError):
            bessel_j(1.5, 1.0)

    def test_rejects_large_argument(self):
        with pytest.raises(ArgumentError):
            bessel_j(0, 25.0)


class TestDbConvert:
    def test_zero_db_is_unity(self):
        assert db_convert(0.0, "db_to_power_ratio") == 1.0
        assert db_convert(0.0, "db_to_amplitude_ratio") == 1.0

    def test_paper_style_power_ratio(self):
        assert db_convert(-10.7, "db_to_power_ratio") == pytest.approx(0.08511, rel=1e-4)

    def test_attenuation_conversion(self):
        assert db_convert(3.2, "db_per_mm_to_per_m_power") == pytest.approx(
            320.0 * math.log(10.0), rel=1e-12
        )

    @given(st.floats(min_value=-80.0, max_value=80.0))
    @settings(max_examples=80)
    def test_power_ratio_invertible(self, db):
        ratio = db_convert(db, "db_to_power_ratio")
        back = 10.0 * math.log10(ratio)
        assert back == pytest.approx(db, abs=1e-12, rel=1e-12)

    @given(st.floats(min_value=-80.0, max_value=80.0))
    @settings(max_examples=80)
    def test_amplitude_ratio_invertible(self, db):
        ratio = db_convert(db, "db_to_amplitude_ratio")
        back = 20.0 * math.log10(ratio)
        assert back == pytest.approx(db, abs=1e-12, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=80)
    def test_attenuation_invertible(self, db_per_mm):
        per_m = db_convert(db_per_mm, "db_per_mm_to_per_m_power")
        back = per_m * 10.0 / (1000.0 * math.log(10.0))
        assert back == pytest.approx(db_per_mm, rel=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ArgumentError):
            db_convert(1.0, "db_to_neper")

    def test_non_finite(self):
        with pytest.raises(ArgumentError):
            db_convert(float("nan"), "db_to_power_ratio")


class TestModelShapes:
    def test_decaying_cosine_starts_at_zero_population(self):
        y = decaying_cosine(np.array([0.0]), (2.0, 5.0, 0.5, 0.5))
        assert y[0] == pytest.approx(0.0, abs=1e-15)

    def test_decaying_cosine_infinite_tau_is_undamped(self):
        # maxima at odd multiples of 1/(2f) stay at full contrast
        t = np.array([1.0 / 3.0, 1.0, 5.0 / 3.0])
        y = decaying_cosine(t, (1.5, math.inf, 0.5, 0.5))
        assert np.allclose(y, 1.0, atol=1e-12)
