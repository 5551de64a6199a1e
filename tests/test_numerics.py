"""Numeric substrate: grids, DFT, fitter, Bessel, dB conversions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sawkit.errors import ArgumentError, FitError, GridError
from sawkit.numerics import (
    SHIPPED_MODELS,
    Series,
    bessel_j,
    db_convert,
    decaying_cosine,
    dft,
    grid_step,
    least_squares,
    line,
    lorentzian,
    sqrt_power,
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


TRUE_PARAMS = {
    "line": (0.7, -1.3),
    "lorentzian": (0.1, 0.35, 2.0, 0.2),
    "double_lorentzian": (-0.6, 0.4, 1.5, 0.9, 0.3, 0.8, 0.05),
    "decaying_cosine": (1.7, 2.5, 0.8, 0.5),
    "sqrt_power": (2.2,),
}

X_GRID = {
    "line": np.linspace(-2.0, 2.0, 41),
    "lorentzian": np.linspace(-3.0, 3.0, 101),
    "double_lorentzian": np.linspace(-4.0, 4.0, 161),
    "decaying_cosine": np.linspace(0.0, 3.0, 121),
    "sqrt_power": np.linspace(0.1, 4.0, 60),
}


class TestLeastSquares:
    @pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
    def test_exact_recovery(self, name):
        func, jac = SHIPPED_MODELS[name]
        p_true = np.array(TRUE_PARAMS[name])
        x = X_GRID[name]
        data = Series(x, func(x, p_true))
        init = p_true * 1.15 + 0.05
        fit = least_squares(func, data, init, jacobian=jac)
        assert fit.converged, fit.message
        assert np.allclose(fit.params, p_true, rtol=1e-6, atol=1e-8)
        assert fit.residual_norm < 1e-8

    @pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
    def test_fd_fallback_matches_analytic(self, name):
        func, jac = SHIPPED_MODELS[name]
        p_true = np.array(TRUE_PARAMS[name])
        x = X_GRID[name]
        data = Series(x, func(x, p_true))
        init = p_true * 1.1 + 0.02
        with_jac = least_squares(func, data, init, jacobian=jac)
        without = least_squares(func, data, init)
        assert np.allclose(with_jac.params, without.params, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("name", sorted(SHIPPED_MODELS))
    def test_jacobian_matches_finite_differences(self, name):
        func, jac = SHIPPED_MODELS[name]
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
        fit = least_squares(line, Series(x, y), (0.0, 0.0))
        assert fit.converged
        assert fit.covariance is not None
        assert fit.covariance.shape == (2, 2)
        assert np.allclose(fit.params, (1.0, 0.5), atol=0.05)

    def test_bounds_are_respected(self):
        x = np.linspace(-2.0, 2.0, 50)
        data = Series(x, lorentzian(x, (0.0, 0.5, 1.0, 0.0)))
        fit = least_squares(
            lorentzian,
            data,
            (0.4, 0.8, 0.5, 0.1),
            bounds=[(0.2, 1.0), (0.1, 2.0), (0.0, 3.0), (-1.0, 1.0)],
        )
        assert 0.2 <= fit.params[0] <= 1.0

    def test_non_finite_model_raises(self):
        def bad(x, params):
            return np.full_like(np.asarray(x, float), np.nan)

        with pytest.raises(FitError):
            least_squares(bad, Series(np.arange(5.0), np.ones(5)), (1.0,))

    def test_underdetermined_raises(self):
        with pytest.raises(ArgumentError):
            least_squares(
                line, Series(np.array([0.0, 1.0]), np.array([0.0, 1.0])), (0.0, 1.0, 2.0)
            )

    def test_zero_direction_still_converges(self):
        # second parameter has no effect; diagonal damping keeps it solvable
        def degenerate(x, params):
            return params[0] + 0.0 * params[1] + np.asarray(x, float)

        fit = least_squares(
            degenerate, Series(np.arange(6.0), np.arange(6.0) + 2.0), (0.0, 1.0)
        )
        assert fit.converged
        assert fit.params[0] == pytest.approx(2.0, abs=1e-8)

    def test_singular_problem_reports_not_converged(self):
        def inert(x, params):
            return np.zeros_like(np.asarray(x, float)) + 0.0 * params[0]

        fit = least_squares(inert, Series(np.arange(6.0), np.ones(6)), (1.0,))
        assert not fit.converged
        assert "singular" in fit.message


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

    def test_sqrt_power_through_origin(self):
        y = sqrt_power(np.array([0.0, 4.0]), (3.0,))
        assert y[0] == 0.0
        assert y[1] == pytest.approx(6.0)
