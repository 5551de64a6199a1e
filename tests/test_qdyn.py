"""Two-level dynamics: Rabi traces, ODAR spectra, power scaling, sidebands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sawkit.errors import ArgumentError, FitError
from sawkit.numerics import Series, bessel_j
from sawkit.qdyn import (
    TwoLevelDrive,
    fit_power_scaling,
    fit_rabi,
    odar_spectrum,
    rabi_population,
    series_csv,
    sideband_spectrum,
    simulate_rabi_trace,
)


class TestRabiPopulation:
    def test_starts_at_zero(self):
        assert rabi_population(TwoLevelDrive(rabi=33.4e6), 0.0) == 0.0

    def test_pi_pulse(self):
        omega = 33.4e6
        t_pi = 1.0 / (2.0 * omega)
        assert t_pi == pytest.approx(14.97e-9, rel=1e-3)
        assert rabi_population(TwoLevelDrive(rabi=omega), t_pi) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_detuned_contrast_half(self):
        omega = 25e6
        drive = TwoLevelDrive(rabi=omega, detuning=omega)
        eff = math.hypot(omega, omega)
        peak_t = 1.0 / (2.0 * eff)
        assert rabi_population(drive, peak_t) == pytest.approx(0.5, rel=1e-12)
        t = np.linspace(0.0, 1e-6, 20001)
        p = np.array([rabi_population(drive, ti) for ti in t])
        assert p.max() <= 0.5 + 1e-12

    @given(
        rabi=st.floats(1e3, 1e9),
        detuning=st.floats(-1e9, 1e9),
        t=st.floats(0.0, 1e-5),
        tau=st.one_of(st.just(math.inf), st.floats(1e-9, 1e-3)),
    )
    @settings(max_examples=300, deadline=None)
    def test_probability_bound(self, rabi, detuning, t, tau):
        drive = TwoLevelDrive(rabi=rabi, detuning=detuning, decay_tau=tau)
        p = rabi_population(drive, t)
        assert 0.0 <= p <= 1.0

    def test_decay_approaches_half(self):
        drive = TwoLevelDrive(rabi=33.4e6, decay_tau=50e-9)
        assert rabi_population(drive, 5e-6) == pytest.approx(0.5, abs=1e-12)

    def test_maxima_spacing(self):
        # Grid commensurate with the period so every maximum is sampled
        # identically; parabolic refinement then resolves 1e-9 spacing.
        omega = 25e6
        dt = 1.0 / (400.0 * omega)
        t = np.arange(0, 4001) * dt
        p = np.array([rabi_population(TwoLevelDrive(rabi=omega), ti) for ti in t])
        maxima = []
        for i in range(1, len(p) - 1):
            if p[i] >= p[i - 1] and p[i] >= p[i + 1] and p[i] > 0.9:
                denom = p[i - 1] - 2 * p[i] + p[i + 1]
                shift = 0.5 * (p[i - 1] - p[i + 1]) / denom if denom else 0.0
                maxima.append(t[i] + shift * dt)
        assert len(maxima) >= 5
        spacings = np.diff(maxima)
        assert np.allclose(spacings, 1.0 / omega, rtol=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ArgumentError):
            rabi_population(TwoLevelDrive(rabi=1e6), -1e-9)

    def test_drive_validation(self):
        with pytest.raises(ArgumentError):
            TwoLevelDrive(rabi=-1.0)
        with pytest.raises(ArgumentError):
            TwoLevelDrive(rabi=1e6, decay_tau=0.0)


class TestSimulateRabiTrace:
    def test_matches_closed_form(self):
        t = np.linspace(0.0, 200e-9, 401)
        trace = simulate_rabi_trace(33.4e6, math.inf, t)
        expected = 0.5 * (1.0 - np.cos(2.0 * np.pi * 33.4e6 * t))
        assert np.allclose(trace.y, expected, atol=1e-14)

    def test_first_maximum_near_15ns(self):
        t = np.linspace(0.0, 200e-9, 4001)
        trace = simulate_rabi_trace(33.4e6, math.inf, t)
        first_max = t[np.argmax(trace.y[:400])]
        assert first_max == pytest.approx(14.97e-9, rel=0.01)

    def test_seed_reproducible(self):
        t = np.linspace(0.0, 200e-9, 401)
        a = simulate_rabi_trace(33.4e6, 150e-9, t, noise_sigma=0.02, seed=4)
        b = simulate_rabi_trace(33.4e6, 150e-9, t, noise_sigma=0.02, seed=4)
        assert np.array_equal(a.y, b.y)

    def test_noise_needs_seed(self):
        t = np.linspace(0.0, 200e-9, 401)
        with pytest.raises(ArgumentError):
            simulate_rabi_trace(33.4e6, 150e-9, t, noise_sigma=0.02)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_noise_seed_must_be_nonnegative_integer(self, seed):
        t = np.linspace(0.0, 200e-9, 401)
        with pytest.raises(ArgumentError, match="seed must be a nonnegative integer"):
            simulate_rabi_trace(33.4e6, 150e-9, t, noise_sigma=0.02, seed=seed)

    def test_empty_grid(self):
        with pytest.raises(ArgumentError):
            simulate_rabi_trace(33.4e6, 150e-9, np.array([]))

    @pytest.mark.parametrize("sigma", [-1.0, -1e-12, math.inf, math.nan])
    def test_noise_must_be_nonnegative_and_finite(self, sigma):
        # a negative scale used to give a silently noiseless trace
        t = np.linspace(0.0, 200e-9, 401)
        with pytest.raises(ArgumentError, match="noise_sigma must be nonnegative and finite"):
            simulate_rabi_trace(33.4e6, 150e-9, t, noise_sigma=sigma, seed=1)


class TestFitRabi:
    def test_noiseless_recovery(self):
        t = np.linspace(0.0, 400e-9, 1601)
        trace = simulate_rabi_trace(33.4e6, 150e-9, t)
        fit = fit_rabi(trace)
        assert fit.rabi == pytest.approx(33.4e6, rel=1e-6)
        assert fit.decay_tau == pytest.approx(150e-9, rel=1e-6)

    def test_noisy_spec_example(self):
        t = np.linspace(0.0, 600e-9, 2401)
        trace = simulate_rabi_trace(33.4e6, 150e-9, t, noise_sigma=0.02, seed=21)
        fit = fit_rabi(trace)
        assert fit.rabi == pytest.approx(33.4e6, rel=0.02)

    def test_frozen_regression(self):
        t = np.linspace(0.0, 1.5e-6, 6001)
        trace = simulate_rabi_trace(33.4e6, 400e-9, t, noise_sigma=0.02, seed=7)
        fit = fit_rabi(trace)
        assert fit.rabi == pytest.approx(33.39877e6, rel=1e-4)
        assert fit.decay_tau == pytest.approx(397.17e-9, rel=1e-3)

    def test_constant_trace_rejected(self):
        t = np.linspace(0.0, 400e-9, 801)
        with pytest.raises(FitError):
            fit_rabi(Series(t, np.full(t.size, 0.5)))

    def test_seeded_family(self):
        rng = np.random.default_rng(31415)
        t = np.linspace(0.0, 1.5e-6, 6001)
        for _ in range(8):
            omega = rng.uniform(5e6, 100e6)
            tau = rng.uniform(50e-9, 500e-9)
            seed = int(rng.integers(0, 2**31))
            trace = simulate_rabi_trace(omega, tau, t, noise_sigma=0.02, seed=seed)
            fit = fit_rabi(trace)
            assert fit.rabi == pytest.approx(omega, rel=0.02)
            assert fit.decay_tau == pytest.approx(tau, rel=0.02)


class TestOdarSpectrum:
    def test_peak_at_spin_frequency(self):
        f = np.linspace(3.73e9, 3.93e9, 2001)
        spec = odar_spectrum(25e6, 3.83e9, 20e-9, f)
        assert f[np.argmax(spec.y)] == pytest.approx(3.83e9, abs=f[1] - f[0])

    def test_peak_height_exact(self):
        omega, t_p = 25e6, 20e-9
        f = np.linspace(3.63e9, 4.03e9, 4001)  # grid contains 3.83 GHz exactly
        spec = odar_spectrum(omega, 3.83e9, t_p, f)
        expected = math.sin(math.pi * omega * t_p) ** 2
        assert spec.y.max() == pytest.approx(expected, rel=1e-12)

    def test_symmetric_about_spin(self):
        f_spin = 3.83e9
        offsets = np.linspace(1e6, 150e6, 64)
        left = odar_spectrum(25e6, f_spin, 20e-9, f_spin - offsets[::-1])
        right = odar_spectrum(25e6, f_spin, 20e-9, f_spin + offsets)
        assert np.allclose(left.y[::-1], right.y, rtol=1e-12)

    def test_fwhm_regression(self):
        f = np.linspace(3.73e9, 3.93e9, 200001)
        spec = odar_spectrum(25e6, 3.83e9, 20e-9, f)
        half = spec.y.max() / 2.0
        above = f[spec.y >= half]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(39934267.76, rel=1e-3)

    def test_detuned_amplitude_factor(self):
        omega = 25e6
        delta = 40e6
        eff = math.hypot(omega, delta)
        # Sample the detuned oscillation at its own peak time.
        t_peak = 1.0 / (2.0 * eff)
        spec = odar_spectrum(omega, 3.83e9, t_peak, np.array([3.83e9, 3.83e9 + delta]))
        assert spec.y[1] == pytest.approx(omega**2 / eff**2, rel=1e-12)


class TestFitPowerScaling:
    def test_exact_law(self):
        c = 52935432.63
        points = [(p, c * math.sqrt(10.0 ** (p / 10.0))) for p in (-10.0, -4.0, 0.0, 3.0)]
        fit = fit_power_scaling(points)
        assert fit.slope_hz_per_sqrt_mw == pytest.approx(c, rel=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_paper_anchor(self):
        c_true = 33.4e6 / math.sqrt(10.0 ** (-0.4))
        fit = fit_power_scaling(
            [(-4.0, 33.4e6), (2.0, 33.4e6 * 10.0 ** 0.3)]
        )
        assert fit.slope_hz_per_sqrt_mw == pytest.approx(c_true, rel=1e-12)
        assert fit.slope_hz_per_sqrt_mw == pytest.approx(52935432.63, rel=1e-6)
        assert fit.slope_hz_per_sqrt_mw == pytest.approx(52.9e6, rel=1e-3)

    def test_six_db_doubles(self):
        fit = fit_power_scaling(
            [(-4.0, 33.4e6), (2.0, 33.4e6 * 10.0 ** 0.3)]
        )
        c = fit.slope_hz_per_sqrt_mw
        predict = lambda dbm: c * math.sqrt(10.0 ** (dbm / 10.0))
        assert predict(2.0) / predict(-4.0) == pytest.approx(10.0 ** 0.3, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ArgumentError):
            fit_power_scaling([(-4.0, 33.4e6)])

    def test_noisy_slope(self):
        c = 52935432.63
        rng = np.random.default_rng(17)
        points = []
        for p in np.linspace(-10.0, 6.0, 9):
            omega = c * math.sqrt(10.0 ** (p / 10.0)) * (1.0 + rng.normal(scale=0.02))
            points.append((float(p), float(omega)))
        fit = fit_power_scaling(points)
        assert fit.slope_hz_per_sqrt_mw == pytest.approx(c, rel=0.02)
        assert fit.residual > 0.0


class TestSidebandSpectrum:
    def test_carrier_only_at_zero_index(self):
        f = np.linspace(-5e9, 5e9, 10001)
        spec = sideband_spectrum(0.0, 1e9, 0.0, 1e8, 3, f)
        hw = 1e8 / 2.0
        expected = hw**2 / (f**2 + hw**2)
        assert np.allclose(spec.y, expected, rtol=1e-12)

    def test_first_sideband_ratio(self):
        f = np.linspace(-4e9, 4e9, 800001)
        spec = sideband_spectrum(0.0, 1e9, 0.5, 1e6, 3, f)
        y = spec.y
        carrier = y[np.argmin(np.abs(f))]
        upper = y[np.argmin(np.abs(f - 1e9))]
        assert upper / carrier == pytest.approx(0.06664278519532364, rel=1e-3)

    @given(beta=st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_weight_deficit_small(self, beta):
        total = bessel_j(0, beta) ** 2 + 2.0 * sum(
            bessel_j(k, beta) ** 2 for k in range(1, 11)
        )
        assert total <= 1.0 + 1e-12
        assert 1.0 - total < 1e-6

    def test_double_lorentzian_closed_loop(self):
        from sawkit.specanalysis import fit_lorentzian

        mod = 1.0e9
        f = np.linspace(0.4e9, 2.6e9, 16001)
        spec = sideband_spectrum(0.0, mod, 1.2, 6e7, 3, f)
        # one Lorentzian fit each for the k=1 and k=2 upper sidebands
        first = fit_lorentzian(spec, (0.6e9, 1.4e9))
        second = fit_lorentzian(spec, (1.6e9, 2.4e9))
        assert second.params[0] - first.params[0] == pytest.approx(mod, rel=1e-3)

    @pytest.mark.parametrize("linewidth", [1e300, 2.7e154, 1e-300])
    def test_linewidth_squared_must_be_a_positive_float(self, linewidth):
        # hw² overflowed (every sample NaN) or underflowed (NaN at the line centre)
        f = np.linspace(-1e9, 1e9, 64)
        with pytest.raises(ArgumentError, match="squares out of the float range"):
            sideband_spectrum(0.0, 1e8, 0.5, linewidth, 3, f)

    def test_widest_finite_linewidth_is_flat(self):
        spec = sideband_spectrum(0.0, 1e8, 0.0, 2.6e154, 3, np.linspace(-1e9, 1e9, 64))
        assert np.all(spec.y == 1.0)

    def test_orders_capped(self):
        f = np.linspace(-1e9, 1e9, 64)
        with pytest.raises(ArgumentError):
            sideband_spectrum(0.0, 1e8, 0.5, 1e6, 11, f)


@pytest.mark.parametrize("grid", [[], [3.83e9]], ids=["empty", "one_point"])
@pytest.mark.parametrize(
    "spectrum",
    [lambda f: odar_spectrum(25e6, 3.83e9, 20e-9, f),
     lambda f: sideband_spectrum(3.83e9, 1e8, 0.5, 1e6, 3, f)],
    ids=["odar", "sidebands"],
)
def test_spectrum_needs_two_grid_points(spectrum, grid):
    # the Series of the result rejects the grid; neither function checks it twice
    with pytest.raises(ArgumentError, match="a series needs at least two samples"):
        spectrum(np.array(grid))


class TestSeriesCsvAndTypes:
    def test_series_csv_layout(self):
        series = Series(np.array([0.0, 1.5e-9]), np.array([0.25, 0.75]))
        lines = series_csv(series, "t_s", "population").decode().strip().splitlines()
        assert lines[0] == "t_s,population"
        t, p = lines[2].split(",")
        assert float(t) == 1.5e-9
        assert float(p) == 0.75
