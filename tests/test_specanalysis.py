"""Cavity characterization: peaks, Lorentzian fits, FSR, and the Q budget."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sawkit import specanalysis
from sawkit.errors import ArgumentError, FitError, InconsistencyError
from sawkit.ingest import NetworkSweep, parse_touchstone, write_touchstone
from sawkit.numerics import FitResult, Series, db_convert
from sawkit.specanalysis import (
    CavityGeometry,
    CavityReport,
    _prominent_peaks,
    cavity_report,
    combine_q,
    estimate_fsr,
    find_peaks,
    finesse,
    fit_lorentzian,
    mirror_reflectivity,
    penetration_depth,
    phase_velocity,
    q_internal_from_reflection,
    q_mirror,
    q_propagation,
    report_csv,
    report_summary,
)
from sawkit.timedomain import LossModel, synthesize_echo_network

GEOM = CavityGeometry(d=50e-6, lambda0=1.7e-6, n_mirror=40, v_g=6161.0)


def lorentz(f, f0, fwhm, amp, offset=0.0):
    hw = fwhm / 2.0
    return offset + amp * hw**2 / ((f - f0) ** 2 + hw**2)


def comb_trace(n=8001, band=(3.6e9, 4.0e9), fsr=52.6e6, q=2100.0, seed=3):
    """Lorentzian mode comb around 3.81 GHz with randomized amplitudes."""
    freqs = np.linspace(band[0], band[1], n)
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    centers = []
    for k in range(-4, 4):
        f0 = 3.81e9 + k * fsr
        if f0 - band[0] < 2e7 or band[1] - f0 < 2e7:
            continue
        amp = 0.6 + 0.4 * rng.random()
        y += lorentz(freqs, f0, f0 / q, amp)
        centers.append(f0)
    return freqs, y, centers


class TestScalarFormulas:
    def test_penetration_depth_reference_device(self):
        l_p = penetration_depth(52.6e6, 6161.0, 50e-6)
        assert l_p == pytest.approx(4.282319391634980e-6, rel=1e-12)
        assert l_p == pytest.approx(4.3e-6, rel=0.03)

    def test_penetration_depth_zero_when_cavity_is_all_idt(self):
        d = 50e-6
        assert penetration_depth(6161.0 / (2 * d), 6161.0, d) == pytest.approx(0.0, abs=1e-20)

    def test_penetration_depth_inconsistent_geometry(self):
        with pytest.raises(InconsistencyError):
            penetration_depth(100e6, 6161.0, 50e-6)

    @given(
        d=st.floats(1e-6, 1e-3),
        v_g=st.floats(100.0, 2e4),
        l_p=st.floats(1e-8, 1e-4),
    )
    @settings(max_examples=200, deadline=None)
    def test_penetration_depth_inverts_fsr(self, d, v_g, l_p):
        fsr = v_g / (2.0 * (d + 2.0 * l_p))
        assert penetration_depth(fsr, v_g, d) == pytest.approx(l_p, rel=1e-12)

    def test_mirror_reflectivity_values(self):
        assert mirror_reflectivity(4.28e-6, 1.7e-6) == pytest.approx(
            0.09929906542056076, rel=1e-12
        )
        assert mirror_reflectivity(8.5e-6, 1.7e-6) == pytest.approx(0.05, rel=1e-12)

    def test_mirror_reflectivity_unity_boundary(self):
        lam = 1.7e-6
        with pytest.raises(InconsistencyError):
            mirror_reflectivity(lam / 4.0, lam)

    def test_mirror_reflectivity_needs_positive_depth(self):
        with pytest.raises(ArgumentError):
            mirror_reflectivity(0.0, 1.7e-6)

    def test_q_mirror_reference_bracket(self):
        assert q_mirror(GEOM, 4.3e-6, 0.099) == pytest.approx(138115.00925864588, rel=1e-12)
        assert q_mirror(GEOM, 4.3e-6, 0.101) == pytest.approx(162070.75923688203, rel=1e-12)
        assert q_mirror(GEOM, 4.3e-6, 0.101) == pytest.approx(1.61e5, rel=0.15)

    def test_q_mirror_monotone_in_reflectivity(self):
        qs = [q_mirror(GEOM, 4.3e-6, r) for r in np.linspace(0.01, 0.3, 12)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_q_mirror_tanh_saturation(self):
        # The mirror factor tanh(N r_s) is what saturates: doubling N deep
        # in saturation moves it by far less than 0.1%.
        assert abs(math.tanh(12.0) - math.tanh(6.0)) / math.tanh(6.0) < 1e-3

    def test_q_mirror_finite_through_guarded_domain(self):
        # Just under the guard the plain 1 - tanh subtraction would round
        # to zero; the stable form must stay finite and monotone.
        g = CavityGeometry(d=50e-6, lambda0=1.7e-6, n_mirror=130, v_g=6161.0)
        q_hi = q_mirror(g, 4.3e-6, 0.15)  # N r_s = 19.5
        q_lo = q_mirror(g, 4.3e-6, 0.10)
        assert math.isfinite(q_hi)
        assert q_hi > q_lo

    def test_q_mirror_saturation_guard(self):
        with pytest.raises(ArgumentError):
            q_mirror(GEOM, 4.3e-6, 0.5)

    def test_q_propagation_values(self):
        assert q_propagation(3.81e9, 6161.0, 3.2) == pytest.approx(
            2636.6833246111705, rel=1e-12
        )
        assert q_propagation(3.81e9, 6161.0, 3.2) == pytest.approx(2638.0, rel=0.01)
        assert q_propagation(3.81e9, 6161.0, 35.2) == pytest.approx(
            239.69848405556095, rel=1e-12
        )
        assert q_propagation(3.81e9, 6161.0, 35.2) == pytest.approx(239.7, rel=0.01)

    def test_q_propagation_inverse_in_alpha(self):
        assert q_propagation(3.81e9, 6161.0, 6.4) == pytest.approx(
            q_propagation(3.81e9, 6161.0, 3.2) / 2.0, rel=1e-14
        )

    def test_q_propagation_zero_alpha(self):
        with pytest.raises(ArgumentError):
            q_propagation(3.81e9, 6161.0, 0.0)

    def test_combine_q_reference(self):
        assert combine_q([2638.0, 1.61e5]) == pytest.approx(2595.4729341595475, rel=1e-12)
        assert round(combine_q([2638.0, 1.61e5])) == 2595

    def test_combine_q_identities(self):
        assert combine_q([1234.5]) == pytest.approx(1234.5, rel=1e-15)
        assert combine_q([800.0, 800.0]) == pytest.approx(400.0, rel=1e-15)
        with pytest.raises(ArgumentError):
            combine_q([])
        with pytest.raises(ArgumentError):
            combine_q([100.0, -5.0])

    @given(st.lists(st.floats(1.0, 1e9), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_combine_q_below_min(self, qs):
        assert combine_q(qs) <= min(qs) * (1 + 1e-12)

    def test_q_internal_reference(self):
        assert q_internal_from_reflection(2100.0, 0.714) == pytest.approx(
            2450.4084014002333, rel=1e-12
        )
        assert abs(q_internal_from_reflection(2100.0, 0.714) - 2450.0) < 1.0

    def test_q_internal_boundaries(self):
        assert q_internal_from_reflection(2100.0, 1.0) == pytest.approx(2100.0)
        assert q_internal_from_reflection(2100.0, 0.0) == pytest.approx(4200.0)
        assert q_internal_from_reflection(2100.0, 0.0, "overcoupled") == 4200.0
        assert q_internal_from_reflection(2100.0, 1.0, "overcoupled") == math.inf

    def test_q_internal_overcoupled_branch(self):
        under = q_internal_from_reflection(2100.0, 0.714, "undercoupled")
        over = q_internal_from_reflection(2100.0, 0.714, "overcoupled")
        beta = (1.0 + 0.714) / (1.0 - 0.714)
        assert over == pytest.approx((1.0 + beta) * 2100.0, rel=1e-12)
        assert over > under
        with pytest.raises(ArgumentError):
            q_internal_from_reflection(2100.0, 0.5, "sideways")

    def test_finesse_reference(self):
        f = finesse(2100.0, 1.7e-6, 50e-6, 4.3e-6)
        assert f == pytest.approx(30.460750853242324, rel=1e-12)
        assert f == pytest.approx(30.5, rel=0.01)

    def test_finesse_identities(self):
        d, l_p = 50e-6, 4.3e-6
        lam = 2.0 * (d + 2.0 * l_p)
        assert finesse(2100.0, lam, d, l_p) == pytest.approx(2100.0, rel=1e-15)
        assert finesse(4200.0, 1.7e-6, d, l_p) == pytest.approx(
            2.0 * finesse(2100.0, 1.7e-6, d, l_p), rel=1e-15
        )

    def test_phase_velocity(self):
        assert phase_velocity(3.81e9, 1.7e-6) == 6477.0
        assert phase_velocity(1.0, 1.0) == 1.0
        assert phase_velocity(3.83e9, 1.1e-6) == pytest.approx(4213.0, rel=1e-12)

    def test_geometry_validation(self):
        with pytest.raises(ArgumentError):
            CavityGeometry(d=-1e-6, lambda0=1.7e-6, n_mirror=40, v_g=6161.0)
        with pytest.raises(ArgumentError):
            CavityGeometry(d=50e-6, lambda0=1.7e-6, n_mirror=0, v_g=6161.0)


class TestEstimateFsr:
    def test_reference_triplet(self):
        fsr = estimate_fsr([4.0e9, 4.0526e9, 4.1052e9])
        assert fsr == pytest.approx(52.6e6, rel=1e-9)

    def test_two_peaks(self):
        assert estimate_fsr([1e9, 1.3e9]) == pytest.approx(0.3e9, rel=1e-12)

    def test_median_robust_to_outlier(self):
        peaks = [4.0e9 + k * 52.6e6 for k in range(6)]
        peaks.append(peaks[-1] + 80e6)
        assert estimate_fsr(peaks) == pytest.approx(52.6e6, rel=1e-9)

    def test_needs_two(self):
        with pytest.raises(ArgumentError):
            estimate_fsr([4.0e9])


class TestFindPeaks:
    def test_monotone_trace_empty(self):
        x = np.linspace(1e9, 2e9, 101)
        assert find_peaks(Series(x, np.linspace(0, 1, 101)), 0.01, 1e6) == []

    def test_comb_locations(self):
        freqs, y, centers = comb_trace()
        step = freqs[1] - freqs[0]
        found = find_peaks(Series(freqs, y), 0.1, 5 * step)
        assert len(found) == len(centers)
        for f, c in zip(found, centers):
            assert abs(f - c) <= step / 2

    def test_spacing_keeps_taller(self):
        x = np.linspace(0.0, 100.0, 201)
        y = lorentz(x, 40.0, 4.0, 1.0) + lorentz(x, 44.0, 4.0, 0.5)
        found = find_peaks(Series(x, y), 0.05, 10.0)
        assert len(found) == 1
        assert abs(found[0] - 40.0) < 1.0

    def test_equal_heights_keep_lower_frequency(self):
        x = np.linspace(0.0, 100.0, 401)
        y = lorentz(x, 40.0, 2.0, 1.0) + lorentz(x, 44.0, 2.0, 1.0)
        found = find_peaks(Series(x, y), 0.05, 10.0)
        assert len(found) == 1
        assert found[0] < 42.0

    def test_too_short(self):
        with pytest.raises(ArgumentError):
            find_peaks(Series(np.array([1.0, 2.0]), np.array([0.0, 1.0])), 0.1, 0.5)

    def test_non_finite_trace(self):
        x = np.linspace(0.0, 10.0, 11)
        for bad in (np.nan, np.inf):
            y = np.sin(x)
            y[4] = bad
            with pytest.raises(ArgumentError, match="finite"):
                find_peaks(Series(x, y), 0.1, 1.0)

    def test_thinning_matches_brute_force(self):
        # rounded noise: hundreds of candidates, many of them equal in height
        rng = np.random.default_rng(11)
        x = np.linspace(3.5e9, 4.5e9, 4001)
        y = np.round(rng.normal(size=x.size), 2)
        spacing = 5 * (x[1] - x[0])
        kept = []
        for i in sorted(_prominent_peaks(y, 0.0), key=lambda i: (-y[i], x[i])):
            if all(abs(x[i] - x[j]) >= spacing for j in kept):
                kept.append(i)
        expected = sorted(float(x[i]) for i in kept)
        assert len(expected) > 500
        assert find_peaks(Series(x, y), 0.0, spacing) == expected


@st.composite
def traces_and_prominences(draw):
    """A trace of 3-500 samples and a minimum prominence of 0 or more.

    Half the traces are small integers, whose ties make flat runs, with
    extra copies of the end values so flat runs also touch both edges.
    """
    if draw(st.booleans()):
        n = draw(st.integers(3, 500))
        y = draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
        p = draw(st.floats(0.0, 1.2)) * float(np.ptp(y))
    else:
        lead, trail = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        n = draw(st.integers(max(1, 3 - lead - trail), 500 - lead - trail))
        body = draw(arrays(np.float64, n, elements=st.integers(0, 3).map(float)))
        y = np.concatenate([np.full(lead, body[0]), body, np.full(trail, body[-1])])
        # whole numbers hit prominence == p exactly, which must be kept
        p = float(draw(st.integers(0, 4)))
    return y, p


class TestProminentPeaksOracle:
    @given(traces_and_prominences())
    @example((np.array([1.0, 1.0, 0.0, 2.0, 2.0, 1.0, 3.0, 3.0]), 1.0))
    @example((np.array([0.0, 2.0, 2.0, 2.0, 0.0, 2.0, 0.0]), 0.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_find_peaks(self, case):
        import scipy.signal

        y, p = case
        expected = scipy.signal.find_peaks(y, prominence=p)[0]
        np.testing.assert_array_equal(_prominent_peaks(y, p), expected)


class TestFitLorentzian:
    def test_reference_mode(self):
        f0, q = 4.08e9, 2100.0
        fwhm = f0 / q
        x = np.linspace(f0 - 12 * fwhm, f0 + 12 * fwhm, 601)
        fit = fit_lorentzian(Series(x, lorentz(x, f0, fwhm, 0.8, 0.05)), (x[0], x[-1]))
        f0_fit, fwhm_fit, amplitude, offset = fit.params
        assert fit.converged
        assert f0_fit / fwhm_fit == pytest.approx(q, rel=1e-4)
        assert f0_fit == pytest.approx(f0, rel=1e-9)
        assert amplitude == pytest.approx(0.8, rel=1e-6)
        assert offset == pytest.approx(0.05, abs=1e-6)

    @pytest.mark.parametrize(
        "f0,q",
        [(5e7, 100.0), (5e8, 2100.0), (5e9, 30000.0), (4.08e9, 210.0), (1e8, 21000.0)],
    )
    def test_recovery_across_decades(self, f0, q):
        fwhm = f0 / q
        x = np.linspace(f0 - 10 * fwhm, f0 + 10 * fwhm, 501)
        f0_fit, fwhm_fit, amplitude, _ = fit_lorentzian(
            Series(x, lorentz(x, f0, fwhm, 1.0, 0.0)), (x[0], x[-1])
        ).params
        assert f0_fit == pytest.approx(f0, rel=1e-6)
        assert fwhm_fit == pytest.approx(fwhm, rel=1e-6)
        assert amplitude == pytest.approx(1.0, rel=1e-6)

    def test_flat_trace_degenerate(self):
        x = np.linspace(1e9, 1.1e9, 101)
        with pytest.raises(FitError):
            fit_lorentzian(Series(x, np.full(101, 0.3)), (x[0], x[-1]))

    def test_noisy_median_q(self):
        f0, q = 4.08e9, 2100.0
        fwhm = f0 / q
        x = np.linspace(f0 - 10 * fwhm, f0 + 10 * fwhm, 401)
        clean = lorentz(x, f0, fwhm, 1.0, 0.0)
        rng = np.random.default_rng(11)
        qs = []
        for _ in range(50):
            y = clean + rng.normal(scale=0.01, size=x.size)
            f0_fit, fwhm_fit = fit_lorentzian(Series(x, y), (x[0], x[-1])).params[:2]
            qs.append(f0_fit / fwhm_fit)
        assert np.median(qs) == pytest.approx(q, rel=0.02)

    def test_window_too_small(self):
        x = np.linspace(1e9, 2e9, 101)
        y = lorentz(x, 1.5e9, 1e8, 1.0)
        with pytest.raises(ArgumentError):
            fit_lorentzian(Series(x, y), (1.5e9, 1.5e9 + 1e7))

    def test_window_respected(self):
        x = np.linspace(0.0, 200.0, 2001)
        y = lorentz(x, 60.0, 4.0, 1.0) + lorentz(x, 140.0, 4.0, 0.7)
        fit = fit_lorentzian(Series(x, y), (100.0, 200.0))
        assert abs(fit.params[0] - 140.0) < 0.1


def make_sweep(pair, y, freqs):
    return NetworkSweep(freqs=freqs, s={pair: y.astype(complex)})


def paper_cavity_sweep(r=0.6, alpha_db_mm=2.0, seed=3):
    """The paper cavity at 4,001 points with 1e-4 noise, as the benchmark builds it.

    r=0.95, alpha_db_mm=0.5, seed=4 is the benchmark's high-finesse cavity.
    """
    model = LossModel(
        t=0.3, r=r, alpha=db_convert(alpha_db_mm, "db_per_mm_to_per_m_power"), length=58.565e-6
    )
    return synthesize_echo_network(model, 6161.0, (2.8e9, 4.8e9), 4001, noise_sigma=1e-4, seed=seed)


def old_report_csv(report):
    """report_csv's former per-row f-string writer, kept as the byte reference."""
    lines = ["f0_hz,fwhm_hz,q_loaded,q_internal\n"]
    for f0, ql, qi in zip(report.f0.tolist(), report.q_loaded.tolist(), report.q_internal.tolist()):
        cells = [f"{f0:.17g}", f"{f0 / ql:.17g}", f"{ql:.17g}", "" if math.isnan(qi) else f"{qi:.17g}"]
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode()


def table_report(f0, fwhm, q_internal):
    """A CavityReport holding the given mode columns beside valid scalars."""
    f0, fwhm, q_internal = (np.array(c, dtype=float) for c in (f0, fwhm, q_internal))
    return CavityReport(f0=f0, fwhm=fwhm, q_internal=q_internal, mode_fits=[], rejected=[],
                        fsr=52.6e6, l_p=4.3e-6, r_s=0.1, q_mirror=1e4, finesse=10.0)


def reference_lorentzian_start(trace, window):
    """One window's Lorentzian fit start as it was taken window by window, kept as the reference.

    A boolean mask over the whole trace selects the samples; the median,
    argmax and half-height walk run on that one window.
    """
    lo, hi = window
    if not (lo < hi):
        raise ArgumentError("window must satisfy lo < hi")
    mask = (trace.x >= lo) & (trace.x <= hi)
    if int(mask.sum()) < 8:
        raise ArgumentError(f"window contains {int(mask.sum())} samples, needs at least 8")
    y = np.abs(trace.y) if np.iscomplexobj(trace.y) else np.asarray(trace.y, float)
    x, y = trace.x[mask], y[mask]
    scale = max(abs(float(np.median(y))), float(np.ptp(y)), 1.0)
    if np.ptp(y) <= 1e-14 * scale:
        raise FitError("degenerate fit: trace is flat in the window")
    i_max = int(np.argmax(y))
    off0 = float(np.median(y))
    amp0 = float(y[i_max] - off0)
    level = off0 + amp0 / 2.0
    j = k = i_max
    while j > 0 and y[j] > level:
        j -= 1
    while k < y.size - 1 and y[k] > level:
        k += 1
    width = x[k] - x[j]
    if width <= 0:
        width = (x[-1] - x[0]) / 6.0
    return x, y, window, (float(x[i_max]), width, amp0, off0)


class TestLorentzianStarts:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("cavity", ["paper", "high_finesse"])
    def test_batched_starts_are_the_per_window_starts(self, seed, cavity, monkeypatch):
        # the benchmark's cavity_fits fixtures for this seed
        if cavity == "paper":
            sweep = paper_cavity_sweep(seed=3 * seed)
        else:
            sweep = paper_cavity_sweep(r=0.95, alpha_db_mm=0.5, seed=3 * seed + 1)
        x = sweep.freqs
        step = float(np.median(np.diff(x)))
        y = np.abs(sweep.pair((2, 1)))
        # a flat stretch, for the degenerate windows
        y[2000:2100] = 0.25
        trace = Series(x, y)
        windows = []
        for prominence, spacing in ((0.1 * float(np.ptp(y)), 5 * step), (0.0, 5e6)):
            raw = find_peaks(trace, prominence, spacing)
            spacing = float(np.median(np.diff(raw)))
            windows += specanalysis._peak_windows(x, step, raw, spacing).tolist()
        windows += [
            (x[0], x[0] + 20 * step), (x[-1] - 9.5 * step, x[-1]), (x[-1] - 7 * step, x[-1] + 1e6),
            (x[100], x[103]), (x[100], x[106] + step / 2), (x[-1] + 1.0, x[-1] + 1e6),
            (x[2010], x[2080]), (x[2050], x[2099]), (x[2090], x[2200]),
        ]
        # what least_squares_stack receives from each single-window fit
        received = []
        stack = specanalysis.numerics.least_squares_stack

        def recorded(model, xs, ys, init, lower, upper, **kwargs):
            received.append((xs, ys, init, lower, upper))
            return stack(model, xs, ys, init, lower, upper, **kwargs)

        monkeypatch.setattr(specanalysis.numerics, "least_squares_stack", recorded)
        singles = []
        errors = set()
        for window in windows:
            received.clear()
            (outcome,) = specanalysis._fit_windows(trace, [window])
            singles.append(outcome)
            try:
                ref_x, ref_y, _, ref_init = reference_lorentzian_start(trace, window)
            except (ArgumentError, FitError) as exc:
                assert type(outcome) is type(exc) and str(outcome) == str(exc)
                assert received == []
                errors.add(str(exc).split(" samples")[0])
                continue
            [((got_x,), (got_y,), init, lower, upper)] = received
            assert got_x.tobytes() == ref_x.tobytes() and got_y.tobytes() == ref_y.tobytes()
            assert init.tobytes() == np.array([ref_init], dtype=float).tobytes()
            assert (lower[0, 0], upper[0, 0]) == tuple(window)
        assert errors == {
            "window contains 4", "window contains 7", "window contains 0",
            "degenerate fit: trace is flat in the window",
        }
        # all windows in one call: stack rows in sample-count blocks, outcomes in window order
        batched = specanalysis._fit_windows(trace, windows)
        assert len(batched) == len(windows)
        for single, outcome in zip(singles, batched):
            assert type(outcome) is type(single) and str(outcome) == str(single)
            if isinstance(single, FitResult):
                assert outcome.params.tobytes() == single.params.tobytes()
        for window in ((x[100], x[100]), (x[101], x[100])):
            with pytest.raises(ArgumentError, match="^window must satisfy lo < hi$"):
                reference_lorentzian_start(trace, window)
            with pytest.raises(ArgumentError, match="^window must satisfy lo < hi$"):
                specanalysis._fit_windows(trace, [window])


class TestCavityReport:
    def test_transmission_comb(self):
        freqs, y, centers = comb_trace()
        report = cavity_report(make_sweep((2, 1), y, freqs), GEOM, alpha_db_per_mm=3.2)
        assert report.fsr == pytest.approx(52.6e6, rel=1e-4)
        assert report.l_p == pytest.approx(
            penetration_depth(report.fsr, GEOM.v_g, GEOM.d), rel=1e-14
        )
        assert report.l_p == pytest.approx(4.28232e-6, rel=1e-3)
        assert report.r_s == pytest.approx(
            mirror_reflectivity(report.l_p, GEOM.lambda0), rel=1e-14
        )
        assert report.q_mirror == pytest.approx(
            q_mirror(GEOM, report.l_p, report.r_s), rel=1e-14
        )
        assert report.q_propagation == pytest.approx(2636.68, rel=1e-3)
        assert len(report.q_loaded) == len(centers)
        for q in report.q_loaded:
            assert q == pytest.approx(2100.0, rel=0.01)
        q_med = float(np.median(report.q_loaded))
        assert report.finesse == pytest.approx(
            finesse(q_med, GEOM.lambda0, GEOM.d, report.l_p), rel=1e-14
        )
        assert np.isnan(report.q_internal).all() and report.q_internal.size == len(centers)

    def test_reflection_comb_internal_q(self):
        freqs = np.linspace(3.6e9, 4.0e9, 8001)
        s11 = np.ones_like(freqs)
        centers = []
        for k in range(-3, 4):
            f0 = 3.81e9 + k * 52.6e6
            s11 -= 0.286 * lorentz(freqs, f0, f0 / 2100.0, 1.0)
            centers.append(f0)
        report = cavity_report(make_sweep((1, 1), s11, freqs), GEOM)
        assert report.fsr == pytest.approx(52.6e6, rel=1e-4)
        assert len(report.q_internal) == len(centers)
        mid = len(centers) // 2
        assert report.q_internal[mid] == pytest.approx(2450.0, rel=0.01)
        assert np.all(report.q_internal >= report.q_loaded)

    def test_no_alpha_leaves_q_propagation_empty(self):
        freqs, y, _ = comb_trace()
        report = cavity_report(make_sweep((2, 1), y, freqs), GEOM)
        assert report.q_propagation is None

    def test_single_peak_mentions_fsr(self):
        freqs = np.linspace(3.7e9, 3.9e9, 2001)
        y = lorentz(freqs, 3.81e9, 1.8e6, 1.0)
        with pytest.raises(FitError, match="spectral range"):
            cavity_report(make_sweep((2, 1), y, freqs), GEOM)

    def test_unfit_candidates_are_rejected(self):
        # prominence 0 keeps noise maxima as candidates; two of them do not fit
        sweep = paper_cavity_sweep()
        report = cavity_report(sweep, GEOM, min_prominence=0.0, min_spacing=5e6)
        assert [f for f, _ in report.rejected] == [3.761e9, 3.8135e9]
        for _, reason in report.rejected:
            assert reason == "lorentzian fit did not converge: max iterations reached"
        assert len(report.q_loaded) == 47
        assert report.fsr == pytest.approx(52.6e6, rel=1e-3)
        assert report.l_p == pytest.approx(4.3e-6, rel=0.03)
        assert cavity_report(sweep, GEOM).rejected == []

    @pytest.mark.parametrize("device", [dict(), dict(r=0.95, alpha_db_mm=0.5, seed=4)])
    def test_batched_fits_are_the_per_mode_fits(self, device, monkeypatch):
        sweep = paper_cavity_sweep(**device)
        report = cavity_report(sweep, GEOM)
        trace = Series(sweep.freqs, np.abs(sweep.pair((2, 1))))
        raw = find_peaks(trace, 0.1 * float(np.ptp(trace.y)), 5 * float(np.median(np.diff(sweep.freqs))))
        step, spacing = float(np.median(np.diff(sweep.freqs))), float(np.median(np.diff(raw)))
        windows = list(specanalysis._peak_windows(sweep.freqs, step, raw, spacing))
        # record each per-mode fit_lorentzian call's result from inside the stack
        solo = []
        stack = specanalysis.numerics.least_squares_stack

        def recorded(*args, **kwargs):
            results = stack(*args, **kwargs)
            solo.extend(results)
            return results

        monkeypatch.setattr(specanalysis.numerics, "least_squares_stack", recorded)
        fits = [fit_lorentzian(trace, window) for window in windows]
        assert report.rejected == [] and len(report.mode_fits) == len(fits) == 38
        for single, fit, ref in zip(fits, report.mode_fits, solo):
            assert single is ref
            assert fit.params.tobytes() == ref.params.tobytes()
            assert fit.iterations == ref.iterations
            assert fit.message == ref.message
            assert fit.covariance.tobytes() == ref.covariance.tobytes()
        params = np.array([fit.params for fit in fits])
        assert report.f0.tobytes() == params[:, 0].tobytes()
        assert report.fwhm.tobytes() == params[:, 1].tobytes()
        assert report.q_loaded.tobytes() == (params[:, 0] / params[:, 1]).tobytes()

    def test_mode_fits_carry_diagnostics(self):
        report = cavity_report(paper_cavity_sweep(), GEOM)
        assert len(report.mode_fits) == len(report.q_loaded)
        for f0, q, fit in zip(report.f0, report.q_loaded, report.mode_fits):
            assert fit.converged and fit.message.startswith("converged")
            assert (fit.params[0], fit.params[0] / fit.params[1]) == (f0, q)
            assert fit.covariance.shape == (4, 4)
            assert 0 < fit.covariance[0, 0] < (0.01 * fit.params[1]) ** 2
        assert sum(fit.iterations for fit in report.mode_fits) == 229

    def test_touchstone_round_trip_reads_no_reflection(self):
        # the synthesized sweep has no S11; its zero-filled column is no reflection dip
        sweep = parse_touchstone(write_touchstone(paper_cavity_sweep()))
        report = cavity_report(sweep, GEOM)
        assert len(report.q_loaded) == 38 and np.isnan(report.q_internal).all()

    def test_report_csv_bytes(self):
        freqs = np.linspace(3.6e9, 4.0e9, 8001)
        s11 = np.ones_like(freqs)
        for k in range(-3, 4):
            f0 = 3.81e9 + k * 52.6e6
            s11 -= 0.286 * lorentz(freqs, f0, f0 / 2100.0, 1.0)
        with_internal = cavity_report(make_sweep((1, 1), s11, freqs), GEOM)
        without = cavity_report(paper_cavity_sweep(), GEOM)
        partial = table_report([3.8e9, 3.85e9], [3.8e9 / 2000.0, 3.85e9 / 2100.5], [math.nan, 1e17])
        for report in (with_internal, without, partial, table_report([], [], [])):
            assert report_csv(report) == old_report_csv(report)
        assert report_csv(without).splitlines()[1].endswith(b",")

    def test_fewer_than_two_fitted_modes(self, monkeypatch):
        freqs, y, centers = comb_trace()
        stack = specanalysis.numerics.least_squares_stack

        def fit_first_only(*args, **kwargs):
            first, *rest = stack(*args, **kwargs)
            failure = FitError("lorentzian fit did not converge: max iterations reached")
            return [first] + [failure] * len(rest)

        monkeypatch.setattr(specanalysis.numerics, "least_squares_stack", fit_first_only)
        with pytest.raises(FitError, match=f"^1 of {len(centers)} peaks fitted"):
            cavity_report(make_sweep((2, 1), y, freqs), GEOM)

    @pytest.mark.parametrize("shift", [-4.0e9, -3.6e9])
    def test_non_positive_frequencies_are_bad_input(self, shift):
        freqs, y, _ = comb_trace()
        with pytest.raises(ArgumentError, match="frequencies must be positive; the sweep starts at"):
            cavity_report(make_sweep((2, 1), y, freqs + shift), GEOM)

    def test_no_s_parameters(self):
        freqs = np.linspace(3.7e9, 3.9e9, 101)
        sweep = NetworkSweep(freqs=freqs, s={(1, 2): np.zeros(101, complex)})
        with pytest.raises(ArgumentError):
            cavity_report(sweep, GEOM)

    @pytest.mark.parametrize("fsr_true,q_true", [(45e6, 1600.0), (55e6, 2600.0)])
    def test_generator_recovery(self, fsr_true, q_true):
        freqs = np.linspace(3.5e9, 4.1e9, 12001)
        y = np.zeros_like(freqs)
        for k in range(-4, 5):
            f0 = 3.8e9 + k * fsr_true
            y += lorentz(freqs, f0, f0 / q_true, 0.9)
        report = cavity_report(make_sweep((2, 1), y, freqs), GEOM)
        assert report.fsr == pytest.approx(fsr_true, rel=0.01)
        l_p_true = penetration_depth(fsr_true, GEOM.v_g, GEOM.d)
        assert report.l_p == pytest.approx(l_p_true, rel=0.01)
        for q in report.q_loaded:
            assert q == pytest.approx(q_true, rel=0.01)

    def test_report_validates_internal_vs_loaded(self):
        f0 = [3.81e9, 3.86e9]
        fwhm = [3.81e9 / 2100.0, 3.86e9 / 2100.0]
        with pytest.raises(InconsistencyError, match="internal Q below loaded Q"):
            table_report(f0[:1], fwhm[:1], [2000.0])
        # a mode without an internal Q does not hide the other row's
        with pytest.raises(InconsistencyError, match="internal Q below loaded Q"):
            table_report(f0, fwhm, [math.nan, 2000.0])
        table_report(f0, fwhm, [math.nan, 2100.0])

    def test_report_csv_layout(self):
        freqs, y, centers = comb_trace()
        report = cavity_report(make_sweep((2, 1), y, freqs), GEOM)
        lines = report_csv(report).decode().strip().splitlines()
        assert lines[0] == "f0_hz,fwhm_hz,q_loaded,q_internal"
        assert len(lines) == 1 + len(centers)
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(centers[0], rel=1e-6)

    def test_report_summary_fields(self):
        freqs, y, _ = comb_trace()
        report = cavity_report(make_sweep((2, 1), y, freqs), GEOM, alpha_db_per_mm=3.2)
        text = report_summary(report)
        for key in ("fsr", "l_p", "r_s", "q_mirror", "q_propagation", "finesse"):
            assert key in text


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the Lorentzian is fitted to |S21|, not |S21|²",
)
def test_loaded_q_matches_closed_form_linewidth():
    """Each mode's f0 / Q_loaded is the Fabry–Pérot linewidth of |S21|².

    For a round-trip amplitude rho = R e^(-alpha L) the power transmission
    has FWHM 2 asin((1 - rho) / (2 sqrt(rho))) FSR / pi, FSR = v_g / (2 L).
    Checked on the noiseless paper cavity and the high-finesse one.
    """
    length, v_g = 58.565e-6, 6161.0
    fsr = v_g / (2.0 * length)
    for r, alpha_db_mm in ((0.6, 2.0), (0.95, 0.5)):
        alpha = db_convert(alpha_db_mm, "db_per_mm_to_per_m_power")
        model = LossModel(t=0.3, r=r, alpha=alpha, length=length)
        sweep = synthesize_echo_network(model, v_g, (2.8e9, 4.8e9), 4001)
        report = cavity_report(sweep, GEOM, alpha_db_per_mm=alpha_db_mm)
        rho = r * math.exp(-alpha * length)
        expected = 2.0 * math.asin((1.0 - rho) / (2.0 * math.sqrt(rho))) * fsr / math.pi
        fwhm = np.median(report.f0 / report.q_loaded)
        assert fwhm == pytest.approx(expected, rel=0.05), (r, alpha_db_mm)
