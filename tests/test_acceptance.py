"""Acceptance gate: the fourteen headline checks, one per test.

Each test prints a single PASS/FAIL line naming its criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they go.
"""

import contextlib
import math

import numpy as np
import pytest

from sawkit.numerics import SHIPPED_MODELS, bessel_j, db_convert, dft
from sawkit.specanalysis import (
    CavityGeometry,
    combine_q,
    finesse,
    mirror_reflectivity,
    penetration_depth,
    phase_velocity,
    q_internal_from_reflection,
    q_mirror,
    q_propagation,
)
from sawkit.spinphonon import (
    SIV_DEFAULTS,
    STRAIN_G30,
    STRAIN_G70,
    GaussianBeam,
    StrainTensor,
    beam_profile,
    coupling_rate,
    phonon_number,
    rabi_from_phonons,
    single_phonon_power,
    transverse_field,
)
from sawkit.timedomain import (
    LossModel,
    detect_echoes,
    fit_echo_decay,
    impulse_response,
    synthesize_echo_network,
    time_gate,
)
from sawkit.ingest import NetworkSweep
from sawkit.qdyn import fit_power_scaling, fit_rabi, odar_spectrum, simulate_rabi_trace

V_G = 6161.0
DB_MM_TO_PER_M = 1000.0 * math.log(10.0) / 10.0


@contextlib.contextmanager
def criterion(n, desc):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {n:>2}: {desc}")
        raise
    else:
        print(f"PASS  criterion {n:>2}: {desc}")


def test_criterion_01_penetration_depth():
    with criterion(1, "penetration depth 4.28 um from the 52.6 MHz mode spacing"):
        l_p = penetration_depth(52.6e6, V_G, 50e-6)
        assert l_p == pytest.approx(4.28e-6, rel=1e-3)
        assert l_p == pytest.approx(4.3e-6, rel=0.03)


def test_criterion_02_mirror_reflectivity():
    with criterion(2, "per-electrode reflectivity 0.099 from L_p and the wavelength"):
        r_s = mirror_reflectivity(4.28e-6, 1.7e-6)
        assert r_s == pytest.approx(0.099, rel=1e-2)
        assert r_s == pytest.approx(0.10, rel=0.10)


def test_criterion_03_q_propagation():
    with criterion(3, "propagation-limited Q at 3.2 and 35.2 dB/mm"):
        assert q_propagation(3.81e9, V_G, 3.2) == pytest.approx(2638.0, rel=0.01)
        assert q_propagation(3.81e9, V_G, 35.2) == pytest.approx(239.7, rel=0.01)


def test_criterion_04_q_mirror_bracket():
    with criterion(4, "mirror-limited Q brackets 1.61e5 for r_s in [0.099, 0.101]"):
        geom = CavityGeometry(d=50e-6, lambda0=1.7e-6, n_mirror=40, v_g=V_G)
        lo = q_mirror(geom, 4.3e-6, 0.099)
        hi = q_mirror(geom, 4.3e-6, 0.101)
        assert lo < hi
        assert lo == pytest.approx(1.61e5, rel=0.15)
        assert hi == pytest.approx(1.61e5, rel=0.15)


def test_criterion_05_q_budget_and_finesse():
    with criterion(5, "combined internal Q rounds to 2595; finesse 30.46"):
        assert round(combine_q([2638.0, 1.61e5])) == 2595
        f = finesse(2100.0, 1.7e-6, 50e-6, 4.3e-6)
        assert f == pytest.approx(30.46, rel=1e-3)
        assert f == pytest.approx(30.5, rel=0.01)


def test_criterion_06_internal_q_from_reflection():
    with criterion(6, "intrinsic Q 2450 +/- 1 from the 0.714 reflection dip"):
        assert abs(q_internal_from_reflection(2100.0, 0.714) - 2450.0) <= 1.0


def test_criterion_07_phase_velocity():
    with criterion(7, "phase velocity 6477 m/s exactly"):
        assert phase_velocity(3.81e9, 1.7e-6) == 6477.0


def test_criterion_08_phonon_budget():
    with criterion(8, "phonon budget: p0, n, and the sqrt(n) g Rabi span"):
        p0 = single_phonon_power(3.8e9, 20e-9)
        assert p0 == pytest.approx(1.25e-16, rel=0.01)
        assert p0 == pytest.approx(1.2533e-16, rel=0.01)
        n = phonon_number(1e-3, [-10.0, -10.0], p0)
        assert n == pytest.approx(7.98e10, rel=0.01)
        lo = rabi_from_phonons(n, 30e3)
        hi = rabi_from_phonons(n, 70e3)
        assert lo == pytest.approx(8.47e9, rel=0.02)
        assert hi == pytest.approx(19.8e9, rel=0.02)
        assert lo == pytest.approx(8.5e9, rel=0.02)
        assert hi == pytest.approx(20e9, rel=0.02)


def test_criterion_09_beam_factor():
    with criterion(9, "Gaussian beam factor 0.163 at (10 um, 70 um)"):
        beam = GaussianBeam(w0=6.8e-6, wavelength=1.1e-6)
        u = beam_profile(beam, 10e-6, 70e-6)
        assert u == pytest.approx(0.163, rel=1e-2)
        assert u == pytest.approx(0.16, rel=0.05)


def test_criterion_10_echo_closed_loop():
    with criterion(10, "echo closed loop: 100 seeded models, alpha 1%, T 2%"):
        rng = np.random.default_rng(12345)
        kept = 0
        while kept < 100:
            t = rng.uniform(0.1, 0.5)
            r = rng.uniform(0.05, 0.3)
            a_db = rng.uniform(1.0, 40.0)
            length = rng.uniform(30e-6, 130e-6)
            model = LossModel(t=t, r=r, alpha=a_db * DB_MM_TO_PER_M, length=length)
            # Condition the family on four echoes well above the leakage
            # floor of the windowed transform.
            if model.r * math.exp(-model.alpha * model.length) < 0.1:
                continue
            kept += 1
            sweep = synthesize_echo_network(model, V_G, (2.8e9, 8.8e9), 4001)
            ir = impulse_response(sweep, edge_fraction=0.5, oversample=16)
            train = detect_echoes(ir, 2 * model.length / V_G, 3)
            assert len(train.peaks) == 4
            assert not any(p.below_noise_floor for p in train.peaks)
            fit = fit_echo_decay(train, model.length, known_r=model.r)
            assert fit.alpha == pytest.approx(model.alpha, rel=0.01)
            assert fit.t == pytest.approx(model.t, rel=0.02)

        # Regression fixtures at the two reference temperatures.
        for a_db in (3.2, 35.2):
            model = LossModel(t=0.3, r=0.1, alpha=a_db * DB_MM_TO_PER_M, length=130e-6)
            sweep = synthesize_echo_network(model, V_G, (2.8e9, 8.8e9), 4001)
            ir = impulse_response(sweep, edge_fraction=0.5, oversample=16)
            train = detect_echoes(ir, 2 * model.length / V_G, 3)
            fit = fit_echo_decay(train, model.length, known_r=model.r)
            assert fit.alpha_db_per_mm == pytest.approx(a_db, rel=0.01)


def test_criterion_11_time_gating():
    with criterion(11, "gating: full-support identity 1e-10, crosstalk removal 1e-3"):
        rng = np.random.default_rng(2)
        freqs = np.linspace(3.3e9, 4.3e9, 1024)
        s21 = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): s21})
        df = freqs[1] - freqs[0]
        gated = time_gate(sweep, (0.0, 1023 / (1024 * df)))
        err = np.abs(gated.pair((2, 1)) - s21).max()
        assert err <= 1e-10 * np.abs(s21).max()

        n, df = 2001, 1e6
        band = (2.8e9, 2.8e9 + (n - 1) * df)
        tau1 = 42.0 / (n * df)
        model = LossModel(t=0.3, r=0.1, alpha=3.2 * DB_MM_TO_PER_M, length=V_G * tau1)
        noisy = synthesize_echo_network(model, V_G, band, n, crosstalk=0.05)
        clean = synthesize_echo_network(model, V_G, band, n)
        gated = time_gate(noisy, (tau1 / 2.0, 1.0))
        scale = np.abs(clean.pair((2, 1))).max()
        err = np.abs(gated.pair((2, 1)) - clean.pair((2, 1))).max()
        assert err <= 1e-3 * scale


def test_criterion_12_rabi_fitting():
    with criterion(12, "rabi fits 2% across 5-100 MHz; ODAR peak; sqrt(P) law"):
        t_grid = np.linspace(0.0, 1.5e-6, 6001)
        rng = np.random.default_rng(31415)
        for _ in range(25):
            omega = rng.uniform(5e6, 100e6)
            tau = rng.uniform(50e-9, 500e-9)
            seed = int(rng.integers(0, 2**31))
            trace = simulate_rabi_trace(omega, tau, t_grid, noise_sigma=0.02, seed=seed)
            fit = fit_rabi(trace)
            assert fit.rabi == pytest.approx(omega, rel=0.02)

        # Named fixture at the reported operating point.
        trace = simulate_rabi_trace(33.4e6, 400e-9, t_grid, noise_sigma=0.02, seed=7)
        fit = fit_rabi(trace)
        assert fit.rabi == pytest.approx(33.4e6, rel=0.02)

        f = np.linspace(3.63e9, 4.03e9, 4001)  # grid contains 3.83 GHz exactly
        spec = odar_spectrum(25e6, 3.83e9, 20e-9, f)
        assert f[int(np.argmax(spec.y))] == 3.83e9

        c = 52935432.63
        exact = [(p, c * math.sqrt(10.0 ** (p / 10.0))) for p in (-10.0, -4.0, 0.0, 6.0)]
        fit = fit_power_scaling(exact)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)
        assert fit.slope_hz_per_sqrt_mw == pytest.approx(c, rel=1e-9)
        noisy_rng = np.random.default_rng(99)
        noisy = [
            (p, omega * (1.0 + noisy_rng.normal(scale=0.02)))
            for p, omega in exact
        ]
        fit = fit_power_scaling(noisy)
        assert fit.slope_hz_per_sqrt_mw == pytest.approx(c, rel=0.02)


def test_criterion_13_numeric_substrate():
    with criterion(13, "DFT 1e-12, jacobians 1e-6, Bessel 1e-8, conversions 1e-12"):
        rng = np.random.default_rng(3)
        for n in (2, 3, 16, 257, 1024, 4096):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            back = dft(dft(x, "forward"), "inverse")
            assert np.allclose(back, x, rtol=0, atol=1e-12 * max(1.0, np.abs(x).max()))

        grids = {
            "lorentzian": np.linspace(-3.0, 3.0, 101),
            "decaying_cosine": np.linspace(0.0, 3.0, 121),
        }
        params = {
            "lorentzian": (0.1, 0.35, 2.0, 0.2),
            "decaying_cosine": (1.7, 2.5, 0.8, 0.5),
        }
        for name, (func, jac) in SHIPPED_MODELS.items():
            x = grids[name]
            p = np.asarray(params[name], dtype=float)
            analytic = np.asarray(jac(x, p), dtype=float)
            for j in range(p.size):
                h = 6.055e-6 * max(1.0, abs(p[j]))
                up, dn = p.copy(), p.copy()
                up[j] += h
                dn[j] -= h
                fd = (np.asarray(func(x, up)) - np.asarray(func(x, dn))) / (2.0 * h)
                scale = max(1.0, float(np.max(np.abs(fd))))
                assert np.max(np.abs(analytic[:, j] - fd)) / scale <= 1e-6, (name, j)

        for n in range(1, 6):
            for x in (0.5, 1.0, 2.0, 5.0):
                lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
                rhs = 2.0 * n / x * bessel_j(n, x)
                assert lhs == pytest.approx(rhs, abs=1e-8)

        for v in (-30.0, -10.7, 0.0, 3.0, 17.5):
            back = 10.0 * math.log10(db_convert(v, "db_to_power_ratio"))
            assert back == pytest.approx(v, abs=1e-12)
            back = 20.0 * math.log10(db_convert(v, "db_to_amplitude_ratio"))
            assert back == pytest.approx(v, abs=1e-12)
        for v in (0.1, 3.2, 35.2):
            per_m = db_convert(v, "db_per_mm_to_per_m_power")
            assert per_m / DB_MM_TO_PER_M == pytest.approx(v, rel=1e-12)


def test_criterion_14_spin_phonon_properties():
    with criterion(14, "coupling formula properties and the 30-70 kHz anchors"):
        rng = np.random.default_rng(6)
        b_ref = transverse_field(2.0 * math.pi * 3.83e9)
        for _ in range(200):
            eps = StrainTensor(
                eps_xx=rng.uniform(-1e-9, 1e-9),
                eps_yy=rng.uniform(-1e-9, 1e-9),
                eps_xy=rng.uniform(-1e-9, 1e-9),
                eps_yz=rng.uniform(-1e-9, 1e-9),
                eps_zx=rng.uniform(-1e-9, 1e-9),
            )
            base = coupling_rate(SIV_DEFAULTS, b_ref, eps)

            scale = rng.uniform(0.0, 4.0)
            assert coupling_rate(SIV_DEFAULTS, b_ref * scale, eps) == pytest.approx(
                base * scale, rel=1e-9, abs=1e-30
            )

            c = rng.uniform(-3.0, 3.0)
            scaled = StrainTensor(
                eps_xx=c * eps.eps_xx,
                eps_yy=c * eps.eps_yy,
                eps_xy=c * eps.eps_xy,
                eps_yz=c * eps.eps_yz,
                eps_zx=c * eps.eps_zx,
            )
            assert coupling_rate(SIV_DEFAULTS, b_ref, scaled) == pytest.approx(
                abs(c) * base, rel=1e-9, abs=1e-30
            )

            with_zz = StrainTensor(
                eps_xx=eps.eps_xx,
                eps_yy=eps.eps_yy,
                eps_zz=rng.uniform(-1e-6, 1e-6),
                eps_xy=eps.eps_xy,
                eps_yz=eps.eps_yz,
                eps_zx=eps.eps_zx,
            )
            assert coupling_rate(SIV_DEFAULTS, b_ref, with_zz) == base

        assert coupling_rate(SIV_DEFAULTS, b_ref, STRAIN_G30) == pytest.approx(
            30e3, rel=1e-9
        )
        assert coupling_rate(SIV_DEFAULTS, b_ref, STRAIN_G70) == pytest.approx(
            70e3, rel=1e-9
        )
