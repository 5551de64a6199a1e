"""Field resonance conditions, strain coupling, beam profile, phonon budget."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sawkit.errors import ArgumentError
from sawkit.spinphonon import (
    HBAR,
    SIV_DEFAULTS,
    STRAIN_G30,
    STRAIN_G70,
    GaussianBeam,
    PhononBudget,
    SivParams,
    StrainTensor,
    beam_profile,
    budget_summary,
    coupling_rate,
    phonon_budget,
    phonon_number,
    rabi_chain,
    rabi_from_phonons,
    resonance_axial_field,
    single_phonon_power,
    transverse_field,
)

OMEGA_383 = 2.0 * math.pi * 3.83e9
BX_383 = 0.1931893921684194

strain_component = st.floats(-1e-6, 1e-6)


class TestFields:
    def test_axial_reference(self):
        b_z = resonance_axial_field(OMEGA_383)
        assert b_z == pytest.approx(0.1367857142857143, rel=1e-12)
        assert b_z == pytest.approx(0.1368, rel=1e-3)

    def test_axial_unit_case(self):
        omega = 2.0 * math.pi * (2.0 * SIV_DEFAULTS.gamma_s * 1.0)
        assert resonance_axial_field(omega) == pytest.approx(1.0, rel=1e-12)

    def test_axial_linear(self):
        assert resonance_axial_field(2 * OMEGA_383) == pytest.approx(
            2 * resonance_axial_field(OMEGA_383), rel=1e-12
        )

    def test_transverse_reference(self):
        b_x = transverse_field(OMEGA_383)
        assert b_x == pytest.approx(BX_383, rel=1e-12)
        assert b_x == pytest.approx(0.1932, rel=1e-3)

    def test_transverse_45_degrees(self):
        p = SivParams(theta=math.radians(45.0))
        assert transverse_field(OMEGA_383, p) == pytest.approx(
            resonance_axial_field(OMEGA_383, p), rel=1e-12
        )

    def test_transverse_small_angle(self):
        p = SivParams(theta=1e-9)
        assert transverse_field(OMEGA_383, p) == pytest.approx(0.0, abs=1e-9)

    def test_theta_near_right_angle_guarded(self):
        with pytest.raises(ArgumentError):
            SivParams(theta=math.pi / 2)

    def test_positive_omega_required(self):
        with pytest.raises(ArgumentError):
            resonance_axial_field(0.0)
        with pytest.raises(ArgumentError):
            transverse_field(-1.0)


class TestCouplingRate:
    def test_zero_strain(self):
        assert coupling_rate(SIV_DEFAULTS, BX_383, StrainTensor()) == 0.0

    def test_eps_xx_reference(self):
        g = coupling_rate(SIV_DEFAULTS, BX_383, StrainTensor(eps_xx=2e-10))
        assert g == pytest.approx(30574.3212, rel=1e-6)
        assert g == pytest.approx(30.6e3, rel=1e-3)

    def test_eps_yz_reference(self):
        g = coupling_rate(SIV_DEFAULTS, BX_383, StrainTensor(eps_yz=1e-10))
        prefactor = 2.0 * SIV_DEFAULTS.gamma_s * BX_383 / SIV_DEFAULTS.lambda_so
        assert g == pytest.approx(prefactor * abs(SIV_DEFAULTS.f_s) * 1e-10, rel=1e-12)
        assert g == pytest.approx(20.0e3, rel=2e-3)

    def test_shipped_anchor_tensors(self):
        g30 = coupling_rate(SIV_DEFAULTS, BX_383, STRAIN_G30)
        g70 = coupling_rate(SIV_DEFAULTS, BX_383, STRAIN_G70)
        assert g30 == pytest.approx(30e3, rel=1e-9)
        assert g70 == pytest.approx(70e3, rel=1e-9)

    @given(b_x=st.floats(0.0, 1.0), scale=st.floats(0.0, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_linear_in_field(self, b_x, scale):
        eps = StrainTensor(eps_xx=1e-10, eps_xy=-2e-11, eps_yz=3e-11)
        base = coupling_rate(SIV_DEFAULTS, b_x, eps)
        scaled = coupling_rate(SIV_DEFAULTS, b_x * scale, eps)
        assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-30)

    @given(
        eps_xx=strain_component,
        eps_yy=strain_component,
        eps_xy=strain_component,
        eps_yz=strain_component,
        eps_zx=strain_component,
        c=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_homogeneous_in_strain(self, eps_xx, eps_yy, eps_xy, eps_yz, eps_zx, c):
        eps = StrainTensor(
            eps_xx=eps_xx, eps_yy=eps_yy, eps_xy=eps_xy, eps_yz=eps_yz, eps_zx=eps_zx
        )
        scaled = StrainTensor(
            eps_xx=c * eps_xx,
            eps_yy=c * eps_yy,
            eps_xy=c * eps_xy,
            eps_yz=c * eps_yz,
            eps_zx=c * eps_zx,
        )
        base = coupling_rate(SIV_DEFAULTS, BX_383, eps)
        assert coupling_rate(SIV_DEFAULTS, BX_383, scaled) == pytest.approx(
            abs(c) * base, rel=1e-9, abs=1e-30
        )

    @given(eps_zz=st.floats(-1e-6, 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_axial_strain_does_not_couple(self, eps_zz):
        base = StrainTensor(eps_xx=1e-10, eps_yz=2e-11)
        with_zz = StrainTensor(eps_xx=1e-10, eps_yz=2e-11, eps_zz=eps_zz)
        assert coupling_rate(SIV_DEFAULTS, BX_383, with_zz) == coupling_rate(
            SIV_DEFAULTS, BX_383, base
        )

    def test_negative_field_rejected(self):
        with pytest.raises(ArgumentError):
            coupling_rate(SIV_DEFAULTS, -0.1, STRAIN_G30)

    def test_strain_magnitude_guard(self):
        with pytest.raises(ArgumentError):
            StrainTensor(eps_xx=1.5)
        with pytest.raises(ArgumentError):
            StrainTensor(eps_xy=float("nan"))


BEAM = GaussianBeam(w0=6.8e-6, wavelength=1.1e-6)


class TestBeamProfile:
    def test_focus(self):
        assert beam_profile(BEAM, 0.0, 0.0) == 1.0

    def test_reference_point(self):
        u = beam_profile(BEAM, 10e-6, 70e-6)
        assert u == pytest.approx(0.16331209031172114, rel=1e-12)
        assert u == pytest.approx(0.16, rel=0.05)

    def test_rayleigh_range(self):
        z_r = BEAM.rayleigh_range
        assert z_r == pytest.approx(1.320611311836291e-4, rel=1e-12)
        assert beam_profile(BEAM, 0.0, z_r) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    @given(r=st.floats(-1e-4, 1e-4), z=st.floats(-1e-3, 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_focus(self, r, z):
        u = beam_profile(BEAM, r, z)
        assert u <= 1.0
        # Strict inequality everywhere the deficit is representable; inside
        # this neighborhood exp(-r^2/w^2) rounds to 1.0 in float64.
        if abs(r) > 1e-10 or abs(z) > 1e-8:
            assert u < 1.0

    @given(z=st.floats(-3e-4, 3e-4))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_radius(self, z):
        radii = np.linspace(0.0, 5e-5, 40)
        us = [beam_profile(BEAM, r, z) for r in radii]
        assert all(b < a for a, b in zip(us, us[1:]))

    @pytest.mark.parametrize("r", [0.0, 10e-6, 1e300])
    @pytest.mark.parametrize("z", [1e300, -1e300, 1.7e308])
    def test_far_field_tends_to_zero(self, r, z):
        # (z / z_R)**2 once raised OverflowError; r*r / w*w once gave inf / inf
        u = beam_profile(BEAM, r, z)
        assert 0.0 <= u < 1e-300

    @pytest.mark.parametrize("w0, wavelength", [(1e-300, 1e-6), (1e-6, 1e-320), (1e300, 1e-6)])
    def test_rayleigh_range_must_be_positive_and_finite(self, w0, wavelength):
        with pytest.raises(ArgumentError, match="no positive, finite Rayleigh range"):
            GaussianBeam(w0=w0, wavelength=wavelength)

    @pytest.mark.parametrize("z", [0.0, 3e-5, 1.3e-4, 5e-4])
    def test_power_integral_z_invariant(self, z):
        # Integrate the squared envelope times 2 pi r dr; the beam carries constant power.
        r = np.linspace(0.0, 8e-4, 200001)
        u = np.array([beam_profile(BEAM, ri, z) for ri in r])
        power = np.trapezoid(u * u * 2.0 * np.pi * r, r)
        ref = np.pi * BEAM.w0**2 / 2.0
        assert power == pytest.approx(ref, rel=1e-6)


class TestOverflowIsAnArgumentError:
    """A field, rate or power past the float range raises instead of returning inf."""

    def test_axial_field(self):
        with pytest.raises(ArgumentError, match="B_z overflows"):
            resonance_axial_field(OMEGA_383, SivParams(gamma_s=1e-300))

    def test_transverse_field(self):
        with pytest.raises(ArgumentError, match="B_x overflows"):
            transverse_field(OMEGA_383, SivParams(gamma_s=1e-300))

    @pytest.mark.parametrize("params, b_x", [(SivParams(lambda_so=1e-320), BX_383),
                                             (SIV_DEFAULTS, 1e300)])
    def test_coupling_rate(self, params, b_x):
        with pytest.raises(ArgumentError, match="coupling rate g overflows"):
            coupling_rate(params, b_x, StrainTensor(eps_xx=2e-10))

    def test_single_phonon_power(self):
        with pytest.raises(ArgumentError, match="single-phonon power overflows"):
            single_phonon_power(1e300, 1e-300)

    def test_rabi_rate(self):
        with pytest.raises(ArgumentError, match="Rabi rate sqrt"):
            rabi_from_phonons(7.9e12, 1e305)

    def test_negative_coupling_rejected(self):
        # once returned a negative Rabi rate
        with pytest.raises(ArgumentError, match="coupling rate g must be nonnegative"):
            rabi_from_phonons(7.9e12, -30e3)


class TestPhononBudget:
    def test_single_phonon_power_paper_budget(self):
        p0 = single_phonon_power(3.8e9, 20e-9)
        assert p0 == pytest.approx(1.2589533277286153e-16, rel=1e-12)
        assert p0 == pytest.approx(1.25e-16, rel=0.01)

    def test_single_phonon_power_planck(self):
        # hbar * 2 pi f = h f: at 1 GHz / 1 ns this is just Planck's constant
        # scaled by 1e18.
        assert single_phonon_power(1e9, 1e-9) == pytest.approx(
            HBAR * 2.0 * math.pi * 1e18, rel=1e-12
        )
        assert single_phonon_power(1e9, 1e-9) == pytest.approx(6.626e-16, rel=1e-3)

    def test_single_phonon_power_inverse_in_t0(self):
        assert single_phonon_power(3.8e9, 40e-9) == pytest.approx(
            single_phonon_power(3.8e9, 20e-9) / 2.0, rel=1e-14
        )

    def test_phonon_number_reference(self):
        p0 = single_phonon_power(3.8e9, 20e-9)
        n = phonon_number(1e-3, [-10.0, -10.0], p0)
        assert n == pytest.approx(79431062135.09799, rel=1e-9)
        assert n == pytest.approx(7.98e10, rel=0.01)

    def test_phonon_number_identity(self):
        assert phonon_number(1.25e-16, [], 1.25e-16) == pytest.approx(1.0, rel=1e-12)

    def test_phonon_number_3db(self):
        p0 = 1.25e-16
        full = phonon_number(1e-3, [], p0)
        assert phonon_number(1e-3, [-3.0], p0) == pytest.approx(
            full * 10.0 ** (-0.3), rel=1e-12
        )

    def test_phonon_number_rejects_gain(self):
        with pytest.raises(ArgumentError):
            phonon_number(1e-3, [-10.0, 2.0], 1.25e-16)

    @given(
        chain_a=st.lists(st.floats(-30.0, 0.0), max_size=4),
        chain_b=st.lists(st.floats(-30.0, 0.0), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_phonon_number_multiplicative_over_chains(self, chain_a, chain_b):
        p0 = 1.25e-16
        joined = phonon_number(1e-3, chain_a + chain_b, p0)
        factor_b = phonon_number(1e-3, chain_b, p0) / phonon_number(1e-3, [], p0)
        split = phonon_number(1e-3, chain_a, p0) * factor_b
        assert joined == pytest.approx(split, rel=1e-9)

    def test_rabi_from_phonons(self):
        assert rabi_from_phonons(7.98e10, 30e3) == pytest.approx(8.47e9, rel=0.01)
        assert rabi_from_phonons(7.98e10, 70e3) == pytest.approx(19.8e9, rel=0.01)
        assert rabi_from_phonons(0.0, 30e3) == 0.0
        with pytest.raises(ArgumentError):
            rabi_from_phonons(-1.0, 30e3)

    def test_budget_composition(self):
        budget = phonon_budget(0.0, [-10.0, -10.0], 3.8e9, 20e-9)
        assert budget.p0 == pytest.approx(1.2589533277286153e-16, rel=1e-12)
        assert budget.p_acoustic == pytest.approx(1e-5, rel=1e-12)
        assert budget.n == pytest.approx(79431062135.09799, rel=1e-9)
        assert budget.omega0 == pytest.approx(2.0 * math.pi * 3.8e9, rel=1e-12)

    @pytest.mark.parametrize("dbm", [math.nan, math.inf, -math.inf, 1e300, 3060.0])
    def test_budget_rejects_non_finite_power(self, dbm):
        with pytest.raises(ArgumentError, match="drive power"):
            phonon_budget(dbm, [-10.0], 3.8e9, 20e-9)

    def test_budget_invariant_enforced(self):
        with pytest.raises(ArgumentError):
            PhononBudget(
                omega0=2.0 * math.pi * 3.8e9,
                t0=20e-9,
                p0=1e-16,
                p_acoustic=1e-5,
                n=1e11,
            )

    def test_budget_summary_fields(self):
        budget = phonon_budget(0.0, [-10.0, -10.0], 3.8e9, 20e-9)
        text = budget_summary(budget)
        for key in ("p0", "p_acoustic", "n", "t0"):
            assert key in text


class TestRabiChain:
    def test_paper_budget_endpoints(self):
        n = phonon_number(1e-3, [-10.0, -10.0], single_phonon_power(3.8e9, 20e-9))
        lo = rabi_from_phonons(n, 30e3)
        hi = rabi_from_phonons(n, 70e3)
        assert lo == pytest.approx(8455055051.363545, rel=1e-9)
        assert hi == pytest.approx(19728461786.51494, rel=1e-9)
        assert lo == pytest.approx(8.5e9, rel=0.02)
        assert hi == pytest.approx(20e9, rel=0.02)

    def test_composes_components(self):
        got = rabi_chain(0.0, [-10.0, -10.0], 3.8e9, 20e-9, SIV_DEFAULTS, STRAIN_G30)
        n = phonon_number(1e-3, [-10.0, -10.0], single_phonon_power(3.8e9, 20e-9))
        g = coupling_rate(
            SIV_DEFAULTS, transverse_field(2.0 * math.pi * 3.8e9), STRAIN_G30
        )
        assert got == pytest.approx(rabi_from_phonons(n, g), rel=1e-12)

    def test_beam_location_scales(self):
        focus = rabi_chain(
            0.0, [-10.0, -10.0], 3.8e9, 20e-9, SIV_DEFAULTS, STRAIN_G30,
            beam=BEAM, siv_location=(0.0, 0.0),
        )
        off = rabi_chain(
            0.0, [-10.0, -10.0], 3.8e9, 20e-9, SIV_DEFAULTS, STRAIN_G30,
            beam=BEAM, siv_location=(10e-6, 70e-6),
        )
        assert off / focus == pytest.approx(0.16331209031172114, rel=1e-9)

    def test_contamination_loss(self):
        base = rabi_chain(0.0, [-10.0, -10.0], 3.8e9, 20e-9, SIV_DEFAULTS, STRAIN_G30)
        dirty = rabi_chain(
            0.0, [-10.0, -10.0, -20.0], 3.8e9, 20e-9, SIV_DEFAULTS, STRAIN_G30
        )
        assert dirty == pytest.approx(0.1 * base, rel=1e-9)

    @given(delta_dbm=st.floats(-20.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_sqrt_power_law(self, delta_dbm):
        base = rabi_chain(0.0, [-10.0], 3.8e9, 20e-9, SIV_DEFAULTS, STRAIN_G30)
        moved = rabi_chain(delta_dbm, [-10.0], 3.8e9, 20e-9, SIV_DEFAULTS, STRAIN_G30)
        assert moved == pytest.approx(base * 10.0 ** (delta_dbm / 20.0), rel=1e-9)
