"""Spin-phonon coupling of the SiV⁻ ground state to SAW strain.

Magnetic resonance conditions, the strain coupling rate g, the Gaussian
acoustic beam envelope, and the power budget from RF drive to the
phonon-enhanced Rabi rate √n·g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import ArgumentError

__all__ = [
    "HBAR",
    "SivParams",
    "StrainTensor",
    "GaussianBeam",
    "PhononBudget",
    "SIV_DEFAULTS",
    "STRAIN_G30",
    "STRAIN_G70",
    "resonance_axial_field",
    "transverse_field",
    "coupling_rate",
    "beam_profile",
    "single_phonon_power",
    "phonon_number",
    "rabi_from_phonons",
    "rabi_chain",
    "phonon_budget",
    "budget_summary",
]

HBAR = 1.054571817e-34  # J s


@dataclass
class SivParams:
    """Ground-state constants of the SiV⁻ center.

    gamma_s is the spin gyromagnetic ratio in Hz/T (cyclic convention:
    the resonance condition reads 2 gamma_s B = f, not omega). d_s and
    f_s are strain susceptibilities in Hz per unit strain; theta is the
    angle between the applied field and the SiV symmetry axis.
    """

    gamma_s: float = 14e9
    lambda_so: float = 46e9
    d_s: float = 1.3e15
    f_s: float = -1.7e15
    theta: float = math.radians(54.7)

    def __post_init__(self):
        if self.gamma_s <= 0:
            raise ArgumentError("gamma_s must be positive")
        if self.lambda_so <= 0:
            raise ArgumentError("lambda_so must be positive")
        if not 0 < self.theta < math.pi / 2:
            raise ArgumentError("theta must lie strictly between 0 and pi/2")


@dataclass
class StrainTensor:
    """Per-phonon strain components in the SiV frame."""

    eps_xx: float = 0.0
    eps_yy: float = 0.0
    eps_zz: float = 0.0
    eps_xy: float = 0.0
    eps_yz: float = 0.0
    eps_zx: float = 0.0

    def __post_init__(self):
        for name in ("eps_xx", "eps_yy", "eps_zz", "eps_xy", "eps_yz", "eps_zx"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ArgumentError(f"{name} must be finite")
            if abs(v) > 1:
                raise ArgumentError(f"{name} magnitude exceeds 1, not a strain")


@dataclass
class GaussianBeam:
    """Gaussian acoustic beam: waist w0 and wavelength."""

    w0: float
    wavelength: float

    def __post_init__(self):
        if self.w0 <= 0 or self.wavelength <= 0:
            raise ArgumentError("waist and wavelength must be positive")
        if not 0 < self.rayleigh_range < math.inf:
            raise ArgumentError("waist and wavelength give no positive, finite Rayleigh range")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.w0 * self.w0 / self.wavelength


@dataclass
class PhononBudget:
    """RF-to-phonon accounting at one operating point."""

    omega0: float
    t0: float
    p0: float
    p_acoustic: float
    n: float
    loss_chain_db: List[float] = field(default_factory=list)

    def __post_init__(self):
        if min(self.omega0, self.t0, self.p0, self.p_acoustic, self.n) < 0:
            raise ArgumentError("budget quantities must be nonnegative")
        expected_p0 = HBAR * self.omega0 / self.t0
        if abs(self.p0 - expected_p0) > 1e-12 * expected_p0:
            raise ArgumentError("p0 is not hbar omega0 / t0 for the stated inputs")
        if abs(self.n - self.p_acoustic / self.p0) > 1e-12 * max(self.n, 1.0):
            raise ArgumentError("n is not p_acoustic / p0")


# Defaults from the SiV ground-state literature values used throughout.
SIV_DEFAULTS = SivParams()

# Synthetic per-phonon strain tensors, back-solved so that coupling_rate at
# the 3.83 GHz operating field (theta = 54.7 deg) gives exactly 30 and 70
# kHz. Real tensors come from FEM of a specific device and are user inputs;
# these exist for regression tests only.
STRAIN_G30 = StrainTensor(eps_xx=1.9624311400616016e-10)
STRAIN_G70 = StrainTensor(eps_xx=4.5790059934770706e-10)


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise ArgumentError(f"{name} overflows for the given inputs")
    return value


def resonance_axial_field(omega_m: float, params: SivParams = SIV_DEFAULTS) -> float:
    """Axial field bringing the spin splitting onto a mode at omega_m.

    The condition is 2 gamma_s B_z = f_m with f_m = omega_m / 2 pi.
    """
    if omega_m <= 0:
        raise ArgumentError("omega_m must be positive")
    return _finite(omega_m / (2.0 * math.pi) / (2.0 * params.gamma_s), "B_z")


def transverse_field(omega_m: float, params: SivParams = SIV_DEFAULTS) -> float:
    """Transverse field component B_x = f_m tan(theta) / (2 gamma_s)."""
    if omega_m <= 0:
        raise ArgumentError("omega_m must be positive")
    if params.theta >= math.pi / 2 - 1e-8:
        raise ArgumentError("theta too close to pi/2; tan(theta) overflows")
    f_m = omega_m / (2.0 * math.pi)
    return _finite(f_m * math.tan(params.theta) / (2.0 * params.gamma_s), "B_x")


def coupling_rate(params: SivParams, b_x: float, eps: StrainTensor) -> float:
    """Single spin-phonon coupling rate in Hz.

    g = (2 gamma_s B_x / lambda_so) * sqrt((d_s (e_xx - e_yy) + f_s e_zx)^2
    + (-2 d_s e_xy + f_s e_yz)^2). Only the E_g strain components enter;
    e_zz does not couple.
    """
    if b_x < 0:
        raise ArgumentError("B_x must be nonnegative")
    gx = params.d_s * (eps.eps_xx - eps.eps_yy) + params.f_s * eps.eps_zx
    gy = -2.0 * params.d_s * eps.eps_xy + params.f_s * eps.eps_yz
    prefactor = 2.0 * params.gamma_s * b_x / params.lambda_so
    return _finite(prefactor * math.hypot(gx, gy), "coupling rate g")


def beam_profile(beam: GaussianBeam, r: float, z: float) -> float:
    """Strain amplitude of the Gaussian beam at (r, z), relative to focus.

    u(r, z) = (w0/w(z)) exp(-r²/w(z)²) with w(z) = w0 sqrt(1 + (z/z_R)²)
    and z_R = pi w0² / lambda. w(z) is a hypot and the exponent (r/w(z))²,
    so far from focus u tends to 0 instead of overflowing.
    """
    w_z = beam.w0 * math.hypot(1.0, z / beam.rayleigh_range)
    x = r / w_z
    return (beam.w0 / w_z) * math.exp(-x * x)


def single_phonon_power(f0: float, t0: float) -> float:
    """Power of one phonon of frequency f0 lasting t0: hbar 2 pi f0 / t0."""
    if f0 <= 0 or t0 <= 0:
        raise ArgumentError("frequency and duration must be positive")
    return _finite(HBAR * 2.0 * math.pi * f0 / t0, "single-phonon power")


def phonon_number(p_rf: float, loss_chain_db: Sequence[float], p0: float) -> float:
    """Phonons delivered per t0: RF power through the loss chain over p0.

    Each chain entry is a power loss in dB and must be nonpositive;
    entries multiply as 10^(dB/10).
    """
    if p0 <= 0:
        raise ArgumentError("p0 must be positive")
    if p_rf < 0:
        raise ArgumentError("p_rf must be nonnegative")
    factor = 1.0
    for entry in loss_chain_db:
        if entry > 0:
            raise ArgumentError(
                f"loss chain entry {entry:+.3g} dB is a gain; losses must be <= 0"
            )
        factor *= 10.0 ** (entry / 10.0)
    return p_rf * factor / p0


def rabi_from_phonons(n: float, g: float) -> float:
    """Phonon-enhanced Rabi rate sqrt(n) g."""
    if n < 0 or g < 0:
        raise ArgumentError("phonon number and coupling rate g must be nonnegative")
    return _finite(math.sqrt(n) * g, "Rabi rate sqrt(n) g")


def rabi_chain(
    p_rf_dbm: float,
    loss_chain_db: Sequence[float],
    f0: float,
    t0: float,
    params: SivParams,
    eps: StrainTensor,
    beam: Optional[GaussianBeam] = None,
    siv_location: Tuple[float, float] = (0.0, 0.0),
) -> float:
    """Full chain from RF drive power to the Rabi rate at one emitter.

    Takes the phonon number n from phonon_budget and multiplies sqrt(n)
    by the coupling rate at the transverse field for a resonant f0 drive,
    scaled by the beam envelope at the emitter location. With no beam
    given the emitter is taken at focus.
    """
    n = phonon_budget(p_rf_dbm, loss_chain_db, f0, t0).n
    b_x = transverse_field(2.0 * math.pi * f0, params)
    g = coupling_rate(params, b_x, eps)
    u = 1.0
    if beam is not None:
        r, z = siv_location
        u = beam_profile(beam, r, z)
    return rabi_from_phonons(n, g * u)


def phonon_budget(
    p_rf_dbm: float, loss_chain_db: Sequence[float], f0: float, t0: float
) -> PhononBudget:
    """Assemble the budget record for a drive power and loss chain."""
    if not math.isfinite(p_rf_dbm):
        raise ArgumentError(f"drive power {p_rf_dbm!r} dBm is not finite")
    p0 = single_phonon_power(f0, t0)
    try:
        n = phonon_number(1e-3 * 10.0 ** (p_rf_dbm / 10.0), loss_chain_db, p0)
    except OverflowError:
        n = math.inf
    if not math.isfinite(n):
        raise ArgumentError(f"drive power {p_rf_dbm!r} dBm overflows the phonon number")
    return PhononBudget(
        omega0=2.0 * math.pi * f0,
        t0=t0,
        p0=p0,
        p_acoustic=n * p0,
        n=n,
        loss_chain_db=list(loss_chain_db),
    )


def budget_summary(budget: PhononBudget) -> str:
    """Key-value block of the phonon budget (SI units)."""
    total_db = sum(budget.loss_chain_db)
    lines = [
        f"omega0={budget.omega0:.9g}",
        f"t0={budget.t0:.9g}",
        f"p0={budget.p0:.9g}",
        f"p_acoustic={budget.p_acoustic:.9g}",
        f"n={budget.n:.9g}",
        f"total_loss_db={total_db:.9g}",
    ]
    return "\n".join(lines) + "\n"
