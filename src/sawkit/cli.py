"""Command-line surface for the toolkit.

Subcommands: cavity, echo-loss, gate, budget, coupling, simulate, synth,
convert. Exit codes are a stable scripting contract with one rule: 0 on
success, 2 for bad usage or input (a click usage error, ArgumentError or
FormatError), 3 for any other ToolkitError, which commands raise as the
library does. All file outputs are written atomically and are
byte-identical for fixed flags and seed.

A --config file is a set of flag defaults: each key is the default of
the same-named flag ('-' read as '_') in every subcommand, checked by that
flag's own type, and a flag on the command line wins.

Each subcommand imports the modules it runs when it runs, so a call
pays only for its own imports: budget and coupling never load numpy.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import click

from .config import parse_config, parse_si
from .errors import ArgumentError, FormatError, ToolkitError

if TYPE_CHECKING:
    from .ingest import NetworkSweep

EXIT_USAGE = 2
EXIT_ANALYSIS = 3

# Largest sweep a flag may ask for, and largest oversampled transform
# echo-loss may build: 2**22 points, 64 MiB per complex vector. 2**22 is
# 2·3·5-smooth, so it also bounds the length impulse_response rounds up to.
MAX_POINTS = 1 << 22


class SIFloat(click.FloatRange):
    """The type of every real-valued flag: a finite float in a range, SI suffixes allowed.

    3.83G, 50u and -10.7 are numbers; NaN, which passes every range
    comparison, and ±inf are not.
    """

    name = "si-float"

    def convert(self, value, param, ctx):
        try:
            number = parse_si(value)
        except ArgumentError as exc:
            self.fail(str(exc), param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return super().convert(number, param, ctx)

    def _describe_range(self) -> str:
        # the --help text; click would print "x<=None" for an unbounded range
        if self.min is None and self.max is None:
            return "finite"
        return super()._describe_range()


SI = SIFloat()
POSITIVE_SI = SIFloat(min=0, min_open=True)


def _fail(code: int, message) -> "NoReturn":  # noqa: F821 - doc only
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_file(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from None


def _write_atomic(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class AppState:
    def __init__(self, out_dir: Path, seed: Optional[int], plot: bool):
        self.out_dir = out_dir
        self.seed = seed
        self.plot = plot

    def write(self, name: str, data: bytes) -> Path:
        path = self.out_dir / name
        try:
            _write_atomic(path, data)
        except OSError as exc:
            raise ArgumentError(f"cannot write {path}: {exc}") from None
        return path

    def write_sweep(self, name: str, sweep: NetworkSweep):
        """Write every pair as ri CSV for a .csv name, else as Touchstone."""
        from . import ingest
        if name.lower().endswith(".csv"):
            data = ingest.write_csv(sweep, sorted(sweep.s), representation="ri")
        else:
            data = ingest.write_touchstone(sweep)
        click.echo(f"wrote {self.write(name, data)}")

    def maybe_plot(self, name: str, x, y, title: str, x_label: str, y_label: str):
        if self.plot:
            from .plotting import line_plot_svg
            svg = line_plot_svg(x, y, title=title, x_label=x_label, y_label=y_label)
            self.write(name, svg.encode())


pass_state = click.make_pass_decorator(AppState)


def beam_options(command):
    """The Gaussian-beam flags shared by budget and coupling."""
    for option in reversed((
        click.option("--waist", type=POSITIVE_SI, default=None, help="Beam waist in m."),
        click.option("--beam-wavelength", type=POSITIVE_SI, default=None, help="Acoustic wavelength in m."),
        click.option("--r", type=SI, default=0.0, help="Emitter radial offset in m."),
        click.option("--z", type=SI, default=0.0, help="Emitter axial offset in m."),
    )):
        command = option(command)
    return command


def _beam_factor(waist, beam_wavelength, r, z) -> float:
    """Beam envelope at the emitter; 1 (at focus) when no beam is given."""
    if waist is None and beam_wavelength is None:
        return 1.0
    if waist is None or beam_wavelength is None:
        raise ArgumentError("--waist and --beam-wavelength go together")
    from .spinphonon import GaussianBeam, beam_profile
    return beam_profile(GaussianBeam(w0=waist, wavelength=beam_wavelength), r, z)


def _config_defaults(command: click.Command, mapping: dict) -> dict:
    """A default_map: the mapping for command, and again under each subcommand name."""
    # a repeatable flag's value is its one entry: `loss = -10` is `--loss -10`
    repeatable = {p.name for p in command.params if p.multiple}
    own = {key: [value] if key in repeatable else value for key, value in mapping.items()}
    subcommands = getattr(command, "commands", {})
    return {**own, **{name: _config_defaults(sub, mapping) for name, sub in subcommands.items()}}


def _load_config(ctx, param, path):
    """Make the config file's keys the defaults of the same-named flags."""
    if path is not None:
        # eager: this runs before ToolkitGroup.invoke, which cannot see its errors
        try:
            mapping = parse_config(_read_file(path))
        except ToolkitError as exc:
            _fail(EXIT_USAGE, f"config: {exc}")
        ctx.default_map = _config_defaults(ctx.command, mapping)


class ToolkitGroup(click.Group):
    """A group whose subcommands' ArgumentError and FormatError exit 2, other toolkit errors 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ToolkitError as exc:
            _fail(EXIT_USAGE if isinstance(exc, (ArgumentError, FormatError)) else EXIT_ANALYSIS, exc)


@click.group(cls=ToolkitGroup)
@click.option(
    "--config",
    type=click.Path(),
    is_eager=True,
    expose_value=False,
    callback=_load_config,
    help="Key=value file of defaults for the same-named flags.",
)
@click.option("--out-dir", type=click.Path(path_type=Path), default=".", help="Directory for output files.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="RNG seed for anything stochastic.")
@click.option("--plot", is_flag=True, default=False, help="Also emit SVG plots.")
@click.pass_context
def main(ctx, out_dir, seed, plot):
    """Surface-acoustic-wave resonator analysis toolkit."""
    ctx.obj = AppState(out_dir, seed, plot)


def _load_sweep(path) -> NetworkSweep:
    from . import ingest
    data = _read_file(path)
    suffix = Path(path).suffix.lower()
    try:
        if suffix == ".csv":
            return ingest.parse_csv_sweep(data)
        return ingest.parse_touchstone(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# cavity


@main.command()
@click.option("--input", type=click.Path(), required=True)
@click.option("--d", type=POSITIVE_SI, required=True, help="IDT separation in m.")
@click.option("--lambda0", type=POSITIVE_SI, required=True, help="Acoustic wavelength in m.")
@click.option("--n-mirror", type=click.IntRange(min=1), required=True, help="Electrodes per mirror.")
@click.option("--vg", type=POSITIVE_SI, required=True, help="Group velocity in m/s.")
@click.option("--alpha-db-mm", type=POSITIVE_SI, default=None, help="Propagation loss in dB/mm.")
@click.option("--prominence", type=SIFloat(min=0), default=None, help="Peak prominence override.")
@click.option("--spacing", type=POSITIVE_SI, default=None, help="Minimum peak spacing in Hz.")
@click.option(
    "--coupling",
    type=click.Choice(["undercoupled", "overcoupled"]),
    default="undercoupled",
    show_default=True,
    help="Reflection-dip convention for internal Q.",
)
@pass_state
def cavity(state, input, d, lambda0, n_mirror, vg, alpha_db_mm, prominence, spacing, coupling):
    """Characterize cavity modes of a sweep; writes CSV and a summary."""
    from .specanalysis import CavityGeometry, cavity_report, report_csv, report_summary
    sweep = _load_sweep(input)
    report = cavity_report(
        sweep,
        CavityGeometry(d=d, lambda0=lambda0, n_mirror=n_mirror, v_g=vg),
        alpha_db_per_mm=alpha_db_mm,
        min_prominence=prominence,
        min_spacing=spacing,
        convention=coupling,
    )
    for f, reason in report.rejected:
        click.echo(f"warning: candidate peak near {f:.6g} Hz left out: {reason}", err=True)
    state.write("cavity_modes.csv", report_csv(report))
    summary = report_summary(report)
    state.write("cavity_summary.txt", summary.encode())
    trace = abs(sweep.pair((2, 1)) if sweep.has_pair((2, 1)) else sweep.pair((1, 1)))
    state.maybe_plot(
        "cavity_plot.svg", sweep.freqs, trace, "cavity sweep", "frequency (Hz)", "|S|"
    )
    click.echo(summary, nl=False)


# ---------------------------------------------------------------------------
# echo-loss


@main.command("echo-loss")
@click.option("--input", type=click.Path(), required=True)
@click.option("--length", type=POSITIVE_SI, required=True, help="Propagation length L in m.")
@click.option("--vg", type=POSITIVE_SI, required=True, help="Group velocity in m/s.")
@click.option("--known-r", type=SIFloat(0, 1, min_open=True), default=None, help="Known mirror power reflectivity.")
@click.option("--known-alpha", type=SIFloat(min=0), default=None, help="Known attenuation in dB/mm.")
@click.option("--n-max", type=click.IntRange(min=0), default=4, show_default=True, help="Highest echo index.")
@click.option("--edge-fraction", type=SIFloat(0, 0.5), default=0.5, show_default=True,
              help="Band share tapered at each edge; 0 leaves the transform unwindowed.")
@click.option("--oversample", type=click.IntRange(min=1), default=16, show_default=True,
              help="Least tau-grid refinement; the transform rounds up to a fast length.")
@pass_state
def echo_loss(state, input, length, vg, known_r, known_alpha, n_max, edge_fraction, oversample):
    """Extract propagation loss from the echo train of a sweep."""
    if (known_r is None) == (known_alpha is None):
        raise ArgumentError("supply exactly one of --known-r or --known-alpha")
    from .numerics import db_convert
    from .timedomain import detect_echoes, echo_train_csv, fit_echo_decay, impulse_response, loss_model_summary
    sweep = _load_sweep(input)
    if sweep.freqs.size * oversample > MAX_POINTS:
        raise ArgumentError(
            f"{sweep.freqs.size} points x --oversample {oversample} exceeds "
            f"the {MAX_POINTS}-point transform limit"
        )
    ir = impulse_response(sweep, edge_fraction=edge_fraction, oversample=oversample)
    train = detect_echoes(ir, 2.0 * length / vg, n_max)
    if known_alpha is not None:
        known_alpha = db_convert(known_alpha, "db_per_mm_to_per_m_power")
    model = fit_echo_decay(train, length, known_r=known_r, known_alpha=known_alpha)
    state.write("echo_train.csv", echo_train_csv(train))
    summary = loss_model_summary(model)
    state.write("loss_model.txt", summary.encode())
    state.maybe_plot("echo_train.svg", train.peaks.tau * 1e9, train.peaks.h_max,
                     "echo train", "arrival (ns)", "|h|")
    click.echo(summary, nl=False)


# ---------------------------------------------------------------------------
# gate


@main.command()
@click.option("--input", type=click.Path(), required=True)
@click.option("--start", type=SI, required=True, help="Gate start in s.")
@click.option("--stop", type=SI, required=True, help="Gate stop in s.")
@click.option("--output", default="gated.s2p", show_default=True, help="Output file name.")
@pass_state
def gate(state, input, start, stop, output):
    """Time-gate a sweep and write it back out."""
    from .timedomain import time_gate
    state.write_sweep(output, time_gate(_load_sweep(input), (start, stop)))


# ---------------------------------------------------------------------------
# budget


@main.command()
@click.option("--power-dbm", type=SI, required=True, help="RF drive power in dBm.")
@click.option("--loss", type=SI, multiple=True, help="Loss chain entry in dB (repeatable).")
@click.option("--g", type=SI, required=True, help="Single-phonon coupling rate in Hz.")
@click.option("--f0", type=SI, required=True, help="Mode frequency in Hz.")
@click.option("--t0", type=SI, required=True, help="Phonon duration in s.")
@beam_options
@pass_state
def budget(state, power_dbm, loss, g, f0, t0, waist, beam_wavelength, r, z):
    """Phonon budget: RF power to sqrt(n) g Rabi rate."""
    from .spinphonon import budget_summary, phonon_budget, rabi_from_phonons
    bud = phonon_budget(power_dbm, list(loss), f0, t0)
    u = _beam_factor(waist, beam_wavelength, r, z)
    rabi = rabi_from_phonons(bud.n, g * u)
    lines = budget_summary(bud)
    lines += f"g={g:.9g}\nbeam_factor={u:.9g}\nrabi={rabi:.9g}\n"
    click.echo(lines, nl=False)


# ---------------------------------------------------------------------------
# coupling


@main.command()
@click.option("--f-m", type=SI, required=True, help="Mechanical mode frequency in Hz.")
@click.option("--b-x", type=SI, default=None, help="Transverse field override in T.")
@click.option("--eps-xx", type=SI, default=0.0)
@click.option("--eps-yy", type=SI, default=0.0)
@click.option("--eps-zz", type=SI, default=0.0)
@click.option("--eps-xy", type=SI, default=0.0)
@click.option("--eps-yz", type=SI, default=0.0)
@click.option("--eps-zx", type=SI, default=0.0)
@click.option("--gamma-s", type=SI, default=None, help="Gyromagnetic ratio in Hz/T.")
@click.option("--lambda-so", type=SI, default=None, help="Orbital splitting in Hz.")
@click.option("--d-s", type=SI, default=None, help="Strain susceptibility in Hz.")
@click.option("--f-s", type=SI, default=None, help="Strain susceptibility in Hz.")
@click.option("--theta-deg", type=SI, default=None, help="Field angle in degrees.")
@beam_options
@pass_state
def coupling(state, f_m, b_x, gamma_s, lambda_so, d_s, f_s, theta_deg,
             waist, beam_wavelength, r, z, **strain):
    """Resonance fields and spin-phonon coupling for a strain tensor."""
    from .spinphonon import SivParams, StrainTensor, coupling_rate, resonance_axial_field, transverse_field
    theta = None if theta_deg is None else math.radians(theta_deg)
    siv = dict(gamma_s=gamma_s, lambda_so=lambda_so, d_s=d_s, f_s=f_s, theta=theta)
    # SivParams' own defaults stand in for the constants not given
    params = SivParams(**{key: val for key, val in siv.items() if val is not None})
    eps = StrainTensor(**strain)
    omega_m = 2.0 * math.pi * f_m
    b_z = resonance_axial_field(omega_m, params)
    bx = b_x if b_x is not None else transverse_field(omega_m, params)
    g = coupling_rate(params, bx, eps)
    u = _beam_factor(waist, beam_wavelength, r, z)
    out = (
        f"b_z={b_z:.9g}\nb_x={bx:.9g}\ng={g:.9g}\n"
        f"beam_factor={u:.9g}\ng_eff={g * u:.9g}\n"
    )
    click.echo(out, nl=False)


# ---------------------------------------------------------------------------
# simulate


@main.group()
def simulate():
    """Generate model traces and spectra as CSV (and SVG with --plot)."""


def _grid(lo: float, hi: float, points: int, flags: str):
    """np.linspace(lo, hi, points), checked before numpy can warn; errors name the flags."""
    import numpy as np
    if math.isfinite(hi - lo):
        grid = np.linspace(lo, hi, points)
        if (grid[1:] > grid[:-1]).all():
            return grid
    raise ArgumentError(f"{flags} give no strictly increasing finite grid from {lo:g} to {hi:g}")


@simulate.command("rabi")
@click.option("--rabi-mhz", type=SIFloat(min=0), required=True, help="Rabi frequency in MHz.")
@click.option("--decay-tau-ns", type=POSITIVE_SI, default=None, help="Decay time in ns (default: none).")
@click.option("--t-max-ns", type=POSITIVE_SI, default=200.0, show_default=True)
@click.option("--points", type=click.IntRange(2, MAX_POINTS), default=401, show_default=True)
@click.option("--noise", type=SIFloat(min=0), default=0.0, show_default=True)
@pass_state
def simulate_rabi(state, rabi_mhz, decay_tau_ns, t_max_ns, points, noise):
    """Decaying Rabi oscillation trace."""
    if noise > 0 and state.seed is None:
        raise ArgumentError("--noise needs --seed for reproducible output")
    from . import qdyn
    tau = math.inf if decay_tau_ns is None else decay_tau_ns * 1e-9
    t = _grid(0.0, t_max_ns * 1e-9, points, "--t-max-ns and --points")
    trace = qdyn.simulate_rabi_trace(rabi_mhz * 1e6, tau, t, noise_sigma=noise, seed=state.seed)
    state.write("rabi_trace.csv", qdyn.series_csv(trace, "t_s", "population"))
    state.maybe_plot(
        "rabi_trace.svg", trace.x * 1e9, trace.y, "rabi trace", "t (ns)", "population"
    )
    click.echo(f"wrote {state.out_dir / 'rabi_trace.csv'}")


@simulate.command("odar")
@click.option("--rabi-mhz", type=SIFloat(min=0), default=25.0, show_default=True)
@click.option("--f-spin-ghz", type=POSITIVE_SI, default=3.83, show_default=True)
@click.option("--pulse-ns", type=POSITIVE_SI, default=20.0, show_default=True)
@click.option("--span-mhz", type=POSITIVE_SI, default=200.0, show_default=True)
@click.option("--points", type=click.IntRange(2, MAX_POINTS), default=801, show_default=True)
@pass_state
def simulate_odar(state, rabi_mhz, f_spin_ghz, pulse_ns, span_mhz, points):
    """Swept-drive resonance spectrum at fixed pulse length."""
    from . import qdyn
    f_spin = f_spin_ghz * 1e9
    half = span_mhz * 1e6 / 2.0
    grid = _grid(f_spin - half, f_spin + half, points, "--f-spin-ghz, --span-mhz and --points")
    spec = qdyn.odar_spectrum(rabi_mhz * 1e6, f_spin, pulse_ns * 1e-9, grid)
    state.write("odar_spectrum.csv", qdyn.series_csv(spec, "f_hz", "population"))
    state.maybe_plot(
        "odar_spectrum.svg", spec.x / 1e9, spec.y, "swept-drive spectrum", "f (GHz)", "population"
    )
    click.echo(f"wrote {state.out_dir / 'odar_spectrum.csv'}")


@simulate.command("sidebands")
@click.option("--carrier", type=SI, default=0.0, show_default=True, help="Carrier frequency in Hz.")
@click.option("--mod-freq", type=POSITIVE_SI, default=3.83e9, show_default=True, help="Modulation frequency in Hz.")
@click.option("--mod-index", type=SIFloat(-20, 20), default=0.5, show_default=True)
@click.option("--linewidth", type=POSITIVE_SI, default=1e9, show_default=True, help="Lorentzian FWHM in Hz.")
@click.option("--orders", type=click.IntRange(0, 10), default=3, show_default=True)
@click.option("--points", type=click.IntRange(2, MAX_POINTS), default=2001, show_default=True)
@pass_state
def simulate_sidebands(state, carrier, mod_freq, mod_index, linewidth, orders, points):
    """Bessel-weighted sideband comb around a carrier."""
    from . import qdyn
    span = (orders + 1) * mod_freq
    grid = _grid(
        carrier - span, carrier + span, points, "--carrier, --mod-freq, --orders and --points"
    )
    spec = qdyn.sideband_spectrum(carrier, mod_freq, mod_index, linewidth, orders, grid)
    state.write("sideband_spectrum.csv", qdyn.series_csv(spec, "f_hz", "intensity"))
    state.maybe_plot(
        "sideband_spectrum.svg", spec.x, spec.y, "sideband spectrum", "f (Hz)", "intensity"
    )
    click.echo(f"wrote {state.out_dir / 'sideband_spectrum.csv'}")


# ---------------------------------------------------------------------------
# synth


@main.command()
@click.option("--t", type=SIFloat(0, 1), default=0.3, show_default=True, help="IDT conversion efficiency.")
@click.option("--r", type=SIFloat(0, 1), default=0.1, show_default=True, help="Mirror power reflectivity.")
@click.option("--alpha-db-mm", type=SIFloat(min=0), default=3.2, show_default=True)
@click.option("--length", type=POSITIVE_SI, default=130e-6, show_default=True, help="Propagation length in m.")
@click.option("--vg", type=POSITIVE_SI, default=6161.0, show_default=True)
@click.option("--f-lo", type=POSITIVE_SI, default=2.8e9, show_default=True)
@click.option("--f-hi", type=POSITIVE_SI, default=4.8e9, show_default=True)
@click.option("--n-points", type=click.IntRange(16, MAX_POINTS), default=4001, show_default=True)
@click.option("--crosstalk", type=SI, default=0.0, show_default=True, help="Flat crosstalk amplitude.")
@click.option("--idt-center", type=POSITIVE_SI, default=None, help="Passband center in Hz.")
@click.option("--idt-bw", type=POSITIVE_SI, default=None, help="Fractional passband width.")
@click.option("--noise", type=SIFloat(min=0), default=0.0, show_default=True)
@click.option("--name", default="synthetic.s2p", show_default=True)
@pass_state
def synth(state, t, r, alpha_db_mm, length, vg, f_lo, f_hi, n_points,
          crosstalk, idt_center, idt_bw, noise, name):
    """Write a synthetic echo-network fixture as Touchstone or CSV."""
    if (idt_center is None) != (idt_bw is None):
        raise ArgumentError("--idt-center and --idt-bw go together")
    idt = None if idt_center is None else (idt_center, idt_bw)
    if not f_hi > f_lo:
        raise ArgumentError(f"--f-hi {f_hi:g} Hz must exceed --f-lo {f_lo:g} Hz")
    if noise > 0 and state.seed is None:
        raise ArgumentError("--noise needs --seed for reproducible output")
    from .numerics import db_convert
    from .timedomain import LossModel, synthesize_echo_network
    alpha = db_convert(alpha_db_mm, "db_per_mm_to_per_m_power")
    sweep = synthesize_echo_network(
        LossModel(t=t, r=r, alpha=alpha, length=length),
        vg,
        (f_lo, f_hi),
        n_points,
        crosstalk=crosstalk,
        idt_response=idt,
        noise_sigma=noise,
        seed=state.seed,
    )
    state.write_sweep(name, sweep)


# ---------------------------------------------------------------------------
# convert


def _pair_list(ctx, param, names):
    """--pairs as port pairs, so an unknown name is bad usage at parse time."""
    from .ingest import pair_from_name
    return [pair_from_name(token) for token in names.split(",")]


@main.command()
@click.option("--input", type=click.Path(), required=True)
@click.option("--output", required=True, help="Output name; .s2p and .csv choose the format.")
@click.option(
    "--pairs",
    default="s11,s21,s12,s22",
    show_default=True,
    callback=_pair_list,
    help="Pairs for CSV output.",
)
@click.option(
    "--representation",
    type=click.Choice(["ri", "db_phase"]),
    default="ri",
    show_default=True,
)
@pass_state
def convert(state, input, output, pairs, representation):
    """Convert between Touchstone and the CSV sweep schema."""
    from . import ingest
    sweep = _load_sweep(input)
    if output.lower().endswith(".csv"):
        which = [pair for pair in pairs if sweep.has_pair(pair)]
        if not which:
            raise ArgumentError(f"none of the requested pairs present in {input}")
        data = ingest.write_csv(sweep, which, representation=representation)
    elif output.lower().endswith(".s2p"):
        data = ingest.write_touchstone(sweep)
    else:
        raise ArgumentError(f"cannot infer output format from {output!r} (.s2p or .csv)")
    click.echo(f"wrote {state.write(output, data)}")


if __name__ == "__main__":
    main()
