"""Command-line surface for the toolkit.

Subcommands: cavity, echo-loss, gate, budget, coupling, simulate, synth,
convert. Exit codes are a stable scripting contract: 0 success, 2 for
usage/parse problems, 3 for analysis failures. All file outputs are
written atomically and are byte-identical for fixed flags and seed.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import ingest, qdyn
from .config import RunConfig, parse_config, parse_si, siv_params_from_mapping, strain_from_mapping
from .errors import ArgumentError, FormatError, ToolkitError
from .numerics import db_convert
from .plotting import line_plot_svg
from .specanalysis import CavityGeometry, cavity_report, report_csv, report_summary
from .spinphonon import (
    GaussianBeam,
    beam_profile,
    coupling_rate,
    budget_summary,
    phonon_budget,
    rabi_from_phonons,
    resonance_axial_field,
    transverse_field,
)
from .timedomain import (
    LossModel,
    detect_echoes,
    echo_train_csv,
    fit_echo_decay,
    impulse_response,
    loss_model_summary,
    synthesize_echo_network,
    time_gate,
)

EXIT_USAGE = 2
EXIT_ANALYSIS = 3

# Largest sweep a flag may ask for, and largest oversampled transform
# echo-loss may build: 2**22 points, 64 MiB per complex vector.
MAX_POINTS = 1 << 22


class SIFloat(click.ParamType):
    """Float flag accepting SI suffixes: 3.83G, 50u, -10.7."""

    name = "si-float"

    def convert(self, value, param, ctx):
        if isinstance(value, (int, float)):
            return float(value)
        try:
            return parse_si(value)
        except ArgumentError as exc:
            self.fail(str(exc), param, ctx)


class PositiveSIFloat(SIFloat):
    """SIFloat for lengths, velocities, spacings and frequencies: finite and above zero."""

    name = "positive-si-float"

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not 0 < number < math.inf:
            self.fail(f"{value!r} is not a positive finite number", param, ctx)
        return number


SI = SIFloat()
POSITIVE_SI = PositiveSIFloat()


def _fail(code: int, message) -> "NoReturn":  # noqa: F821 - doc only
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _usage_error(message):
    _fail(EXIT_USAGE, message)


def _read_file(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        _usage_error(f"cannot read {path}: {exc}")


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
    def __init__(self, config: RunConfig, out_dir: Path, seed: Optional[int], plot: bool):
        self.config = config
        self.out_dir = out_dir
        self.seed = seed
        self.plot = plot

    def cfg_value(self, key: str, flag_value, parser=parse_si):
        """Flags override config; config fills in missing flags."""
        if flag_value is not None:
            return flag_value
        if key in self.config.raw:
            return parser(self.config.raw[key])
        return None

    def write(self, name: str, data: bytes) -> Path:
        path = self.out_dir / name
        _write_atomic(path, data)
        return path

    def write_sweep(self, name: str, sweep: ingest.NetworkSweep):
        """Write every pair as ri CSV for a .csv name, else as Touchstone."""
        if name.lower().endswith(".csv"):
            data = ingest.write_csv(sweep, sorted(sweep.s), representation="ri")
        else:
            data = ingest.write_touchstone(sweep)
        click.echo(f"wrote {self.write(name, data)}")

    def maybe_plot(self, name: str, x, y, title: str, x_label: str, y_label: str):
        if self.plot:
            svg = line_plot_svg(x, y, title=title, x_label=x_label, y_label=y_label)
            self.write(name, svg.encode())


pass_state = click.make_pass_decorator(AppState)


def beam_options(command):
    """The Gaussian-beam flags shared by budget and coupling."""
    for option in reversed((
        click.option("--waist", type=POSITIVE_SI, default=None, help="Beam waist in m."),
        click.option("--beam-wavelength", type=POSITIVE_SI, default=None, help="Acoustic wavelength in m."),
        click.option("--r", "r_loc", type=SI, default=0.0, help="Emitter radial offset in m."),
        click.option("--z", "z_loc", type=SI, default=0.0, help="Emitter axial offset in m."),
    )):
        command = option(command)
    return command


def _beam_factor(waist, beam_wavelength, r_loc, z_loc) -> float:
    """Beam envelope at the emitter; 1 (at focus) when no beam is given."""
    if waist is None and beam_wavelength is None:
        return 1.0
    if waist is None or beam_wavelength is None:
        _usage_error("--waist and --beam-wavelength go together")
    return beam_profile(GaussianBeam(w0=waist, wavelength=beam_wavelength), r_loc, z_loc)


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None, help="Key=value config file.")
@click.option("--out-dir", type=click.Path(), default=None, help="Directory for output files.")
@click.option("--seed", type=int, default=None, help="RNG seed for anything stochastic.")
@click.option("--plot", is_flag=True, default=False, help="Also emit SVG plots.")
@click.pass_context
def main(ctx, config_path, out_dir, seed, plot):
    """Surface-acoustic-wave resonator analysis toolkit."""
    cfg = RunConfig()
    if config_path is not None:
        try:
            cfg = RunConfig.from_mapping(parse_config(_read_file(config_path)))
        except ToolkitError as exc:
            _usage_error(f"config: {exc}")
    resolved_out = out_dir or cfg.out_dir or "."
    resolved_seed = seed if seed is not None else cfg.seed
    resolved_plot = plot or bool(cfg.plot)
    ctx.obj = AppState(cfg, Path(resolved_out), resolved_seed, resolved_plot)


def _load_sweep(state: AppState, input_flag) -> ingest.NetworkSweep:
    path = input_flag or state.config.input
    if path is None:
        _usage_error("no input file given (flag --input or config key input)")
    data = _read_file(path)
    suffix = Path(path).suffix.lower()
    try:
        if suffix == ".csv":
            return ingest.parse_csv_sweep(data)
        return ingest.parse_touchstone(data)
    except FormatError as exc:
        _usage_error(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# cavity


@main.command()
@click.option("--input", "input_path", type=click.Path(), default=None)
@click.option("--d", type=POSITIVE_SI, default=None, help="IDT separation in m.")
@click.option("--lambda0", type=POSITIVE_SI, default=None, help="Acoustic wavelength in m.")
@click.option("--n-mirror", type=int, default=None, help="Electrodes per mirror.")
@click.option("--vg", type=POSITIVE_SI, default=None, help="Group velocity in m/s.")
@click.option("--alpha-db-mm", type=float, default=None, help="Propagation loss in dB/mm.")
@click.option("--prominence", type=float, default=None, help="Peak prominence override.")
@click.option("--spacing", type=POSITIVE_SI, default=None, help="Minimum peak spacing in Hz.")
@click.option(
    "--coupling",
    type=click.Choice(["undercoupled", "overcoupled"]),
    default="undercoupled",
    show_default=True,
    help="Reflection-dip convention for internal Q.",
)
@pass_state
def cavity(state, input_path, d, lambda0, n_mirror, vg, alpha_db_mm, prominence, spacing, coupling):
    """Characterize cavity modes of a sweep; writes CSV and a summary."""
    sweep = _load_sweep(state, input_path)
    d = state.cfg_value("d", d)
    lambda0 = state.cfg_value("lambda0", lambda0)
    vg = state.cfg_value("vg", vg)
    n_mirror = n_mirror if n_mirror is not None else state.config.n_mirror
    if None in (d, lambda0, vg) or n_mirror is None:
        _usage_error("geometry required: --d, --lambda0, --n-mirror, --vg (or config)")
    alpha_db_mm = state.cfg_value("alpha_db_mm", alpha_db_mm, parser=float)
    try:
        geom = CavityGeometry(d=d, lambda0=lambda0, n_mirror=n_mirror, v_g=vg)
        report = cavity_report(
            sweep,
            geom,
            alpha_db_per_mm=alpha_db_mm,
            min_prominence=prominence,
            min_spacing=spacing,
            convention=coupling,
        )
    except ToolkitError as exc:
        _fail(EXIT_ANALYSIS, exc)
    state.write("cavity_modes.csv", report_csv(report))
    summary = report_summary(report)
    state.write("cavity_summary.txt", summary.encode())
    trace = np.abs(sweep.pair((2, 1)) if sweep.has_pair((2, 1)) else sweep.pair((1, 1)))
    state.maybe_plot(
        "cavity_plot.svg", sweep.freqs, trace, "cavity sweep", "frequency (Hz)", "|S|"
    )
    click.echo(summary, nl=False)


# ---------------------------------------------------------------------------
# echo-loss


@main.command("echo-loss")
@click.option("--input", "input_path", type=click.Path(), default=None)
@click.option("--length", type=POSITIVE_SI, default=None, help="Propagation length L in m.")
@click.option("--vg", type=POSITIVE_SI, default=None, help="Group velocity in m/s.")
@click.option("--known-r", type=float, default=None, help="Known mirror power reflectivity.")
@click.option("--known-alpha", type=float, default=None, help="Known attenuation in dB/mm.")
@click.option("--n-max", type=click.IntRange(min=0), default=4, show_default=True, help="Highest echo index.")
@click.option(
    "--window",
    type=click.Choice(["raised_cosine", "none"]),
    default="raised_cosine",
    show_default=True,
)
@click.option("--edge-fraction", type=float, default=0.5, show_default=True)
@click.option("--oversample", type=click.IntRange(min=1), default=16, show_default=True)
@pass_state
def echo_loss(state, input_path, length, vg, known_r, known_alpha, n_max, window, edge_fraction, oversample):
    """Extract propagation loss from the echo train of a sweep."""
    if (known_r is None) == (known_alpha is None):
        _usage_error("supply exactly one of --known-r or --known-alpha")
    sweep = _load_sweep(state, input_path)
    if sweep.freqs.size * oversample > MAX_POINTS:
        _usage_error(
            f"{sweep.freqs.size} points x --oversample {oversample} exceeds "
            f"the {MAX_POINTS}-point transform limit"
        )
    length = state.cfg_value("length", length)
    vg = state.cfg_value("vg", vg)
    if length is None or vg is None:
        _usage_error("--length and --vg are required (or config keys length/vg)")
    try:
        ir = impulse_response(
            sweep, window=window, edge_fraction=edge_fraction, oversample=oversample
        )
        round_trip = 2.0 * length / vg
        train = detect_echoes(ir, round_trip, n_max)
        if known_alpha is not None:
            known_alpha = db_convert(known_alpha, "db_per_mm_to_per_m_power")
        model = fit_echo_decay(train, length, known_r=known_r, known_alpha=known_alpha)
    except ToolkitError as exc:
        _fail(EXIT_ANALYSIS, exc)
    state.write("echo_train.csv", echo_train_csv(train))
    summary = loss_model_summary(model)
    state.write("loss_model.txt", summary.encode())
    mags = [p.h_max for p in train.peaks]
    state.maybe_plot(
        "echo_train.svg",
        [p.tau * 1e9 for p in train.peaks],
        mags,
        "echo train",
        "arrival (ns)",
        "|h|",
    )
    click.echo(summary, nl=False)


# ---------------------------------------------------------------------------
# gate


@main.command()
@click.option("--input", "input_path", type=click.Path(), default=None)
@click.option("--start", type=SI, required=True, help="Gate start in s.")
@click.option("--stop", type=SI, required=True, help="Gate stop in s.")
@click.option("--output", default="gated.s2p", show_default=True, help="Output file name.")
@pass_state
def gate(state, input_path, start, stop, output):
    """Time-gate a sweep and write it back out."""
    if stop < start:
        _usage_error("--stop must not precede --start")
    sweep = _load_sweep(state, input_path)
    try:
        gated = time_gate(sweep, (start, stop))
    except ToolkitError as exc:
        _fail(EXIT_ANALYSIS, exc)
    state.write_sweep(output, gated)


# ---------------------------------------------------------------------------
# budget


@main.command()
@click.option("--power-dbm", type=float, required=True, help="RF drive power in dBm.")
@click.option("--loss", "losses", type=float, multiple=True, help="Loss chain entry in dB (repeatable).")
@click.option("--g", type=SI, required=True, help="Single-phonon coupling rate in Hz.")
@click.option("--f0", type=SI, required=True, help="Mode frequency in Hz.")
@click.option("--t0", type=SI, required=True, help="Phonon duration in s.")
@beam_options
@pass_state
def budget(state, power_dbm, losses, g, f0, t0, waist, beam_wavelength, r_loc, z_loc):
    """Phonon budget: RF power to sqrt(n) g Rabi rate."""
    try:
        bud = phonon_budget(power_dbm, list(losses), f0, t0)
        u = _beam_factor(waist, beam_wavelength, r_loc, z_loc)
        rabi = rabi_from_phonons(bud.n, g * u)
    except ArgumentError as exc:
        _usage_error(exc)
    lines = budget_summary(bud)
    lines += f"g={g:.9g}\nbeam_factor={u:.9g}\nrabi={rabi:.9g}\n"
    click.echo(lines, nl=False)


# ---------------------------------------------------------------------------
# coupling


@main.command()
@click.option("--f-m", type=SI, required=True, help="Mechanical mode frequency in Hz.")
@click.option("--b-x", type=SI, default=None, help="Transverse field override in T.")
@click.option("--eps-xx", type=float, default=None)
@click.option("--eps-yy", type=float, default=None)
@click.option("--eps-zz", type=float, default=None)
@click.option("--eps-xy", type=float, default=None)
@click.option("--eps-yz", type=float, default=None)
@click.option("--eps-zx", type=float, default=None)
@click.option("--gamma-s", type=SI, default=None, help="Gyromagnetic ratio in Hz/T.")
@click.option("--lambda-so", type=SI, default=None, help="Orbital splitting in Hz.")
@click.option("--d-s", type=SI, default=None, help="Strain susceptibility in Hz.")
@click.option("--f-s", type=SI, default=None, help="Strain susceptibility in Hz.")
@click.option("--theta-deg", type=float, default=None, help="Field angle in degrees.")
@beam_options
@pass_state
def coupling(state, f_m, b_x, waist, beam_wavelength, r_loc, z_loc, **flags):
    """Resonance fields and spin-phonon coupling for a strain tensor."""
    # the remaining flags are named after their config keys and override them
    overrides = dict(state.config.raw)
    for key, val in flags.items():
        if val is not None:
            overrides[key] = val
    try:
        params = siv_params_from_mapping(overrides)
        eps = strain_from_mapping(overrides)
        omega_m = 2.0 * math.pi * f_m
        b_z = resonance_axial_field(omega_m, params)
        bx = b_x if b_x is not None else transverse_field(omega_m, params)
        g = coupling_rate(params, bx, eps)
        u = _beam_factor(waist, beam_wavelength, r_loc, z_loc)
    except ArgumentError as exc:
        _usage_error(exc)
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


@simulate.command("rabi")
@click.option("--rabi-mhz", type=float, required=True, help="Rabi frequency in MHz.")
@click.option("--decay-tau-ns", type=float, default=None, help="Decay time in ns (default: none).")
@click.option("--t-max-ns", type=float, default=200.0, show_default=True)
@click.option("--points", type=int, default=401, show_default=True)
@click.option("--noise", type=float, default=0.0, show_default=True)
@pass_state
def simulate_rabi(state, rabi_mhz, decay_tau_ns, t_max_ns, points, noise):
    """Decaying Rabi oscillation trace."""
    if noise > 0 and state.seed is None:
        _usage_error("--noise needs --seed for reproducible output")
    try:
        tau = math.inf if decay_tau_ns is None else decay_tau_ns * 1e-9
        t = np.linspace(0.0, t_max_ns * 1e-9, points)
        trace = qdyn.simulate_rabi_trace(
            rabi_mhz * 1e6, tau, t, noise_sigma=noise, seed=state.seed
        )
    except ToolkitError as exc:
        _fail(EXIT_ANALYSIS, exc)
    state.write("rabi_trace.csv", qdyn.series_csv(trace, "t_s", "population"))
    state.maybe_plot(
        "rabi_trace.svg", trace.x * 1e9, trace.y, "rabi trace", "t (ns)", "population"
    )
    click.echo(f"wrote {state.out_dir / 'rabi_trace.csv'}")


@simulate.command("odar")
@click.option("--rabi-mhz", type=float, default=25.0, show_default=True)
@click.option("--f-spin-ghz", type=float, default=3.83, show_default=True)
@click.option("--pulse-ns", type=float, default=20.0, show_default=True)
@click.option("--span-mhz", type=float, default=200.0, show_default=True)
@click.option("--points", type=int, default=801, show_default=True)
@pass_state
def simulate_odar(state, rabi_mhz, f_spin_ghz, pulse_ns, span_mhz, points):
    """Swept-drive resonance spectrum at fixed pulse length."""
    try:
        f_spin = f_spin_ghz * 1e9
        half = span_mhz * 1e6 / 2.0
        grid = np.linspace(f_spin - half, f_spin + half, points)
        spec = qdyn.odar_spectrum(rabi_mhz * 1e6, f_spin, pulse_ns * 1e-9, grid)
    except ToolkitError as exc:
        _fail(EXIT_ANALYSIS, exc)
    state.write("odar_spectrum.csv", qdyn.series_csv(spec, "f_hz", "population"))
    state.maybe_plot(
        "odar_spectrum.svg", spec.x / 1e9, spec.y, "swept-drive spectrum", "f (GHz)", "population"
    )
    click.echo(f"wrote {state.out_dir / 'odar_spectrum.csv'}")


@simulate.command("sidebands")
@click.option("--carrier", type=SI, default=0.0, show_default=True, help="Carrier frequency in Hz.")
@click.option("--mod-freq", type=SI, default=3.83e9, show_default=True, help="Modulation frequency in Hz.")
@click.option("--mod-index", type=float, default=0.5, show_default=True)
@click.option("--linewidth", type=SI, default=1e9, show_default=True, help="Lorentzian FWHM in Hz.")
@click.option("--orders", type=int, default=3, show_default=True)
@click.option("--points", type=int, default=2001, show_default=True)
@pass_state
def simulate_sidebands(state, carrier, mod_freq, mod_index, linewidth, orders, points):
    """Bessel-weighted sideband comb around a carrier."""
    try:
        span = (orders + 1) * mod_freq
        grid = np.linspace(carrier - span, carrier + span, points)
        spec = qdyn.sideband_spectrum(carrier, mod_freq, mod_index, linewidth, orders, grid)
    except ToolkitError as exc:
        _fail(EXIT_ANALYSIS, exc)
    state.write("sideband_spectrum.csv", qdyn.series_csv(spec, "f_hz", "intensity"))
    state.maybe_plot(
        "sideband_spectrum.svg", spec.x, spec.y, "sideband spectrum", "f (Hz)", "intensity"
    )
    click.echo(f"wrote {state.out_dir / 'sideband_spectrum.csv'}")


# ---------------------------------------------------------------------------
# synth


@main.command()
@click.option("--t", "t_eff", type=float, default=0.3, show_default=True, help="IDT conversion efficiency.")
@click.option("--r", "r_eff", type=float, default=0.1, show_default=True, help="Mirror power reflectivity.")
@click.option("--alpha-db-mm", type=float, default=3.2, show_default=True)
@click.option("--length", type=POSITIVE_SI, default=130e-6, show_default=True, help="Propagation length in m.")
@click.option("--vg", type=POSITIVE_SI, default=6161.0, show_default=True)
@click.option("--f-lo", type=POSITIVE_SI, default=2.8e9, show_default=True)
@click.option("--f-hi", type=POSITIVE_SI, default=4.8e9, show_default=True)
@click.option("--n-points", type=click.IntRange(16, MAX_POINTS), default=4001, show_default=True)
@click.option("--crosstalk", type=float, default=0.0, show_default=True, help="Flat crosstalk amplitude.")
@click.option("--idt-center", type=POSITIVE_SI, default=None, help="Passband center in Hz.")
@click.option("--idt-bw", type=float, default=None, help="Fractional passband width.")
@click.option("--noise", type=float, default=0.0, show_default=True)
@click.option("--name", default="synthetic.s2p", show_default=True)
@pass_state
def synth(state, t_eff, r_eff, alpha_db_mm, length, vg, f_lo, f_hi, n_points,
          crosstalk, idt_center, idt_bw, noise, name):
    """Write a synthetic echo-network fixture as Touchstone or CSV."""
    idt = None
    if (idt_center is None) != (idt_bw is None):
        _usage_error("--idt-center and --idt-bw go together")
    if idt_center is not None:
        if not 0 < idt_bw < math.inf:
            _usage_error(f"--idt-bw {idt_bw!r} is not a positive finite number")
        idt = (idt_center, idt_bw)
    if not f_hi > f_lo:
        _usage_error(f"--f-hi {f_hi:g} Hz must exceed --f-lo {f_lo:g} Hz")
    if noise > 0 and state.seed is None:
        _usage_error("--noise needs --seed for reproducible output")
    try:
        alpha = db_convert(alpha_db_mm, "db_per_mm_to_per_m_power")
        model = LossModel(t=t_eff, r=r_eff, alpha=alpha, length=length)
        sweep = synthesize_echo_network(
            model,
            vg,
            (f_lo, f_hi),
            n_points,
            crosstalk=crosstalk,
            idt_response=idt,
            noise_sigma=noise,
            seed=state.seed,
        )
    except ToolkitError as exc:
        _fail(EXIT_ANALYSIS, exc)
    state.write_sweep(name, sweep)


# ---------------------------------------------------------------------------
# convert


@main.command()
@click.option("--input", "input_path", type=click.Path(), required=True)
@click.option("--output", required=True, help="Output name; .s2p and .csv choose the format.")
@click.option("--pairs", default="s11,s21,s12,s22", show_default=True, help="Pairs for CSV output.")
@click.option(
    "--representation",
    type=click.Choice(["ri", "db_phase"]),
    default="ri",
    show_default=True,
)
@pass_state
def convert(state, input_path, output, pairs, representation):
    """Convert between Touchstone and the CSV sweep schema."""
    sweep = _load_sweep(state, input_path)
    try:
        if output.lower().endswith(".csv"):
            which = []
            for token in pairs.split(","):
                pair = ingest.pair_from_name(token)
                if sweep.has_pair(pair):
                    which.append(pair)
            if not which:
                _usage_error(f"none of the requested pairs present in {input_path}")
            data = ingest.write_csv(sweep, which, representation=representation)
        elif output.lower().endswith(".s2p"):
            data = ingest.write_touchstone(sweep)
        else:
            _usage_error(f"cannot infer output format from {output!r} (.s2p or .csv)")
    except ToolkitError as exc:
        _fail(EXIT_ANALYSIS, exc)
    path = state.write(output, data)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
