"""Command-line surface: exit codes, output files, determinism."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from sawkit.cli import MAX_POINTS, _write_atomic, main
from sawkit.ingest import parse_csv_sweep, parse_touchstone, write_touchstone
from sawkit.numerics import db_convert
from sawkit.timedomain import LossModel, _fast_length, synthesize_echo_network


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def synth_fixture(runner, out_dir, name="synthetic.s2p", extra=()):
    result = run(
        runner,
        ["--out-dir", str(out_dir), "synth", "--name", name, *extra],
    )
    assert result.exit_code == 0, result.output
    return out_dir / name


def flag_or_config(tmp_path, command, flag, value):
    """The arguments that give a flag (--name) or a config key (name) its value."""
    if flag.startswith("--"):
        return [*command, flag, value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    return ["--config", str(cfg), *command]


class TestWriteAtomic:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            _write_atomic(target, b"data")
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_out_dir_that_is_a_file_exits_2(self, runner, tmp_path):
        # used to end in a FileExistsError traceback
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        result = run(runner, ["--out-dir", str(blocker), "synth"])
        assert result.exit_code == 2, result.output
        assert f"error: cannot write {blocker / 'synthetic.s2p'}: " in result.output
        assert list(tmp_path.iterdir()) == [blocker]


class TestSynth:
    def test_default_fixture_parses(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        sweep = parse_touchstone(path.read_bytes())
        assert sweep.has_pair((2, 1))
        assert len(sweep.freqs) == 4001

    def test_minimal_file(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path, extra=["--n-points", "16"])
        sweep = parse_touchstone(path.read_bytes())
        assert len(sweep.freqs) == 16

    def test_csv_output(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path, name="fixture.csv")
        sweep = parse_csv_sweep(path.read_bytes())
        assert sweep.has_pair((2, 1))

    def test_seeded_noise_byte_identical(self, runner, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for sub in (a, b):
            result = run(
                runner,
                ["--out-dir", str(sub), "--seed", "5", "synth", "--noise", "1e-4"],
            )
            assert result.exit_code == 0
        assert (a / "synthetic.s2p").read_bytes() == (b / "synthetic.s2p").read_bytes()

    def test_noise_without_seed_is_usage_error(self, runner, tmp_path):
        result = run(runner, ["--out-dir", str(tmp_path), "synth", "--noise", "1e-4"])
        assert result.exit_code == 2


class TestCavity:
    def test_paper_fixture_summary(self, runner, tmp_path):
        # v_g/(2 L) = 52.6 MHz puts the Airy comb on the reference spacing.
        path = synth_fixture(
            runner,
            tmp_path,
            extra=["--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"],
        )
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "cavity",
                "--input", str(path),
                "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161",
            ],
        )
        assert result.exit_code == 0, result.output
        summary = (tmp_path / "cavity_summary.txt").read_text()
        assert result.output == summary
        values = {}
        for line in summary.strip().splitlines():
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
        assert float(values["fsr"]) == pytest.approx(52.6e6, rel=1e-3)
        assert float(values["l_p"]) == pytest.approx(4.3e-6, rel=0.03)
        modes = (tmp_path / "cavity_modes.csv").read_text().strip().splitlines()
        assert modes[0] == "f0_hz,fwhm_hz,q_loaded,q_internal"
        assert len(modes) > 2

    def test_unfit_candidates_warn_on_stderr(self, runner, tmp_path):
        # the paper cavity as the benchmark builds it; prominence 0 keeps
        # noise maxima, and two of the 49 candidates do not fit
        model = LossModel(t=0.3, r=0.6, alpha=db_convert(2.0, "db_per_mm_to_per_m_power"),
                          length=58.565e-6)
        sweep = synthesize_echo_network(model, 6161.0, (2.8e9, 4.8e9), 4001, noise_sigma=1e-4,
                                        seed=3)
        path = tmp_path / "paper.s2p"
        path.write_bytes(write_touchstone(sweep))
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), "cavity", "--input", str(path),
                              "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40",
                              "--vg", "6161", "--prominence", "0", "--spacing", "5M"])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == [
            f"warning: candidate peak near {f} Hz left out: lorentzian fit did not converge: "
            "max iterations reached"
            for f in ("3.761e+09", "3.8135e+09")
        ]
        assert result.stdout == (out / "cavity_summary.txt").read_text()
        assert result.stdout.startswith("fsr=52598945.6\n")
        assert len((out / "cavity_modes.csv").read_text().splitlines()) == 1 + 47

    def test_missing_file(self, runner, tmp_path):
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "cavity",
                "--input", str(tmp_path / "absent.s2p"),
                "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161",
            ],
        )
        assert result.exit_code == 2
        assert "error" in result.output.lower()

    def test_single_peak_is_analysis_error(self, runner, tmp_path):
        freqs = np.linspace(3.7e9, 3.9e9, 1001)
        hw = 0.9e6
        y = 0.8 * hw**2 / ((freqs - 3.81e9) ** 2 + hw**2)
        lines = ["freq_hz,s21_re,s21_im"]
        for f, v in zip(freqs, y):
            lines.append(f"{f:.17g},{v:.17g},0")
        path = tmp_path / "single.csv"
        path.write_text("\n".join(lines) + "\n")
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "cavity",
                "--input", str(path),
                "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161",
            ],
        )
        assert result.exit_code == 3
        assert "spectral range" in result.output

    def test_saturated_mirror_is_analysis_error(self, runner, tmp_path):
        path = synth_fixture(
            runner,
            tmp_path / "in",
            extra=["--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"],
        )
        out = tmp_path / "out"
        result = run(
            runner,
            [
                "--out-dir", str(out), "cavity",
                "--input", str(path),
                "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "400000", "--vg", "6161",
            ],
        )
        assert result.exit_code == 3, result.output
        assert "saturates tanh" in result.output
        assert not out.exists()

    def test_config_loss_key_ignored(self, runner, tmp_path):
        path = synth_fixture(
            runner,
            tmp_path,
            extra=["--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"],
        )
        cfg = tmp_path / "device.cfg"
        cfg.write_text("d = 50u\nlambda0 = 1.7u\nn_mirror = 40\nvg = 6161\nloss = -10\n")
        result = run(
            runner,
            ["--config", str(cfg), "--out-dir", str(tmp_path), "cavity", "--input", str(path)],
        )
        assert result.exit_code == 0, result.output

    def test_missing_geometry(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        result = run(
            runner,
            ["--out-dir", str(tmp_path), "cavity", "--input", str(path)],
        )
        assert result.exit_code == 2

    def test_config_supplies_geometry(self, runner, tmp_path):
        path = synth_fixture(
            runner,
            tmp_path,
            extra=["--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"],
        )
        cfg = tmp_path / "device.cfg"
        cfg.write_text(
            "# reference device\nd = 50u\nlambda0 = 1.7u\nn_mirror = 40\nvg = 6161\n"
        )
        result = run(
            runner,
            [
                "--config", str(cfg), "--out-dir", str(tmp_path),
                "cavity", "--input", str(path),
            ],
        )
        assert result.exit_code == 0, result.output

    def test_flag_overrides_config(self, runner, tmp_path):
        path = synth_fixture(
            runner,
            tmp_path,
            extra=["--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"],
        )
        cfg = tmp_path / "device.cfg"
        cfg.write_text("d = 40u\nlambda0 = 1.7u\nn_mirror = 40\nvg = 6161\n")
        result = run(
            runner,
            [
                "--config", str(cfg), "--out-dir", str(tmp_path),
                "cavity", "--input", str(path), "--d", "50u",
            ],
        )
        assert result.exit_code == 0, result.output
        summary = (tmp_path / "cavity_summary.txt").read_text()
        l_p = float(
            next(ln for ln in summary.splitlines() if ln.startswith("l_p")).split("=")[1]
        )
        assert l_p == pytest.approx(4.28e-6, rel=0.01)

    @pytest.mark.parametrize(
        "command, synth_extra, flags",
        [
            ("cavity", ["--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"],
             ["--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161"]),
            ("echo-loss", [], ["--length", "130u", "--vg", "6161", "--known-r", "0.1"]),
            ("gate", [], ["--start", "10n", "--stop", "200n"]),
            ("convert", [], ["--output", "sweep.csv"]),
        ],
    )
    def test_config_supplies_input(self, runner, tmp_path, command, synth_extra, flags):
        path = synth_fixture(runner, tmp_path, extra=synth_extra)
        cfg = tmp_path / "input.cfg"
        cfg.write_text(f"input = {path}\n")
        by_flag, by_config = tmp_path / "flag", tmp_path / "config"
        result = run(runner, ["--out-dir", str(by_flag), command, "--input", str(path), *flags])
        assert result.exit_code == 0, result.output
        result = run(runner, ["--config", str(cfg), "--out-dir", str(by_config), command, *flags])
        assert result.exit_code == 0, result.output
        names = sorted(p.name for p in by_flag.iterdir())
        assert names and names == sorted(p.name for p in by_config.iterdir())
        for name in names:
            assert (by_flag / name).read_bytes() == (by_config / name).read_bytes()

    def test_bad_config_line(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("d 50u\n")
        result = run(
            runner,
            ["--config", str(cfg), "--out-dir", str(tmp_path), "cavity", "--input", str(path)],
        )
        assert result.exit_code == 2

    def test_plot_emits_svg(self, runner, tmp_path):
        path = synth_fixture(
            runner,
            tmp_path,
            extra=["--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"],
        )
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "--plot", "cavity",
                "--input", str(path),
                "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161",
            ],
        )
        assert result.exit_code == 0, result.output
        svg = (tmp_path / "cavity_plot.svg").read_text()
        assert "<svg" in svg


class TestPositiveFlags:
    """Lengths, velocities, spacings and frequencies below or at zero are bad usage."""

    CAVITY = ["cavity", "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161"]
    BUDGET = ["budget", "--power-dbm", "0", "--g", "30k", "--f0", "3.8G", "--t0", "20n",
              "--waist", "6.8u", "--beam-wavelength", "1.1u"]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (CAVITY, "--d", "-50u"),
            (CAVITY, "--lambda0", "-1.7u"),
            (CAVITY, "--vg", "0"),
            (CAVITY, "--spacing", "-1M"),
            (["echo-loss", "--vg", "6161", "--known-r", "0.1"], "--length", "-130u"),
            (["echo-loss", "--length", "130u", "--known-r", "0.1"], "--vg", "NaN"),
            (["synth"], "--vg", "-6161"),
            (["synth"], "--length", "1e400"),
            (BUDGET, "--waist", "-6.8u"),
            (BUDGET, "--beam-wavelength", "0"),
            (["synth"], "--f-lo", "-1G"),
            (["synth"], "--f-lo", "0"),
            (["synth"], "--f-hi", "1e400"),
            (["synth", "--idt-bw", "0.2"], "--idt-center", "-3.8G"),
            # the same checks on config values, which used to exit 3 or run
            (["cavity", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161"], "d", "-50u"),
            (["cavity", "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40"], "vg", "0"),
            (["echo-loss", "--vg", "6161", "--known-r", "0.1"], "length", "-130u"),
            (["echo-loss", "--length", "130u", "--known-r", "0.1"], "vg", "NaN"),
            (["synth"], "f_hi", "1e400"),
        ],
    )
    def test_non_positive_value_exits_2(self, runner, tmp_path, command, flag, value):
        out = tmp_path / "out"
        args = list(command)
        if command[0] in ("cavity", "echo-loss"):
            args += ["--input", str(synth_fixture(runner, tmp_path / "in"))]
        result = run(runner, ["--out-dir", str(out), *flag_or_config(tmp_path, args, flag, value)])
        assert result.exit_code == 2, result.output
        assert "positive finite" in result.output
        assert not out.exists()


class TestIntegerFlags:
    """Integer minimums and the point limit are bad usage, caught before allocating."""

    ECHO = ["echo-loss", "--length", "130u", "--vg", "6161", "--known-r", "0.1"]
    RABI = ["simulate", "rabi", "--rabi-mhz", "33.4"]

    def test_point_limit_bounds_the_transform_length(self):
        # echo-loss checks points x --oversample against the limit, and the
        # rounded-up length stays within it because the limit is 2·3·5-smooth
        assert _fast_length(MAX_POINTS) == MAX_POINTS

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            (["synth"], "--n-points", "5", "16<=x"),
            # would need terabytes if it reached the allocation
            (["synth"], "--n-points", "1000000000000", "x<=4194304"),
            (ECHO, "--oversample", "0", "x>=1"),
            (ECHO, "--n-max", "-1", "x>=0"),
            # 4,001 input points times 10**9
            (ECHO, "--oversample", "1000000000", "exceeds the 4194304-point transform limit"),
            (RABI, "--points", "0", "2<=x<=4194304"),
            (RABI, "--points", "1", "2<=x<=4194304"),
            (RABI, "--points", "1000000000000", "2<=x<=4194304"),
            (["simulate", "odar"], "--points", "1", "2<=x<=4194304"),
            (["simulate", "odar"], "--points", "1000000000000", "2<=x<=4194304"),
            (["simulate", "sidebands"], "--points", "1", "2<=x<=4194304"),
            (["simulate", "sidebands"], "--points", "1000000000000", "2<=x<=4194304"),
            (["simulate", "sidebands"], "--orders", "-1", "0<=x<=10"),
            (["simulate", "sidebands"], "--orders", "11", "0<=x<=10"),
        ],
    )
    def test_out_of_range_exits_2(self, runner, tmp_path, command, flag, value, message):
        out = tmp_path / "out"
        args = list(command)
        if command[0] == "echo-loss":
            args += ["--input", str(synth_fixture(runner, tmp_path / "in"))]
        result = run(runner, ["--out-dir", str(out), *args, flag, value])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()


def negative_axis_csv() -> str:
    """Three Lorentzian modes in S21 and S11 on a frequency axis over -4.8...-2.8 GHz."""
    freqs = np.linspace(-4.8e9, -2.8e9, 401)
    s21 = sum(0.8 * 15e6**2 / ((freqs - f0) ** 2 + 15e6**2) for f0 in (-4.3e9, -3.8e9, -3.3e9))
    rows = [f"{f:.17g},{a:.17g},0,{1 - a / 2:.17g},0\n" for f, a in zip(freqs, s21)]
    return "freq_hz,s21_re,s21_im,s11_re,s11_im\n" + "".join(rows)


class TestAnalysisFlagRanges:
    """Out-of-range analysis, simulate and SI flags and config values are bad usage.

    Each used to exit 3, exit 0 with nan or inf output, or end in a traceback.
    So did an --input sweep too short for the command or without the pair it reads.
    """

    # sweeps that an --input case names, written under that name
    SWEEPS = {
        "s11_only.csv": "freq_hz,s11_re,s11_im\n1e9,0.5,0\n2e9,0.4,0\n3e9,0.5,0\n",
        "two_points.csv": "freq_hz,s21_re,s21_im\n1e9,0.5,0\n2e9,0.25,0\n",
        "negative_axis.csv": negative_axis_csv(),
    }

    CAVITY = ["cavity", "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161"]
    ECHO = ["echo-loss", "--length", "130u", "--vg", "6161"]
    ECHO_R = [*ECHO, "--known-r", "0.1"]
    RABI = ["simulate", "rabi", "--rabi-mhz", "33.4"]
    BUDGET = ["budget", "--power-dbm", "0", "--g", "30k", "--f0", "3.8G", "--t0", "20n"]
    COUPLING = ["coupling", "--f-m", "3.83G"]

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            (ECHO, "--known-r", "nan", "'nan' is not a finite number"),
            (ECHO, "--known-r", "0", "0.0 is not in the range 0<x<=1"),
            (ECHO, "--known-r", "1.5", "1.5 is not in the range 0<x<=1"),
            (ECHO, "--known-alpha", "-1", "-1.0 is not in the range x>=0"),
            (ECHO, "--known-alpha", "nan", "'nan' is not a finite number"),
            (ECHO_R, "--edge-fraction", "0.9", "0.9 is not in the range 0<=x<=0.5"),
            (ECHO_R, "--edge-fraction", "nan", "'nan' is not a finite number"),
            (CAVITY, "--n-mirror", "-4", "-4 is not in the range x>=1"),
            (CAVITY, "--alpha-db-mm", "nan", "'nan' is not a finite number"),
            (CAVITY, "--alpha-db-mm", "0", "0.0 is not in the range x>0"),
            (["simulate", "rabi"], "--rabi-mhz", "-1", "-1.0 is not in the range x>=0"),
            (RABI, "--decay-tau-ns", "0", "0.0 is not in the range x>0"),
            (RABI, "--t-max-ns", "-5", "-5.0 is not in the range x>0"),
            (RABI, "--t-max-ns", "0", "0.0 is not in the range x>0"),
            (["simulate", "odar"], "--pulse-ns", "0", "0.0 is not in the range x>0"),
            (["simulate", "odar"], "--rabi-mhz", "-1", "-1.0 is not in the range x>=0"),
            (["simulate", "sidebands"], "--mod-freq", "-1G", "is not a positive finite number"),
            (["simulate", "sidebands"], "--linewidth", "0", "is not a positive finite number"),
            # SI flags that spell nan or inf without a suffix letter at the end
            (BUDGET, "--g", "NaN", "'NaN' is not a finite number"),
            (BUDGET, "--f0", "Infinity", "'Infinity' is not a finite number"),
            ([*BUDGET, "--waist", "6.8u", "--beam-wavelength", "1.1u"], "--r", "NaN",
             "'NaN' is not a finite number"),
            (COUPLING, "--b-x", "NaN", "'NaN' is not a finite number"),
            (COUPLING, "--f-m", "Infinity", "'Infinity' is not a finite number"),
            (["gate", "--stop", "200n"], "--start", "NaN", "'NaN' is not a finite number"),
            # config values, checked by their flags' types
            (["echo-loss", "--vg", "6161", "--known-r", "0.1"], "length", "abc",
             "not a number: 'abc'"),
            (CAVITY, "alpha_db_mm", "3.2m", "'3.2m' is not a valid float"),
            (CAVITY, "alpha_db_mm", "0", "0.0 is not in the range x>0"),
            (["cavity", "--d", "50u", "--lambda0", "1.7u", "--vg", "6161"], "n_mirror", "40.7",
             "'40.7' is not a valid integer"),
            (["cavity", "--d", "50u", "--lambda0", "1.7u", "--vg", "6161"], "n_mirror", "-4",
             "-4 is not in the range x>=1"),
            (COUPLING, "eps_xy", "NaN", "'NaN' is not a finite number"),
            # a round trip shorter than two time steps of the transform
            (["echo-loss", "--vg", "6161", "--known-r", "0.1"], "--length", "1n",
             "needs a time step of at most half its length"),
            (ECHO_R, "--input", "s11_only.csv", "s21 not present in sweep (has s11)"),
            (CAVITY, "--input", "two_points.csv", "peak finding needs at least 3 samples"),
            # a repeatable flag's config value is its one entry
            (BUDGET, "loss", "abc", "Invalid value for '--loss': 'abc' is not a valid float"),
            # used to exit 3 with "effective length ... smaller than d"
            (CAVITY, "--input", "negative_axis.csv",
             "cavity frequencies must be positive; the sweep starts at -4.8e+09 Hz"),
        ],
    )
    def test_exits_2(self, runner, tmp_path, command, flag, value, message):
        out = tmp_path / "out"
        args = list(command)
        if command[0] in ("cavity", "echo-loss", "gate"):
            args += ["--input", str(synth_fixture(runner, tmp_path / "in"))]
        if value in self.SWEEPS:
            (tmp_path / value).write_text(self.SWEEPS[value])
            value = str(tmp_path / value)
        result = run(runner, ["--out-dir", str(out), *flag_or_config(tmp_path, args, flag, value)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()


class TestSeedAndSpectrumFlags:
    """Seeds, the cavity prominence and the ODAR axis; each used to end in a traceback or exit 0/3."""

    PAPER = ["--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"]
    CAVITY = ["cavity", "--d", "50u", "--lambda0", "1.7u", "--n-mirror", "40", "--vg", "6161"]
    BUDGET = ["budget", "--power-dbm", "0", "--g", "30k", "--f0", "3.8G", "--t0", "20n"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--seed", "-1", "synth", "--noise", "1e-5"], "-1 is not in the range x>=0"),
            (["--seed", "-1", "simulate", "rabi", "--rabi-mhz", "1", "--noise", "0.1"],
             "-1 is not in the range x>=0"),
            (["--seed", "1.5", "synth", "--noise", "1e-5"], "'1.5' is not a valid integer"),
            (["simulate", "odar", "--f-spin-ghz", "-1"], "-1.0 is not in the range x>0"),
            (["simulate", "odar", "--f-spin-ghz", "0"], "0.0 is not in the range x>0"),
            (["simulate", "odar", "--span-mhz", "0"], "--span-mhz 0 must be positive"),
            (["simulate", "odar", "--span-mhz", "-5"], "--span-mhz -5 must be positive"),
            (["--config", "no-such-dir/run.cfg", *BUDGET], "error: config: cannot read"),
        ],
    )
    def test_exits_2(self, runner, tmp_path, args, message):
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), *args])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            ("nan", "'nan' is not a finite number"),
            ("inf", "'inf' is not a finite number"),
            ("-1", "-1.0 is not in the range x>=0"),
        ],
    )
    def test_prominence_exits_2(self, runner, tmp_path, value, message):
        path = synth_fixture(runner, tmp_path / "in", extra=self.PAPER)
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), *self.CAVITY, "--input", str(path),
                              "--prominence", value])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    def test_prominence_zero_is_valid(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path / "in", extra=self.PAPER)
        result = run(runner, ["--out-dir", str(tmp_path / "out"), *self.CAVITY,
                              "--input", str(path), "--prominence", "0", "--spacing", "30M"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("seed", ["abc", "1.5", "-3"])
    def test_config_seed_exits_2(self, runner, tmp_path, seed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {seed}\n")
        result = run(runner, ["--config", str(cfg), "--out-dir", str(tmp_path), *self.BUDGET])
        assert result.exit_code == 2, result.output
        message = {"abc": "'abc' is not a valid integer", "1.5": "'1.5' is not a valid integer",
                   "-3": "-3 is not in the range x>=0"}[seed]
        assert f"Invalid value for '--seed': {message}" in result.output


class TestSynthUsage:
    """Flag combinations synthesis cannot honour are bad usage, not analysis failures."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--f-lo", "5G", "--f-hi", "4G"], "--f-hi 4e+09 Hz must exceed --f-lo 5e+09 Hz"),
            (["--f-lo", "4G", "--f-hi", "4G"], "must exceed --f-lo"),
            (["--idt-bw", "0", "--idt-center", "3.8G"], "--idt-bw 0.0 is not a positive finite"),
            (["--idt-bw", "-0.2", "--idt-center", "3.8G"], "is not a positive finite"),
            (["--idt-bw", "inf", "--idt-center", "3.8G"], "is not a positive finite"),
            (["--idt-bw", "nan", "--idt-center", "3.8G"], "is not a positive finite"),
            (["--t", "2"], "2.0 is not in the range 0<=x<=1"),
            (["--t", "-0.1"], "is not in the range 0<=x<=1"),
            (["--t", "nan"], "'nan' is not a finite number"),
            (["--r", "1.5"], "1.5 is not in the range 0<=x<=1"),
            (["--r", "nan"], "'nan' is not a finite number"),
            (["--crosstalk", "inf"], "'inf' is not a finite number"),
            (["--crosstalk", "-inf"], "'-inf' is not a finite number"),
            (["--crosstalk", "nan"], "'nan' is not a finite number"),
            # a negative scale used to write a noiseless file and exit 0
            (["--noise", "-1"], "-1.0 is not in the range x>=0"),
            (["--noise", "inf"], "'inf' is not a finite number"),
            (["--noise", "nan"], "'nan' is not a finite number"),
            (["--alpha-db-mm", "-1"], "-1.0 is not in the range x>=0"),
            (["--alpha-db-mm", "inf"], "'inf' is not a finite number"),
            (["--alpha-db-mm", "nan"], "'nan' is not a finite number"),
        ],
    )
    def test_exits_2(self, runner, tmp_path, flags, message):
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), "--seed", "1", "synth", *flags])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()


class TestEchoLoss:
    def test_reference_alpha(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "echo-loss",
                "--input", str(path),
                "--length", "130u", "--vg", "6161", "--known-r", "0.1",
            ],
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "loss_model.txt").read_text()
        alpha = float(
            next(
                ln for ln in report.splitlines() if ln.startswith("alpha_db_per_mm")
            ).split("=")[1]
        )
        assert alpha == pytest.approx(3.2, rel=0.005)
        train = (tmp_path / "echo_train.csv").read_text().strip().splitlines()
        assert train[0] == "n,tau_ns,h_max,2ln_h_max"
        assert len(train) >= 4

    def test_known_alpha_mode(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "echo-loss",
                "--input", str(path),
                "--length", "130u", "--vg", "6161", "--known-alpha", "3.2",
            ],
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "loss_model.txt").read_text()
        r_val = float(
            next(ln for ln in report.splitlines() if ln.startswith("r=")).split("=")[1]
        )
        assert r_val == pytest.approx(0.1, rel=0.01)

    def test_flat_fixture_zero_alpha(self, runner, tmp_path):
        path = synth_fixture(
            runner,
            tmp_path,
            extra=["--t", "0.9", "--r", "1.0", "--alpha-db-mm", "0"],
        )
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "echo-loss",
                "--input", str(path),
                "--length", "130u", "--vg", "6161", "--known-r", "1.0",
                "--n-max", "3",
            ],
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "loss_model.txt").read_text()
        alpha = float(
            next(
                ln for ln in report.splitlines() if ln.startswith("alpha_db_per_mm")
            ).split("=")[1]
        )
        assert alpha == pytest.approx(0.0, abs=1e-6)

    def test_conflicting_known_flags(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "echo-loss",
                "--input", str(path),
                "--length", "130u", "--vg", "6161",
                "--known-r", "0.1", "--known-alpha", "3.2",
            ],
        )
        assert result.exit_code == 2

    def test_overflowing_round_trip_exits_2(self, runner, tmp_path):
        # 2 L / v_g overflows to inf; this once exited 3 with "no samples in echo window 0"
        path = synth_fixture(runner, tmp_path)
        out = tmp_path / "out"
        result = run(
            runner,
            [
                "--out-dir", str(out), "echo-loss", "--input", str(path),
                "--length", "1e300", "--vg", "1e-300", "--known-r", "0.1",
            ],
        )
        assert result.exit_code == 2, result.output
        assert "round trip inf s is not positive and finite" in result.output
        assert not out.exists()

    def test_neither_known_flag(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "echo-loss",
                "--input", str(path),
                "--length", "130u", "--vg", "6161",
            ],
        )
        assert result.exit_code == 2


class TestGateAndConvert:
    def test_gate_output_parses(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path, extra=["--crosstalk", "0.05"])
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "gate",
                "--input", str(path),
                "--start", "10n", "--stop", "500n",
                "--output", "gated.s2p",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "wrote" in result.output
        sweep = parse_touchstone((tmp_path / "gated.s2p").read_bytes())
        assert len(sweep.freqs) == 4001

    @pytest.mark.parametrize(
        "start, stop, message",
        [
            ("500n", "10n", "gate stop precedes gate start"),
            # before the time axis: used to write an all-zero sweep and exit 0
            ("-1", "-0.5", "gate [-1, -0.5] s keeps no sample of time axis [0, 2e-06] s"),
        ],
        ids=["inverted", "before_time_axis"],
    )
    def test_gate_inverted_window(self, runner, tmp_path, start, stop, message):
        path = synth_fixture(runner, tmp_path / "in")
        out = tmp_path / "out"
        result = run(
            runner,
            [
                "--out-dir", str(out), "gate",
                "--input", str(path),
                "--start", start, "--stop", stop,
            ],
        )
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    def test_convert_round_trip(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "convert",
                "--input", str(path), "--output", "converted.csv",
                "--pairs", "s21",
            ],
        )
        assert result.exit_code == 0, result.output
        back = parse_csv_sweep((tmp_path / "converted.csv").read_bytes())
        original = parse_touchstone(path.read_bytes())
        assert np.allclose(back.pair((2, 1)), original.pair((2, 1)), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("impedance", ["nan", "inf", "0"])
    def test_convert_bad_impedance_exits_2(self, runner, tmp_path, impedance):
        path = tmp_path / "bad.s2p"
        path.write_text(f"# GHZ S RI R {impedance}\n1 0 0 0 0 0 0 0 0\n")
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), "convert", "--input", str(path),
                              "--output", "x.s2p"])
        assert result.exit_code == 2, result.output
        assert "line 1: impedance" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("db.s2p", "# GHZ S DB R 50\n1 7000 0 0 0 0 0 0 0\n",
             "line 2: dB value 7000.0 overflows a magnitude"),
            ("db.csv", "freq_hz,s21_db,s21_deg\n1e9,7000,0\n",
             "line 2: dB value 7000.0 overflows a magnitude"),
            ("ghz.s2p", "# GHZ S RI R 50\n1e300 0 0 0 0 0 0 0 0\n",
             "line 2: frequency 1e+300 overflows the unit scale"),
        ],
    )
    def test_convert_overflowing_cell_exits_2(self, runner, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), "convert", "--input", str(path),
                              "--output", "x.s2p"])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # an unknown name used to exit 3, as an analysis failure
            ("s99", "not a two-port pair name: 's99'"),
            ("s21,x", "not a two-port pair name: 'x'"),
        ],
    )
    def test_convert_bad_pairs_exits_2(self, runner, tmp_path, pairs, message):
        path = synth_fixture(runner, tmp_path / "in")
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), "convert", "--input", str(path),
                              "--output", "x.csv", "--pairs", pairs])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    def test_convert_absent_pairs_exits_2(self, runner, tmp_path):
        path = tmp_path / "s21.csv"
        path.write_text("freq_hz,s21_re,s21_im\n1e9,0.5,0\n2e9,0.5,0\n")
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), "convert", "--input", str(path),
                              "--output", "x.csv", "--pairs", "s11,s22"])
        assert result.exit_code == 2, result.output
        assert "none of the requested pairs present" in result.output
        assert not out.exists()

    def test_convert_bad_extension(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "convert",
                "--input", str(path), "--output", "converted.json",
            ],
        )
        assert result.exit_code == 2


class TestBudgetAndCoupling:
    def test_paper_budget(self, runner, tmp_path):
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "budget",
                "--power-dbm", "0", "--loss", "-10", "--loss", "-10",
                "--g", "30k", "--f0", "3.8G", "--t0", "20n",
            ],
        )
        assert result.exit_code == 0, result.output
        values = {}
        for line in result.output.strip().splitlines():
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        assert float(values["n"]) == pytest.approx(7.98e10, rel=0.01)
        assert float(values["rabi"]) == pytest.approx(8.47e9, rel=0.01)

    def test_budget_beam_location(self, runner, tmp_path):
        base = run(
            runner,
            [
                "--out-dir", str(tmp_path), "budget",
                "--power-dbm", "0", "--loss", "-10", "--loss", "-10",
                "--g", "30k", "--f0", "3.8G", "--t0", "20n",
                "--waist", "6.8u", "--beam-wavelength", "1.1u",
                "--r", "10u", "--z", "70u",
            ],
        )
        assert base.exit_code == 0, base.output
        values = {}
        for line in base.output.strip().splitlines():
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        assert float(values["beam_factor"]) == pytest.approx(0.163, rel=0.01)
        assert float(values["rabi"]) == pytest.approx(8.47e9 * 0.1633, rel=0.02)

    def test_config_loss_matches_flag(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("loss = -10\n")
        flags = ["--power-dbm", "0", "--g", "30k", "--f0", "3.8G", "--t0", "20n"]
        by_flag = run(runner, ["--out-dir", str(tmp_path), "budget", "--loss", "-10", *flags])
        by_config = run(runner, ["--config", str(cfg), "--out-dir", str(tmp_path), "budget", *flags])
        assert by_flag.exit_code == 0, by_flag.output
        assert by_config.exit_code == 0, by_config.output
        assert by_config.stdout_bytes == by_flag.stdout_bytes

    def test_budget_gain_entry_rejected(self, runner, tmp_path):
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "budget",
                "--power-dbm", "0", "--loss", "5",
                "--g", "30k", "--f0", "3.8G", "--t0", "20n",
            ],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            # nan used to print p_acoustic=nan, n=nan and rabi=nan with exit 0
            (["--power-dbm", "nan"], "'nan' is not a finite number"),
            (["--power-dbm", "inf"], "'inf' is not a finite number"),
            (["--power-dbm", "0", "--loss", "nan"], "'nan' is not a finite number"),
            (["--power-dbm", "0", "--loss", "-inf"], "'-inf' is not a finite number"),
            # finite in dBm, but past the largest power in watts or phonon number
            (["--power-dbm", "1e300"], "overflows the phonon number"),
            (["--power-dbm", "3060"], "overflows the phonon number"),
        ],
    )
    def test_budget_non_finite_power_exits_2(self, runner, tmp_path, flags, message):
        result = run(
            runner,
            ["--out-dir", str(tmp_path), "budget", *flags, "--g", "30k", "--f0", "3.8G", "--t0", "20n"],
        )
        assert result.exit_code == 2, result.output
        assert message in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            # each of these once ended in an OverflowError traceback (exit 1)
            # or printed inf or a negative rate with exit 0
            (["budget", "--power-dbm", "0", "--g", "30k", "--f0", "3.8G", "--t0", "20n",
              "--waist", "1u", "--beam-wavelength", "1u", "--z", "1e300"], None),
            (["coupling", "--f-m", "3.83G", "--waist", "1u", "--beam-wavelength", "1u",
              "--z", "1e300"], None),
            (["coupling", "--f-m", "3.83G", "--eps-xx", "2e-10", "--gamma-s", "1e-300"],
             "B_z overflows"),
            (["coupling", "--f-m", "3.83G", "--eps-xx", "2e-10", "--lambda-so", "1e-320"],
             "coupling rate g overflows"),
            (["budget", "--power-dbm", "0", "--g", "-30k", "--f0", "3.8G", "--t0", "20n"],
             "coupling rate g must be nonnegative"),
            (["budget", "--power-dbm", "0", "--g", "1e305", "--f0", "3.8G", "--t0", "20n"],
             "Rabi rate sqrt(n) g overflows"),
            (["budget", "--power-dbm", "0", "--g", "30k", "--f0", "1e300", "--t0", "1e-300"],
             "single-phonon power overflows"),
            (["budget", "--power-dbm", "0", "--g", "30k", "--f0", "3.8G", "--t0", "20n",
              "--waist", "1e-300", "--beam-wavelength", "1u"], "no positive, finite Rayleigh range"),
            # each wrote a CSV holding NaN with exit 0
            (["simulate", "sidebands", "--linewidth", "1e300"], "squares out of the float range"),
            (["simulate", "sidebands", "--linewidth", "1e-300"], "squares out of the float range"),
        ],
    )
    def test_extreme_values_keep_the_contract(self, runner, tmp_path, args, message):
        result = run(runner, ["--out-dir", str(tmp_path), *args])
        if message is None:
            # far from focus the beam factor tends to 0 and stays finite
            assert result.exit_code == 0, result.output
            assert "beam_factor=" in result.output and "inf" not in result.output
        else:
            assert result.exit_code == 2, result.output
            assert message in result.output

    def test_coupling_fields(self, runner, tmp_path):
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "coupling",
                "--f-m", "3.83G", "--eps-xx", "2e-10",
            ],
        )
        assert result.exit_code == 0, result.output
        values = {}
        for line in result.output.strip().splitlines():
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        assert float(values["b_z"]) == pytest.approx(0.1368, rel=1e-3)
        assert float(values["b_x"]) == pytest.approx(0.1932, rel=1e-3)
        assert float(values["g"]) == pytest.approx(30574.0, rel=1e-3)


class TestSimulate:
    def test_rabi_trace(self, runner, tmp_path):
        result = run(
            runner,
            ["--out-dir", str(tmp_path), "simulate", "rabi", "--rabi-mhz", "33.4"],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "rabi_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t_s,population"
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        t = np.array([r[0] for r in rows])
        p = np.array([r[1] for r in rows])
        first_max = t[np.argmax(p[: len(p) // 4])]
        assert first_max == pytest.approx(15e-9, rel=0.05)

    def test_odar_peak(self, runner, tmp_path):
        result = run(
            runner,
            ["--out-dir", str(tmp_path), "simulate", "odar", "--f-spin-ghz", "3.83"],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "odar_spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "f_hz,population"
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        f = np.array([r[0] for r in rows])
        p = np.array([r[1] for r in rows])
        assert f[np.argmax(p)] == pytest.approx(3.83e9, rel=1e-4)

    def test_sidebands_output(self, runner, tmp_path):
        result = run(
            runner,
            ["--out-dir", str(tmp_path), "simulate", "sidebands", "--mod-index", "0.5"],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "sideband_spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "f_hz,intensity"

    def test_sidebands_high_order_large_index(self, runner, tmp_path):
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "simulate", "sidebands",
                "--mod-index", "-20", "--orders", "10",
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "sideband_spectrum.csv").read_text().strip().splitlines()[1:]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    @pytest.mark.parametrize(
        "value, message",
        [
            ("25", "25.0 is not in the range -20<=x<=20"),
            ("-20.5", "is not in the range -20<=x<=20"),
            ("inf", "is not in the range -20<=x<=20"),
            ("nan", "'nan' is not a finite number"),
        ],
    )
    def test_sidebands_mod_index_out_of_range_exits_2(self, runner, tmp_path, value, message):
        out = tmp_path / "out"
        result = run(
            runner, ["--out-dir", str(out), "simulate", "sidebands", "--mod-index", value]
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    def test_rabi_noise_needs_seed(self, runner, tmp_path):
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "simulate", "rabi",
                "--rabi-mhz", "33.4", "--noise", "0.02",
            ],
        )
        assert result.exit_code == 2

    def test_rabi_seeded_deterministic(self, runner, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for sub in (a, b):
            result = run(
                runner,
                [
                    "--out-dir", str(sub), "--seed", "12", "simulate", "rabi",
                    "--rabi-mhz", "33.4", "--noise", "0.02",
                ],
            )
            assert result.exit_code == 0
        assert (a / "rabi_trace.csv").read_bytes() == (b / "rabi_trace.csv").read_bytes()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            # each used to exit 0 and write inf/nan rows, or a noiseless trace for -1
            ("rabi", ["--rabi-mhz", "nan"], "'nan' is not a finite number"),
            ("rabi", ["--rabi-mhz", "33", "--decay-tau-ns", "nan"], "'nan' is not a finite number"),
            ("rabi", ["--rabi-mhz", "33", "--t-max-ns", "inf"], "'inf' is not a finite number"),
            ("rabi", ["--rabi-mhz", "33", "--noise", "inf"], "'inf' is not a finite number"),
            ("rabi", ["--rabi-mhz", "33", "--noise", "-1"], "-1.0 is not in the range x>=0"),
            ("odar", ["--rabi-mhz", "inf"], "'inf' is not a finite number"),
            ("odar", ["--f-spin-ghz", "nan"], "'nan' is not a finite number"),
            ("odar", ["--pulse-ns", "nan"], "'nan' is not a finite number"),
            ("odar", ["--span-mhz", "-inf"], "'-inf' is not a finite number"),
            # grids that overflow or collapse: each used to exit 2 with a message
            # naming no flag, the first after two numpy warnings
            ("odar", ["--f-spin-ghz", "1e300"],
             "--f-spin-ghz, --span-mhz and --points give no strictly increasing finite grid "
             "from inf to inf"),
            ("sidebands", ["--mod-freq", "20n", "--carrier", "3.83G"],
             "--carrier, --mod-freq, --orders and --points give no strictly increasing finite "
             "grid from 3.83e+09 to 3.83e+09"),
            ("rabi", ["--rabi-mhz", "33", "--t-max-ns", "1e-320"],
             "--t-max-ns and --points give no strictly increasing finite grid from 0 to 0"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_float_flags_exit_2(self, runner, tmp_path, command, flags, message):
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), "--seed", "1", "simulate", command, *flags])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()


# Value pools for the exit-contract fuzz: bad and edge-case spellings next
# to working ones. Sizes stay small (points <= 4096, oversample <= 8,
# n-max <= 16) so that no example allocates much.
SI_POOL = ["nan", "Infinity", "-inf", "1e400", "1e300", "1e-300", "-1", "0", "1n", "10n", "200n",
           "1.7u", "50u", "58.565u", "130u", "1", "6161", "3.83G", "abc", "3x", ""]
FLOAT_POOL = ["nan", "inf", "1e400", "-1", "0", "0.1", "0.5", "1", "2", "25", "-25", "abc", ""]
INT_POOL = ["-1", "0", "1", "2", "10", "40", "400000", "1.5", "abc"]
POINTS_POOL = ["-1", "0", "1", "2", "16", "401", "4096", "abc"]
INPUT_POOL = ["paper.s2p", "two_points.csv", "s11_only.csv", "negative_axis.csv", "bad_line.s2p",
              "absent.s2p"]

# command: (a working call's flags, the pool each flag may draw from)
FUZZ_COMMANDS = {
    "cavity": (
        {"--input": "paper.s2p", "--d": "50u", "--lambda0": "1.7u", "--n-mirror": "40",
         "--vg": "6161"},
        {"--input": INPUT_POOL, "--d": SI_POOL, "--lambda0": SI_POOL, "--n-mirror": INT_POOL,
         "--vg": SI_POOL, "--alpha-db-mm": FLOAT_POOL, "--prominence": FLOAT_POOL,
         "--spacing": SI_POOL, "--coupling": ["overcoupled", "bogus"]},
    ),
    "echo-loss": (
        {"--input": "paper.s2p", "--length": "58.565u", "--vg": "6161", "--known-r": "0.6"},
        {"--input": INPUT_POOL, "--length": SI_POOL, "--vg": SI_POOL, "--known-r": FLOAT_POOL,
         "--known-alpha": FLOAT_POOL, "--n-max": ["-1", "0", "1", "4", "16"],
         "--edge-fraction": FLOAT_POOL,
         "--oversample": ["-1", "0", "1", "2", "8"]},
    ),
    "gate": (
        {"--input": "paper.s2p", "--start": "10n", "--stop": "200n"},
        {"--input": INPUT_POOL, "--start": SI_POOL, "--stop": SI_POOL,
         "--output": ["gated.csv", "gated.txt"]},
    ),
    "convert": (
        {"--input": "paper.s2p", "--output": "sweep.csv"},
        {"--input": INPUT_POOL, "--output": ["sweep.s2p", "sweep.json"],
         "--pairs": ["s21", "s11,s22", "s99", ""], "--representation": ["db_phase", "bogus"]},
    ),
    "budget": (
        {"--power-dbm": "0", "--loss": "-10", "--g": "30k", "--f0": "3.8G", "--t0": "20n"},
        {"--power-dbm": FLOAT_POOL, "--loss": FLOAT_POOL, "--g": SI_POOL, "--f0": SI_POOL,
         "--t0": SI_POOL, "--waist": SI_POOL, "--beam-wavelength": SI_POOL, "--r": SI_POOL,
         "--z": SI_POOL},
    ),
    "coupling": (
        {"--f-m": "3.83G"},
        {"--f-m": SI_POOL, "--b-x": SI_POOL, "--eps-xx": SI_POOL, "--eps-yz": SI_POOL,
         "--gamma-s": SI_POOL, "--lambda-so": SI_POOL, "--d-s": SI_POOL, "--f-s": SI_POOL,
         "--theta-deg": SI_POOL, "--waist": SI_POOL, "--beam-wavelength": SI_POOL},
    ),
    "simulate rabi": (
        {"--rabi-mhz": "33.4"},
        {"--rabi-mhz": FLOAT_POOL, "--decay-tau-ns": FLOAT_POOL, "--t-max-ns": FLOAT_POOL,
         "--points": POINTS_POOL, "--noise": FLOAT_POOL},
    ),
    "simulate odar": (
        {},
        {"--rabi-mhz": FLOAT_POOL, "--f-spin-ghz": FLOAT_POOL, "--pulse-ns": FLOAT_POOL,
         "--span-mhz": FLOAT_POOL, "--points": POINTS_POOL},
    ),
    "simulate sidebands": (
        {},
        {"--carrier": SI_POOL, "--mod-freq": SI_POOL, "--mod-index": FLOAT_POOL,
         "--linewidth": SI_POOL, "--orders": INT_POOL, "--points": POINTS_POOL},
    ),
    "synth": (
        {"--n-points": "401"},
        {"--t": FLOAT_POOL, "--r": FLOAT_POOL, "--alpha-db-mm": FLOAT_POOL, "--length": SI_POOL,
         "--vg": SI_POOL, "--f-lo": SI_POOL, "--f-hi": SI_POOL, "--n-points": POINTS_POOL,
         "--crosstalk": FLOAT_POOL, "--idt-center": SI_POOL, "--idt-bw": FLOAT_POOL,
         "--noise": FLOAT_POOL, "--name": ["x.csv"]},
    ),
}


@st.composite
def cli_calls(draw):
    """A working call with up to two flag values drawn from the pools, plus group flags."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    base, pools = FUZZ_COMMANDS[command]
    values = dict(base)
    for flag in draw(st.lists(st.sampled_from(sorted(pools)), max_size=2, unique=True)):
        values[flag] = draw(st.sampled_from(pools[flag]))
    group = []
    # mostly valid group flags, so that most examples reach the command itself
    config = draw(st.sampled_from([None] * 5 + ["device.cfg", "broken.cfg", "absent.cfg"]))
    if config is not None:
        group += ["--config", config]
    seed = draw(st.sampled_from([None] * 4 + ["1"] * 4 + ["-1", "x"]))
    if seed is not None:
        group += ["--seed", seed]
    if draw(st.booleans()):
        group.append("--plot")
    return [*group, *command.split(), *(a for item in values.items() for a in item)]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small paper-cavity synth fixture, the short and partial sweeps, and configs."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    result = CliRunner().invoke(
        main,
        ["--out-dir", str(root), "synth", "--name", "paper.s2p", "--n-points", "1001",
         "--length", "58.565u", "--r", "0.6", "--alpha-db-mm", "2.0"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    for name, text in TestAnalysisFlagRanges.SWEEPS.items():
        (root / name).write_text(text)
    (root / "bad_line.s2p").write_text("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n2 0 0 zz 0 0 0 0 0\n")
    (root / "device.cfg").write_text("d = 50u\nlambda0 = 1.7u\nn_mirror = 40\nvg = 6161\nloss = -3\n")
    (root / "broken.cfg").write_text("d 50u\n")
    return root


class TestExitContract:
    """Every call exits 0, 2 or 3 without a traceback, and a failed call writes nothing."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(args=cli_calls())
    def test_any_call_keeps_the_contract(self, fuzz_inputs, args):
        names = set(INPUT_POOL) | {"device.cfg", "broken.cfg", "absent.cfg"}
        args = [str(fuzz_inputs / a) if a in names else a for a in args]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            result = CliRunner().invoke(main, ["--out-dir", str(out), *args])
            written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert result.exit_code in (0, 2, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            repr(result.exception)
        )
        assert not [name for name in written if ".tmp" in name], written
        if result.exit_code != 0:
            assert written == [], (result.output, written)
            assert result.stdout == "", result.output
