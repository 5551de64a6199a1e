"""Command-line surface: exit codes, output files, determinism."""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from sawkit.cli import _write_atomic, main
from sawkit.ingest import parse_csv_sweep, parse_touchstone


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


class TestWriteAtomic:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            _write_atomic(target, b"data")
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []


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
        ],
    )
    def test_non_positive_value_exits_2(self, runner, tmp_path, command, flag, value):
        out = tmp_path / "out"
        args = list(command)
        if command[0] in ("cavity", "echo-loss"):
            args += ["--input", str(synth_fixture(runner, tmp_path / "in"))]
        result = run(runner, ["--out-dir", str(out), *args, flag, value])
        assert result.exit_code == 2, result.output
        assert "positive finite" in result.output
        assert not out.exists()


class TestIntegerFlags:
    """Integer minimums and the point limit are bad usage, caught before allocating."""

    ECHO = ["echo-loss", "--length", "130u", "--vg", "6161", "--known-r", "0.1"]

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
        ],
    )
    def test_exits_2(self, runner, tmp_path, flags, message):
        out = tmp_path / "out"
        result = run(runner, ["--out-dir", str(out), "synth", *flags])
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

    def test_gate_inverted_window(self, runner, tmp_path):
        path = synth_fixture(runner, tmp_path)
        result = run(
            runner,
            [
                "--out-dir", str(tmp_path), "gate",
                "--input", str(path),
                "--start", "500n", "--stop", "10n",
            ],
        )
        assert result.exit_code == 2

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
