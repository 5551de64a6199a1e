"""Touchstone and CSV sweep parsing, writing, and round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sawkit.errors import ArgumentError, FormatError
from sawkit.ingest import (
    NetworkSweep,
    pair_from_name,
    pair_name,
    parse_csv_sweep,
    parse_touchstone,
    write_csv,
    write_touchstone,
)

BASIC_S2P = b"""! two-point fixture
# GHz S RI R 50
1.0 0.1 -0.2 0.5 0.25 0.5 0.25 0.05 0.0
2.0 0.2 -0.1 0.4 0.30 0.4 0.30 0.10 0.1
"""


def make_sweep(n=21, seed=0):
    rng = np.random.default_rng(seed)
    freqs = np.linspace(1e9, 2e9, n)
    s = {}
    for pair in ((1, 1), (2, 1), (1, 2), (2, 2)):
        s[pair] = rng.normal(size=n) + 1j * rng.normal(size=n)
    return NetworkSweep(freqs=freqs, s=s)


class TestParseTouchstone:
    def test_basic_ri(self):
        sweep = parse_touchstone(BASIC_S2P)
        assert np.allclose(sweep.freqs, [1e9, 2e9])
        assert sweep.pair((1, 1))[0] == pytest.approx(0.1 - 0.2j)
        assert sweep.pair((2, 1))[1] == pytest.approx(0.4 + 0.3j)
        assert sweep.ref_impedance == 50.0

    def test_frequency_units(self):
        for unit, scale in (("HZ", 1.0), ("KHZ", 1e3), ("MHZ", 1e6), ("GHZ", 1e9)):
            text = f"# {unit} S RI R 50\n1.0 0 0 0 0 0 0 0 0\n2.0 0 0 0 0 0 0 0 0\n"
            sweep = parse_touchstone(text.encode())
            assert sweep.freqs[0] == pytest.approx(scale)

    def test_missing_option_line_rejected(self):
        text = b"1.0 0.1 0 0 0 0 0 0 0\n2.0 0.1 0 0 0 0 0 0 0\n"
        with pytest.raises(FormatError, match="line 1"):
            parse_touchstone(text)

    def test_single_row_literal(self):
        sweep = parse_touchstone(b"# GHZ S RI R 50\n3.8 0.5 0 0.1 0 0.1 0 0.5 0\n")
        assert sweep.freqs.tolist() == [3.8e9]
        assert sweep.pair((2, 1))[0] == 0.1 + 0j

    def test_ma_uses_degrees(self):
        text = b"# GHZ S MA R 50\n1.0 1.0 90 0 0 0 0 0 0\n2.0 1.0 90 0 0 0 0 0 0\n"
        sweep = parse_touchstone(text)
        assert sweep.pair((1, 1))[0] == pytest.approx(1j, abs=1e-12)

    def test_db_representation(self):
        text = b"# GHZ S DB R 50\n1.0 -20 0 0 0 0 0 0 0\n2.0 -20 0 0 0 0 0 0 0\n"
        sweep = parse_touchstone(text)
        assert abs(sweep.pair((1, 1))[0]) == pytest.approx(0.1, rel=1e-12)

    def test_custom_reference_impedance(self):
        text = b"# GHZ S RI R 75\n1.0 0 0 0 0 0 0 0 0\n2.0 0 0 0 0 0 0 0 0\n"
        assert parse_touchstone(text).ref_impedance == 75.0

    def test_comments_and_blanks_skipped(self):
        text = b"!a\n\n# GHZ S RI R 50\n! mid comment\n1.0 0 0 0 0 0 0 0 0\n\n2.0 0 0 0 0 0 0 0 0\n"
        assert len(parse_touchstone(text).freqs) == 2

    def test_rejects_version_two(self):
        text = b"[Version] 2.0\n# GHZ S RI R 50\n"
        with pytest.raises(FormatError, match="(?i)version 2|v2"):
            parse_touchstone(text)

    def test_rejects_non_s_parameters(self):
        text = b"# GHZ Y RI R 50\n1.0 0 0 0 0 0 0 0 0\n2.0 0 0 0 0 0 0 0 0\n"
        with pytest.raises(FormatError):
            parse_touchstone(text)

    def test_rejects_wrong_column_count(self):
        text = b"# GHZ S RI R 50\n1.0 0 0 0 0 0 0 0\n"
        with pytest.raises(FormatError, match="line 2"):
            parse_touchstone(text)

    def test_rejects_non_increasing_frequency(self):
        text = b"# GHZ S RI R 50\n2.0 0 0 0 0 0 0 0 0\n1.0 0 0 0 0 0 0 0 0\n"
        with pytest.raises(FormatError, match="line 3"):
            parse_touchstone(text)

    def test_rejects_non_finite(self):
        # both parsers share one row reader, so they reject the same cells
        for bad in ("nan", "inf", "-inf"):
            touchstone = f"# GHZ S RI R 50\n1.0 0 0 0 0 0 0 0 0\n2.0 {bad} 0 0 0 0 0 0 0\n"
            with pytest.raises(FormatError, match="line 3"):
                parse_touchstone(touchstone.encode())
            csv_text = f"freq_hz,s21_re,s21_im\n1e9,0.5,0\n2e9,0.4,{bad}\n"
            with pytest.raises(FormatError, match="line 3"):
                parse_csv_sweep(csv_text.encode())
            db_text = f"freq_hz,s21_db,s21_deg\n1e9,-6,0\n2e9,{bad},0\n"
            with pytest.raises(FormatError, match="line 3"):
                parse_csv_sweep(db_text.encode())

    def test_rejects_empty(self):
        with pytest.raises(FormatError):
            parse_touchstone(b"! nothing here\n")

    def test_rejects_two_option_lines(self):
        text = b"# GHZ S RI R 50\n# GHZ S RI R 50\n1.0 0 0 0 0 0 0 0 0\n2.0 0 0 0 0 0 0 0 0\n"
        with pytest.raises(FormatError):
            parse_touchstone(text)

    @given(st.binary(max_size=400))
    @settings(max_examples=150, deadline=None)
    def test_fuzz_never_crashes(self, blob):
        try:
            sweep = parse_touchstone(blob)
        except FormatError:
            return
        assert isinstance(sweep, NetworkSweep)

    @given(st.text(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_text_never_crashes(self, text):
        try:
            parse_touchstone(text.encode("utf-8", "replace"))
        except FormatError:
            return


class TestWriteTouchstone:
    @pytest.mark.parametrize("rep", ["RI", "MA", "DB"])
    def test_round_trip(self, rep):
        sweep = make_sweep()
        back = parse_touchstone(write_touchstone(sweep, representation=rep))
        assert np.allclose(back.freqs, sweep.freqs, rtol=1e-12)
        for pair in sweep.s:
            assert np.allclose(back.pair(pair), sweep.pair(pair), rtol=1e-9, atol=1e-12)

    def test_zero_magnitude_survives_db(self):
        freqs = np.array([1e9, 2e9])
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): np.array([0.0 + 0j, 1.0 + 0j])})
        back = parse_touchstone(write_touchstone(sweep, representation="DB"))
        assert abs(back.pair((2, 1))[0]) <= 1e-12

    def test_absent_pairs_written_as_zero(self):
        freqs = np.array([1e9, 2e9])
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): np.array([0.5 + 0j, 0.5 + 0j])})
        back = parse_touchstone(write_touchstone(sweep))
        assert np.allclose(back.pair((1, 1)), 0.0)

    def test_rejects_unknown_unit(self):
        with pytest.raises(ArgumentError):
            write_touchstone(make_sweep(), unit="THZ")


class TestCsv:
    def test_default_headers_round_trip(self):
        sweep = make_sweep()
        data = write_csv(sweep, sorted(sweep.s), representation="ri")
        back = parse_csv_sweep(data)
        assert np.allclose(back.freqs, sweep.freqs)
        for pair in sweep.s:
            assert np.allclose(back.pair(pair), sweep.pair(pair), rtol=1e-12, atol=1e-14)

    def test_db_phase_round_trip(self):
        sweep = make_sweep()
        data = write_csv(sweep, [(2, 1)], representation="db_phase")
        back = parse_csv_sweep(data)
        assert np.allclose(back.pair((2, 1)), sweep.pair((2, 1)), rtol=1e-9, atol=1e-12)

    def test_column_spec_mapping(self):
        text = b"f,re,im\n1e9,0.5,0.1\n2e9,0.4,0.2\n"
        sweep = parse_csv_sweep(
            text, column_spec={"freq": "f", "s21_re": "re", "s21_im": "im"}
        )
        assert sweep.pair((2, 1))[0] == pytest.approx(0.5 + 0.1j)

    def test_unknown_header_lists_available(self):
        text = b"frequency,s21_real\n1e9,0.5\n2e9,0.4\n"
        with pytest.raises(FormatError, match="frequency"):
            parse_csv_sweep(text)

    def test_conflicting_representations_rejected(self):
        text = b"freq_hz,s21_re,s21_im,s21_db,s21_deg\n1e9,0.5,0,-6,0\n2e9,0.4,0,-8,0\n"
        with pytest.raises(FormatError):
            parse_csv_sweep(text)

    def test_rejects_ragged_rows(self):
        text = b"freq_hz,s21_re,s21_im\n1e9,0.5\n"
        with pytest.raises(FormatError):
            parse_csv_sweep(text)

    def test_rejects_non_numeric(self):
        text = b"freq_hz,s21_re,s21_im\n1e9,abc,0\n2e9,0.1,0\n"
        with pytest.raises(FormatError):
            parse_csv_sweep(text)

    @given(st.binary(max_size=400))
    @settings(max_examples=150, deadline=None)
    def test_fuzz_never_crashes(self, blob):
        try:
            sweep = parse_csv_sweep(blob)
        except FormatError:
            return
        assert isinstance(sweep, NetworkSweep)


class TestCrossFormat:
    def test_db_touchstone_and_db_phase_csv_agree_bitwise(self):
        sweep = make_sweep(n=257, seed=11)
        touchstone = parse_touchstone(write_touchstone(sweep, representation="DB"))
        csv_sweep = parse_csv_sweep(write_csv(sweep, sorted(sweep.s), representation="db_phase"))
        for pair in sweep.s:
            assert touchstone.pair(pair).tobytes() == csv_sweep.pair(pair).tobytes()


class TestNetworkSweep:
    def test_missing_pair_lists_present(self):
        sweep = NetworkSweep(
            freqs=np.array([1e9, 2e9]), s={(2, 1): np.zeros(2, complex)}
        )
        with pytest.raises(ArgumentError, match="s21"):
            sweep.pair((1, 1))

    def test_has_pair(self):
        sweep = NetworkSweep(
            freqs=np.array([1e9, 2e9]), s={(2, 1): np.zeros(2, complex)}
        )
        assert sweep.has_pair((2, 1))
        assert not sweep.has_pair((1, 2))

    def test_validates_lengths(self):
        with pytest.raises(ArgumentError):
            NetworkSweep(freqs=np.array([1e9, 2e9]), s={(2, 1): np.zeros(3, complex)})

    def test_validates_pair_keys(self):
        with pytest.raises(ArgumentError):
            NetworkSweep(freqs=np.array([1e9, 2e9]), s={(3, 1): np.zeros(2, complex)})

    def test_pair_names(self):
        assert pair_name((2, 1)) == "s21"
        assert pair_from_name("S12") == (1, 2)
        with pytest.raises(ArgumentError):
            pair_from_name("s31")
