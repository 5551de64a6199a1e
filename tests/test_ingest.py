"""Touchstone and CSV sweep parsing, writing, and round trips."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sawkit import ingest
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


# -0, the smallest subnormal, the largest double, zero magnitude (the -400 dB
# floor) and a magnitude that overflows to inf
EDGE_VALUES = np.array([
    complex(-0.0, -0.0), 0j, complex(-0.0, 0.0), 5e-324 + 0j, complex(0.0, -5e-324),
    complex(1.7976931348623157e308, 1.0), complex(-1.7976931348623157e308, 1.7976931348623157e308),
    0.25 - 0.5j,
])


def edge_sweep(pairs):
    rng = np.random.default_rng(5)
    n = 2 * EDGE_VALUES.size
    s = {}
    for k, pair in enumerate(pairs):
        v = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n) + 1j * rng.normal(size=n)
        v[: EDGE_VALUES.size] = np.roll(EDGE_VALUES, k)
        s[pair] = v
    freqs = np.cumsum(rng.uniform(1e3, 1e7, n)) + 1e9
    return NetworkSweep(freqs=freqs, s=s, label="edge values")


def reference_rows(freqs, columns, form, sep):
    """The per-row writer that the bulk writer replaced: one f-string per cell."""
    out = []
    for f, *values in zip(freqs, *columns):
        cells = [f"{f:.17g}"]
        for v in values:
            if form == "RI":
                a, b = v.real, v.imag
            else:
                a = abs(v)
                if form == "DB":
                    a = 20.0 * math.log10(a) if a > 0 else -400.0
                b = math.degrees(math.atan2(v.imag, v.real))
            cells += (f"{a:.17g}", f"{b:.17g}")
        out.append(sep.join(cells) + "\n")
    return "".join(out)


def touchstone_text(sweep, form):
    """Touchstone text of a sweep with RI, MA or DB data in GHz, by reference_rows.

    write_touchstone writes RI only; this gives the readers MA and DB input.
    """
    zeros = np.zeros(sweep.freqs.size, dtype=complex)
    columns = [sweep.s.get(pair, zeros) for pair in ingest.PORT_PAIRS]
    text = f"# GHZ S {form} R 50\n" + reference_rows(sweep.freqs / 1e9, columns, form, " ")
    return text.encode()


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

    @pytest.mark.parametrize("impedance", ["nan", "inf", "-inf", "0", "-50"])
    def test_rejects_bad_reference_impedance(self, impedance):
        text = f"! fixture\n# GHZ S RI R {impedance}\n1.0 0 0 0 0 0 0 0 0\n"
        with pytest.raises(FormatError, match="line 2: impedance .* not positive and finite"):
            parse_touchstone(text.encode())

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

    @pytest.mark.filterwarnings("error")
    def test_rejects_db_beyond_largest_magnitude(self):
        # 10 ** (7000 / 20) overflows a float; -7000 dB is a zero magnitude
        touchstone = b"# GHZ S DB R 50\n1 -7000 0 0 0 0 0 0 0\n2 7000 0 0 0 0 0 0 0\n"
        with pytest.raises(FormatError, match="line 3: dB value 7000.0 overflows a magnitude"):
            parse_touchstone(touchstone)
        db_text = b"freq_hz,s21_db,s21_deg\n1e9,-7000,0\n2e9,7000,0\n"
        with pytest.raises(FormatError, match="line 3: dB value 7000.0 overflows a magnitude"):
            parse_csv_sweep(db_text)
        assert parse_touchstone(touchstone.replace(b" 7000", b" 6000")).pair((1, 1))[1] > 1e299

    @pytest.mark.filterwarnings("error")
    def test_rejects_frequency_overflowing_unit(self):
        text = b"# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n1e300 0 0 0 0 0 0 0 0\n"
        with pytest.raises(FormatError, match="line 3: frequency 1e[+]300 overflows the unit"):
            parse_touchstone(text)
        assert parse_touchstone(text.replace(b"GHZ", b"HZ")).freqs[1] == 1e300

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
        text = write_touchstone(sweep) if rep == "RI" else touchstone_text(sweep, rep)
        back = parse_touchstone(text)
        assert np.allclose(back.freqs, sweep.freqs, rtol=1e-12)
        for pair in sweep.s:
            assert np.allclose(back.pair(pair), sweep.pair(pair), rtol=1e-9, atol=1e-12)

    def test_zero_magnitude_survives_db(self):
        freqs = np.array([1e9, 2e9])
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): np.array([0.0 + 0j, 1.0 + 0j])})
        back = parse_touchstone(touchstone_text(sweep, "DB"))
        assert abs(back.pair((2, 1))[0]) <= 1e-12

    def test_absent_pairs_written_as_zero(self):
        freqs = np.array([1e9, 2e9])
        sweep = NetworkSweep(freqs=freqs, s={(2, 1): np.array([0.5 + 0j, 0.5 + 0j])})
        back = parse_touchstone(write_touchstone(sweep))
        assert set(back.s) == {(2, 1)}

    def test_bytes_match_per_row_reference(self):
        # s11 and s22 are absent and written as zeros
        sweep = edge_sweep([(2, 1), (1, 2)])
        assert write_touchstone(sweep) == b"! edge values\n" + touchstone_text(sweep, "RI")


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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("rep, form, suffixes", [
        ("ri", "RI", ("re", "im")), ("db_phase", "DB", ("db", "deg")),
    ])
    def test_bytes_match_per_row_reference(self, rep, form, suffixes):
        pairs = [(2, 1), (1, 1)]
        sweep = edge_sweep(pairs)
        header = ["freq_hz"] + [f"{pair_name(p)}_{x}" for p in pairs for x in suffixes]
        expected = ",".join(header) + "\n"
        expected += reference_rows(sweep.freqs, [sweep.s[p] for p in pairs], form, ",")
        assert write_csv(sweep, pairs, representation=rep) == expected.encode()

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

    def test_error_line_counts_comment_and_blank_lines(self):
        # the bad cell sits on file line 6 in both formats
        csv_text = b"# comment\n# comment\nfreq_hz,s21_re,s21_im\n\n1e9,0,0\n2e9,zz,0\n"
        s2p_text = b"! comment\n! comment\n# HZ S RI R 50\n\n1e9 0 0 0 0 0 0 0 0\n2e9 0 0 zz 0 0 0 0 0\n"
        for parse, text in ((parse_csv_sweep, csv_text), (parse_touchstone, s2p_text)):
            with pytest.raises(FormatError, match="^line 6: bad number in data row"):
                parse(text)

    def test_error_line_after_multi_line_field(self):
        text = b'freq_hz,s21_re,s21_im,note\n1e9,0,0,"two\nlines"\n\n2e9,0,0\n'
        with pytest.raises(FormatError, match="^line 5: expected 4 cells, got 3"):
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
        touchstone = parse_touchstone(touchstone_text(sweep, "DB"))
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

    @pytest.mark.parametrize("impedance", [math.nan, math.inf, 0.0, -50.0])
    def test_validates_reference_impedance(self, impedance):
        with pytest.raises(ArgumentError, match="reference impedance"):
            NetworkSweep(
                freqs=np.array([1e9, 2e9]), s={(2, 1): np.zeros(2, complex)},
                ref_impedance=impedance,
            )

    def test_validates_pair_keys(self):
        with pytest.raises(ArgumentError):
            NetworkSweep(freqs=np.array([1e9, 2e9]), s={(3, 1): np.zeros(2, complex)})

    def test_pair_names(self):
        assert pair_name((2, 1)) == "s21"
        assert pair_from_name("S12") == (1, 2)
        with pytest.raises(ArgumentError):
            pair_from_name("s31")


# cells that float() and numpy's loadtxt may judge differently, or that the
# row loop rejects: junk, non-finite, digit underscores, comment and option
# characters inside a cell, quotes, hex, non-ASCII digits and overflow
JUNK_CELLS = [
    "nan", "inf", "-inf", "1_0", "2.5_0", "5#6", "1!2", "#", "[1]", "abc", "", " ",
    '"1.5"', '"1,5"', "0x1p3", "\u0661", "1e400", "-0", "+.5", "1.", "5e-324",
    # beyond the largest magnitude as dB, beyond the largest frequency in GHz
    "7000", "1e300",
]
# \x0b and \x0c also end a line for str.splitlines
SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\xa0", " \u2003"]


@st.composite
def numeric_grid(draw, n_cols):
    """Rows of number cells with rising first cells, then a few cell edits."""
    n_rows = draw(st.integers(0, 6))
    cells = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e3, max_value=1e3)
    rows = []
    f = draw(st.floats(0.5, 5.0))
    for _ in range(n_rows):
        f += draw(st.sampled_from([0.25] * 8 + [0.0, -0.25]))
        rows.append([repr(f)] + [repr(draw(cells)) for _ in range(n_cols - 1)])
    for i, j, junk in draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, n_cols - 1), st.sampled_from(JUNK_CELLS)),
        max_size=2,
    )):
        if i < n_rows:
            rows[i][j] = junk
    for i, delta in draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([-1, 1])), max_size=1)):
        if i < n_rows:
            rows[i] = rows[i][:-1] if delta < 0 else rows[i] + ["0"]
    return rows


@st.composite
def touchstone_texts(draw):
    form = draw(st.sampled_from(["RI", "MA", "DB"]))
    unit = draw(st.sampled_from(["HZ", "GHZ"]))
    lines = ["! fixture", f"# {unit} S {form} R 50"]
    for row in draw(numeric_grid(9)):
        sep = draw(st.sampled_from(SEPARATORS))
        line = sep.join(row) + draw(st.sampled_from(["", "", " ! inline", sep]))
        lines += draw(st.sampled_from([[]] * 8 + [[""], ["! comment"], ["# GHZ S RI R 50"], ["[Data]"]]))
        lines.append(line)
    return "\n".join(lines) + "\n"


@st.composite
def csv_texts(draw):
    suffixes = draw(st.sampled_from([("re", "im"), ("db", "deg")]))
    header = ["freq_hz"] + [f"s21_{x}" for x in suffixes] + [f"s11_{x}" for x in suffixes]
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "note")
    lines = ["# fixture", ",".join(header)]
    rows = draw(numeric_grid(len(header)))
    note = header.index("note") if "note" in header else None
    for row in rows:
        if note is not None:
            # a free-text column the parser must not read; an open quote
            # makes csv.reader join the line with the next
            text = draw(st.sampled_from(["x", "", "1", '"a,b"', '"x', 'y"']))
            row = row[:note] + [text] + row[note + 1:]
        pad = draw(st.sampled_from(["", "", " ", "\xa0", "\t"]))
        lines.append(",".join(pad + cell + pad for cell in row))
        lines += draw(st.sampled_from([[]] * 8 + [[""], [",,,,,"], ["# comment"]]))
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    try:
        sweep = parse(text.encode())
    except Exception as exc:  # noqa: BLE001 - both paths must fail the same way
        return type(exc).__name__, str(exc)
    return (
        sweep.freqs.tobytes(),
        {pair: v.tobytes() for pair, v in sweep.s.items()},
        sweep.ref_impedance,
    )


class TestBulkMatchesRowLoop:
    """The bulk parse gives the row loop's result bit for bit, or its error text."""

    @staticmethod
    def assert_same(parse, text):
        bulk = parse_outcome(parse, text)
        with mock.patch.object(ingest, "_read_bulk", return_value=None):
            rows = parse_outcome(parse, text)
        assert bulk == rows

    @given(touchstone_texts())
    @example("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n1 0 0 0 0 0 0 0 0\n")
    @example("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n2 0 nan 0 0 0 0 0 0\n")
    @example("# GHZ S MA R 50\n1 0 0 0 0 0 0 0 0\n2 0 1_0 0 0 0 0 0 0\n")
    @example("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n[Data]\n")
    @example("# GHZ S DB R 50\n1 0 0 0 0 0 0 0 0\n2 0 0 7000 0 0 0 0 0\n")
    @example("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n1e300 0 0 0 0 0 0 0 0\n")
    @settings(max_examples=300, deadline=None)
    def test_touchstone(self, text):
        self.assert_same(parse_touchstone, text)

    @given(csv_texts())
    @example("freq_hz,s21_re,s21_im\n1e9,0,0\n2e9,0,0,0\n")
    @example("freq_hz,s21_re,s21_im,note\n1e9,0,0\n2e9,0,0,x\n")
    @example('freq_hz,s21_re,s21_im,note\n1e9,0,0,"x\n2e9,0,0,y"\n')
    @example("freq_hz,s21_db,s21_deg\n1e9,-6,0\n 2e9 ,\xa0-3_0,5\n")
    @example("freq_hz,s21_db,s21_deg\n1e9,-6,0\n2e9,7000,5\n")
    @settings(max_examples=300, deadline=None)
    def test_csv(self, text):
        self.assert_same(parse_csv_sweep, text)

    @pytest.mark.parametrize("rep", ["RI", "MA", "DB"])
    def test_clean_touchstone_skips_row_loop(self, rep):
        sweep = make_sweep(n=64)
        text = touchstone_text(sweep, rep).replace(b"\n", b"\n\n! note\n")
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row loop ran")):
            back = parse_touchstone(text)
        assert back.freqs.size == sweep.freqs.size

    @pytest.mark.parametrize("rep", ["ri", "db_phase"])
    def test_clean_csv_skips_row_loop(self, rep):
        sweep = make_sweep(n=64)
        text = write_csv(sweep, sorted(sweep.s), representation=rep)
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row loop ran")):
            back = parse_csv_sweep(text)
        assert np.array_equal(back.freqs, sweep.freqs)

    def test_csv_field_size_limit_still_enforced(self):
        text = b"freq_hz,s21_re,s21_im,note\n1e9,0,0," + b"x" * 200_000 + b"\n"
        with pytest.raises(FormatError, match="malformed CSV: field larger"):
            parse_csv_sweep(text)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("parse, text, message", [
        (parse_touchstone, b"# GHZ S RI R 50\n! no rows\n", "no data rows"),
        (parse_csv_sweep, b"freq_hz,s21_re,s21_im\n", "header but no data rows"),
    ])
    def test_empty_body_raises_without_warning(self, parse, text, message):
        with pytest.raises(FormatError, match=message):
            parse(text)
