"""The block formatter: the bytes of "%.17g" % x for every double, from numpy."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from sawkit import textformat


def percent_cells(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def assert_cells_match(values, cols=1, sep=","):
    """format_table against "%.17g" % x, cell for cell, on a (-1, cols) grid."""
    grid = np.asarray(values, dtype=float).reshape(-1, cols)
    text = textformat.format_table("", grid, sep)
    assert text.endswith(b"\n") or not grid.size
    rows = text.split(b"\n")[:-1]
    assert len(rows) == grid.shape[0]
    got = [cell for row in rows for cell in row.split(sep.encode())]
    expected = percent_cells(grid.ravel())
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not bad, bad[:10]
    assert len(got) == len(expected)


def format_edge_values():
    """Values where a cell's digits, exponent or notation are easy to get wrong."""
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              1e-5, 9.9999999999999995e-05, 1e-4, 1e16, 1e17, 99999999999999999.0,
              9999999999999998.0, 0.5, 2.8, 2800000000.0, 120.0, 1000.0, 1.2e15,
              3.8e20, 123456789012345680000.0, 562949953421312.125]
    for p in range(-323, 309):
        power = 10.0 ** p
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, math.inf)]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestFormatRows:
    """The block formatter gives the bytes of "%.17g" % x for every double."""

    def test_power_table_is_correctly_rounded(self):
        pow10 = textformat._TABLES.pow10
        for i, entry in enumerate(pow10):
            p = 16 - (i + textformat._K_MIN)
            exact = Fraction(10) ** p
            error = abs(Fraction(*entry.as_integer_ratio()) - exact)
            for neighbour in (np.nextafter(entry, entry * 2), np.nextafter(entry, entry / 2)):
                assert error <= abs(Fraction(*neighbour.as_integer_ratio()) - exact), p

    def test_loaded_on_first_write_not_at_import(self):
        # a cold CLI call that writes nothing neither compiles the module nor builds its tables
        src = str(Path(textformat.__file__).resolve().parent.parent)
        code = (
            "import sys, sawkit.cli, sawkit.qdyn; from sawkit import ingest; "
            "print('sawkit.textformat' in sys.modules); "
            "sweep = ingest.NetworkSweep(freqs=[1e9, 2e9], s={(2, 1): [0.5, 0.25j]}); "
            "ingest.write_touchstone(sweep); "
            "print('sawkit.textformat' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
        assert_cells_match(bits.view(np.float64), cols=8)

    def test_edge_values(self):
        values = format_edge_values()
        assert_cells_match(values)
        assert_cells_match(values[: values.size // 4 * 4], cols=4, sep=" ")

    def test_negative_zero_and_non_finite(self):
        text = textformat.format_table("", np.array([[-0.0, math.inf, -math.inf, math.nan]]), ",")
        assert text == b"-0,inf,-inf,nan\n"

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, values):
        assert_cells_match(values)

    def test_all_cells_undecided_gives_the_same_bytes(self):
        # a bound of 1/2 leaves every cell to "%.17g" % x, as a binary64 longdouble does
        rng = np.random.default_rng(7)
        values = np.concatenate([format_edge_values(), rng.normal(size=4000) * 10.0 ** rng.integers(-30, 30, 4000)])
        grid = values[: values.size // 3 * 3].reshape(-1, 3)
        fast = textformat.format_table("", grid, ",")
        with mock.patch.object(textformat, "_ROUND_BOUND", 0.5):
            slow = textformat.format_table("", grid, ",")
        assert slow == fast
        assert_cells_match(grid.ravel(), cols=3)

    def test_rows_span_several_blocks(self):
        # two full blocks and a short third; the text runs on across their joins
        rows = 2 * (textformat._WRITE_CELLS // 3) + 3
        grid = np.random.default_rng(3).uniform(-1, 1, (rows, 3))
        expected = b"".join(b"%.17g %.17g %.17g\n" % tuple(row) for row in grid.tolist())
        assert textformat.format_table("x y z\n", grid, " ") == b"x y z\n" + expected
