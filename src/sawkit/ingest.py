"""Instrument data ingestion and serialization.

Two formats are supported: Touchstone v1 two-port files (.s2p) and a CSV
sweep schema with fixed header columns. Both produce the canonical
NetworkSweep; both writers round-trip through their parsers. The
Touchstone reader takes RI, MA or DB data in HZ, KHZ, MHZ or GHZ; the
writer always writes RI in GHz.
"""

from __future__ import annotations

import array
import csv
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from .errors import ArgumentError, FormatError

__all__ = [
    "PORT_PAIRS",
    "NetworkSweep",
    "parse_touchstone",
    "write_touchstone",
    "parse_csv_sweep",
    "write_csv",
    "pair_from_name",
    "pair_name",
]

PortPair = Tuple[int, int]

# canonical two-port ordering used by Touchstone data rows
PORT_PAIRS: Tuple[PortPair, ...] = ((1, 1), (2, 1), (1, 2), (2, 2))

_FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}


def pair_name(pair: PortPair) -> str:
    """(2, 1) -> 's21'."""
    return f"s{pair[0]}{pair[1]}"


def pair_from_name(name: str) -> PortPair:
    """Accepts 's21', 'S21' or '21'."""
    text = name.strip().lower()
    if text.startswith("s"):
        text = text[1:]
    if len(text) == 2 and text[0] in "12" and text[1] in "12":
        return int(text[0]), int(text[1])
    raise ArgumentError(f"not a two-port pair name: {name!r}")


@dataclass
class NetworkSweep:
    """Frequency sweep of two-port S-parameters in linear amplitude."""

    freqs: np.ndarray
    s: Dict[PortPair, np.ndarray]
    ref_impedance: float = 50.0
    label: str = ""

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        if self.freqs.ndim != 1 or self.freqs.size == 0:
            raise ArgumentError("freqs must be a non-empty vector")
        if not np.all(np.isfinite(self.freqs)):
            raise ArgumentError("freqs must be finite")
        if np.any(np.diff(self.freqs) <= 0):
            raise ArgumentError("freqs must be strictly increasing")
        if not self.s:
            raise ArgumentError("at least one port pair is required")
        clean = {}
        for pair, vec in self.s.items():
            if pair not in PORT_PAIRS:
                raise ArgumentError(f"unknown port pair {pair!r}")
            vec = np.asarray(vec, dtype=complex)
            if vec.shape != self.freqs.shape:
                raise ArgumentError(
                    f"S{pair[0]}{pair[1]} length {vec.size} does not match "
                    f"{self.freqs.size} frequencies"
                )
            clean[pair] = vec
        self.s = clean
        if not 0 < self.ref_impedance < math.inf:
            raise ArgumentError("reference impedance must be positive and finite")

    def pair(self, pair: PortPair) -> np.ndarray:
        try:
            return self.s[pair]
        except KeyError:
            present = ", ".join(pair_name(p) for p in self.s)
            raise ArgumentError(
                f"{pair_name(pair)} not present in sweep (has {present})"
            ) from None

    def has_pair(self, pair: PortPair) -> bool:
        return pair in self.s


def _decode(data) -> str:
    if isinstance(data, str):
        return data
    if isinstance(data, (bytes, bytearray)):
        # undecodable bytes surface later as token errors, never as a crash
        return bytes(data).decode("utf-8", errors="replace")
    raise ArgumentError("expected str or bytes input")


def _parse_option_line(line: str, lineno: int):
    tokens = line[1:].split()
    unit_scale = 1e9
    representation = "MA"
    impedance = 50.0
    i = 0
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok in _FREQ_UNITS:
            unit_scale = _FREQ_UNITS[tok]
        elif tok in ("RI", "MA", "DB"):
            representation = tok
        elif tok == "S":
            pass
        elif tok in ("Y", "Z", "H", "G"):
            raise FormatError(f"only S-parameters are supported, got {tok}", lineno)
        elif tok == "R":
            if i + 1 >= len(tokens):
                raise FormatError("option line R token missing impedance", lineno)
            i += 1
            try:
                impedance = float(tokens[i])
            except ValueError:
                raise FormatError(
                    f"bad impedance {tokens[i]!r} in option line", lineno
                ) from None
            if not 0 < impedance < math.inf:
                raise FormatError(
                    f"impedance {tokens[i]!r} in option line is not positive and finite", lineno
                )
        else:
            raise FormatError(f"unknown option token {tokens[i]!r}", lineno)
        i += 1
    return unit_scale, representation, impedance


def _read_rows(rows, forms, f_scale: float = 1.0):
    """Reader side of both formats: numeric text rows to frequencies and S values.

    rows yields (lineno, cells): the frequency cell, then one (a, b) pair
    per entry of forms, where 'RI' is real/imaginary, 'MA'
    magnitude/degrees and 'DB' dB/degrees. Frequencies are scaled by
    f_scale and must rise strictly. A cell that is not a finite number, a
    frequency that overflows when scaled, or a dB value too large for a
    magnitude raises a FormatError at its line. Returns the frequency
    vector and a (rows, pairs) complex array.
    """
    db_cells = [2 * k + 1 for k, form in enumerate(forms) if form == "DB"]
    freqs, table = [], array.array("d")
    for lineno, cells in rows:
        try:
            nums = list(map(float, cells))
        except ValueError as exc:
            raise FormatError(f"bad number in data row: {exc}", lineno) from None
        if not all(map(math.isfinite, nums)):
            raise FormatError("non-finite value in data row", lineno)
        f = nums[0] * f_scale
        if not math.isfinite(f):
            raise FormatError(f"frequency {nums[0]!r} overflows the unit scale", lineno)
        if freqs and f <= freqs[-1]:
            raise FormatError(f"frequency not strictly increasing at {nums[0]!r}", lineno)
        for i in db_cells:
            try:
                _db_magnitude(nums[i])
            except OverflowError:
                raise FormatError(f"dB value {nums[i]!r} overflows a magnitude", lineno) from None
        freqs.append(f)
        table.extend(nums)
    grid = np.frombuffer(table, dtype=float).reshape(-1, 1 + 2 * len(forms))
    return np.array(freqs, dtype=float), _complex_values(grid, forms)


def _read_bulk(lines, forms, f_scale: float = 1.0, **loadtxt_args):
    """_read_rows over whole data lines at once, for input it would accept.

    Returns None, without raising, wherever _read_rows might raise: a
    cell that numpy does not parse as a number, a ragged or wrongly sized
    grid, a non-finite value or scaled frequency, frequencies that do not
    rise strictly, a dB value that overflows a magnitude, or no lines.
    numpy parses a number it accepts to the same double as float(). The
    caller then runs the row loop for the line-numbered error.
    """
    if not lines:
        return None  # loadtxt warns on empty input
    try:
        grid = np.loadtxt(lines, dtype=float, comments=None, ndmin=2, **loadtxt_args)
    except ValueError:
        return None
    if grid.shape[1] != 1 + 2 * len(forms) or not np.isfinite(grid).all():
        return None
    with np.errstate(over="ignore"):
        freqs = grid[:, 0] * f_scale
    if not (np.isfinite(freqs).all() and (freqs[1:] > freqs[:-1]).all()):
        return None
    try:
        return freqs, _complex_values(grid, forms)
    except OverflowError:
        return None


def _db_magnitude(db: float) -> float:
    """Linear magnitude of a dB cell; OverflowError above about 6,165 dB."""
    return 10.0 ** (db / 20.0)


def _complex_values(grid: np.ndarray, forms) -> np.ndarray:
    """A (rows, 1 + 2 * pairs) number grid to a (rows, pairs) complex array.

    Column 0 is the frequency, then one (a, b) pair per entry of forms.
    MA and DB use math, not numpy ufuncs, whose SIMD sin/cos may differ
    from libm in the last bit.
    """
    values = np.empty((grid.shape[0], len(forms)), dtype=complex)
    values.real, values.imag = grid[:, 1::2], grid[:, 2::2]
    for k, form in enumerate(forms):
        if form != "RI":
            mag, deg = grid[:, 2 * k + 1].tolist(), grid[:, 2 * k + 2].tolist()
            if form == "DB":
                mag = list(map(_db_magnitude, mag))
            rad = map(math.radians, deg)
            values[:, k] = [complex(m * math.cos(r), m * math.sin(r)) for m, r in zip(mag, rad)]
    return values


def _write_rows(header: str, freqs: np.ndarray, columns, form: str, sep: str) -> bytes:
    """Writer side of both formats: the header, then frequencies and S values as text rows.

    form is 'RI' or 'DB' as for _read_rows. The text comes from
    textformat.format_table: cells joined by sep, rows ending in a newline,
    every number "%.17g". numpy rounds a cell's 17 digits itself where its
    longdouble product is farther from a rounding tie than the error
    bound 1e17 * finfo(longdouble).eps; undecided and non-finite cells,
    and all cells where longdouble is binary64, fall back to "%.17g" % x.
    The magnitude is np.hypot, which calls libm's hypot as abs() of a
    complex does; np.abs has a SIMD kernel that can differ in the last
    bit. log10 and atan2 use math for the reason given in
    _complex_values.
    """
    # imported here, so a call that writes nothing neither loads the
    # formatter nor builds its tables
    from .textformat import format_table

    cells = [freqs]
    for v in columns:
        if form == "RI":
            cells += (v.real, v.imag)
        else:
            mag = np.hypot(v.real, v.imag).tolist()
            # floor far below any measurable level instead of -inf
            db = [20.0 * math.log10(a) if a > 0 else -400.0 for a in mag]
            deg = map(math.degrees, map(math.atan2, v.imag.tolist(), v.real.tolist()))
            cells += (db, list(deg))
    return format_table(header, np.column_stack(cells), sep)


def parse_touchstone(data) -> NetworkSweep:
    """Parse Touchstone v1 two-port text into a NetworkSweep.

    Grammar: '!' starts a comment, one '# <unit> S <RI|MA|DB> R <imp>'
    option line, then data rows of 9 numeric columns ordered
    f, S11, S21, S12, S22 (real/imag, magnitude/angle or dB/angle pairs).
    A pair that is exactly zero in every row reads back as absent, unless
    every pair is, in which case all four are kept. Touchstone v2 keyword
    blocks are rejected.
    """
    text = _decode(data)
    # every line with its comment cut and its ends stripped
    lines = [raw.partition("!")[0].strip() for raw in text.splitlines()]

    def content():
        for lineno, line in enumerate(lines, start=1):
            if line.startswith("["):
                raise FormatError(
                    f"Touchstone v2 keyword {line.split()[0]} not supported; "
                    "this parser reads v1 only",
                    lineno,
                )
            if line:
                yield lineno, line

    # the option line must come first; data_rows resumes after it
    rest = content()
    for lineno, line in rest:
        if not line.startswith("#"):
            raise FormatError("data before the option line (missing '#' line)", lineno)
        unit_scale, form, impedance = _parse_option_line(line, lineno)
        break
    else:
        raise FormatError("missing option line (no '#' line found)")
    forms = (form,) * len(PORT_PAIRS)

    def data_rows():
        for lineno, line in rest:
            if line.startswith("#"):
                raise FormatError("second option line", lineno)
            parts = line.split()
            if len(parts) != 9:
                raise FormatError(
                    f"expected 9 columns for a two-port row, got {len(parts)}", lineno
                )
            yield lineno, parts

    # a '#' or '[' line fails loadtxt's number parse, so the row loop reports it
    parsed = _read_bulk(list(filter(None, lines[lineno:])), forms, unit_scale)
    freqs, values = parsed or _read_rows(data_rows(), forms, unit_scale)
    if not freqs.size:
        raise FormatError("no data rows")
    # a pair that is zero in every row was absent when written
    present = values.any(axis=0)
    s = {pair: values[:, k] for k, pair in enumerate(PORT_PAIRS) if present[k] or not present.any()}
    return NetworkSweep(freqs=freqs, s=s, ref_impedance=impedance)


def write_touchstone(sweep: NetworkSweep) -> bytes:
    """Serialize a sweep as Touchstone v1 two-port text: '# GHZ S RI R <z>'.

    Port pairs absent from the sweep are written as zeros since the row
    grammar always carries all four; parse_touchstone reads an all-zero
    pair back as absent. Values are printed with 17 significant digits so
    the round trip through parse_touchstone is exact.
    """
    head = f"! {sweep.label}\n" if sweep.label else ""
    head += f"# GHZ S RI R {sweep.ref_impedance:.17g}\n"
    zeros = np.zeros(sweep.freqs.size, dtype=complex)
    columns = [sweep.s.get(pair, zeros) for pair in PORT_PAIRS]
    return _write_rows(head, sweep.freqs / 1e9, columns, "RI", " ")


def parse_csv_sweep(data) -> NetworkSweep:
    """Parse a CSV sweep with named header columns.

    The schema is fixed: ``freq_hz`` in Hz plus ``s{ij}_re``/``s{ij}_im``
    or ``s{ij}_db``/``s{ij}_deg`` per port pair present. Other columns are
    ignored, wherever they stand.
    """
    text = _decode(data)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise FormatError("empty CSV input")

    def csv_rows(lines):
        try:
            return list(csv.reader(lines))
        except csv.Error as exc:
            raise FormatError(f"malformed CSV: {exc}") from None

    # without a quote or a line as long as the field size limit, csv.reader
    # cannot fail and splits at every comma, so the data rows may bypass it
    plain = '"' not in text and max(map(len, lines)) < csv.field_size_limit()
    header = [h.strip() for h in csv_rows(lines[:1] if plain else lines)[0]]
    index = {name: i for i, name in enumerate(header)}

    if "freq_hz" not in index:
        raise FormatError(
            f"column 'freq_hz' (for freq) not found; available: {', '.join(header)}"
        )
    pair_cols = {}
    for pair in PORT_PAIRS:
        base = pair_name(pair)
        re_i, im_i, db_i, deg_i = (index.get(f"{base}_{x}") for x in ("re", "im", "db", "deg"))
        if re_i is not None or im_i is not None:
            if re_i is None or im_i is None:
                raise FormatError(f"{base} needs both _re and _im columns")
            if db_i is not None or deg_i is not None:
                raise FormatError(f"{base} has both re/im and db/deg columns")
            pair_cols[pair] = ("RI", re_i, im_i)
        elif db_i is not None or deg_i is not None:
            if db_i is None or deg_i is None:
                raise FormatError(f"{base} needs both _db and _deg columns")
            pair_cols[pair] = ("DB", db_i, deg_i)
    if not pair_cols:
        raise FormatError(
            f"no S-parameter columns found; available: {', '.join(header)}"
        )
    columns = (index["freq_hz"], *(i for _, ia, ib in pair_cols.values() for i in (ia, ib)))
    forms = [form for form, _, _ in pair_cols.values()]

    def data_rows():
        cells = operator.itemgetter(*columns)
        # the file's line number of each line kept above; a quoted field may
        # span lines, so a row starts after the kept lines its reader has read
        numbers = [
            n for n, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        reader = csv.reader(lines)  # csv_rows read these above, or plain ones cannot fail
        next(reader)
        start = reader.line_num
        for row in reader:
            lineno, start = numbers[start], reader.line_num
            if not any(map(str.strip, row)):
                continue
            if len(row) != len(header):
                raise FormatError(f"expected {len(header)} cells, got {len(row)}", lineno)
            yield lineno, cells(row)

    parsed = None
    body = lines[1:]
    if plain and all(ln.count(",") == len(header) - 1 for ln in body):
        parsed = _read_bulk(body, forms, delimiter=",", usecols=columns)
    freqs, values = parsed or _read_rows(data_rows(), forms)
    if not freqs.size:
        raise FormatError("CSV has a header but no data rows")
    s = {pair: np.ascontiguousarray(values[:, k]) for k, pair in enumerate(pair_cols)}
    return NetworkSweep(freqs=freqs, s=s)


def write_csv(sweep: NetworkSweep, which: Iterable[PortPair], representation: str = "ri") -> bytes:
    """Serialize selected port pairs as CSV.

    representation 'ri' writes s<ij>_re/_im columns, 'db_phase' writes
    s<ij>_db/_deg. Values carry 17 significant digits; 'ri' output
    round-trips through parse_csv_sweep bit for bit.
    """
    pairs = list(which)
    if not pairs:
        raise ArgumentError("no port pairs requested")
    if representation not in ("ri", "db_phase"):
        raise ArgumentError(f"unknown representation {representation!r}")
    for pair in pairs:
        if pair not in sweep.s:
            raise ArgumentError(f"{pair_name(pair)} not present in sweep")
    form, suffixes = ("RI", ("re", "im")) if representation == "ri" else ("DB", ("db", "deg"))
    header = ["freq_hz"]
    for pair in pairs:
        header += [f"{pair_name(pair)}_{suffix}" for suffix in suffixes]
    columns = [sweep.s[pair] for pair in pairs]
    return _write_rows(",".join(header) + "\n", sweep.freqs, columns, form, ",")
