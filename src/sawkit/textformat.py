"""Exact C "%.17g" text for blocks of doubles, computed in numpy.

Sweep files and simulated traces print every number with 17 significant
digits, so that a double survives a round trip through its text. The
module is imported on the first write, and builds its lookup tables then.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

# cells formatted per block in format_table; bounds its temporaries to a few MB
_WRITE_CELLS = 8192

# Largest error of a cell's digit string D = |x| * 10^(16 - k) < 1e17 in
# longdouble: the power of ten and the product each carry a relative error of
# at most eps/2. A binary64 longdouble makes it about 22, so every cell falls
# back to "%.17g" % x.
_ROUND_BOUND = 1e17 * float(np.finfo(np.longdouble).eps)

# decimal exponents of finite nonzero doubles, with one of slack each way
_K_MIN, _K_MAX = -325, 309


def _build_tables() -> SimpleNamespace:
    """Lookup tables of format_table.

    Per decimal exponent k, at i = k - _K_MIN:
    - pow10[i], 10^(16 - k) correctly rounded to longdouble;
    - lead[20 i + 10 negative + d0], a cell's first word: its sign, the
      "0.000" prefix of -4 <= k < 0 and its leading digit d0;
    - tail[i], "e+XX" from byte 1 where %g takes the exponent form;
    - slot[i], how many of the digits d1..d16 precede the point, or 17
      where the point is part of the prefix.
    Per four-digit group g: quad[g], its ASCII digits as a word, and
    last[g], the place (1..4) of its last nonzero digit, or -16 for 0.
    masks[17 slot + sig], with sig the place of the last nonzero digit of
    d1..d16: words that keep the integer digits, the fraction digits and
    the point byte, two each.
    """
    ks = np.arange(_K_MIN, _K_MAX + 1)
    # numpy parses each to the nearest longdouble, as a test checks
    pow10 = np.array([f"1e{16 - k}" for k in ks.tolist()]).astype(np.longdouble)
    fixed = (ks >= -4) & (ks < 17)
    prefixed = fixed & (ks < 0)

    def words(texts):
        """Each text, at most 8 ASCII bytes, as a NUL-padded little-endian word."""
        return np.frombuffer("".join(t.ljust(8, "\0") for t in texts).encode(), "<u8").astype(np.uint64)

    prefix = words("\0" + "0.000"[:1 - k] if -4 <= k < 0 else "" for k in ks.tolist())
    d0_at = np.where(prefixed, 16 - 8 * ks, 8).astype(np.uint64)
    d0 = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    sign = np.array([0, ord("-")], dtype=np.uint64)
    lead = prefix[:, None, None] | sign[None, :, None] | d0[None, None, :] << d0_at[:, None, None]
    tail = np.where(fixed, np.uint64(0), words(f"\0e{k:+03d}" for k in ks.tolist()))
    slot = np.where(prefixed, 17, np.where(fixed, ks, 0))

    g = np.arange(10000, dtype=np.uint64)
    places = [g // np.uint64(10**(3 - j)) % np.uint64(10) for j in range(4)]
    quad = sum((d + np.uint64(ord("0"))) << np.uint64(8 * j) for j, d in enumerate(places))
    last = np.select([places[3] > 0, places[2] > 0, places[1] > 0, places[0] > 0], [4, 3, 2, 1], -16)

    def ones(n):
        return (1 << 8 * n) - 1

    masks = []
    for point in range(18):
        whole = ones(point % 17)
        for sig in range(17):
            frac = ones(sig) & ~whole
            dot = ord(".") << 8 * point if frac and point < 17 else 0
            masks.append([w >> shift & ones(8) for w in (whole, frac, dot) for shift in (0, 64)])
    return SimpleNamespace(pow10=pow10, lead=lead.ravel(), tail=tail, slot=slot, quad=quad,
                           quad_hi=quad << np.uint64(32), last=last,
                           masks=np.array(masks, np.uint64))


_TABLES = _build_tables()


def _decimal_digits(x: np.ndarray):
    """Each cell's decimal exponent k, 17 significant digits, and fallback mask.

    The digits are |x| / 10^k * 10^16 rounded to an integer in
    [10^16, 10^17), or 0 for a zero. Cells whose rounding the longdouble
    product cannot decide, and non-finite ones, are marked for "%.17g" % x.
    """
    pow10 = _TABLES.pow10
    finite = np.isfinite(x)
    zero = x == 0
    ax = np.where(finite & ~zero, np.abs(x), 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    d = ax.astype(np.longdouble) * pow10[k - _K_MIN]
    # log10 can miss k by one next to a power of ten
    fix = np.flatnonzero((d < 1e16) | (d >= 1e17))
    if fix.size:
        k[fix] += np.where(d[fix] < 1e16, -1, 1)
        d[fix] = ax[fix].astype(np.longdouble) * pow10[k[fix] - _K_MIN]
    nearest = np.rint(d)
    # NaN distances, and casts of them, where a binary64 longdouble overflows
    with np.errstate(invalid="ignore"):
        slow = ~(np.abs((d - nearest).astype(float)) < 0.5 - _ROUND_BOUND) | ~finite
        digits = nearest.astype(np.uint64)
    # a cell that rounds up to 10^17 or sits below 10^16 after the fix has
    # its exponent off by one: %g decides it
    slow |= (digits < 10**16) | (digits >= 10**17)
    digits[slow] = 10**16
    digits[zero] = 0
    return k, digits, slow


def _digit_words(digits: np.ndarray):
    """The leading digit d0, d1..d16 as two words of ASCII, and sig.

    sig is the place (1..16) of the last nonzero digit of d1..d16, or 0
    or below where they are all zero.
    """
    quad, quad_hi, last = _TABLES.quad, _TABLES.quad_hi, _TABLES.last
    e16, e8, e4 = np.uint64(10**16), np.uint64(10**8), np.uint64(10**4)
    d0 = digits // e16
    rest = digits - d0 * e16
    hi = rest // e8
    lo = rest - hi * e8
    g1 = hi // e4
    g3 = lo // e4
    g1, g2, g3, g4 = (g.view(np.int64) for g in (g1, hi - g1 * e4, g3, lo - g3 * e4))
    sig = np.maximum(np.maximum(last[g1], 4 + last[g2]), np.maximum(8 + last[g3], 12 + last[g4]))
    return d0.view(np.int64), quad[g1] | quad_hi[g2], quad[g3] | quad_hi[g4], sig


def _format_cells(x: np.ndarray, seps: np.ndarray) -> bytes:
    """"%.17g" of every float in x, each followed by the byte in the top of seps.

    A cell is four little-endian words: sign, prefix and d0; then
    d1..d16 with the point placed after the integer digits, the fraction
    digits moved up one byte to make room; then the last fraction digit,
    the exponent and the separator. Every digit %g does not print is NUL,
    and one compress of the NULs joins the cells.
    """
    k, digits, slow = _decimal_digits(x)
    d0, d_lo, d_hi, sig = _digit_words(digits)
    i = k - _K_MIN
    m = np.take(_TABLES.masks, 17 * _TABLES.slot[i] + np.maximum(sig, 0), axis=0)
    frac_lo = d_lo & m[:, 2]
    frac_hi = d_hi & m[:, 3]
    eight, top = np.uint64(8), np.uint64(56)

    out = np.empty((x.size, 4), dtype="<u8")
    out[:, 0] = _TABLES.lead[20 * i + 10 * np.signbit(x) + d0]
    out[:, 1] = (d_lo & m[:, 0]) | frac_lo << eight | m[:, 4]
    out[:, 2] = (d_hi & m[:, 1]) | frac_hi << eight | frac_lo >> top | m[:, 5]
    out[:, 3] = _TABLES.tail[i] | frac_hi >> top | seps
    rows = np.flatnonzero(slow)
    if rows.size:
        text = np.array(["%.17g" % v for v in x[rows].tolist()], dtype="S24")
        out[rows, :3] = text.view("<u8").reshape(-1, 3)
        out[rows, 3] = seps[rows]
    flat = out.view(np.uint8).ravel()
    return flat[flat != 0].tobytes()


def format_table(header: str, grid: np.ndarray, sep: str) -> bytes:
    """header, then the rows of a float grid as text: C's "%.17g" per cell.

    Cells are joined by sep and every row ends in a newline. The bytes
    are those of "%.17g" % x, which Python rounds correctly: 17
    significant digits, fixed notation for a decimal exponent k with
    -4 <= k < 17, else d.ddd followed by e and a signed exponent of at
    least two digits; trailing zeros and a bare point are dropped, and
    -0 keeps its sign.

    numpy computes the digits of each cell as D = |x| * 10^(16 - k) in
    longdouble and rounds D to an integer itself only where D's
    fractional part lies farther from 1/2 than D's error bound,
    _ROUND_BOUND = 1e17 * finfo(longdouble).eps (0.0108 for x86's 64-bit
    significand). Every other cell goes to "%.17g" % x: those too close
    to call, NaN and infinities, and all cells where longdouble is
    binary64, whose bound exceeds 1/2.
    """
    grid = np.asarray(grid, dtype=float)
    rows, cols = grid.shape
    step = max(1, _WRITE_CELLS // cols)
    row_seps = np.frombuffer((sep * (cols - 1) + "\n").encode(), dtype=np.uint8)
    # each separator in the top byte of a cell's last word
    seps = np.tile(row_seps.astype(np.uint64) << np.uint64(56), min(rows, step))
    blocks = (
        _format_cells(block.ravel(), seps[:block.size])
        for block in (grid[start:start + step] for start in range(0, rows, step))
    )
    return b"".join([header.encode(), *blocks])
