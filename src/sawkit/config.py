"""Flat key=value configuration and SI-suffix number parsing.

The config format is one `key=value` per line with '#' comments, chosen
so any language (or a shell one-liner) can produce it. The command line
reads each value as the default of the same-named flag, so flag types
check config values too. Numeric values accept SI suffixes: 3.83G, 50u,
-10.7.
"""

from __future__ import annotations

from typing import Dict

from .errors import ArgumentError, FormatError

__all__ = ["SI_SUFFIXES", "parse_si", "parse_config"]

SI_SUFFIXES = {
    "T": 1e12,
    "G": 1e9,
    "M": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}


def parse_si(text: str) -> float:
    """Parse a number with an optional SI suffix ('3.83G' -> 3.83e9)."""
    if isinstance(text, (int, float)):
        return float(text)
    s = text.strip()
    if not s:
        raise ArgumentError("empty numeric value")
    scale = 1.0
    if s[-1] in SI_SUFFIXES:
        scale = SI_SUFFIXES[s[-1]]
        s = s[:-1]
    try:
        return float(s) * scale
    except ValueError:
        raise ArgumentError(f"not a number: {text!r}") from None


def parse_config(data) -> Dict[str, str]:
    """Parse key=value lines into a mapping; '#' starts a comment."""
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8", errors="replace")
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(data.splitlines(), start=1):
        cut = raw.find("#")
        line = (raw if cut < 0 else raw[:cut]).strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise FormatError("empty key", lineno)
        if key in out:
            raise FormatError(f"duplicate key {key!r}", lineno)
        out[key] = value.strip()
    return out

