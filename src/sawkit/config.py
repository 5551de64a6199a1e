"""Flat key=value configuration and SI-suffix number parsing.

The config format is one `key=value` per line with '#' comments, chosen
so any language (or a shell one-liner) can produce it. Numeric values
accept SI suffixes: 3.83G, 50u, -10.7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from .errors import ArgumentError, FormatError

if TYPE_CHECKING:
    from .spinphonon import SivParams, StrainTensor

__all__ = [
    "SI_SUFFIXES",
    "parse_si",
    "parse_config",
    "RunConfig",
    "siv_params_from_mapping",
    "strain_from_mapping",
]

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


_SIV_KEYS = ("gamma_s", "lambda_so", "d_s", "f_s", "theta_deg")
_STRAIN_KEYS = ("eps_xx", "eps_yy", "eps_zz", "eps_xy", "eps_yz", "eps_zx")


def siv_params_from_mapping(mapping: Dict[str, str], base: Optional[SivParams] = None) -> SivParams:
    """Build SivParams from config keys, overriding base (default: the shipped defaults).

    theta is configured in degrees (key theta_deg) and stored in radians.
    """
    # spinphonon is imported on use, so loading config (as the CLI always
    # does) costs no more than this module
    from .spinphonon import SIV_DEFAULTS, SivParams

    if base is None:
        base = SIV_DEFAULTS
    values = {
        "gamma_s": base.gamma_s,
        "lambda_so": base.lambda_so,
        "d_s": base.d_s,
        "f_s": base.f_s,
        "theta": base.theta,
    }
    for key in _SIV_KEYS:
        if key in mapping:
            v = parse_si(mapping[key])
            if key == "theta_deg":
                values["theta"] = math.radians(v)
            else:
                values[key] = v
    return SivParams(**values)


def strain_from_mapping(mapping: Dict[str, str]) -> StrainTensor:
    """Build a StrainTensor from eps_* config keys (absent ones are 0)."""
    from .spinphonon import StrainTensor

    values = {key: parse_si(mapping[key]) for key in _STRAIN_KEYS if key in mapping}
    return StrainTensor(**values)


def _seed(text: str) -> int:
    """A config seed: a nonnegative integer, as --seed takes."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise ArgumentError(f"seed must be a nonnegative integer, got {text!r}")


@dataclass
class RunConfig:
    """Parsed run configuration; raw holds every key for command lookups."""

    input: Optional[str] = None
    out_dir: Optional[str] = None
    seed: Optional[int] = None
    plot: Optional[bool] = None
    d: Optional[float] = None
    lambda0: Optional[float] = None
    n_mirror: Optional[int] = None
    vg: Optional[float] = None
    raw: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("d", "lambda0", "vg"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ArgumentError(f"geometry value {name} must be positive")
        if self.n_mirror is not None and self.n_mirror < 1:
            raise ArgumentError("n_mirror must be at least 1")

    @classmethod
    def from_mapping(cls, mapping: Dict[str, str]) -> "RunConfig":
        def opt_si(key):
            return parse_si(mapping[key]) if key in mapping else None

        plot = None
        if "plot" in mapping:
            text = mapping["plot"].lower()
            if text in ("1", "true", "yes", "on"):
                plot = True
            elif text in ("0", "false", "no", "off"):
                plot = False
            else:
                raise ArgumentError(f"plot must be a boolean, got {mapping['plot']!r}")
        return cls(
            input=mapping.get("input"),
            out_dir=mapping.get("out_dir"),
            seed=_seed(mapping["seed"]) if "seed" in mapping else None,
            plot=plot,
            d=opt_si("d"),
            lambda0=opt_si("lambda0"),
            n_mirror=int(parse_si(mapping["n_mirror"])) if "n_mirror" in mapping else None,
            vg=opt_si("vg"),
            raw=dict(mapping),
        )
