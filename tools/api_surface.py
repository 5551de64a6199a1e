"""Print the public API of `sawkit`, one sorted line per exported name.

Each line is `<home module> <name><signature>` for a function or class,
with the signature from `inspect.signature`, and `<home module> <name>:
<type>` for a name that has none, such as a constant. The names are
those of `sawkit.__all__`, so a removed, added or re-signed name shows up
as a changed line.

The `sawkit` package that is read is the one on PYTHONPATH, so two
checkouts can be compared the way `tools/cli_digest.py` compares their
CLI outputs:

    PYTHONPATH=<old checkout>/src python tools/api_surface.py > old.txt
    PYTHONPATH=src python tools/api_surface.py > new.txt
    diff old.txt new.txt    # empty when the public API is unchanged
"""

from __future__ import annotations

import inspect

import sawkit


def surface_line(name: str) -> str:
    obj = getattr(sawkit, name)
    home = "sawkit." + sawkit._EXPORTS[name] if name in sawkit._EXPORTS else "sawkit"
    if callable(obj):
        try:
            return f"{home} {name}{inspect.signature(obj)}"
        except ValueError:  # a builtin without signature metadata
            pass
    return f"{home} {name}: {type(obj).__name__}"


def main() -> None:
    for line in sorted(map(surface_line, sawkit.__all__)):
        print(line)


if __name__ == "__main__":
    main()
