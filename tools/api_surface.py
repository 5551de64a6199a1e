"""Print the public API of `sawkit`, one sorted line per exported name.

Each line is `<module> <name><signature>` for a function or class, with
the signature from `inspect.signature`, and `<module> <name>: <type>`
for a name that has none, such as a constant. The names are those of the
`__all__` of every `sawkit` module that declares one, so a removed,
added or re-signed name shows up as a changed line.

The `sawkit` package that is read is the one on PYTHONPATH, so two
checkouts can be compared the way `tools/cli_digest.py` compares their
CLI outputs:

    PYTHONPATH=<old checkout>/src python tools/api_surface.py > old.txt
    PYTHONPATH=src python tools/api_surface.py > new.txt
    diff old.txt new.txt    # empty when the public API is unchanged
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import sawkit


def surface_line(module, name: str) -> str:
    obj = getattr(module, name)
    if callable(obj):
        try:
            return f"{module.__name__} {name}{inspect.signature(obj)}"
        except ValueError:  # a builtin without signature metadata
            pass
    return f"{module.__name__} {name}: {type(obj).__name__}"


def main() -> None:
    lines = []
    for info in pkgutil.iter_modules(sawkit.__path__):
        module = importlib.import_module(f"sawkit.{info.name}")
        lines += [surface_line(module, name) for name in getattr(module, "__all__", ())]
    for line in sorted(lines):
        print(line)


if __name__ == "__main__":
    main()
