"""Analysis toolkit for surface-acoustic-wave phonon cavities.

Covers network ingestion (Touchstone and CSV sweeps), frequency-domain
cavity characterization, time-domain echo-train loss extraction,
spin-strain coupling estimates for color-center emitters, and two-level
drive dynamics. A click CLI (`sawkit`) wraps the main workflows; it
imports each subcommand's modules when that subcommand runs, so
`sawkit budget` and `sawkit coupling` load no numpy.

Each public name is imported from the submodule that defines it, which
lists it in its `__all__`; `import sawkit` by itself does not pull in
numpy. No module imports scipy; the tests use it as a reference.
"""

__version__ = "0.1.0"
