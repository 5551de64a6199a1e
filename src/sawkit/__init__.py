"""Analysis toolkit for surface-acoustic-wave phonon cavities.

Covers network ingestion (Touchstone and CSV sweeps), frequency-domain
cavity characterization, time-domain echo-train loss extraction,
spin-strain coupling estimates for color-center emitters, and two-level
drive dynamics. A click CLI (`sawkit`) wraps the main workflows; it
imports each subcommand's modules when that subcommand runs, so
`sawkit budget` and `sawkit coupling` load no numpy.

Names below are loaded from their submodule on first access (PEP 562),
so `import sawkit` by itself does not pull in numpy. No module imports
scipy; the tests use it as a reference.
"""

import importlib

__version__ = "0.1.0"

# Every exported name, listed once, under the submodule that defines it.
_HOMES = {
    "errors": (
        "ArgumentError", "FitError", "FormatError", "GridError", "InconsistencyError",
        "NonphysicalGrowthError", "ResolutionError", "ToolkitError",
    ),
    "numerics": (
        "FitResult", "SHIPPED_MODELS", "Series", "bessel_j", "db_convert", "dft",
        "grid_step", "least_squares_stack",
    ),
    "ingest": (
        "NetworkSweep", "parse_csv_sweep", "parse_touchstone", "write_csv",
        "write_touchstone",
    ),
    "specanalysis": (
        "CavityGeometry", "CavityReport", "LorentzianPeak", "cavity_report", "combine_q",
        "estimate_fsr", "find_peaks", "finesse", "fit_lorentzian", "mirror_reflectivity",
        "penetration_depth", "phase_velocity", "q_internal_from_reflection", "q_mirror",
        "q_propagation", "report_csv", "report_summary",
    ),
    "timedomain": (
        "EchoPeak", "EchoTrain", "ImpulseResponse", "LossModel", "detect_echoes",
        "echo_train_csv", "fit_echo_decay", "impulse_response", "loss_model_summary",
        "synthesize_echo_network", "time_gate",
    ),
    "spinphonon": (
        "GaussianBeam", "PhononBudget", "SIV_DEFAULTS", "STRAIN_G30", "STRAIN_G70",
        "SivParams", "StrainTensor", "beam_profile", "budget_summary", "coupling_rate",
        "phonon_budget", "phonon_number", "rabi_chain", "rabi_from_phonons",
        "resonance_axial_field", "single_phonon_power", "transverse_field",
    ),
    "qdyn": (
        "PowerScalingFit", "RabiFit", "TwoLevelDrive", "fit_power_scaling", "fit_rabi",
        "odar_spectrum", "rabi_population", "sideband_spectrum", "simulate_rabi_trace",
        "series_csv",
    ),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    # Looked up on every access rather than cached in this namespace, so
    # rebinding a submodule attribute is seen here too.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
