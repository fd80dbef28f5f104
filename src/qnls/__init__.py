"""Toolkit for stability analysis of low-dimensional invariant tori of the
quintic nonlinear Schrodinger equation on the circle: exact resonance
enumeration, effective-Hamiltonian block spectra, nonresonance verification,
and direct split-step simulation."""

__version__ = "0.1.0"

import importlib

from . import normal_form, resonance, sim, small_divisors  # noqa: F401


def __getattr__(name):
    # cli loads on first access, so that "python -m qnls.cli" does not find
    # it already imported by the package
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
