"""Finite-dimensional workbench for algebraic quantum theory.

Everything here is exactly testable: truncated Fock spaces with explicit
hbar, normal-ordered Weyl/Clifford polynomial algebras, Grassmann
calculus, adiabatic decoherence ensembles, correlation functionals with
their doubled dynamics, closed-form quantum gases with KMS checks, and
cyclic (GNS) representations with induced generators.  Symbolic routes
are exact over the rationals or Gaussian integers; matrix routes are
held to 1e-12 against closed forms or brute-force oracles.

Submodules load on first attribute access (PEP 562), so a command line
pays only for the modules it uses; `import qtoolkit` alone loads just the
error types.
"""

import importlib

from .errors import NumericalError, ValidationError

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "decoherence",
    "evolution",
    "fock",
    "geometry_gns",
    "grassmann",
    "lfunctional",
    "serialize",
    "statmech",
    "weyl_clifford",
)

__all__ = [
    *_SUBMODULES,
    "NumericalError",
    "ValidationError",
    "__version__",
]


def __getattr__(name):
    if name in _SUBMODULES:
        # The import binds the submodule as a package attribute, so this
        # hook runs at most once per name.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
