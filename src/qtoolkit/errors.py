"""Shared exception types and the one statement of each input rule.

Two failure classes are distinguished throughout the package and by the CLI:
invalid input (wrong shapes, violated invariants, unusable configuration) and
numerical failure (a computation that ran but did not reach its tolerance or
produced non-finite values).  The CLI maps them to exit codes 2 and 3.

Every module checks its inputs with the rules below: integers for counts,
indices and seeds, positive finite scales, finite arrays and hermitian
matrices.  This module loads no numpy, so `import qtoolkit` and
`import qtoolkit.cli` stay light; the array rules import it when called.
"""

import math
import operator


class ValidationError(ValueError):
    """Input or configuration violates a documented precondition."""


class NumericalError(RuntimeError):
    """A computation failed to meet its numerical contract."""


def _require_int(value, what: str, low: int = 1,
                 bits: int | None = None) -> int:
    """The one rule for counts, indices and seeds: an integer (a bool is
    not one) with low <= value, and value < 2**bits when bits is given."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low or (bits is not None and n >> bits):
        bound = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
        raise ValidationError(f"{what} must be an integer {bound}, "
                              f"got {value!r}")
    return n


def _require_index(k, count: int, what: str) -> int:
    """The 0-based position of k, a 1-based index of `count` items."""
    n = _require_int(k, what)
    if n > count:
        raise ValidationError(f"{what} must be an integer in [1, {count}], "
                              f"got {k!r}")
    return n - 1


def _require_positive(value, what: str) -> None:
    """The one rule for scales and tolerances: a positive finite real."""
    try:
        ok = math.isfinite(value) and value > 0
    except TypeError:  # complex, str, None: not a real number
        ok = False
    if not ok:
        raise ValidationError(f"{what} must be positive and finite")


def _require_finite(m, what: str, shape: tuple | None = None):
    import numpy as np

    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} has non-finite entries")
    if shape is not None and m.shape != shape:
        raise ValidationError(f"{what} dimension mismatch")
    return m


def _hermitian(m, what: str, stacked: bool = False):
    """The hermitian part 0.5 (m + m^H) of a matrix checked to be hermitian.

    The one input rule for every hamiltonian, generator, occupation and
    density matrix: m is a nonempty square matrix of finite entries with
    max|m - m^H| <= 1e-12 max|m| and a hermitian part within double range
    (entries near 1e308 can sum past it).  The bound has no floor, so the
    verdict does not depend on the scale of m, and the zero matrix passes.
    With stacked=True, m is a stack of such matrices along its first axis
    and each one is held to the rule at its own scale.
    """
    import numpy as np

    m = _require_finite(m, what)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValidationError(f"{what} must be a nonempty square matrix")
    mh = np.swapaxes(m, -1, -2).conj()
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.abs(m - mh).max(axis=(-2, -1))
        part = 0.5 * (m + mh)
    if np.any(skew > 1e-12 * np.abs(m).max(axis=(-2, -1))):
        raise ValidationError(f"{what} must be hermitian within 1e-12")
    if not np.all(np.isfinite(part)):
        raise ValidationError(f"{what} has a hermitian part past double range")
    return part
