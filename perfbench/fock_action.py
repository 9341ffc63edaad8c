"""Independent Fock-space matrices of normal-ordered polynomials.

Each monomial acts on every occupation basis state at once: a ladder
letter shifts the basis index and multiplies by sqrt(hbar n) (bosons) or
by the Jordan-Wigner sign over lower modes (fermions).  No matrix
products are formed, so this oracle shares no code path with
`weyl_clifford.represent` and costs O(terms * letters * dim).
"""

from __future__ import annotations

import numpy as np


def _word(stat, modes, key):
    """Letters (is_creation, mode) in operator order, leftmost first."""
    alpha, beta = key
    if stat == "bose":
        return ([(True, k) for k in range(modes) for _ in range(alpha[k])]
                + [(False, k) for k in range(modes) for _ in range(beta[k])])
    return ([(True, k) for k in range(modes) if alpha >> k & 1]
            + [(False, k) for k in range(modes) if beta >> k & 1])


def matrix(poly, cutoffs=None):
    """Dense matrix of `poly` in the colexicographic occupation basis;
    bosonic polynomials need the per-mode `cutoffs`."""
    modes = poly.modes
    if poly.statistics == "bose":
        sizes = [c + 1 for c in cutoffs]
    else:
        sizes = [2] * modes
    strides = np.cumprod([1] + sizes[:-1])
    dim = int(np.prod(sizes))
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for key, coeff in poly.terms.items():
        index = cols.copy()
        value = np.full(dim, complex(coeff))
        alive = np.ones(dim, dtype=bool)
        for is_c, k in reversed(_word(poly.statistics, modes, key)):
            n = (index // strides[k]) % sizes[k]
            if poly.statistics == "bose":
                if is_c:
                    alive &= n < sizes[k] - 1
                    value *= np.sqrt(poly.hbar * (n + 1.0))
                else:
                    alive &= n > 0
                    value *= np.sqrt(poly.hbar * n)
            else:
                alive &= (n == 0) if is_c else (n == 1)
                below = np.bitwise_count(index & ((1 << k) - 1))
                value *= np.where(below & 1, -1.0, 1.0)
            index = np.where(alive, index + (strides[k] if is_c
                                             else -strides[k]), index)
        np.add.at(out, (index[alive], cols[alive]), value[alive])
    return out
