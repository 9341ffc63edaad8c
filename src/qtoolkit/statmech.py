"""Equilibrium statistical mechanics on finite-dimensional spaces.

Gibbs states are computed with a spectral shift (log Z is reported with the
shift re-applied, so overflow in exp(-beta*H) is impossible).  Free boson and
fermion gases come with closed forms plus genuinely independent trace routes:
the fermionic pair (product over modes vs sum over all 2^m occupation masks)
is evaluated exactly, the product in rationals and the mask sum in integers
over a common power-of-two denominator, so that both routes produce the
same double bit-for-bit; the bosonic truncated trace is compared against the
closed form within an analytic geometric tail bound.

The KMS identity <A(t) B> = <B A(t+i beta)> is evaluated spectrally; the
shift cancels inside the conjugation, so complex time is safe at any finite
dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (NumericalError, ValidationError, _hermitian,
                     _require_finite, _require_int, _require_positive)
from .fock import DensityMatrix

__all__ = [
    "GibbsResult",
    "gibbs_state",
    "entropy",
    "mean_energy",
    "free_energy",
    "energy_from_log_z",
    "FreeGasResult",
    "free_gas",
    "fermi_gas_dual_route",
    "bose_gas_truncated_trace",
    "kms_check",
    "truncated_correlations",
    "set_partitions",
]


@dataclass(frozen=True)
class GibbsResult:
    state: DensityMatrix
    log_z: float
    z: float
    shift: float


def gibbs_state(h: np.ndarray, beta: float) -> GibbsResult:
    """K = exp(-beta H)/Z with the ground energy subtracted before exp.

    log Z is exact (shift re-applied); Z itself may overflow to inf for
    extreme parameters and is secondary to log_z.
    """
    _require_positive(beta, "beta")
    h = _hermitian(h, "hamiltonian")
    vals, vecs = np.linalg.eigh(h)
    shift = float(vals.min())
    weights = np.exp(-beta * (vals - shift))
    z_shifted = float(weights.sum())
    k = (vecs * (weights / z_shifted)) @ vecs.conj().T
    k = 0.5 * (k + k.conj().T)
    log_z = math.log(z_shifted) - beta * shift
    with np.errstate(over="ignore"):
        z = float(np.exp(log_z))
    return GibbsResult(state=DensityMatrix(k), log_z=log_z, z=z, shift=shift)


def entropy(k: DensityMatrix | np.ndarray) -> float:
    """Von Neumann entropy -Tr K log K; eigenvalues below 1e-15 contribute 0."""
    k = k if isinstance(k, DensityMatrix) else DensityMatrix(k)
    vals = np.linalg.eigvalsh(k.matrix)
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log(vals)).sum())


def mean_energy(k: DensityMatrix | np.ndarray, h: np.ndarray) -> float:
    k = k if isinstance(k, DensityMatrix) else DensityMatrix(k)
    h = _hermitian(h, "Hamiltonian")
    if h.shape != k.matrix.shape:
        raise ValidationError("Hamiltonian dimension mismatch")
    return float(np.trace(k.matrix @ h).real)


def free_energy(h: np.ndarray, beta: float) -> float:
    """F = -T log Z = E - T S on the Gibbs state."""
    return -gibbs_state(h, beta).log_z / beta


def energy_from_log_z(h: np.ndarray, beta: float, dbeta: float = 1e-6) -> float:
    """E = -d(log Z)/d(beta) by central finite differences (verification aid)."""
    up = gibbs_state(h, beta + dbeta).log_z
    down = gibbs_state(h, beta - dbeta).log_z
    return -(up - down) / (2 * dbeta)


# ---------------------------------------------------------------------------
# free gases


@dataclass(frozen=True)
class FreeGasResult:
    statistics: str
    z: float
    log_z: float
    energy: float
    occupations: tuple[float, ...]


def _mode_energies(eps: Sequence[float], beta: float) -> np.ndarray:
    """eps as a float array, after the beta rule and a finiteness check."""
    _require_positive(beta, "beta")
    eps = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(eps)):
        raise ValidationError("mode energies must be finite")
    return eps


@np.errstate(over="ignore")
def free_gas(eps: Sequence[float], beta: float, statistics: str) -> FreeGasResult:
    """Closed-form Z, E, and occupations for a free gas.

    bose:  Z = prod (1 - e^{-beta eps})^-1,  n_k = (e^{beta eps} - 1)^-1
    fermi: Z = prod (1 + e^{-beta eps}),     n_k = (e^{beta eps} + 1)^-1

    Overflow is the limit itself and stays silent: e^{beta eps} -> inf
    gives n_k = 0, and a Z past double range is inf.
    """
    eps = _mode_energies(eps, beta)
    if statistics == "bose":
        if np.any(beta * eps <= 0):
            raise ValidationError("bosonic modes need beta*eps > 0 to converge")
        log_z = float(-np.log1p(-np.exp(-beta * eps)).sum())
        occ = 1.0 / np.expm1(beta * eps)
    elif statistics == "fermi":
        log_z = float(np.log1p(np.exp(-beta * eps)).sum())
        occ = 1.0 / (np.exp(beta * eps) + 1.0)
    else:
        raise ValidationError(f"unknown statistics {statistics!r}")
    energy = float((eps * occ).sum())
    return FreeGasResult(statistics=statistics, z=float(np.exp(log_z)),
                         log_z=log_z, energy=energy,
                         occupations=tuple(float(x) for x in occ))


@dataclass(frozen=True)
class FermiDualRoute:
    z_product: float
    z_trace: float
    energy_product: float
    energy_trace: float
    occupations_product: tuple[float, ...]
    occupations_trace: tuple[float, ...]


def _dyadic(values: Sequence[float]) -> tuple[list[int], int]:
    """Integer numerators of dyadic doubles over one denominator 2^d."""
    ratios = [x.as_integer_ratio() for x in values]
    d = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (d - den.bit_length() + 1) for num, den in ratios], d


def fermi_gas_dual_route(eps: Sequence[float], beta: float) -> FermiDualRoute:
    """Fermionic Z, E, n_k by two independent algorithms, bit-exactly equal.

    Both routes start from the same dyadic Boltzmann factors
    f_k = double(e^{-beta eps_k}) and are exact until one final rounding
    to double:

    * product route: Z = prod_k (1 + f_k), n_k = f_k/(1+f_k) in rational
      arithmetic;
    * trace route: the literal 2^m-term sum over occupation bitmasks of the
      diagonal of e^{-beta H} on the fermionic Fock space, with E and n_k as
      weighted mask sums.  With f_k = F_k / D and eps_k = E_k / 2^t over
      common power-of-two denominators D = 2^d and 2^t, the weight
      w(mask) D^m is an integer; it is built from w(mask without its
      lowest bit) by one product and a shift of d bits, so the mask sums
      run in Python integers and only the final quotients become
      rationals.

    The two rationals coincide by the distributive law, so the doubles agree
    bit-for-bit; the routes still exercise different code paths and
    different combinatorics.
    """
    eps = _mode_energies(eps, beta).tolist()
    m = len(eps)
    if m > 16:
        raise ValidationError("trace route is exponential; m <= 16 required")
    try:
        f_double = [math.exp(-beta * e) for e in eps]
    except OverflowError:
        raise NumericalError("Boltzmann factor exceeds double range") from None
    f = [Fraction(fk) for fk in f_double]
    eps_frac = [Fraction(e) for e in eps]

    z_prod = Fraction(1)
    for fk in f:
        z_prod *= 1 + fk
    occ_prod = [fk / (1 + fk) for fk in f]
    e_prod = sum((ef * nk for ef, nk in zip(eps_frac, occ_prod)), Fraction(0))

    f_num, d = _dyadic(f_double)
    e_num, t = _dyadic(eps)
    # Masks run in counting order.  w_prefix[j] and e_prefix[j] hold the
    # weight and energy numerators of the current mask's bits >= j; bits
    # below its lowest set bit are clear, so those entries share its values.
    # Given the bits above k, the masks holding bit k are one run of
    # consecutive masks, so n_k sums stretches of the running Z: each opens
    # when bit k is set and closes when bit k is carried out.
    w_prefix = [1 << (d * m)] * (m + 1)
    e_prefix = [0] * (m + 1)
    opened = [0] * m
    z_trace = w_prefix[0]
    e_weighted = 0
    occ_weighted = [0] * m
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        for k in range(low):
            occ_weighted[k] += z_trace - opened[k]
        opened[low] = z_trace
        w = (w_prefix[low + 1] * f_num[low]) >> d
        e_mask = e_prefix[low + 1] + e_num[low]
        w_prefix[:low + 1] = [w] * (low + 1)
        e_prefix[:low + 1] = [e_mask] * (low + 1)
        z_trace += w
        e_weighted += e_mask * w
    for k in range(m):  # the last mask holds every bit
        occ_weighted[k] += z_trace - opened[k]

    return FermiDualRoute(
        z_product=float(z_prod),
        z_trace=float(Fraction(z_trace, 1 << (d * m))),
        energy_product=float(e_prod),
        energy_trace=float(Fraction(e_weighted, z_trace << t)),
        occupations_product=tuple(float(x) for x in occ_prod),
        occupations_trace=tuple(float(Fraction(x, z_trace))
                                for x in occ_weighted),
    )


@dataclass(frozen=True)
class BoseTruncatedTrace:
    z_truncated: float
    z_closed: float
    tail_bound: float


BOSE_TRACE_TERMS_MAX = 1 << 18  # a Python loop of about 1 s at the cap


def bose_gas_truncated_trace(eps: Sequence[float], beta: float,
                             cutoffs: Sequence[int]) -> BoseTruncatedTrace:
    """Truncated bosonic trace vs the closed form, with an analytic bound.

    The truncated partition sum runs over the occupation box prod(c_k+1)
    directly (sum of products route); the closed form is the geometric
    product.  Their gap is exactly Z * (1 - prod(1 - r^{c+1})) <=
    Z * sum_k r_k^{c_k+1}, which is the returned tail bound.  The box may
    hold at most BOSE_TRACE_TERMS_MAX occupations, checked before the sum.
    """
    eps = np.asarray(eps, dtype=float)
    cutoffs = [_require_int(c, "cutoffs", 0) for c in cutoffs]
    if len(cutoffs) != len(eps):
        raise ValidationError("need one cutoff per mode")
    terms = math.prod(c + 1 for c in cutoffs)
    if terms > BOSE_TRACE_TERMS_MAX:
        raise ValidationError(f"occupation box has {terms} terms; at most "
                              f"{BOSE_TRACE_TERMS_MAX}")
    closed = free_gas(eps, beta, "bose")
    r = np.exp(-beta * eps)
    z_trunc = 0.0
    for occ in itertools.product(*[range(c + 1) for c in cutoffs]):
        z_trunc += float(np.prod(r ** np.asarray(occ)))
    bound = closed.z * float((r ** (np.asarray(cutoffs) + 1)).sum())
    return BoseTruncatedTrace(z_truncated=z_trunc, z_closed=closed.z,
                              tail_bound=bound)


# ---------------------------------------------------------------------------
# KMS


def kms_check(h: np.ndarray, a: np.ndarray, b: np.ndarray, beta: float,
              t: float) -> float:
    """|<A(t) B>_beta - <B A(t+i beta)>_beta| with spectral evaluation.

    A(z) = e^{izH} A e^{-izH}; in the eigenbasis the conjugation depends only
    on eigenvalue differences, so the spectral shift used for the Gibbs
    weights cancels and complex time never overflows at moderate beta*spread.
    """
    h = _hermitian(h, "hamiltonian")
    _require_positive(beta, "beta")
    if not math.isfinite(t):
        raise ValidationError("time t must be finite")
    a = _require_finite(a, "operator", h.shape)
    b = _require_finite(b, "operator", h.shape)
    vals, vecs = np.linalg.eigh(h)
    shift = vals.min()
    w = np.exp(-beta * (vals - shift))
    w /= w.sum()
    a_e = vecs.conj().T @ a @ vecs
    b_e = vecs.conj().T @ b @ vecs
    diff = vals[:, None] - vals[None, :]
    a_t = a_e * np.exp(1j * t * diff)
    # LHS: sum_m w_m [A(t) B]_{mm}
    lhs = complex(np.sum(w[:, None] * a_t * b_e.T))
    # RHS: A(t+i beta) picks up e^{-beta diff}
    a_ct = a_t * np.exp(-beta * diff)
    rhs = complex(np.sum(w[:, None] * b_e * a_ct.T))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# truncated correlation functions


def set_partitions(items: Sequence[int]):
    """All partitions of `items` into nonempty blocks (order-preserving)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        # first joins an existing block
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        # first forms its own block
        yield [[first]] + part


def _moment(k: np.ndarray, ops: Sequence[np.ndarray], block: Sequence[int]
            ) -> complex:
    prod = np.eye(k.shape[0], dtype=complex)
    for i in sorted(block):
        prod = prod @ ops[i]
    return complex(np.trace(k @ prod))


def truncated_correlations(k: DensityMatrix | np.ndarray,
                           ops: Sequence[np.ndarray]) -> dict:
    """Truncated (cumulant) correlations of the given operator list.

    Returns a map from index tuples (in increasing order, respecting the
    operator order inside each block) to w^T values, for every nonempty
    subset of the operators.  Defined recursively by
        w(S) = sum over partitions of S of prod_blocks w^T(block),
    so w^T(S) = w(S) - (all partitions with more than one block).
    Exposed for n <= 3 operators.
    """
    k = k if isinstance(k, DensityMatrix) else DensityMatrix(k)
    n = len(ops)
    if n > 3:
        raise ValidationError("truncated correlations are exposed up to n = 3")
    ops = [_require_finite(op, "operator", k.matrix.shape) for op in ops]
    truncated: dict[tuple, complex] = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            total = _moment(k.matrix, ops, subset)
            for part in set_partitions(list(subset)):
                if len(part) == 1:
                    continue
                prod = 1.0 + 0j
                for block in part:
                    prod *= truncated[tuple(sorted(block))]
                total -= prod
            truncated[subset] = total
    return truncated
