"""Truncated bosonic and exact fermionic Fock spaces.

The bosonic space over m modes with per-mode occupation cutoffs c_k has
dimension prod(c_k + 1); creation/annihilation act as exact ladder matrices
with the top level annihilated by a^+.  The fermionic space is exact, of
dimension 2^m, with the Jordan-Wigner sign convention over lower mode
indices.  Basis order is colexicographic: mode 1 varies fastest, so the
occupation of mode k at basis index i is (i // stride_k) % (c_k + 1) with
stride_1 = 1 and stride_k = prod_{j<k}(c_j + 1).

A word of ladder operators maps each basis column to a single row (an
index shift times a diagonal weight).  `_ladder_words` computes that pair
for a whole stack of equal-length words at once, one table gather per
letter, and every ladder product below is built from it.  Callers split
their stacks with `_blocks`, so no pass holds more than `_WORD_BLOCK`
(words x dim) entries per array, whatever the number of words.

Commutation relations carry an explicit hbar:

    [a_k, a^+_l] = hbar delta_kl   (bose, exact below the cutoff)
    {a_k, a^+_l} = delta_kl        (fermi, exact)

Quantities that are only asymptotically exact under truncation (Poisson
vectors, truncated thermal traces) report an analytic tail bound next to
their value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (NumericalError, ValidationError, _hermitian,
                     _require_finite, _require_index, _require_int,
                     _require_positive)

__all__ = [
    "FockSpec",
    "FockVector",
    "DensityMatrix",
    "creation_matrix",
    "annihilation_matrix",
    "number_operator",
    "quadratic_hamiltonian",
    "quadratic_hamiltonian_diagonal",
    "ccr_defect",
    "car_defect",
    "CommutationDefect",
    "poisson_vector",
    "poisson_overlap",
    "poisson_eigen_defect",
    "PoissonDefect",
    "norm_divergence_demo",
]


@dataclass(frozen=True)
class FockSpec:
    """Defining data of a truncated Fock space.

    statistics: "bose" or "fermi".  cutoffs: per-mode maximal occupation
    (fermi fixes every cutoff to 1).  hbar: the constant appearing in the
    canonical commutation relations, default 1.
    """

    statistics: str
    cutoffs: tuple[int, ...]
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.statistics not in ("bose", "fermi"):
            raise ValidationError(f"unknown statistics {self.statistics!r}")
        object.__setattr__(self, "cutoffs", tuple(
            _require_int(c, "cutoff") for c in self.cutoffs))
        if not self.cutoffs:
            raise ValidationError("at least one mode required")
        if self.statistics == "fermi" and any(c != 1 for c in self.cutoffs):
            raise ValidationError("fermionic cutoffs are fixed to 1")
        _require_positive(self.hbar, "hbar")

    @classmethod
    def bose(cls, cutoffs: Sequence[int], hbar: float = 1.0) -> "FockSpec":
        return cls("bose", tuple(cutoffs), hbar)

    @classmethod
    def fermi(cls, modes: int, hbar: float = 1.0) -> "FockSpec":
        return cls("fermi", (1,) * _require_int(modes, "modes"), hbar)

    @property
    def modes(self) -> int:
        return len(self.cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(c + 1 for c in self.cutoffs)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = []
        s = 1
        for c in self.cutoffs:
            strides.append(s)
            s *= c + 1
        return tuple(strides)

    @cached_property
    def occupations(self) -> np.ndarray:
        """(dim, modes) int array; row i is the occupation tuple of basis i."""
        idx = np.arange(self.dim)
        occ = np.empty((self.dim, self.modes), dtype=np.int64)
        for k in range(self.modes):
            occ[:, k] = (idx // self.strides[k]) % (self.cutoffs[k] + 1)
        return occ

    def index_of(self, occupation: Sequence[int]) -> int:
        occupation = tuple(_require_int(n, "occupation", 0)
                           for n in occupation)
        if len(occupation) != self.modes:
            raise ValidationError("occupation length mismatch")
        for n, c in zip(occupation, self.cutoffs):
            if n > c:
                raise ValidationError(f"occupation {occupation} outside cutoffs")
        return sum(n * s for n, s in zip(occupation, self.strides))

    def safe_indices(self, margin: int = 1) -> np.ndarray:
        """Basis indices with n_k <= c_k - margin for every mode."""
        occ = self.occupations
        cut = np.array(self.cutoffs)
        mask = np.all(occ <= cut - margin, axis=1)
        return np.nonzero(mask)[0]

    def to_json(self) -> dict:
        return {
            "statistics": self.statistics,
            "modes": self.modes,
            "cutoffs": list(self.cutoffs),
            "hbar": self.hbar,
            "dim": self.dim,
        }


_WORD_BLOCK = 1 << 16  # cap on the (words x dim) entries of one pass


def _blocks(count: int, entries: int) -> list[slice]:
    """Slices of range(count) for items of `entries` entries each: at most
    _WORD_BLOCK entries a slice, one item at least."""
    step = max(1, _WORD_BLOCK // entries)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _letter_tables(spec: FockSpec) -> tuple[np.ndarray, np.ndarray]:
    """(dest, factor), each (2 modes, dim): row k is the letter a^+_k, row
    modes + k the letter a_k, and column c of a letter's matrix holds
    factor[., c] at row dest[., c].  Past a cutoff or the Pauli exclusion
    the factor is 0 and the row stays c.  The Jordan-Wigner sign comes
    from the integer parity of n_1 + ... + n_{k-1}, so it is exact.  A
    bosonic hbar (n_k + 1) past double range raises NumericalError.
    """
    occ = spec.occupations.T
    up, down = occ < np.array(spec.cutoffs)[:, None], occ > 0
    if spec.statistics == "bose":
        if not math.isfinite(float(spec.hbar) * (max(spec.cutoffs) + 1.0)):
            raise NumericalError("hbar (c + 1) exceeds double range")
        up_f = np.sqrt(spec.hbar * (occ + 1.0))
        down_f = np.sqrt(spec.hbar * occ)
    else:
        up_f = down_f = 1.0 - 2.0 * ((np.cumsum(occ, axis=0) - occ) % 2)
    cols, stride = np.arange(spec.dim), np.array(spec.strides)[:, None]
    return (np.concatenate([np.where(up, cols + stride, cols),
                            np.where(down, cols - stride, cols)]),
            np.concatenate([np.where(up, up_f, 0.0),
                            np.where(down, down_f, 0.0)]))


def _ladder_words(tables: tuple[np.ndarray, np.ndarray], creation, modes
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(rows, weights), each (..., dim), of a stack of equal-length words:
    column c of a word's matrix holds weights[..., c] at row rows[..., c].

    `tables` is _letter_tables(spec); creation and modes broadcast to the
    (..., letters) stack, leftmost letter first: a^+_k where creation is
    true, else a_k, for k = modes counted from 0.  Callers bound the stack
    with _blocks.  Letters apply right to left, one gather from the tables
    each, and their factors multiply left to right, the association of
    the chain L_1 @ L_2 @ ... @ L_n, so the entries equal that chain's bit
    for bit.
    """
    dest, factor = tables
    width = dest.shape[1]
    offsets = (np.where(creation, 0, len(dest) // 2) + modes) * width
    rows = np.broadcast_to(np.arange(width), offsets.shape[:-1] + (width,))
    factors = []
    for t in reversed(range(offsets.shape[-1])):
        flat = rows + offsets[..., t, None]
        factors.append(factor.take(flat))
        rows = dest.take(flat)
    weights = np.ones(rows.shape)
    for f in reversed(factors):
        weights *= f
    return rows, weights


def _monomials(spec: FockSpec, exponents):
    """Yield (block, rows, weights) of the monomials (a^+)^alpha a^beta,
    one per row (alpha, beta) of `exponents`, in order, in _blocks.

    A monomial's word lists its creators, then its annihilators, each by
    ascending mode; the words of one length in a block form one stack.
    """
    tables = _letter_tables(spec)
    exponents = np.reshape(np.asarray(exponents, dtype=np.intp),
                           (-1, 2 * spec.modes))
    kinds = np.arange(2 * spec.modes)
    for block in _blocks(len(exponents), spec.dim):
        exps = exponents[block]
        lengths = exps.sum(axis=1)
        rows = np.empty((len(exps), spec.dim), dtype=np.intp)
        weights = np.empty((len(exps), spec.dim))
        for length in np.unique(lengths):
            group = lengths == length
            words = exps[group]
            letters = np.repeat(np.tile(kinds, len(words)), words.ravel()
                                ).reshape(len(words), length)
            rows[group], weights[group] = _ladder_words(
                tables, letters < spec.modes, letters % spec.modes)
        yield block, rows, weights


def creation_matrix(spec: FockSpec, k: int) -> np.ndarray:
    """Matrix of a^+_k in the occupation basis.

    Bosonic entries <n+e_k| a^+_k |n> = sqrt(hbar (n_k+1)) for n_k < c_k and
    zero at the cutoff top; fermionic entries carry the Jordan-Wigner sign
    (-1)^(sum_{j<k} n_j).
    """
    km = _require_index(k, spec.modes, "mode index")
    rows, weights = _ladder_words(_letter_tables(spec), True, [km])
    a_dag = np.zeros((spec.dim, spec.dim), dtype=complex)
    a_dag[rows, np.arange(spec.dim)] = weights
    return a_dag


def annihilation_matrix(spec: FockSpec, k: int) -> np.ndarray:
    return creation_matrix(spec, k).conj().T


def number_operator(spec: FockSpec) -> np.ndarray:
    """Total number operator N = sum_k a^+_k a_k / hbar; integer spectrum."""
    occ = spec.occupations
    return np.diag(occ.sum(axis=1).astype(float)).astype(complex)


def quadratic_hamiltonian(spec: FockSpec, eps: Sequence[float]) -> np.ndarray:
    """H = sum_k eps_k a^+_k a_k / hbar, assembled from the ladder words.

    The normal-ordered product a^+_k a_k is diagonal with entries
    hbar * n_k, so H carries eigenvalue sum_k n_k eps_k on |n>.  Each
    diagonal is the floating product sqrt(hbar n_k) * sqrt(hbar n_k) of
    the word a^+_k a_k; see quadratic_hamiltonian_diagonal for the
    exact-arithmetic equivalent.  An energy past double range raises
    NumericalError.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (spec.modes,):
        raise ValidationError("eps length must equal mode count")
    diag = np.zeros(spec.dim)
    number_words = np.tile(np.eye(spec.modes, dtype=np.intp), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        scales = eps / spec.hbar
        for block, _, weights in _monomials(spec, number_words):
            for scale, w in zip(scales[block], weights):
                diag += scale * w
    return np.diag(_finite_energies(diag)).astype(complex)


def quadratic_hamiltonian_diagonal(spec: FockSpec, eps: Sequence[float]) -> np.ndarray:
    """Exact evaluation of quadratic_hamiltonian.

    a^+_k a_k equals hbar n_k on |n> identically, so the operator is the
    diagonal matrix of sum_k n_k eps_k; building it this way keeps integer
    energies exactly representable instead of round-tripping sqrt factors.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (spec.modes,):
        raise ValidationError("eps length must equal mode count")
    with np.errstate(over="ignore", invalid="ignore"):
        energies = spec.occupations @ eps
    return np.diag(_finite_energies(energies)).astype(complex)


def _finite_energies(energies: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(energies)):
        raise NumericalError("an energy sum_k n_k eps_k exceeds double range")
    return energies


@dataclass(frozen=True)
class CommutationDefect:
    safe: float
    unrestricted: float


def ccr_defect(spec: FockSpec) -> CommutationDefect:
    """Max-entry defect of [a_k, a^+_l] - hbar delta_kl.

    `safe` restricts the commutator matrix to the subspace with every
    n_k <= c_k - 1, where the ladder identity is exact; `unrestricted` is the
    full-space defect, which localizes at the cutoff top with magnitude
    hbar*(c+1) on the diagonal k = l.  Both words of a commutator move a
    column alike, so it has one entry a column; on a safe column a_k a^+_l
    vanishes only where the commutator does, so its row places the entry.
    The words of all mode pairs form one stack, evaluated in blocks of at
    most _WORD_BLOCK (words x dim) entries.
    """
    if spec.statistics != "bose":
        raise ValidationError("ccr_defect requires a bosonic spec")
    is_safe = np.all(spec.occupations < np.array(spec.cutoffs), axis=1)
    tables = _letter_tables(spec)
    k, l = np.divmod(np.arange(spec.modes ** 2), spec.modes)
    shifts = spec.hbar * np.eye(spec.modes).ravel()
    # a_k a^+_l and a^+_l a_k for every mode pair
    creation = [[False, True], [True, False]]
    modes = np.stack([np.stack([k, l], -1), np.stack([l, k], -1)], 1)
    safe = unrestricted = 0.0
    for block in _blocks(len(modes), 2 * spec.dim):
        rows, words = _ladder_words(tables, creation, modes[block])
        comm = words[:, 0] - words[:, 1] - shifts[block, None]
        unrestricted = max(unrestricted, float(np.abs(comm).max()))
        kept = comm[is_safe & is_safe[rows[:, 0]]]
        safe = max(safe, float(np.abs(kept).max(initial=0.0)))
    return CommutationDefect(safe=safe, unrestricted=unrestricted)


def car_defect(spec: FockSpec) -> CommutationDefect:
    """Max-entry defect of {a_k,a^+_l} - delta_kl and {a_k,a_l}; exact 0.

    The words of all mode pairs form one stack, evaluated in blocks of at
    most _WORD_BLOCK (words x dim) entries.
    """
    if spec.statistics != "fermi":
        raise ValidationError("car_defect requires a fermionic spec")
    tables = _letter_tables(spec)
    k, l = np.divmod(np.arange(spec.modes ** 2), spec.modes)
    deltas = np.eye(spec.modes).ravel()
    # a_k a^+_l, a^+_l a_k, a_k a_l and a_l a_k for every mode pair
    creation = [[False, True], [True, False], [False, False], [False, False]]
    kl, lk = np.stack([k, l], -1), np.stack([l, k], -1)
    modes = np.stack([kl, lk, kl, lk], 1)
    worst = 0.0
    for block in _blocks(len(modes), 4 * spec.dim):
        _, words = _ladder_words(tables, creation, modes[block])
        anti = words[:, 0] + words[:, 1] - deltas[block, None]
        worst = max(worst, float(np.abs(anti).max()),
                    float(np.abs(words[:, 2] + words[:, 3]).max()))
    return CommutationDefect(safe=worst, unrestricted=worst)


@dataclass(frozen=True)
class FockVector:
    spec: FockSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _require_finite(self.amplitudes, "amplitudes")
        if amps.shape != (self.spec.dim,):
            raise ValidationError("amplitude length does not match dimension")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "FockVector") -> complex:
        """Inner product, linear in the first slot: <u,v> = sum u_n conj(v_n)."""
        if other.spec != self.spec:
            raise ValidationError("inner product across different specs")
        return complex(np.sum(self.amplitudes * np.conj(other.amplitudes)))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: hermitian, positive, unit trace.

    Hermiticity follows the package's one input rule (`_hermitian`); the
    eigenvalues and trace of the hermitian part must then be >= -1e-12
    and 1 within 1e-12.  `matrix` keeps the input as given, unsymmetrised.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        herm = _hermitian(m, "density matrix")
        eigs = np.linalg.eigvalsh(herm)
        if eigs.min() < -1e-12:
            raise ValidationError(f"density matrix has eigenvalue {eigs.min():.3e} < -1e-12")
        tr = float(np.trace(herm).real)
        if abs(tr - 1.0) > 1e-12:
            raise ValidationError(f"density matrix trace {tr!r} != 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def poisson_vector(spec: FockSpec, f: Sequence[complex]) -> FockVector:
    """Theta = exp(f . a^+) |0>, truncated; NOT normalized.

    Amplitudes are prod_k f_k^{n_k} / sqrt(hbar^{n_k} n_k!), the unique
    choice with a_k Theta = f_k Theta below the cutoff (norm^2 converges to
    exp(sum |f_k|^2 / hbar) as the cutoffs grow).
    """
    if spec.statistics != "bose":
        raise ValidationError("poisson vectors require a bosonic spec")
    f = np.asarray(f, dtype=complex)
    if f.shape != (spec.modes,):
        raise ValidationError("f length must equal mode count")
    amps = np.ones(spec.dim, dtype=complex)
    occ = spec.occupations
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(spec.modes):
            amps = amps * _poisson_coefficients(f[k], spec.hbar,
                                                spec.cutoffs[k])[occ[:, k]]
    if not np.all(np.isfinite(amps)):
        raise NumericalError("Poisson amplitudes exceed double range")
    return FockVector(spec, amps)


def _poisson_coefficients(f: complex, hbar: float, cutoff: int) -> np.ndarray:
    """f^n / sqrt(hbar^n n!) for n = 0..cutoff.

    Built as a running product of f / sqrt(hbar n), so no power or
    factorial is formed: a coefficient is non-finite only when it is
    itself beyond double range.
    """
    ratios = f / np.sqrt(hbar * np.arange(1, cutoff + 1))
    return np.cumprod(np.concatenate(([1.0 + 0j], ratios)))


def poisson_overlap(spec: FockSpec, f: Sequence[complex], g: Sequence[complex]) -> complex:
    """Closed form <Theta_f, Theta_g> = exp(sum f_k conj(g_k) / hbar)."""
    if spec.statistics != "bose":
        raise ValidationError("poisson vectors require a bosonic spec")
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (spec.modes,) or g.shape != (spec.modes,):
        raise ValidationError("f and g lengths must equal mode count")
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = complex(np.exp(np.sum(f * np.conj(g)) / spec.hbar))
    if not cmath.isfinite(overlap):
        raise NumericalError("Poisson overlap exceeds double range")
    return overlap


def _scaled_norm(v: np.ndarray) -> float:
    """Euclidean norm of v, finite whenever the norm itself is.

    v is scaled by the power of two that brings its largest modulus into
    [0.5, 1) before squaring; the scale is exact, so the result equals
    np.linalg.norm(v) bit for bit wherever that is finite.
    """
    _, e = math.frexp(float(np.abs(v).max(initial=0.0)))
    e = min(max(e, -1021), 1023)  # both 2**e and 2**-e stay normal floats
    scaled = np.linalg.norm(v * math.ldexp(1.0, -e))
    with np.errstate(over="ignore"):
        return float(np.ldexp(scaled, e))


@dataclass(frozen=True)
class PoissonDefect:
    defect: float
    tail_bound: float


def poisson_eigen_defect(spec: FockSpec, f: Sequence[complex], k: int) -> PoissonDefect:
    """|| (a_k - f_k) Theta_f || and its analytic value.

    Truncation leaves exactly one uncancelled component at the cutoff top of
    mode k, so the defect equals
        |f_k|^{c_k+1} / sqrt(hbar^{c_k} c_k!) * prod_{j != k} s_j,
    where s_j^2 = sum_{n<=c_j} |f_j|^{2n} / (hbar^n n!) is the truncated
    single-mode norm.  The returned tail_bound is that closed form; `defect`
    applies the ladder word a_k to Theta_f.
    """
    km = _require_index(k, spec.modes, "mode index")
    f = np.asarray(f, dtype=complex)
    theta = poisson_vector(spec, f).amplitudes
    rows, weights = _ladder_words(_letter_tables(spec), False, [km])
    keep = weights != 0  # n_k = 0 gives 0 at a row another column reaches
    resid = -f[km] * theta
    resid[rows[keep]] += weights[keep] * theta[keep]
    c = spec.cutoffs[km]
    with np.errstate(over="ignore"):
        defect = _scaled_norm(resid)
        bound = abs(f[km]) * abs(_poisson_coefficients(f[km], spec.hbar, c)[c])
        for j in range(spec.modes):
            if j != km:
                bound *= _scaled_norm(
                    _poisson_coefficients(f[j], spec.hbar, spec.cutoffs[j]))
    if not (math.isfinite(defect) and math.isfinite(bound)):
        raise NumericalError("Poisson defect exceeds double range")
    return PoissonDefect(defect=defect, tail_bound=float(bound))


def norm_divergence_demo(f_values: Sequence[complex], m_list: Sequence[int],
                         hbar: float = 1.0) -> list[dict]:
    """||Theta||^2 = exp(sum_{k<=m} |f_k|^2 / hbar) for growing mode count m.

    Demonstrates the normalizability criterion: the norm converges iff
    sum |f_k|^2 does.  Returns one row per m with the partial sum and the
    norm squared; NumericalError where the norm squared exceeds double
    range.
    """
    _require_positive(hbar, "hbar")
    f = _require_finite(f_values, "f values")
    rows = []
    for m in m_list:
        m = _require_int(m, "m", 0)
        if m > len(f):
            raise ValidationError(f"m={m} outside supplied f range")
        with np.errstate(over="ignore"):
            s = float(np.sum(np.abs(f[:m]) ** 2)) / hbar
        try:
            norm_sq = math.exp(s)
        except OverflowError:
            norm_sq = math.inf
        if math.isinf(norm_sq):  # also where |f_k|^2 itself overflows
            raise NumericalError(f"norm squared exp({s!r}) exceeds double "
                                 "range")
        rows.append({"m": m, "sum_sq": s, "norm_sq": norm_sq})
    return rows
