"""Exact symbolic Weyl and Clifford algebras in normal form.

A polynomial in creation/annihilation symbols is stored in normal form: every
creation factor precedes every annihilation factor.  Products contract each
pair of terms in closed form (Wick's theorem), in one loop over the term
pairs.  Bosons contract mode by mode,
a^k a*^l = sum_j j! C(k,j) C(l,j) hbar^j a*^(l-j) a^(k-j), over the modes
where both k and l are nonzero; each call keeps a table from (k, l) to the
pairs (j, j! C(k,j) C(l,j)), filled the first time a pair needs it.
Fermions sum over the subsets S of the annihilated modes a1 that the right
factor creates (c2), each contracted pair giving a unit: with
ar = a1 minus S, cr = c2 minus S, k = |S| and P the parity mask of
grassmann._parity_mask, the term of a*^c1 a^a1 . a*^c2 a^a2 for S has sign
(-1)^(popcount((S ^ a2) & P(ar)) + popcount(cr & (P(S) ^ P(c1)))
+ k(k-1)/2 + |ar| |cr|): splitting S off a^a1 and a*^c2, contracting
a^S a*^S, passing a^ar over a*^cr and merging the outer blocks.  P(c1) is
formed once per left term.  Coefficient arithmetic is plain complex
arithmetic with no truncation or pruning threshold: only exact zeros are
removed, so with dyadic-rational inputs (integers, halves, quarters...)
every algebraic identity, associativity included, holds bit-exactly.

Bosonic term keys are pairs of per-mode degree tuples (alpha, beta) for
a*^alpha a^beta; fermionic keys are pairs of bitmasks (cmask, amask), each
block written in increasing mode order.  Every degree and mask is held to
the integer rule of errors._require_int and stored as a Python int.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (NumericalError, ValidationError, _require_index,
                     _require_int, _require_positive)
from . import fock
from .grassmann import _parity_mask

__all__ = [
    "NormalOrderedPolynomial",
    "SigmaForm",
    "WickSymbol",
    "WeylCheckResult",
    "poly",
    "unit",
    "zero",
    "creator",
    "annihilator",
    "product",
    "involution",
    "commutator",
    "wick_symbol",
    "represent",
    "canonical_quadratures",
    "weyl_exponential_check",
    "format_poly",
    "parse_poly",
    "DEGREE_CAP",
]

DEGREE_CAP = 8


# ---------------------------------------------------------------------------
# polynomial container


def _check_key(statistics: str, modes: int, key) -> tuple:
    """key with every degree or mask held to the integer rule and stored as
    a Python int."""
    alpha, beta = key
    if statistics == "bose":
        if len(alpha) != modes or len(beta) != modes:
            raise ValidationError(f"bad bosonic term key {key!r}")
        return (tuple(_require_int(d, "bosonic degree", 0) for d in alpha),
                tuple(_require_int(d, "bosonic degree", 0) for d in beta))
    return (_require_int(alpha, "fermionic creation mask", 0, modes),
            _require_int(beta, "fermionic annihilation mask", 0, modes))


@dataclass(frozen=True)
class NormalOrderedPolynomial:
    statistics: str
    modes: int
    hbar: float
    terms: dict

    def __post_init__(self) -> None:
        if self.statistics not in ("bose", "fermi"):
            raise ValidationError(f"unknown statistics {self.statistics!r}")
        _require_int(self.modes, "modes")
        _require_positive(self.hbar, "hbar")
        clean = {}
        for key, coeff in self.terms.items():
            key = _check_key(self.statistics, self.modes, key)
            coeff = complex(coeff)
            if coeff != 0:
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def _like(self, terms: dict) -> "NormalOrderedPolynomial":
        """A polynomial of this algebra over `terms`, without the
        constructor's checks.

        Only terms that a kernel built from already-valid polynomials of
        this algebra may pass through here: well-formed keys and Python
        complex coefficients.  Exact zeros are dropped; insertion order is
        kept.
        """
        p = object.__new__(NormalOrderedPolynomial)
        p.__dict__.update(statistics=self.statistics, modes=self.modes,
                          hbar=self.hbar,
                          terms={k: c for k, c in terms.items() if c != 0})
        return p

    def _compatible(self, other: "NormalOrderedPolynomial") -> None:
        if (self.statistics, self.modes, self.hbar) != (
                other.statistics, other.modes, other.hbar):
            raise ValidationError("polynomials live in different algebras")

    def __add__(self, other: "NormalOrderedPolynomial") -> "NormalOrderedPolynomial":
        self._compatible(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0j) + coeff
        return self._like(terms)

    def __sub__(self, other: "NormalOrderedPolynomial") -> "NormalOrderedPolynomial":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "NormalOrderedPolynomial":
        return self._like({k: complex(factor * c)
                           for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NormalOrderedPolynomial):
            return product(self, other)
        return self.scale(other)

    __rmul__ = scale

    def degree(self) -> tuple[int, int]:
        """Maximal (creation, annihilation) side degrees over all terms."""
        dc = da = 0
        for alpha, beta in self.terms:
            if self.statistics == "bose":
                dc = max(dc, sum(alpha))
                da = max(da, sum(beta))
            else:
                dc = max(dc, alpha.bit_count())
                da = max(da, beta.bit_count())
        return dc, da

    def is_zero(self) -> bool:
        return not self.terms


def poly(statistics: str, modes: int, terms: Mapping, hbar: float = 1.0
         ) -> NormalOrderedPolynomial:
    return NormalOrderedPolynomial(statistics, modes, hbar, dict(terms))


def zero(statistics: str, modes: int, hbar: float = 1.0) -> NormalOrderedPolynomial:
    return poly(statistics, modes, {}, hbar)


def _unit_key(statistics: str, modes: int):
    if statistics == "bose":
        z = (0,) * modes
        return (z, z)
    return (0, 0)


def unit(statistics: str, modes: int, hbar: float = 1.0) -> NormalOrderedPolynomial:
    return poly(statistics, modes, {_unit_key(statistics, modes): 1.0 + 0j}, hbar)


def _single_key(statistics: str, modes: int, k: int, creation: bool):
    km = _require_index(k, _require_int(modes, "modes"), "mode index")
    if statistics == "bose":
        z = [0] * modes
        z[km] = 1
        z = tuple(z)
        e = (0,) * modes
        return (z, e) if creation else (e, z)
    mask = 1 << km
    return (mask, 0) if creation else (0, mask)


def creator(statistics: str, modes: int, k: int, hbar: float = 1.0
            ) -> NormalOrderedPolynomial:
    return poly(statistics, modes, {_single_key(statistics, modes, k, True): 1.0 + 0j}, hbar)


def annihilator(statistics: str, modes: int, k: int, hbar: float = 1.0
                ) -> NormalOrderedPolynomial:
    return poly(statistics, modes, {_single_key(statistics, modes, k, False): 1.0 + 0j}, hbar)


# ---------------------------------------------------------------------------
# closed-form contraction


def _bose_weights(k: int, l: int) -> list:
    """[(j, j! C(k,j) C(l,j)) for j = 0..min(k, l)], the terms of
    a^k a*^l = sum_j j! C(k,j) C(l,j) hbar^j a*^(l-j) a^(k-j)."""
    row = [(0, 1)]
    w = 1
    for j in range(min(k, l)):
        w = w * (k - j) * (l - j) // (j + 1)
        row.append((j + 1, w))
    return row


def product(a: NormalOrderedPolynomial, b: NormalOrderedPolynomial,
            degree_cap: int = DEGREE_CAP) -> NormalOrderedPolynomial:
    """Exact normal-ordered product a*b."""
    a._compatible(b)
    dc = a.degree()
    db = b.degree()
    if max(dc[0] + db[0], dc[1] + db[1]) > degree_cap:
        raise ValidationError(
            f"product degree would exceed the cap {degree_cap}; "
            "raise degree_cap explicitly if this is intended")
    out: dict = {}
    if a.statistics == "bose":
        # repeated products, as contractions accumulate hbar one at a
        # time; unlike hbar ** j they overflow to inf instead of raising
        powers = [1.0]
        for _ in range(min(dc[1], db[0])):
            powers.append(powers[-1] * a.hbar)
        table: dict = {}
        right = b.terms.items()
        for (al, be), ca in a.terms.items():
            annihilated = [m for m, k in enumerate(be) if k]
            for (ga, de), cb in right:
                c = ca * cb
                cre = tuple(map(operator.add, al, ga))
                ann = tuple(map(operator.add, be, de))
                modes = [m for m in annihilated if ga[m]]
                if not modes:
                    key = (cre, ann)
                    # c * 1.0, not c: an infinite c gains its nan part here
                    out[key] = out.get(key, 0j) + c * powers[0]
                    continue
                rows = []
                for m in modes:
                    kl = be[m], ga[m]
                    row = table.get(kl)
                    if row is None:
                        row = table[kl] = _bose_weights(*kl)
                    rows.append(row)
                for choice in itertools.product(*rows):
                    cre_j, ann_j = list(cre), list(ann)
                    weight, s = 1, 0
                    for m, (j, w) in zip(modes, choice):
                        cre_j[m] -= j
                        ann_j[m] -= j
                        weight *= w
                        s += j
                    key = (tuple(cre_j), tuple(ann_j))
                    out[key] = out.get(key, 0j) + c * (weight * powers[s])
    else:
        for (c1, a1), ca in a.terms.items():
            p1 = _parity_mask(c1)
            for (c2, a2), cb in b.terms.items():
                c = ca * cb
                common = a1 & c2
                s = common
                while True:
                    ar, cr = a1 ^ s, c2 ^ s
                    if not (c1 & cr or ar & a2):
                        k = s.bit_count()
                        odd = (((s ^ a2) & _parity_mask(ar)).bit_count()
                               + (cr & (_parity_mask(s) ^ p1)).bit_count()
                               + k * (k - 1) // 2
                               + ar.bit_count() * cr.bit_count()) & 1
                        key = (c1 | cr, ar | a2)
                        out[key] = out.get(key, 0j) + c * (-1 if odd else 1)
                    if not s:
                        break
                    s = (s - 1) & common
    if isinstance(a.hbar, (int, float)):
        return a._like(out)
    # an hbar such as numpy.float32 leaves numpy scalars to convert
    return NormalOrderedPolynomial(a.statistics, a.modes, a.hbar, out)


def _conjugate_terms(statistics: str, terms: dict) -> dict:
    """Conjugate-linear reversal of a normal-form term map.

    (a*^C a^A)* = a*^{rev A} a^{rev C}; for fermions re-sorting each
    reversed block to increasing order costs parity (-1)^{n(n-1)/2}.
    """
    out: dict = {}
    for (alpha, beta), coeff in terms.items():
        coeff = coeff.conjugate()
        if statistics == "fermi":
            nc, na = alpha.bit_count(), beta.bit_count()
            if (nc * (nc - 1) // 2 + na * (na - 1) // 2) & 1:
                coeff = -coeff
        key = (beta, alpha)
        out[key] = out.get(key, 0j) + coeff
    return out


def involution(a: NormalOrderedPolynomial) -> NormalOrderedPolynomial:
    """Conjugate-linear, order-reversing star operation; (AB)* = B*A*."""
    return a._like(_conjugate_terms(a.statistics, a.terms))


def commutator(a: NormalOrderedPolynomial, b: NormalOrderedPolynomial,
               degree_cap: int = DEGREE_CAP) -> NormalOrderedPolynomial:
    return product(a, b, degree_cap) - product(b, a, degree_cap)


# ---------------------------------------------------------------------------
# Wick symbols


@dataclass(frozen=True)
class WickSymbol:
    """Normal-form coefficients with operator hats removed.

    Bosonic symbols are ordinary polynomials in conjugate pairs (a*, a);
    fermionic symbols are Grassmann polynomials keyed by the same masks.
    """

    statistics: str
    modes: int
    terms: dict

    def __post_init__(self) -> None:
        if self.statistics not in ("bose", "fermi"):
            raise ValidationError(f"unknown statistics {self.statistics!r}")
        _require_int(self.modes, "modes")
        object.__setattr__(self, "terms", {
            _check_key(self.statistics, self.modes, key): coeff
            for key, coeff in self.terms.items()})

    def conjugate(self) -> "WickSymbol":
        return WickSymbol(self.statistics, self.modes,
                          _conjugate_terms(self.statistics, self.terms))

    def evaluate(self, astar: Sequence[complex], a: Sequence[complex]) -> complex:
        if self.statistics != "bose":
            raise ValidationError("numeric evaluation is bosonic-only")
        astar = np.asarray(astar, dtype=complex)
        a = np.asarray(a, dtype=complex)
        total = 0j
        for (alpha, beta), coeff in self.terms.items():
            val = coeff
            for k in range(self.modes):
                val *= astar[k] ** alpha[k] * a[k] ** beta[k]
            total += val
        return complex(total)


def wick_symbol(a: NormalOrderedPolynomial) -> WickSymbol:
    return WickSymbol(a.statistics, a.modes, dict(a.terms))


# ---------------------------------------------------------------------------
# Fock representation


def represent(a: NormalOrderedPolynomial, spec: fock.FockSpec) -> np.ndarray:
    """Matrix of the polynomial on a Fock space.

    Each term's monomial is a ladder word, which maps every basis column to
    one row with one weight, so the term scatters its coefficient times
    those weights into the matrix in O(dim), in term order.  The words are
    evaluated as stacks by fock._monomials, in blocks of at most
    fock._WORD_BLOCK (words x dim) entries.  The map is
    a *-homomorphism exactly on the fermionic space and on the bosonic safe
    subspace.  Bosonic cutoffs must reach the polynomial's per-mode degree:
    c_k >= alpha_k + beta_k for every term.
    """
    if spec.statistics != a.statistics or spec.modes != a.modes:
        raise ValidationError("spec does not match polynomial statistics/modes")
    if abs(spec.hbar - a.hbar) != 0:
        raise ValidationError("spec hbar differs from polynomial hbar")
    if a.statistics == "bose":
        exponents = [alpha + beta for alpha, beta in a.terms]
        needed = [max((e[k] + e[a.modes + k] for e in exponents), default=0)
                  for k in range(a.modes)]
        bad = [k + 1 for k in range(a.modes) if spec.cutoffs[k] < needed[k]]
        if bad:
            raise ValidationError(
                f"cutoffs too small for polynomial degree; need at least "
                f"{needed} per mode (modes {bad} deficient)")
    else:
        exponents = [[mask >> k & 1 for mask in key for k in range(a.modes)]
                     for key in a.terms]
    coeffs = list(a.terms.values())
    cols = np.arange(spec.dim)
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for block, rows, weights in fock._monomials(spec, exponents):
        for coeff, r, w in zip(coeffs[block], rows, weights):
            out[r, cols] += coeff * w
    return out


# ---------------------------------------------------------------------------
# exponential Weyl relation


@dataclass(frozen=True)
class SigmaForm:
    """Antisymmetric form sigma^{kl} for self-adjoint generators u^k."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("sigma must be square")
        if not np.array_equal(m, -m.T):
            raise ValidationError("sigma must be antisymmetric")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def canonical(cls, modes: int) -> "SigmaForm":
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        m = np.zeros((2 * modes, 2 * modes))
        for k in range(modes):
            m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
        return cls(m)


def canonical_quadratures(spec: fock.FockSpec) -> list[np.ndarray]:
    """Self-adjoint u = (q_1, p_1, ..., q_m, p_m) with [q_k, p_k] = i hbar."""
    us = []
    for k in range(1, spec.modes + 1):
        ad = fock.creation_matrix(spec, k)
        an = ad.conj().T
        q = (an + ad) / math.sqrt(2.0)
        p = (an - ad) / (1j * math.sqrt(2.0))
        us.extend([q, p])
    return us


@dataclass(frozen=True)
class WeylCheckResult:
    defect: float
    phase: complex
    cutoff: int
    subspace_dim: int


def weyl_exponential_check(spec: fock.FockSpec, alpha: Sequence[float],
                           beta: Sequence[float], max_level: int = 2,
                           tol: float | None = None) -> WeylCheckResult:
    """Defect of V_alpha V_beta = exp(-i (hbar/2) alpha.sigma.beta) V_{alpha+beta}.

    V_alpha = exp(i sum_k alpha_k u^k) with the canonical quadratures on a
    truncated space; the defect is measured column-wise on the subspace of
    total occupation <= max_level, where truncation tails are smallest.
    sigma is the canonical per-mode pairing SigmaForm.canonical.
    """
    from .evolution import expm  # deferred: importing this module stays light

    if spec.statistics != "bose":
        raise ValidationError("exponential Weyl check requires bosons")
    sigma = SigmaForm.canonical(spec.modes)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != (2 * spec.modes,) or beta.shape != (2 * spec.modes,):
        raise ValidationError("alpha/beta must have length 2*modes")
    us = canonical_quadratures(spec)

    def v_op(coeffs: np.ndarray) -> np.ndarray:
        h = sum(c * u for c, u in zip(coeffs, us))
        return expm(h, -1.0)  # exp(i h)

    phase = np.exp(-0.5j * spec.hbar * float(alpha @ sigma.matrix @ beta))
    diff = v_op(alpha) @ v_op(beta) - phase * v_op(alpha + beta)
    sub = np.nonzero(spec.occupations.sum(axis=1) <= max_level)[0]
    defect = float(np.abs(np.linalg.norm(diff[:, sub], axis=0)).max())
    result = WeylCheckResult(defect=defect, phase=complex(phase),
                             cutoff=min(spec.cutoffs), subspace_dim=len(sub))
    if tol is not None and defect > tol:
        raise NumericalError(
            f"Weyl relation defect {defect:.3e} exceeds tolerance {tol:.1e}; "
            f"try cutoffs around {2 * max(spec.cutoffs)}")
    return result


# ---------------------------------------------------------------------------
# text form


def _format_complex(z: complex) -> str:
    re_s = repr(float(z.real))
    im = float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"({re_s}{sign}{repr(abs(im))}i)"


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def _monomial_str(statistics: str, modes: int, key) -> str:
    parts = []
    alpha, beta = key
    if statistics == "bose":
        for k in range(modes):
            if alpha[k]:
                parts.append(f"a*[{k + 1}]" + (f"^{alpha[k]}" if alpha[k] > 1 else ""))
        for k in range(modes):
            if beta[k]:
                parts.append(f"a[{k + 1}]" + (f"^{beta[k]}" if beta[k] > 1 else ""))
    else:
        for k in range(modes):
            if alpha >> k & 1:
                parts.append(f"a*[{k + 1}]")
        for k in range(modes):
            if beta >> k & 1:
                parts.append(f"a[{k + 1}]")
    return " ".join(parts)


def _term_sort_key(statistics: str, key):
    alpha, beta = key
    if statistics == "bose":
        return (sum(alpha) + sum(beta), alpha, beta)
    return (alpha.bit_count() + beta.bit_count(), alpha, beta)


def format_poly(a: NormalOrderedPolynomial) -> str:
    """Render as a sum of terms like `(1.5-0.5i) a*[1]^2 a[3]`."""
    if not a.terms:
        return "(0.0+0.0i)"
    chunks = []
    for key in sorted(a.terms, key=lambda k: _term_sort_key(a.statistics, k)):
        mono = _monomial_str(a.statistics, a.modes, key)
        coeff = _format_complex(a.terms[key])
        chunks.append(f"{coeff} {mono}".strip())
    return " + ".join(chunks)


_FACTOR_RE = re.compile(r"a(\*)?\[(\d+)\](?:\^(\d+))?$")


def parse_poly(text: str, statistics: str, modes: int, hbar: float = 1.0
               ) -> NormalOrderedPolynomial:
    """Inverse of format_poly; accepts exactly the emitted normal form."""
    modes = _require_int(modes, "modes")
    terms: dict = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.startswith("("):
            raise ValidationError(f"term must start with a coefficient: {chunk!r}")
        close = chunk.index(")")
        coeff = _parse_complex(chunk[1:close])
        factors = chunk[close + 1:].split()
        if statistics == "bose":
            alpha = [0] * modes
            beta = [0] * modes
            seen_annihilator = False
            for f in factors:
                m = _FACTOR_RE.match(f)
                if not m:
                    raise ValidationError(f"cannot parse factor {f!r}")
                is_c = m.group(1) is not None
                km = _require_index(int(m.group(2)), modes, "mode")
                e = int(m.group(3) or 1)
                if is_c:
                    if seen_annihilator:
                        raise ValidationError("term is not in normal form")
                    alpha[km] += e
                else:
                    seen_annihilator = True
                    beta[km] += e
            key = (tuple(alpha), tuple(beta))
        else:
            cmask = amask = 0
            seen_annihilator = False
            for f in factors:
                m = _FACTOR_RE.match(f)
                if not m or m.group(3):
                    raise ValidationError(f"cannot parse fermionic factor {f!r}")
                is_c = m.group(1) is not None
                bit = 1 << _require_index(int(m.group(2)), modes, "mode")
                if is_c:
                    if seen_annihilator or cmask & bit:
                        raise ValidationError("term is not in canonical form")
                    cmask |= bit
                else:
                    if amask & bit:
                        raise ValidationError("repeated fermionic factor")
                    seen_annihilator = True
                    amask |= bit
            key = (cmask, amask)
        terms[key] = terms.get(key, 0j) + coeff
    return poly(statistics, modes, terms, hbar)
