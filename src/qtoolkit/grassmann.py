"""Exact Grassmann algebra, Berezin calculus, and Gaussian integrals.

Elements of Lambda_n are stored as maps from generator bitmasks to complex
coefficients; monomials are written in canonical increasing-index order and
products carry the parity sign of the merge.  Concatenating monomial a then
b moves each generator k of b past the generators of a above k, so the sign
is (-1)^popcount(b & P(a)), where bit k of the parity mask P(a) is set when
an odd number of the generators of a lie above k; `multiply` forms P(a) once
per left monomial.

`multiply` has two routes with the same bytes.  The dict loop over term
pairs is the only one for fewer than ARRAY_PAIRS pairs, for masks of 64
bits or more, and in a process that has not loaded numpy, so `grassmann
eval` starts without it.  Otherwise the product runs on int64 masks and
float64 parts.  It agrees bit for bit with the loop for three reasons:
each product sign * ca * cb is formed part by part with separate float64
operations, as CPython's unfused complex multiply rounds it (numpy's
complex128 multiply differs in the last bit); each key's products are
added one at a time in the loop's pair order, starting from 0; and keys
are emitted in order of first occurrence.

The Gaussian integral of exp(1/2 sum a_ij e_i e_j) is the Pfaffian of a,
computed in O(n^3) by Parlett-Reid elimination (the polynomial branch of
det^{1/2}: block-diagonal blocks lambda_1..lambda_k integrate to
lambda_1*...*lambda_k).

exp, cos and sin of an even element are the finite Taylor series at its
body a.  f(a) and its derivatives come from cmath, so exp, cos and sin
load no numpy, and a value beyond double range is a NumericalError.  Each
coefficient f^(l)(a) / l! is a multiply by the reciprocal of l!, the
rounding of numpy's complex / int.  numpy loads only in the functions that
take a matrix: `pfaffian`, the Gaussian integrals and
`linear_change_of_variables`; `multiply` uses it only once it is loaded.

A small mixed algebra (commuting variables x_i tensor Grassmann xi_i) backs
the differentials d = sum xi_i d/dx_i and Delta = sum d/dx_i d/dxi_i, both
squaring to zero exactly.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import (NumericalError, ValidationError, _require_index,
                     _require_int)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GrassmannElement",
    "element",
    "scalar",
    "generator",
    "multiply",
    "left_derivative",
    "berezin_integral",
    "compose_even",
    "exp_element",
    "cos_element",
    "sin_element",
    "gaussian_integral",
    "gaussian_integral_series",
    "pfaffian",
    "linear_change_of_variables",
    "MixedElement",
    "mixed",
    "d_operator",
    "delta_operator",
    "parse_expression",
    "format_element",
]


# `multiply` takes the array route from this many term pairs on, once numpy
# is loaded and every mask fits an int64; the route works through row
# blocks of at most BLOCK_PAIRS pairs
ARRAY_PAIRS = 768
BLOCK_PAIRS = 1 << 16
# the most generators `parse_expression` admits, in its text or its n
GENERATORS_MAX = 1 << 16


def _parity_mask(mask_a: int) -> int:
    """P(a): bit k is set when an odd number of generators of a lie above k,
    so monomial a then b merges with sign (-1)^popcount(b & P(a)).  A
    suffix XOR scan of a >> 1 in log2(n) shifts."""
    p = mask_a >> 1
    shift = 1
    while shift < mask_a.bit_length():
        p ^= p >> shift
        shift <<= 1
    return p


@dataclass(frozen=True)
class GrassmannElement:
    n: int
    terms: dict

    def __post_init__(self) -> None:
        _require_int(self.n, "generator count", 0)
        what = f"mask of Lambda_{self.n}"
        clean = {}
        for mask, coeff in self.terms.items():
            mask = _require_int(mask, what, 0, self.n)
            coeff = complex(coeff)
            if coeff != 0:
                clean[mask] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _valid(cls, n: int, terms: dict) -> "GrassmannElement":
        """The element over `terms` without the constructor's checks.

        Only terms that a kernel built from already-valid elements may pass
        through here: int masks below 1 << n and Python complex
        coefficients.  Exact zeros are dropped; insertion order is kept.
        """
        x = object.__new__(cls)
        x.__dict__.update(n=n, terms={m: c for m, c in terms.items()
                                      if c != 0})
        return x

    def _compatible(self, other: "GrassmannElement") -> None:
        if self.n != other.n:
            raise ValidationError("elements live in different algebras")

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        self._compatible(other)
        terms = dict(self.terms)
        for mask, coeff in other.terms.items():
            terms[mask] = terms.get(mask, 0j) + coeff
        return GrassmannElement._valid(self.n, terms)

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "GrassmannElement":
        # complex(): compose_even may scale by a caller's numpy scalars
        return GrassmannElement._valid(
            self.n, {m: complex(factor * c) for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return multiply(self, other)
        return self.scale(other)

    __rmul__ = scale

    def body(self) -> complex:
        """Scalar part (coefficient of the empty monomial)."""
        return self.terms.get(0, 0j)

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() % 2 == 1 for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms


def element(n: int, terms: Mapping) -> GrassmannElement:
    return GrassmannElement(n, dict(terms))


def scalar(n: int, value: complex) -> GrassmannElement:
    return GrassmannElement(n, {0: complex(value)})


def generator(n: int, i: int) -> GrassmannElement:
    bit = 1 << _require_index(i, _require_int(n, "generator count", 0),
                              "generator index")
    return GrassmannElement(n, {bit: 1.0 + 0j})


def multiply(x: GrassmannElement, y: GrassmannElement) -> GrassmannElement:
    x._compatible(y)
    if (x.n < 64 and len(x.terms) * len(y.terms) >= ARRAY_PAIRS
            and "numpy" in sys.modules):
        out = _multiply_arrays(x.terms, y.terms)
    else:
        out = _multiply_dicts(x.terms, y.terms)
    return GrassmannElement._valid(x.n, out)


def _multiply_dicts(xt: dict, yt: dict) -> dict:
    out: dict = {}
    for ma, ca in xt.items():
        parity = _parity_mask(ma)
        signed = (1 * ca, -1 * ca)  # sign * ca, by the parity of crossings
        for mb, cb in yt.items():
            if ma & mb:
                continue
            key = ma | mb
            out[key] = (out.get(key, 0j)
                        + signed[(mb & parity).bit_count() & 1] * cb)
    return out


def _multiply_arrays(xt: dict, yt: dict) -> dict:
    """`_multiply_dicts(xt, yt)` bit for bit, on int64 masks and float64
    parts; every mask must lie below 2**63.

    The pairs run x-major, in blocks of whole rows of at most BLOCK_PAIRS
    pairs (one row when y alone has more terms).  Each product is formed
    part by part as CPython's complex multiply does, np.add.at adds a key's
    products one at a time in pair order starting from 0, as the dict loop
    does, and keys come out in order of first occurrence.
    """
    import numpy as np

    xm = np.fromiter(xt, np.int64, len(xt))
    parity = xm >> 1  # _parity_mask of every x mask
    for shift in (1, 2, 4, 8, 16, 32):
        parity ^= parity >> shift
    # +ca and -ca as CPython rounds int * complex: 1 * (2-0j) is (2+0j)
    plus = np.fromiter(map(operator.mul, repeat(1), xt.values()), complex,
                       len(xt))
    minus = np.fromiter(map(operator.mul, repeat(-1), xt.values()), complex,
                        len(xt))
    sr = np.stack([plus.real, minus.real], axis=1)
    si = np.stack([plus.imag, minus.imag], axis=1)
    ym = np.fromiter(yt, np.int64, len(yt))
    yc = np.fromiter(yt.values(), complex, len(yt))
    yr, yi = yc.real, yc.imag
    keys = np.empty(0, np.int64)  # by slot, in order of first occurrence
    sums = np.empty(0, complex)
    rows = max(1, BLOCK_PAIRS // len(yt))
    for start in range(0, len(xm), rows):
        i, j = np.nonzero((xm[start:start + rows, None] & ym) == 0)
        if not len(i):
            continue
        i += start
        odd = np.bitwise_count(parity[i] & ym[j]) & 1
        ar, ai, br, bi = sr[i, odd], si[i, odd], yr[j], yi[j]
        terms = np.empty(len(i), complex)
        with np.errstate(all="ignore"):  # inf and nan pass, as in Python
            terms.real = ar * br - ai * bi
            terms.imag = ar * bi + ai * br
        # the block's distinct keys, the first pair and the group of each;
        # numpy's default sort, since a stable int64 sort costs several
        # times as much
        key = xm[i] | ym[j]
        order = np.argsort(key)
        step = np.empty(len(key), np.intp)  # 1 where a new key starts
        step[0] = 1
        np.not_equal(key[order[1:]], key[order[:-1]], out=step[1:])
        starts = np.flatnonzero(step)
        unique = key[order[starts]]
        first = np.minimum.reduceat(order, starts)
        inverse = np.empty(len(key), np.intp)
        inverse[order] = np.cumsum(step) - 1
        # slots of the keys earlier blocks met, then new slots by first pair
        slot = np.full(len(unique), -1)
        if len(keys):
            by_key = np.argsort(keys)
            at = np.searchsorted(keys, unique, sorter=by_key)
            at = by_key[np.minimum(at, len(keys) - 1)]
            hit = keys[at] == unique
            slot[hit] = at[hit]
        new = np.flatnonzero(slot < 0)
        new = new[np.argsort(first[new])]
        slot[new] = np.arange(len(keys), len(keys) + len(new))
        keys = np.concatenate([keys, unique[new]])
        sums = np.concatenate([sums, np.zeros(len(new), complex)])
        with np.errstate(all="ignore"):
            np.add.at(sums, slot[inverse], terms)
    return dict(zip(keys.tolist(), sums.tolist()))


def left_derivative(i: int, x: GrassmannElement) -> GrassmannElement:
    """d/d e_i acting from the left: move e_i to the front, then strip it."""
    bit = 1 << _require_index(i, x.n, "generator index")
    out: dict = {}
    for mask, coeff in x.terms.items():
        if not mask & bit:
            continue
        below = mask & (bit - 1)
        sign = -1 if below.bit_count() & 1 else 1
        out[mask ^ bit] = out.get(mask ^ bit, 0j) + sign * coeff
    return GrassmannElement._valid(x.n, out)


def berezin_integral(x: GrassmannElement) -> complex:
    """Coefficient of the top monomial e_1...e_n; lower degrees integrate to 0."""
    top = (1 << x.n) - 1
    return x.terms.get(top, 0j)


def compose_even(derivatives: Sequence[complex], omega: GrassmannElement
                 ) -> GrassmannElement:
    """f(omega) for even omega via the finite Taylor series around the body.

    `derivatives[l]` must hold f^(l)(a) at the body a = omega.body(); the
    nilpotent part nu = omega - a satisfies nu^(floor(n/2)+1) = 0, so
    derivatives up to order floor(n/2) suffice and the series is exact.
    """
    if not omega.is_even():
        raise ValidationError("compose_even requires an even element")
    need = omega.n // 2
    if len(derivatives) < need + 1:
        raise ValidationError(
            f"need {need + 1} derivative values (orders 0..{need}), "
            f"got {len(derivatives)}")
    return _series_at_body(
        omega, [derivatives[l] / math.factorial(l) for l in range(need + 1)])


def _series_at_body(x: GrassmannElement, coefficients: Iterable[complex]
                    ) -> GrassmannElement:
    """sum_l coefficients[l] nu^l for the nilpotent part nu = x - body(x).

    The sum stops at the first vanishing power of nu, at the latest
    nu^(n+1) = 0, and draws no coefficient past the next one.
    """
    n = x.n
    coefficients = iter(coefficients)
    nu = x - GrassmannElement._valid(n, {0: x.body()})
    out = GrassmannElement._valid(n, {0: complex(next(coefficients))})
    power = GrassmannElement._valid(n, {0: 1.0 + 0j})
    for c in coefficients:
        power = multiply(power, nu)
        if power.is_zero():
            break
        out = out + power.scale(c)
    return out


def _power(x: GrassmannElement, exponent: int) -> GrassmannElement:
    """x^N = sum_l C(N, l) a^(N-l) nu^l for the body a and nilpotent part nu.

    At most n + 1 terms survive, and a^(N-n) is formed by repeated
    squaring, so the cost grows with log N instead of N.
    """
    a = complex(x.body())
    top = min(exponent, x.n)
    p, base, k = 1.0 + 0j, a, exponent - top
    while k:
        if k & 1:
            p *= base
        k >>= 1
        if k:
            base *= base
    coefficients = []
    message = f"power {exponent} exceeds double range"
    try:
        for l in range(top, -1, -1):
            coefficients.append(math.comb(exponent, l) * p if p else 0j)
            p *= a
    except OverflowError as exc:  # a binomial beyond float range
        raise NumericalError(message) from exc
    if not all(cmath.isfinite(c) for c in coefficients):
        raise NumericalError(message)
    return _series_at_body(x, coefficients[::-1])


def _over_factorial(d: complex, l: int) -> complex:
    # d / l! as numpy's complex / int rounds it, a multiply by the
    # reciprocal; Python's complex division differs in the last bit
    s = 1.0 / math.factorial(l)
    return complex((d.real + d.imag * 0.0) * s, (d.imag - d.real * 0.0) * s)


def _at_body(omega: GrassmannElement, cycle: Callable) -> GrassmannElement:
    """f(omega) for even omega, where cycle(a) lists f(a), f'(a), ... at the
    body a from cmath's exp, cos and sin; the derivatives repeat with its
    length."""
    if not omega.is_even():
        raise ValidationError("compose_even requires an even element")
    a = complex(omega.body())
    message = f"function value at the body {a!r} is not finite"
    try:
        values = cycle(a)
    except (OverflowError, ValueError) as exc:  # beyond double range
        raise NumericalError(message) from exc
    if not all(cmath.isfinite(v) for v in values):
        raise NumericalError(message)
    k = len(values)
    return _series_at_body(omega, (_over_factorial(values[l % k], l)
                                   for l in range(omega.n // 2 + 1)))


def exp_element(omega: GrassmannElement) -> GrassmannElement:
    return _at_body(omega, lambda a: (cmath.exp(a),))


def cos_element(omega: GrassmannElement) -> GrassmannElement:
    def cycle(a):
        c, s = cmath.cos(a), cmath.sin(a)
        return c, -s, -c, s
    return _at_body(omega, cycle)


def sin_element(omega: GrassmannElement) -> GrassmannElement:
    def cycle(a):
        c, s = cmath.cos(a), cmath.sin(a)
        return s, c, -s, -c
    return _at_body(omega, cycle)


# ---------------------------------------------------------------------------
# Gaussian integrals / Pfaffian


def _check_antisymmetric(a: np.ndarray) -> np.ndarray:
    import numpy as np

    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("matrix must be square")
    scale = max(float(np.abs(a).max(initial=0.0)), 1e-300)
    if float(np.abs(a + a.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValidationError("matrix is not antisymmetric")
    return a


def pfaffian(a: np.ndarray) -> complex:
    """Pfaffian by Parlett-Reid elimination, O(n^3).

    Each step pivots the largest entry of column k below the diagonal into
    row k+1 (a simultaneous row/column swap flips the sign), takes
    a[k, k+1] as the next factor, and removes rows and columns k, k+1 by a
    skew-symmetric rank-2 update of the trailing block.
    """
    import numpy as np

    a = _check_antisymmetric(a).copy()
    n = a.shape[0]
    if n % 2 == 1:
        return 0j
    pf = 1.0 + 0j
    for k in range(0, n - 1, 2):
        p = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if p != k + 1:
            a[[k + 1, p], k:] = a[[p, k + 1], k:]
            a[k:, [k + 1, p]] = a[k:, [p, k + 1]]
            pf = -pf
        if a[k, k + 1] == 0:
            return 0j
        pf *= a[k, k + 1]
        tau = a[k, k + 2:] / a[k, k + 1]
        col = a[k + 2:, k + 1]
        a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return complex(pf)


def gaussian_integral(a: np.ndarray) -> complex:
    """int exp(1/2 sum_ij a_ij e_i e_j) d^n e = Pf(a); 0 for odd n."""
    return pfaffian(a)


def gaussian_integral_series(a: np.ndarray) -> complex:
    """Independent route: expand exp of the quadratic element and take the
    Berezin integral.  Exponential cost; intended for n <= 10 cross-checks."""
    a = _check_antisymmetric(a)
    n = a.shape[0]
    omega = GrassmannElement(n, {
        (1 << i) | (1 << j): a[i, j]
        for i in range(n) for j in range(i + 1, n)
        if a[i, j] != 0
    })
    return berezin_integral(exp_element(omega))


def linear_change_of_variables(a_matrix: np.ndarray, x: GrassmannElement
                               ) -> GrassmannElement:
    """Substitute e_i -> sum_j A[i,j] e_j.

    The top coefficient picks up det(A); comparing Berezin integrals between
    old and new variables therefore carries the factor det(A)^{-1}.
    """
    import numpy as np

    a_matrix = np.asarray(a_matrix, dtype=complex)
    n = x.n
    if a_matrix.shape != (n, n):
        raise ValidationError("matrix size must match generator count")
    if abs(np.linalg.det(a_matrix)) < 1e-300:
        raise ValidationError("change of variables must be invertible")
    images = [
        GrassmannElement(n, {1 << j: a_matrix[i, j]
                             for j in range(n) if a_matrix[i, j] != 0})
        for i in range(n)
    ]
    out = GrassmannElement(n, {})
    for mask, coeff in x.terms.items():
        term = scalar(n, coeff)
        for i in range(n):
            if mask >> i & 1:
                term = multiply(term, images[i])
        out = out + term
    return out


# ---------------------------------------------------------------------------
# mixed commuting/anticommuting algebra


@dataclass(frozen=True)
class MixedElement:
    """Polynomial in commuting x_1..x_r tensor Grassmann xi_1..xi_n.

    Terms map (x-multidegree tuple, xi-bitmask) to coefficients; the xi part
    follows the same canonical order and sign rules as GrassmannElement.
    """

    r: int
    n: int
    terms: dict

    def __post_init__(self) -> None:
        _require_int(self.r, "x-variable count", 0)
        _require_int(self.n, "xi-generator count", 0)
        clean = {}
        for (deg, mask), coeff in self.terms.items():
            if len(deg) != self.r:
                raise ValidationError(f"bad x-degree {deg!r}")
            deg = tuple(_require_int(d, "x-degree", 0) for d in deg)
            mask = _require_int(mask, "xi-mask", 0, self.n)
            coeff = complex(coeff)
            if coeff != 0:
                clean[(deg, mask)] = coeff
        object.__setattr__(self, "terms", clean)

    def __add__(self, other: "MixedElement") -> "MixedElement":
        if (self.r, self.n) != (other.r, other.n):
            raise ValidationError("mixed elements live in different algebras")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0j) + coeff
        return MixedElement(self.r, self.n, terms)

    def scale(self, factor: complex) -> "MixedElement":
        return MixedElement(self.r, self.n,
                            {k: factor * c for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


def mixed(r: int, n: int, terms: Mapping) -> MixedElement:
    return MixedElement(r, n, dict(terms))


def _partial_x(i: int, x: MixedElement) -> MixedElement:
    out: dict = {}
    for (deg, mask), coeff in x.terms.items():
        if deg[i] == 0:
            continue
        new_deg = deg[:i] + (deg[i] - 1,) + deg[i + 1:]
        key = (new_deg, mask)
        out[key] = out.get(key, 0j) + coeff * deg[i]
    return MixedElement(x.r, x.n, out)


def _xi_left_multiply(i: int, x: MixedElement) -> MixedElement:
    bit = 1 << i
    out: dict = {}
    for (deg, mask), coeff in x.terms.items():
        if mask & bit:
            continue
        below = mask & (bit - 1)
        sign = -1 if below.bit_count() & 1 else 1
        key = (deg, mask | bit)
        out[key] = out.get(key, 0j) + sign * coeff
    return MixedElement(x.r, x.n, out)


def _xi_left_derivative(i: int, x: MixedElement) -> MixedElement:
    bit = 1 << i
    out: dict = {}
    for (deg, mask), coeff in x.terms.items():
        if not mask & bit:
            continue
        below = mask & (bit - 1)
        sign = -1 if below.bit_count() & 1 else 1
        key = (deg, mask ^ bit)
        out[key] = out.get(key, 0j) + sign * coeff
    return MixedElement(x.r, x.n, out)


def d_operator(x: MixedElement) -> MixedElement:
    """d = sum_i xi_i d/dx_i (requires r == n pairing); d^2 = 0."""
    if x.r != x.n:
        raise ValidationError("d pairs x_i with xi_i; need r == n")
    out = MixedElement(x.r, x.n, {})
    for i in range(x.r):
        out = out + _xi_left_multiply(i, _partial_x(i, x))
    return out


def delta_operator(x: MixedElement) -> MixedElement:
    """Delta = sum_i d/dx_i d/dxi_i; Delta^2 = 0."""
    if x.r != x.n:
        raise ValidationError("Delta pairs x_i with xi_i; need r == n")
    out = MixedElement(x.r, x.n, {})
    for i in range(x.r):
        out = out + _partial_x(i, _xi_left_derivative(i, x))
    return out


# ---------------------------------------------------------------------------
# expression language (CLI-facing)
#
# Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (factor | '*' factor)*         juxtaposition multiplies
#   factor := NUMBER | 'e'INT | FUNC '(' expr ')' | '(' expr ')'
#             | '-' factor | factor '^' INT
#   FUNC   := cos | sin | exp
# Numbers may carry a trailing 'i' for imaginary literals.


def _is_digit(c: str) -> bool:
    # ASCII only: str.isdigit also takes '²', which int() refuses
    return "0" <= c <= "9"


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take_while(self, pred: Callable[[str], bool]) -> str:
        start = self.pos
        while self.pos < len(self.text) and pred(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]


def parse_expression(text: str, n: int | None = None) -> GrassmannElement:
    """Parse expressions like "cos(e1 e2 + e3 e4)" into Lambda_n.

    When n is omitted it is inferred as the largest generator index used.
    A number literal beyond double range is a ValidationError, and a result
    with a coefficient beyond it a NumericalError.
    """
    indices: list[int] = []
    probe = _Tokenizer(text)
    while True:
        ch = probe.peek()
        if not ch:
            break
        if ch == "e" and _is_digit(text[probe.pos + 1:probe.pos + 2]):
            probe.pos += 1
            digits = probe.take_while(_is_digit)
            # no int() of a long digit string, no 1 << index past the cap
            if (len(digits.lstrip("0")) > len(str(GENERATORS_MAX))
                    or int(digits) > GENERATORS_MAX):
                raise ValidationError(
                    f"generator index past {GENERATORS_MAX}: e{digits[:20]}"
                    + ("..." if len(digits) > 20 else ""))
            indices.append(int(digits))
        else:
            probe.pos += 1
    if n is None:
        size = max(indices) if indices else 0
    else:
        size = _require_int(n, "generator count", 0)
        if size > GENERATORS_MAX:
            raise ValidationError(
                f"generator count {size} exceeds {GENERATORS_MAX}")
    if indices and max(indices) > size:
        raise ValidationError(
            f"generator e{max(indices)} exceeds algebra size {size}")

    tok = _Tokenizer(text)

    def parse_expr() -> GrassmannElement:
        value = parse_term()
        while True:
            ch = tok.peek()
            if ch == "+":
                tok.pos += 1
                value = value + parse_term()
            elif ch == "-":
                tok.pos += 1
                value = value - parse_term()
            else:
                return value

    def parse_term() -> GrassmannElement:
        value = parse_factor()
        while True:
            ch = tok.peek()
            if ch == "*":
                tok.pos += 1
                value = multiply(value, parse_factor())
            elif ch and (ch.isalnum() or ch == "(" or ch == "."):
                value = multiply(value, parse_factor())
            else:
                return value

    def parse_factor() -> GrassmannElement:
        value = parse_atom()
        while tok.peek() == "^":
            tok.pos += 1
            digits = tok.take_while(_is_digit)
            if not digits:
                raise ValidationError("missing exponent after '^'")
            try:
                exponent = int(digits)
            except ValueError as exc:  # beyond int()'s digit limit
                raise ValidationError(f"exponent too long: {exc}") from exc
            value = _power(value, exponent)
        return value

    def parse_atom() -> GrassmannElement:
        ch = tok.peek()
        if ch == "-":
            tok.pos += 1
            return parse_atom().scale(-1)
        if ch == "(":
            tok.pos += 1
            inner = parse_expr()
            if tok.peek() != ")":
                raise ValidationError("unbalanced parenthesis")
            tok.pos += 1
            return inner
        if _is_digit(ch) or ch == ".":
            number = tok.take_while(lambda c: _is_digit(c) or c == ".")
            imag = False
            if tok.peek() == "i":
                tok.pos += 1
                imag = True
            try:
                val = float(number)
            except ValueError as exc:
                raise ValidationError(f"bad number {number!r}") from exc
            if math.isinf(val):
                raise ValidationError(f"a number of {len(number)} digits "
                                      "exceeds double range")
            return scalar(size, 1j * val if imag else val)
        if ch == "e" and _is_digit(text[tok.pos + 1:tok.pos + 2]):
            tok.pos += 1
            idx = int(tok.take_while(_is_digit))
            return generator(size, idx)
        name = tok.take_while(str.isalpha)
        if name in ("cos", "sin", "exp"):
            if tok.peek() != "(":
                raise ValidationError(f"{name} needs parentheses")
            tok.pos += 1
            arg = parse_expr()
            if tok.peek() != ")":
                raise ValidationError("unbalanced parenthesis")
            tok.pos += 1
            fn = {"cos": cos_element, "sin": sin_element, "exp": exp_element}[name]
            return fn(arg)
        raise ValidationError(f"unexpected input at position {tok.pos}: {text[tok.pos:]!r}")

    result = parse_expr()
    if tok.peek():
        raise ValidationError(f"trailing input: {text[tok.pos:]!r}")
    if not all(cmath.isfinite(c) for c in result.terms.values()):
        raise NumericalError("a result coefficient exceeds double range")
    return result


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def format_element(x: GrassmannElement) -> str:
    """Canonical rendering, e.g. `1 - e1 e2 e3 e4`."""
    if not x.terms:
        return "0"
    parts: list[str] = []
    for mask in sorted(x.terms, key=lambda m: (m.bit_count(), m)):
        coeff = x.terms[mask]
        names, rest = [], mask
        while rest:  # the set bits, lowest first
            low = rest & -rest
            names.append(f"e{low.bit_length()}")
            rest ^= low
        mono = " ".join(names)
        if coeff.imag == 0:
            value = coeff.real
            sign = "-" if value < 0 else "+"
            mag = abs(value)
            body = _format_number(mag)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{body} {mono}"
        else:
            sign = "+"
            im_sign = "+" if coeff.imag >= 0 else "-"
            body = (f"({_format_number(coeff.real)}{im_sign}"
                    f"{_format_number(abs(coeff.imag))}i)")
            if mono:
                body = f"{body} {mono}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
