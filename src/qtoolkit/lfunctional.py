"""Generating functionals of bosonic correlation functions.

The functional of a state K over m modes is

    L_K(alpha*, alpha) = Tr exp(-alpha . adag) exp(alpha* . a) K,

a polynomial-coefficient container once truncated at a total degree D:
expanding both exponentials,

    L = sum_{beta,gamma} (-alpha)^beta (alpha*)^gamma / (beta! gamma!)
            * V(beta, gamma),
    V(beta, gamma) = Tr[(adag)^beta a^gamma K],

so the stored coefficients V are exactly the normally ordered correlation
functions.  Annihilation and creation acting on K from either side become
first-order operators b, b+, btilde, btilde+ in the alpha variables
(doubling of fields), all four one shift map with beta and gamma swapped
for the tilde pair.  The von Neumann equation is the commutator of their
words: for Hamiltonians of ladder degree at most two (constant, linear
and quadratic terms) it is a closed linear system on the V coefficients,
integrated by exact exponentiation.

The module also carries Gaussian closed forms (coherent, thermal), a
lattice toy comparing the full Weyl-form evolution kernel against its
small-hbar limit, two-point Green functions from the ladder band of the
letter tables, with poles from a windowed Fourier transform, and a
graded-grid demonstration of the pole-term asymptotics of Fourier transforms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import (NumericalError, ValidationError, _hermitian,
                     _require_finite, _require_index, _require_int,
                     _require_positive)
from .fock import (DensityMatrix, FockSpec, _letter_tables, _monomials,
                   annihilation_matrix, creation_matrix)
from .serialize import matrix_from_json, matrix_to_json

if TYPE_CHECKING:
    from .weyl_clifford import NormalOrderedPolynomial

__all__ = [
    "TaylorLFunctional",
    "GaussianLFunctional",
    "coherent_lfunctional",
    "thermal_lfunctional",
    "from_density",
    "BOperatorReport",
    "b_operators_check",
    "evolve_L",
    "HbarSweepResult",
    "hbar_sweep",
    "GreenResult",
    "two_point_green",
    "fourier_asymptotics_demo",
]


def _multi_indices(modes: int, total: int):
    if modes == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(modes - 1, total - head):
            yield (head,) + rest


def _all_keys(modes: int, degree: int):
    keys = []
    for b_tot in range(degree + 1):
        for g_tot in range(degree + 1 - b_tot):
            for beta in _multi_indices(modes, b_tot):
                for gamma in _multi_indices(modes, g_tot):
                    keys.append((beta, gamma))
    return keys


def _factorial_multi(idx: Sequence[int]) -> float:
    out = 1.0
    for k in idx:
        out *= math.factorial(k)
    return out


@dataclass(frozen=True)
class TaylorLFunctional:
    """Correlation functions V(beta, gamma) up to total degree D.

    correlations maps (beta, gamma) exponent tuples to
    Tr[(adag)^beta a^gamma K]; the functional's polynomial coefficient of
    alpha^beta (alpha*)^gamma is (-1)^|beta| V(beta, gamma)/(beta! gamma!).
    """

    modes: int
    degree: int
    hbar: float
    correlations: Mapping[tuple, complex]

    def __post_init__(self):
        _require_int(self.degree, "degree", 0)
        for (beta, gamma) in self.correlations:
            if len(beta) != self.modes or len(gamma) != self.modes:
                raise ValidationError("multi-index length must equal modes")
            if sum(beta) + sum(gamma) > self.degree:
                raise ValidationError("correlation beyond the stated degree")

    def value(self, beta: tuple, gamma: tuple) -> complex:
        return complex(self.correlations.get((tuple(beta), tuple(gamma)),
                                             0.0))

    def coefficient(self, beta: tuple, gamma: tuple) -> complex:
        """Polynomial coefficient of alpha^beta (alpha*)^gamma."""
        sign = -1.0 if sum(beta) % 2 else 1.0
        return (sign * self.value(beta, gamma)
                / (_factorial_multi(beta) * _factorial_multi(gamma)))

    def evaluate(self, alpha: Sequence[complex]) -> complex:
        alpha = np.asarray(alpha, dtype=complex)
        if alpha.shape != (self.modes,):
            raise ValidationError("alpha must have one entry per mode")
        total = 0.0 + 0.0j
        for (beta, gamma), v in self.correlations.items():
            mono = v / (_factorial_multi(beta) * _factorial_multi(gamma))
            for k in range(self.modes):
                mono *= (-alpha[k]) ** beta[k] * np.conj(alpha[k]) ** gamma[k]
            total += mono
        return complex(total)

    def occupation_matrix(self) -> np.ndarray:
        """Degree-2 block <adag_k a_l>, positive semidefinite for states."""
        e = [_shift((0,) * self.modes, k, 1) for k in range(self.modes)]
        return np.array([[self.value(ek, el) for el in e] for ek in e],
                        dtype=complex)


# ---------------------------------------------------------------------------
# construction from operators and closed forms


def _taylor_from_operator(op: np.ndarray, spec: FockSpec, degree: int
                          ) -> TaylorLFunctional:
    """Correlations Tr[(a^+)^beta a^gamma op] up to total degree `degree`.

    Column c of the ladder word (a^+)^beta a^gamma holds weights[c] at row
    rows[c], so each trace is sum_c weights[c] op[c, rows[c]], O(dim).
    fock._monomials evaluates the words in blocks of at most
    fock._WORD_BLOCK (words x dim) entries, the keys of one length in a
    block as one stack.
    """
    keys = _all_keys(spec.modes, degree)
    cols = np.arange(spec.dim)
    values = []
    for _, rows, weights in _monomials(spec, [b + g for b, g in keys]):
        values.extend(complex(w @ v) for w, v in zip(weights, op[cols, rows]))
    return TaylorLFunctional(modes=spec.modes, degree=degree, hbar=spec.hbar,
                             correlations=dict(zip(keys, values)))


def from_density(k: DensityMatrix | np.ndarray, spec: FockSpec,
                 degree: int = 6) -> TaylorLFunctional:
    """Correlation functionals of a density matrix on a truncated space.

    `degree` is an integer >= 0.  Requires every cutoff to be at least
    the degree, so that degree-D strings of ladder operators act exactly
    on the bulk of the state.
    """
    degree = _require_int(degree, "degree", 0)
    if spec.statistics != "bose":
        raise ValidationError("functionals are defined over bosonic modes")
    if min(spec.cutoffs) < degree:
        raise ValidationError(
            f"cutoffs {spec.cutoffs} cannot support degree {degree}")
    k = k if isinstance(k, DensityMatrix) else DensityMatrix(k)
    if k.matrix.shape != (spec.dim, spec.dim):
        raise ValidationError("state dimension does not match the space")
    return _taylor_from_operator(k.matrix, spec, degree)


@dataclass(frozen=True)
class GaussianLFunctional:
    """Closed-form functional exp(c + l* . alpha* + l . alpha - alpha* n alpha).

    linear_star multiplies alpha*_k, linear multiplies alpha_k; n must be
    hermitian positive semidefinite (mode occupations).  A normalized state
    has c = 0 so that L(0, 0) = 1.
    """

    modes: int
    log_constant: complex = 0.0
    linear_star: tuple = ()
    linear: tuple = ()
    occupation: tuple = ()

    def __post_init__(self):
        ls = tuple(complex(x) for x in self.linear_star) or (0j,) * self.modes
        li = tuple(complex(x) for x in self.linear) or (0j,) * self.modes
        occ = np.asarray(self.occupation, dtype=complex)
        if occ.size == 0:
            occ = np.zeros((self.modes, self.modes), dtype=complex)
        if len(ls) != self.modes or len(li) != self.modes:
            raise ValidationError("linear terms must have one entry per mode")
        herm = _hermitian(occ, "occupation matrix")
        if herm.shape != (self.modes, self.modes):
            raise ValidationError("occupation matrix must be modes x modes")
        if float(np.linalg.eigvalsh(herm).min()) < -1e-12:
            raise ValidationError("occupation matrix must be >= 0")
        object.__setattr__(self, "linear_star", ls)
        object.__setattr__(self, "linear", li)
        object.__setattr__(self, "occupation",
                           tuple(map(tuple, occ.tolist())))

    def evaluate(self, alpha: Sequence[complex]) -> complex:
        alpha = np.asarray(alpha, dtype=complex)
        occ = np.asarray(self.occupation, dtype=complex)
        expo = (self.log_constant
                + np.dot(self.linear_star, alpha.conj())
                + np.dot(self.linear, alpha)
                - alpha.conj() @ occ @ alpha)
        return complex(np.exp(expo))

    def to_taylor(self, degree: int, hbar: float = 1.0) -> TaylorLFunctional:
        """Expand the exponential into correlation coefficients."""
        degree = _require_int(degree, "degree", 0)
        # polynomial in (alpha, alpha*): keys (beta, gamma) as exponents
        base: dict[tuple, complex] = {}
        m = self.modes
        zero = (0,) * m
        e = [_shift(zero, k, 1) for k in range(m)]
        for k in range(m):
            if self.linear_star[k] != 0:
                key = (zero, e[k])
                base[key] = base.get(key, 0.0) + self.linear_star[k]
            if self.linear[k] != 0:
                key = (e[k], zero)
                base[key] = base.get(key, 0.0) + self.linear[k]
        occ = np.asarray(self.occupation, dtype=complex)
        for k, l in itertools.product(range(m), repeat=2):
            if occ[k, l] != 0:
                key = (e[l], e[k])
                base[key] = base.get(key, 0.0) - occ[k, l]

        def multiply(p, q):
            out: dict[tuple, complex] = {}
            for (b1, g1), c1 in p.items():
                for (b2, g2), c2 in q.items():
                    b = tuple(x + y for x, y in zip(b1, b2))
                    g = tuple(x + y for x, y in zip(g1, g2))
                    if sum(b) + sum(g) > degree:
                        continue
                    key = (b, g)
                    out[key] = out.get(key, 0.0) + c1 * c2
            return out

        series = {(zero, zero): complex(np.exp(self.log_constant))}
        power = {(zero, zero): 1.0 + 0.0j}
        for j in range(1, degree + 1):
            power = multiply(power, base)
            if not power:
                break
            scale = complex(np.exp(self.log_constant)) / math.factorial(j)
            for key, c in power.items():
                series[key] = series.get(key, 0.0) + scale * c

        corr = {}
        for (beta, gamma), c in series.items():
            sign = -1.0 if sum(beta) % 2 else 1.0
            corr[(beta, gamma)] = (sign * c * _factorial_multi(beta)
                                   * _factorial_multi(gamma))
        for key in _all_keys(m, degree):
            corr.setdefault(key, 0.0 + 0.0j)
        return TaylorLFunctional(modes=m, degree=degree, hbar=hbar,
                                 correlations=corr)

    def to_json(self) -> dict:
        occ = np.asarray(self.occupation, dtype=complex)
        return {
            "modes": self.modes,
            "log_constant": [self.log_constant.real, self.log_constant.imag],
            "linear_star": [[z.real, z.imag] for z in self.linear_star],
            "linear": [[z.real, z.imag] for z in self.linear],
            "occupation": matrix_to_json(occ),
        }

    @classmethod
    def from_json(cls, data: dict) -> "GaussianLFunctional":
        return cls(
            modes=int(data["modes"]),
            log_constant=complex(*data["log_constant"]),
            linear_star=tuple(complex(re, im)
                              for re, im in data["linear_star"]),
            linear=tuple(complex(re, im) for re, im in data["linear"]),
            occupation=tuple(map(tuple,
                                 matrix_from_json(data["occupation"]))),
        )


def coherent_lfunctional(lam: Sequence[complex], degree: int = 6,
                         hbar: float = 1.0) -> TaylorLFunctional:
    """L = exp(alpha* . lam - alpha . conj(lam)): the coherent closed form."""
    lam = tuple(complex(z) for z in lam)
    g = GaussianLFunctional(modes=len(lam), linear_star=lam,
                            linear=tuple(-np.conj(z) for z in lam))
    return g.to_taylor(degree, hbar)


def thermal_lfunctional(n_bar: Sequence[float], degree: int = 6,
                        hbar: float = 1.0) -> TaylorLFunctional:
    """L = exp(-sum_k alpha*_k n_k alpha_k) for mode occupations n_k."""
    n_bar = [float(x) for x in n_bar]
    if any(x < 0 for x in n_bar):
        raise ValidationError("occupations must be >= 0")
    g = GaussianLFunctional(modes=len(n_bar),
                            occupation=tuple(map(tuple, np.diag(n_bar))))
    return g.to_taylor(degree, hbar)


# ---------------------------------------------------------------------------
# doubled operators on coefficient dictionaries


def _shift(idx: tuple, k: int, by: int) -> tuple:
    return idx[:k] + (idx[k] + by,) + idx[k + 1:]


def _doubled(d: dict, k: int, hbar: float, plus: bool, tilde: bool) -> dict:
    """One doubled operator of mode k (0-based) on a coefficient dict.

    b reads V at beta+e_k; b+ reads V at gamma+e_k plus hbar beta_k V at
    beta-e_k.  On traces, b and b+ multiply K from the right by a+ and a.
    The tilde operators are the same maps with beta and gamma swapped on
    the way in and on the way out; they multiply K from the left by a and
    a+.
    """
    out = {}

    def put(x, y, v):
        key = (y, x) if tilde else (x, y)
        out[key] = out.get(key, 0.0) + v

    for key, v in d.items():
        x, y = key[::-1] if tilde else key
        if plus:
            if y[k] >= 1:
                put(x, _shift(y, k, -1), v)
            put(_shift(x, k, 1), y, hbar * (x[k] + 1) * v)
        elif x[k] >= 1:
            put(_shift(x, k, -1), y, v)
    return out


# (plus, tilde) of each public doubled-operator name
_B_OPS = {
    "b": (False, False),
    "b_plus": (True, False),
    "b_tilde": (False, True),
    "b_tilde_plus": (True, True),
}


def apply_doubled(l: TaylorLFunctional, name: str, k: int
                  ) -> TaylorLFunctional:
    """Apply b/b+/btilde/btilde+ for 1-based mode k.

    Raising a ladder index consumes one known degree, so the output is
    reliable only up to degree - 1 and is truncated there.
    """
    if name not in _B_OPS:
        raise ValidationError(f"unknown doubled operator {name!r}")
    km = _require_index(k, l.modes, "mode index")
    raw = _doubled(dict(l.correlations), km, l.hbar, *_B_OPS[name])
    deg = l.degree - 1
    if deg < 0:
        raise ValidationError("functional degree too small to apply operators")
    out = {key: v for key, v in raw.items()
           if sum(key[0]) + sum(key[1]) <= deg}
    for key in _all_keys(l.modes, deg):
        out.setdefault(key, 0.0 + 0.0j)
    return TaylorLFunctional(modes=l.modes, degree=deg, hbar=l.hbar,
                             correlations=out)


def _commute(f, g, d, k, j, hbar):
    """[f_k, g_j] on d for (plus, tilde) pairs f and g."""
    out = _doubled(_doubled(d, j, hbar, *g), k, hbar, *f)
    for key, v in _doubled(_doubled(d, k, hbar, *f), j, hbar, *g).items():
        out[key] = out.get(key, 0.0) - v
    return out


def _dict_max_abs(d: dict) -> float:
    return max((abs(v) for v in d.values()), default=0.0)


@dataclass(frozen=True)
class BOperatorReport:
    """Maximal defects of the doubled-operator identities.

    ccr_defect covers [b, b+] = hbar and [btilde, btilde+] = hbar on
    formal basis functionals; cross_defect covers every commutator that
    must vanish between the two copies; the trace defects compare each
    operator against one-sided ladder multiplication of a reference state.
    """

    modes: int
    degree: int
    hbar: float
    ccr_defect: float
    cross_defect: float
    trace_defect_b: float
    trace_defect_b_plus: float
    trace_defect_b_tilde: float
    trace_defect_b_tilde_plus: float

    def max_defect(self) -> float:
        return max(self.ccr_defect, self.cross_defect, self.trace_defect_b,
                   self.trace_defect_b_plus, self.trace_defect_b_tilde,
                   self.trace_defect_b_tilde_plus)


def _reference_state(spec: FockSpec, margin: int) -> np.ndarray:
    """Deterministic mixed test state supported below the cutoffs.

    Ladder strings of length <= margin then act on the support without
    touching the truncation edge, making one-sided multiplication
    identities exact matrix statements rather than approximations.
    """
    from .fock import poisson_vector

    lam = [0.4 + 0.25j * (k + 1) for k in range(spec.modes)]
    theta = poisson_vector(spec, lam).amplitudes.copy()
    keep = np.zeros(spec.dim, dtype=bool)
    keep[spec.safe_indices(margin)] = True
    theta[~keep] = 0.0
    pure = np.outer(theta, theta.conj())
    pure /= np.trace(pure).real
    weights = np.where(keep, 0.3 ** spec.occupations.sum(axis=1), 0.0)
    diag = np.diag(weights.astype(complex))
    diag /= np.trace(diag).real
    return 0.6 * pure + 0.4 * diag


def b_operators_check(spec: FockSpec, degree: int = 4) -> BOperatorReport:
    """Verify the doubled CCR and the one-sided trace identities.

    The commutator identities are checked exactly on every formal basis
    functional of total degree <= degree; the trace identities compare
    apply_doubled on L_K against functionals of K multiplied by ladder
    matrices, where K is a fixed mixed state.
    """
    if spec.statistics != "bose":
        raise ValidationError("doubled operators act on bosonic functionals")
    degree = _require_int(degree, "degree", 2)
    hbar = spec.hbar
    m = spec.modes

    ccr = 0.0
    cross = 0.0
    for key in _all_keys(m, degree):
        basis = {key: 1.0 + 0.0j}
        for k, j in itertools.product(range(m), repeat=2):
            want = hbar if k == j else 0.0
            for tilde in (False, True):
                d = _commute((False, tilde), (True, tilde), basis, k, j, hbar)
                d[key] = d.get(key, 0.0) - want
                ccr = max(ccr, _dict_max_abs(d))
            for f, g in itertools.product((False, True), repeat=2):
                d = _commute((f, False), (g, True), basis, k, j, hbar)
                cross = max(cross, _dict_max_abs(d))

    if min(spec.cutoffs) < degree + 2:
        raise ValidationError("cutoffs too small for the trace comparison")
    k_mat = _reference_state(spec, margin=degree + 1)
    full = _taylor_from_operator(k_mat, spec, degree)
    defects = {}
    for name, left, right in (
            ("b", None, "up"), ("b_plus", None, "dn"),
            ("b_tilde", "dn", None), ("b_tilde_plus", "up", None)):
        worst = 0.0
        for k in range(1, m + 1):
            ladder = (creation_matrix(spec, k) if "up" in (left, right)
                      else annihilation_matrix(spec, k))
            target = ladder @ k_mat if left else k_mat @ ladder
            oracle = _taylor_from_operator(target, spec, degree - 1)
            moved = apply_doubled(full, name, k)
            for key in oracle.correlations:
                worst = max(worst, abs(moved.value(*key)
                                       - oracle.value(*key)))
        defects[name] = worst

    return BOperatorReport(
        modes=m, degree=degree, hbar=hbar, ccr_defect=ccr,
        cross_defect=cross, trace_defect_b=defects["b"],
        trace_defect_b_plus=defects["b_plus"],
        trace_defect_b_tilde=defects["b_tilde"],
        trace_defect_b_tilde_plus=defects["b_tilde_plus"])


# ---------------------------------------------------------------------------
# evolution of functionals


def _evolution_generator(h: NormalOrderedPolynomial, keys: list,
                         hbar: float) -> np.ndarray:
    """Matrix of V -> -(i/hbar) V_[H, K] on the coefficients at `keys`.

    Each term coeff (a+)^c a^a acts on every basis functional {key: 1} from
    the left (tilde operators, rightmost letter first) and from the right
    (plain operators, leftmost letter first); column `key` is
    -(i/hbar) coeff (left - right).  At ladder degree <= 2 no row reads a
    coefficient of higher total degree, so the truncation is exact.
    """
    index = {key: i for i, key in enumerate(keys)}
    gen = np.zeros((len(keys), len(keys)), dtype=complex)
    for (ckey, akey), coeff in h.terms.items():
        if sum(ckey) + sum(akey) > 2:
            raise ValidationError(
                "degree overflow: the generator closes on a fixed degree "
                "only for Hamiltonians of ladder degree at most two")
        word = ([(k, True) for k, e in enumerate(ckey) for _ in range(e)]
                + [(k, False) for k, e in enumerate(akey) for _ in range(e)])
        scale = -1j / hbar * coeff
        for col, key in enumerate(keys):
            left = right = {key: 1.0}
            for k, creation in reversed(word):
                left = _doubled(left, k, hbar, creation, True)
            for k, creation in word:
                right = _doubled(right, k, hbar, not creation, False)
            for row_key in left.keys() | right.keys():
                row = index.get(row_key)
                if row is not None:
                    gen[row, col] += scale * (left.get(row_key, 0.0)
                                              - right.get(row_key, 0.0))
    return gen


def evolve_L(l0: TaylorLFunctional, h: NormalOrderedPolynomial, t: float,
             steps: int = 1) -> TaylorLFunctional:
    """Propagate correlation coefficients under a quadratic Hamiltonian.

    The generator is the commutator of each term's ladder word, built from
    the doubled operators: the word acts from the left through btilde and
    btilde+ and from the right through b and b+.  It closes on the
    coefficients of total degree <= l0.degree whenever every term of h has
    ladder degree at most two, linear (displacement) terms included; a
    term of higher degree raises ValidationError.  The linear system is
    integrated by exact exponentiation of the generator over `steps` equal
    time slices.
    """
    from .weyl_clifford import involution

    if h.statistics != "bose":
        raise ValidationError("evolution requires a bosonic Hamiltonian")
    if h.modes != l0.modes:
        raise ValidationError("Hamiltonian mode count does not match")
    steps = _require_int(steps, "steps")
    diff = h + involution(h) * (-1.0)
    scale = max((abs(c) for c in h.terms.values()), default=1.0)
    if max((abs(c) for c in diff.terms.values()), default=0.0) > 1e-12 * scale:
        raise ValidationError("Hamiltonian must be self-adjoint")

    keys = _all_keys(l0.modes, l0.degree)
    gen = _evolution_generator(h, keys, l0.hbar)
    vec = np.array([l0.value(*key) for key in keys], dtype=complex)
    from .evolution import _expm_pade

    slice_map = _expm_pade(gen * (t / steps))
    for _ in range(steps):
        vec = slice_map @ vec
    if not np.all(np.isfinite(vec)):
        raise NumericalError("functional evolution produced non-finite data")
    corr = {key: complex(v) for key, v in zip(keys, vec)}
    return TaylorLFunctional(modes=l0.modes, degree=l0.degree, hbar=l0.hbar,
                             correlations=corr)


# ---------------------------------------------------------------------------
# lattice comparison of the full evolution kernel against its classical limit


@dataclass(frozen=True)
class HbarSweepResult:
    hbars: tuple
    gaps: tuple
    slope: float
    spacing: float
    extent: float


def _lattice_rhs(l: np.ndarray, shifts: list, kernel_values: list
                 ) -> np.ndarray:
    out = np.zeros_like(l)
    for (dq, dp), kernel in zip(shifts, kernel_values):
        moved = np.zeros_like(l)
        src_q = slice(max(dq, 0), l.shape[-2] + min(dq, 0))
        dst_q = slice(max(-dq, 0), l.shape[-2] + min(-dq, 0))
        src_p = slice(max(dp, 0), l.shape[-1] + min(dp, 0))
        dst_p = slice(max(-dp, 0), l.shape[-1] + min(-dp, 0))
        moved[..., dst_q, dst_p] = l[..., src_q, src_p]
        out -= kernel * moved
    return out


def hbar_sweep(hbars: Sequence[float] = (1e-1, 1e-2, 1e-3), t: float = 1.0,
               steps: int = 64, spacing: float = 0.5, extent: float = 6.0
               ) -> HbarSweepResult:
    """Gap between the sine-kernel evolution and its small-hbar limit.

    Functionals live on a square lattice of phase-space displacements; the
    generator couples L(alpha) to L(alpha + beta) for four elementary
    shifts beta with real coefficients, through the kernel
    (2/hbar) sin(hbar/2 sigma(alpha, beta)).  Replacing the kernel by its
    limit sigma(alpha, beta) defines the classical flow; the maximal
    difference at time t scales as hbar^2, and the measured log-log slope
    is returned; a zero gap (t = 0) or an overflowing flow raises
    NumericalError.  The classical flow and the hbar flows, stacked on a
    leading axis, take one RK4 run with the arithmetic of separate runs.
    """
    from .evolution import rk4_fixed

    hbars = tuple(float(h) for h in hbars)
    if not (all(0 < x < math.inf for x in hbars + (spacing, extent))
            and len(set(hbars)) >= 2 and math.isfinite(t)):
        raise ValidationError("need two distinct finite hbars > 0, a finite "
                              "t, and finite spacing and extent > 0")
    coords = np.arange(-extent, extent + spacing / 2, spacing)
    aq = coords[:, None]
    ap = coords[None, :]
    l0 = np.exp(-0.35 * (aq ** 2 + ap ** 2)).astype(complex)

    shifts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    weights = [0.3, 0.3, 0.2, 0.2]
    # symplectic products sigma(alpha, beta) for beta = shift * spacing
    sigmas = [aq * (dp * spacing) - ap * (dq * spacing)
              for (dq, dp) in shifts]
    kernels = [np.stack([w * s] + [w * (2.0 / hb) * np.sin(0.5 * hb * s)
                                   for hb in hbars])
               for w, s in zip(weights, sigmas)]
    with np.errstate(over="ignore", invalid="ignore"):
        flows = rk4_fixed(lambda s, l: _lattice_rhs(l, shifts, kernels),
                          np.broadcast_to(l0, kernels[0].shape), 0.0, t, steps)
        gaps = np.abs(flows[1:] - flows[0]).max(axis=(-2, -1)).tolist()
    if not all(0 < g < math.inf for g in gaps):
        raise NumericalError(f"no slope to fit: the gaps {gaps} must be "
                             "positive and finite")
    slope = float(np.polyfit(np.log(hbars), np.log(gaps), 1)[0])
    return HbarSweepResult(hbars=hbars, gaps=tuple(gaps), slope=slope,
                           spacing=spacing, extent=extent)


# ---------------------------------------------------------------------------
# two-point functions and pole extraction


@dataclass(frozen=True)
class GreenResult:
    """Sampled two-point functions of one stationary mode.

    g_less(tau) = <adag(tau) a(0)> / hbar and
    g_greater(tau) = <a(tau) adag(0)> carry the asymmetric normalization
    in which g_less(0) = n and g_greater(0) = hbar (n + 1); their ratio at
    tau = 0 is the detailed-balance factor hbar exp(beta eps).
    """

    taus: np.ndarray
    g_less: np.ndarray
    g_greater: np.ndarray
    g_less_zero: complex
    g_greater_zero: complex
    pole: float
    resolution: float
    mode: int
    n_bar: float
    eps: float
    hbar: float

    def kms_ratio(self) -> complex:
        if abs(self.g_less_zero) == 0:
            raise NumericalError("empty mode has no detailed-balance ratio")
        return self.g_greater_zero / self.g_less_zero


_GREEN_ROWS = 4096  # time samples per block of the phase matrix


def _phase_trace(weights: np.ndarray, freqs: np.ndarray, taus: np.ndarray
                 ) -> np.ndarray:
    # np.take copies the columns back C-ordered, so numpy calls the zgemv
    # of the full exponential; a fancy index is F-ordered and moves bits.
    # Blocks of _GREEN_ROWS rows bound the memory and give the bits of one
    # product, except a 1-row block (numpy's dot route), so a final single
    # row joins the block before it.
    distinct, where = np.unique(freqs, return_inverse=True)
    starts = list(range(0, len(taus) - 1, _GREEN_ROWS)) or [0]
    out = np.empty(len(taus), dtype=complex)
    for lo, hi in zip(starts, starts[1:] + [len(taus)]):
        table = np.exp(1j * np.outer(taus[lo:hi], distinct))
        out[lo:hi] = np.take(table, where, axis=1) @ weights
    return out


def _fit_pole(taus: np.ndarray, samples: np.ndarray) -> tuple:
    n = len(taus)
    dtau = taus[1] - taus[0]
    spectrum = np.fft.fftshift(np.fft.fft(samples))
    omegas = np.fft.fftshift(np.fft.fftfreq(n, d=dtau)) * 2.0 * np.pi
    mags = np.abs(spectrum)
    j = int(np.argmax(mags))
    if j == 0 or j == n - 1:
        estimate = float(omegas[j])
    else:
        window = mags[j - 1: j + 2]
        if np.any(window <= 0):
            estimate = float(omegas[j])
        else:
            ym, y0, yp = np.log(window)
            denom = ym - 2.0 * y0 + yp
            delta = 0.0 if denom == 0 else 0.5 * (ym - yp) / denom
            delta = float(np.clip(delta, -0.5, 0.5))
            estimate = float(omegas[j] + delta * (omegas[1] - omegas[0]))
    resolution = 2.0 * np.pi / (n * dtau)
    return estimate, resolution


GREEN_CUTOFF_MAX = 1000  # bounds time and the phase-table block; n to ~28


def two_point_green(n_profile: Sequence[float], eps_profile: Sequence[float],
                    taus: np.ndarray, mode: int = 1, hbar: float = 1.0,
                    resolution: float | None = None) -> GreenResult:
    """Two-point functions of a stationary thermal mode via the ladder oracle.

    The state is the geometric (thermal) density with occupation n on a
    cutoff chosen so the neglected tail is below 1e-15 (an occupation that
    needs a cutoff above GREEN_CUTOFF_MAX is rejected); the time
    dependence comes from eigenphase sums over the band of ladder factors
    in the letter tables, <i| a+ |i-1> <i-1| a |i> p_i and its mirror, not
    from a closed form, exponentiating each distinct eigenfrequency once
    (708 weights share 10 at n = 20).  The pole of g_less is located from the
    discrete Fourier transform of the samples with parabolic refinement
    and must land within one frequency bin of the true eps.  Energies or
    phases past double range raise NumericalError.
    """
    n_profile = [float(x) for x in n_profile]
    eps_profile = [float(x) for x in eps_profile]
    if len(n_profile) != len(eps_profile) or not n_profile:
        raise ValidationError("profiles must be equal-length and non-empty")
    if any(x < 0 for x in n_profile):
        raise ValidationError("occupations must be >= 0")
    km = _require_index(mode, len(n_profile), "mode index")
    _require_positive(hbar, "hbar")
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or len(taus) < 8:
        raise ValidationError("need at least eight time samples")
    dtaus = np.diff(taus)
    if dtaus.min() <= 0 or (dtaus.max() - dtaus.min()) > 1e-9 * dtaus.max():
        raise ValidationError("time samples must be uniform and increasing")
    span = taus[-1] - taus[0]
    if resolution is not None and 2.0 * np.pi / span > resolution:
        raise ValidationError("window too short for requested resolution")

    n = n_profile[km]
    eps = eps_profile[km]
    w = n / (1.0 + n)
    if w == 0:
        cutoff = 24
    elif w < 1 and np.log(1e-15) / np.log(w) <= GREEN_CUTOFF_MAX:
        cutoff = max(24, int(np.ceil(np.log(1e-15) / np.log(w))))
    else:
        raise ValidationError(
            f"occupation {n!r} needs a cutoff above {GREEN_CUTOFF_MAX}")
    spec = FockSpec(statistics="bose", cutoffs=(cutoff,), hbar=hbar)
    probs = (1.0 - w) * w ** np.arange(cutoff + 1)  # [1, 0, ...] at w = 0
    probs = probs / probs.sum()
    factor = _letter_tables(spec)[1].astype(complex)  # complex, for the zgemv
    up, down = factor[0, :-1], factor[1, 1:]  # a+: i-1 -> i, a: i -> i-1
    with np.errstate(over="ignore", invalid="ignore"):
        energies = eps * hbar * np.arange(cutoff + 1)
        freqs = (energies[1:] - energies[:-1]) / hbar
        phase = np.abs(freqs).max() * np.abs(taus).max()
    if not np.isfinite(phase):
        raise NumericalError("the energies eps * hbar * n or the phases "
                             "tau * eps exceed double range")

    def sampled(weight, freq, sign_scale):
        idx = np.nonzero(np.abs(weight) > 0)
        trace = [sign_scale * _phase_trace(weight[idx], freq[idx], at)
                 for at in (taus, np.zeros(1))]
        return trace[0], complex(trace[1][0])

    g_less, g_less_zero = sampled(up * (down * probs[1:]), freqs, 1.0 / hbar)
    g_greater, g_greater_zero = sampled(down * (up * probs[:-1]), -freqs, 1.0)

    if np.abs(g_less).max() == 0:
        pole, res = float("nan"), 2.0 * np.pi / (len(taus) * float(dtaus[0]))
    else:
        pole, res = _fit_pole(taus, g_less)
    return GreenResult(taus=taus, g_less=g_less, g_greater=g_greater,
                       g_less_zero=g_less_zero, g_greater_zero=g_greater_zero,
                       pole=pole, resolution=res, mode=km + 1, n_bar=n,
                       eps=eps, hbar=hbar)


def fourier_asymptotics_demo(t_values: Sequence[float], eta: float = 1e-5
                             ) -> dict:
    """Large-time transform of a pole-plus-background spectral profile.

    rho(eps) = 1/(eps - 0.5 + i eta) + exp(-(eps - 2)^2) is transformed
    with kernel exp(-i eps t) on a trapezoid grid graded around the pole;
    for large positive t the result approaches the residue contribution
    -2 pi i exp(-i t/2) exp(-eta t) while the smooth background dies off
    as a Gaussian in t.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or len(t_values) == 0:
        raise ValidationError("need at least one time value")
    _require_finite(t_values, "t_values")
    _require_positive(eta, "eta")
    grid = np.concatenate([
        np.arange(-40.0, 0.49, 1e-3),
        np.arange(0.49, 0.51, 1e-6),
        np.arange(0.51, 40.0 + 1e-3, 1e-3),
    ])
    rho = 1.0 / (grid - 0.5 + 1j * eta) + np.exp(-(grid - 2.0) ** 2)
    values = np.empty(len(t_values), dtype=complex)
    for i, t in enumerate(t_values):
        values[i] = np.trapezoid(rho * np.exp(-1j * grid * t), grid)
    reference = -2j * np.pi * np.exp(-1j * 0.5 * t_values - eta * t_values)
    rel = np.abs(values - reference) / np.abs(reference)
    return {"t": t_values, "transform": values, "reference": reference,
            "relative_error": rel}
