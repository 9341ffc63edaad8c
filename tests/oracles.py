"""Brute-force routes kept as test oracles for the closed forms in src.

`word_reduction` normal-orders a product by rewriting words one adjacent
swap at a time (each swap of an annihilator past a creator of the same mode
also emits the contraction); `pfaffian_expansion` is the recursive
first-row expansion memoised over index subsets.  Both cost exponential
time and are meant for small sizes only.

The dense routes below build every Fock-space operator as a chain of
dim x dim ladder-matrix products, and every GNS representative as
basis^H kron(a, 1) basis from the d^2 x d^2 Gram eigenbasis; src replaces
both by the ladder-word kernel and the factored carrier
C^d (x) range(rho^T).  `ladder_word_loop` evaluates a stack of ladder
words one word at a time; src gathers every word of the stack from
per-letter tables in one pass a letter.

`propagate_linear_ode_dense` solves U' = A(s) U by classical RK4 slices
with step doubling; it is the independent route for the 4th-order Magnus
propagator of `adiabatic_evolve`.  `magnus_dense` forms every Magnus step
unitary of a resolution at once and reduces them with one product tree;
src builds them in aligned blocks.  `fermi_trace_fraction` sums the 2^m
occupation masks in `Fraction` arithmetic; src sums integer numerators
over one power-of-two denominator.

`phase_sums_full` exponentiates all d x d level pairs of every trial; src
exponentiates the strict upper triangle and fills the rest by conjugation.
`trotter_errors_alternating` forms each slice count's exponentials and
products in turn; src forms every exponential before any product.
`continued_end_frame` phase-aligns the eigenframes one step at a time;
src multiplies the last frame by the product of the overlap phases.

`phase_trace_dense` exponentiates every (tau, frequency) entry of a Green
function; src exponentiates each distinct frequency once and gathers the
columns.  `two_point_green_dense` reads the Green weights off dense
(c+1) x (c+1) ladder matrices and `poisson_eigen_defect_dense` applies
the dense a_k to the Poisson vector; src takes both from the letter
tables of the ladder-word kernel.  `exp_i_hermitian` is the eigenbasis
exponential that `weyl_exponential_check` once kept for itself; src
calls `evolution.expm(h, -1.0)`.  `hbar_sweep_loop` integrates the
classical lattice flow and each hbar flow by an RK4 run of its own; src
stacks them in one run.
`phase_table_eval` is the barycentric formula of the decoherence phase
table with a fresh temporary per step, testing every node for a hit; src
reuses one buffer and tests only each lambda's two neighbouring nodes.
`simpson_eigen_traces_fresh` samples and diagonalises every point of
each Simpson level afresh; src samples only the odd points of each finer
level.

`multiply_crossing` takes each Grassmann merge sign from the crossing
count `_merge_sign` of its term pair and builds the product through the
validating constructor; src forms one parity mask per left monomial and
skips the checks for results built from valid operands.
`product_pairwise` normal-orders a Weyl or Clifford product through one
generator per term pair: bosons by `itertools.product` over every mode's
contraction counts, each weight from factorials and binomials, fermions
by four `_merge_sign` crossing counts per contracted subset; src walks
the term pairs in one loop, with a per-call weight table and one parity
formula a subset.
`validating_element` and `validating_like` send every kernel result back
through the checks of `GrassmannElement` and `NormalOrderedPolynomial`.
`elementary_numpy` takes exp, cos and sin at the Grassmann body from
numpy's scalar functions and divides by l! through `compose_even`, as a
numpy complex / int; src takes the values from cmath and multiplies by the
reciprocal of l!, so that `import qtoolkit.grassmann` needs no numpy.

`evolution_generator_branches` is the von Neumann generator on
correlation coefficients derived by hand, one branch per term shape
(1, 1), (2, 0) and (0, 2); src composes it from the doubled operators.
`DOUBLED_MIRRORS` writes out each of the four doubled operators as a map
of its own; src has one map and swaps beta and gamma for the tilde pair.
"""

import functools
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from qtoolkit.errors import NumericalError, ValidationError
from qtoolkit.evolution import (_GAUSS_NODES, _MAGNUS_START_STEPS,
                                _expm_pade, _sample_matrices, _tree_product)
from qtoolkit.fock import (CommutationDefect, FockSpec, PoissonDefect,
                           _poisson_coefficients, _scaled_norm,
                           annihilation_matrix, creation_matrix,
                           poisson_vector)
from qtoolkit.grassmann import GrassmannElement, compose_even
from qtoolkit.lfunctional import GreenResult, _fit_pole, _phase_trace
from qtoolkit.weyl_clifford import DEGREE_CAP, NormalOrderedPolynomial


def _key_to_word(statistics: str, modes: int, key) -> tuple:
    """The word of a normal-ordered key: (is_creation, mode) letters, the
    creators by ascending mode, then the annihilators by ascending mode."""
    alpha, beta = key
    word = []
    if statistics == "bose":
        for k in range(modes):
            word.extend([(True, k)] * alpha[k])
        for k in range(modes):
            word.extend([(False, k)] * beta[k])
    else:
        for k in range(modes):
            if alpha >> k & 1:
                word.append((True, k))
        for k in range(modes):
            if beta >> k & 1:
                word.append((False, k))
    return tuple(word)


def ladder_word_loop(spec: FockSpec, creation, modes
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(rows, weights) of a (words x letters) stack, one word at a time.

    Each word applies its letters right to left with a few numpy calls per
    letter, reading the occupation and the Jordan-Wigner parity of the
    current rows, and multiplies the factors left to right.
    """
    occ = spec.occupations
    out_rows, out_weights = [], []
    for word in zip(np.asarray(creation).tolist(), np.asarray(modes).tolist()):
        rows = np.arange(spec.dim)
        factors = []
        for up, k in reversed(list(zip(*word))):
            n = occ[rows, k]
            ok = n < spec.cutoffs[k] if up else n > 0
            if spec.statistics == "bose":
                factor = np.sqrt(spec.hbar * ((n + 1.0) if up else n))
            else:
                factor = 1.0 - 2.0 * (occ[rows, :k].sum(axis=1) % 2)
            factors.append(np.where(ok, factor, 0.0))
            rows = np.where(ok, rows + (1 if up else -1)
                            * spec.strides[k], rows)
        out_rows.append(rows)
        out_weights.append(functools.reduce(np.multiply, factors[::-1],
                                            np.ones(spec.dim)))
    shape = (len(out_rows), spec.dim)
    return (np.array(out_rows, dtype=np.intp).reshape(shape),
            np.array(out_weights).reshape(shape))


def _sort_parity(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort generator indices, returning the permutation parity sign."""
    items = list(indices)
    sign = 1
    # insertion sort; each adjacent swap is one transposition
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


def _accumulate_bose(result: dict, modes: int, creations: list, annihilations: list,
                     coeff: complex) -> None:
    alpha = [0] * modes
    beta = [0] * modes
    for k in creations:
        alpha[k] += 1
    for k in annihilations:
        beta[k] += 1
    key = (tuple(alpha), tuple(beta))
    result[key] = result.get(key, 0j) + coeff


def _accumulate_fermi(result: dict, creations: list, annihilations: list,
                      coeff: complex) -> None:
    c_sorted, sc = _sort_parity(creations)
    a_sorted, sa = _sort_parity(annihilations)
    if len(set(c_sorted)) != len(c_sorted) or len(set(a_sorted)) != len(a_sorted):
        return  # repeated fermionic generator: term vanishes
    cmask = 0
    for k in c_sorted:
        cmask |= 1 << k
    amask = 0
    for k in a_sorted:
        amask |= 1 << k
    key = (cmask, amask)
    result[key] = result.get(key, 0j) + coeff * sc * sa


def _normal_order_word(word: tuple, statistics: str, modes: int, hbar: float) -> dict:
    """Reduce a word of (is_creation, mode) factors to normal form.

    Returns a term map.  Bosonic swaps commute with contraction hbar;
    fermionic swaps anticommute with unit contraction.
    """
    result: dict = {}
    fermi = statistics == "fermi"
    stack = [(word, 1.0 + 0j)]
    while stack:
        w, coeff = stack.pop()
        swap_at = -1
        for t in range(len(w) - 1):
            if (not w[t][0]) and w[t + 1][0]:
                swap_at = t
                break
        if swap_at < 0:
            creations = [m for is_c, m in w if is_c]
            annihilations = [m for is_c, m in w if not is_c]
            if fermi:
                _accumulate_fermi(result, creations, annihilations, coeff)
            else:
                _accumulate_bose(result, modes, creations, annihilations, coeff)
            continue
        t = swap_at
        swapped = w[:t] + (w[t + 1], w[t]) + w[t + 2:]
        stack.append((swapped, -coeff if fermi else coeff))
        if w[t][1] == w[t + 1][1]:
            contracted = w[:t] + w[t + 2:]
            stack.append((contracted, coeff * (1.0 if fermi else hbar)))
    return result


def word_reduction(a: NormalOrderedPolynomial, b: NormalOrderedPolynomial
                   ) -> dict:
    """Term map of the product a*b, each term pair reduced as a word."""
    out: dict = {}
    for key_a, ca in a.terms.items():
        word_a = _key_to_word(a.statistics, a.modes, key_a)
        for key_b, cb in b.terms.items():
            word = word_a + _key_to_word(b.statistics, b.modes, key_b)
            reduced = _normal_order_word(word, a.statistics, a.modes, a.hbar)
            c = ca * cb
            for key, r in reduced.items():
                out[key] = out.get(key, 0j) + c * r
    return {key: c for key, c in out.items() if c != 0}


def _merge_sign(mask_a: int, mask_b: int) -> int:
    """Parity sign for concatenating canonical monomials a then b.

    Counts crossings: each generator of b must pass the generators of a that
    have larger index.
    """
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        # generators of a strictly above this one
        above = mask_a & ~(low | (low - 1))
        if above.bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


def _bose_pair(key_a, key_b, hbar_powers: Sequence[float]):
    """Normal form of a*^al a^be . a*^ga a^de as (key, coefficient) pairs.

    Per mode a^k a*^l = sum_j j! C(k,j) C(l,j) hbar^j a*^(l-j) a^(k-j);
    the integer weights multiply across modes and hbar enters once as
    hbar_powers[sum j].  Every contraction choice gives a distinct key.
    """
    (al, be), (ga, de) = key_a, key_b
    choices = [range(min(k, l) + 1) for k, l in zip(be, ga)]
    for js in itertools.product(*choices):
        weight = 1
        for j, k, l in zip(js, be, ga):
            weight *= math.factorial(j) * math.comb(k, j) * math.comb(l, j)
        key = (tuple(x + l - j for x, l, j in zip(al, ga, js)),
               tuple(k - j + y for k, j, y in zip(be, js, de)))
        yield key, weight * hbar_powers[sum(js)]


def _fermi_pair(key_a, key_b):
    """Normal form of a*^c1 a^a1 . a*^c2 a^a2 as (key, sign) pairs.

    Each subset S of a1 & c2 is contracted once: a^a1 = +/- a^ar a^S and
    a*^c2 = +/- a*^S a*^cr split off S, a^S a*^S contracts to
    (-1)^(k(k-1)/2), a^ar passes a*^cr, and the outer blocks merge.
    """
    (c1, a1), (c2, a2) = key_a, key_b
    common = a1 & c2
    s = common
    while True:
        ar, cr = a1 & ~s, c2 & ~s
        if not (c1 & cr or ar & a2):
            k = s.bit_count()
            sign = (_merge_sign(ar, s) * _merge_sign(s, cr)
                    * _merge_sign(c1, cr) * _merge_sign(ar, a2))
            if (k * (k - 1) // 2 + ar.bit_count() * cr.bit_count()) & 1:
                sign = -sign
            yield (c1 | cr, ar | a2), sign
        if s == 0:
            return
        s = (s - 1) & common


def product_pairwise(a: NormalOrderedPolynomial, b: NormalOrderedPolynomial,
                     degree_cap: int = DEGREE_CAP
                     ) -> NormalOrderedPolynomial:
    """a*b with each term pair normal-ordered by its own generator."""
    a._compatible(b)
    dc = a.degree()
    db = b.degree()
    if max(dc[0] + db[0], dc[1] + db[1]) > degree_cap:
        raise ValidationError(
            f"product degree would exceed the cap {degree_cap}; "
            "raise degree_cap explicitly if this is intended")
    if a.statistics == "bose":
        powers = [1.0]
        for _ in range(min(dc[1], db[0])):
            powers.append(powers[-1] * a.hbar)

        def pair(key_a, key_b):
            return _bose_pair(key_a, key_b, powers)
    else:
        pair = _fermi_pair
    out: dict = {}
    for key_a, ca in a.terms.items():
        for key_b, cb in b.terms.items():
            c = ca * cb
            for key, r in pair(key_a, key_b):
                out[key] = out.get(key, 0j) + c * r
    if isinstance(a.hbar, (int, float)):
        return a._like(out)
    return NormalOrderedPolynomial(a.statistics, a.modes, a.hbar, out)


def multiply_crossing(x: GrassmannElement, y: GrassmannElement
                      ) -> GrassmannElement:
    """x y with the sign of every term pair counted crossing by crossing."""
    x._compatible(y)
    out: dict = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            if ma & mb:
                continue
            key = ma | mb
            out[key] = out.get(key, 0j) + _merge_sign(ma, mb) * ca * cb
    return GrassmannElement(x.n, out)


def elementary_numpy(name: str, omega: GrassmannElement) -> GrassmannElement:
    """exp, cos or sin of an even element from numpy scalars: the values at
    the body by np.exp, np.cos and np.sin, each Taylor coefficient a numpy
    complex / int division in `compose_even`."""
    a = complex(omega.body())
    if name == "exp":
        cycle = [np.exp(a)]
    elif name == "cos":
        cycle = [np.cos(a), -np.sin(a), -np.cos(a), np.sin(a)]
    else:
        cycle = [np.sin(a), np.cos(a), -np.sin(a), -np.cos(a)]
    need = omega.n // 2 + 1
    return compose_even([cycle[l % len(cycle)] for l in range(need)], omega)


def validating_element(cls, n: int, terms: dict) -> GrassmannElement:
    """The element over terms, through every check of the constructor."""
    return GrassmannElement(n, terms)


def validating_like(self: NormalOrderedPolynomial, terms: dict
                    ) -> NormalOrderedPolynomial:
    """A polynomial of self's algebra over terms, through every check."""
    return NormalOrderedPolynomial(self.statistics, self.modes, self.hbar,
                                   terms)


def pfaffian_expansion(a) -> complex:
    """Pfaffian of an even antisymmetric matrix by first-row expansion."""
    n = a.shape[0]

    @lru_cache(maxsize=None)
    def pf(indices: tuple) -> complex:
        if not indices:
            return 1.0 + 0j
        i0 = indices[0]
        rest = indices[1:]
        total = 0j
        for pos, j in enumerate(rest):
            sub = rest[:pos] + rest[pos + 1:]
            sign = -1 if pos % 2 else 1
            total += sign * a[i0, j] * pf(sub)
        return total

    return complex(pf(tuple(range(n))))


def represent_chain(a: NormalOrderedPolynomial, spec: FockSpec) -> np.ndarray:
    """Matrix of a polynomial as a sum of ladder-matrix chains."""
    a_dag = [creation_matrix(spec, k + 1) for k in range(a.modes)]
    a_ann = [m.conj().T for m in a_dag]
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for key, coeff in a.terms.items():
        m = np.eye(spec.dim, dtype=complex)
        for is_c, k in _key_to_word(a.statistics, a.modes, key):
            m = m @ (a_dag[k] if is_c else a_ann[k])
        out += coeff * m
    return out


def quadratic_hamiltonian_chain(spec: FockSpec, eps) -> np.ndarray:
    """sum_k eps_k a^+_k a_k / hbar by dense matrix multiplication."""
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for k in range(spec.modes):
        a_dag = creation_matrix(spec, k + 1)
        h += (eps[k] / spec.hbar) * (a_dag @ a_dag.conj().T)
    return h


def ccr_defect_dense(spec: FockSpec) -> CommutationDefect:
    """CCR defects from dense commutator matrices."""
    safe_idx = spec.safe_indices(margin=1)
    eye = np.eye(spec.dim)
    a = [annihilation_matrix(spec, k + 1) for k in range(spec.modes)]
    safe = 0.0
    unrestricted = 0.0
    for k in range(spec.modes):
        for l in range(spec.modes):
            comm = a[k] @ a[l].conj().T - a[l].conj().T @ a[k]
            if k == l:
                comm = comm - spec.hbar * eye
            unrestricted = max(unrestricted, float(np.abs(comm).max()))
            block = comm[np.ix_(safe_idx, safe_idx)]
            if block.size:
                safe = max(safe, float(np.abs(block).max()))
    return CommutationDefect(safe=safe, unrestricted=unrestricted)


def poisson_eigen_defect_dense(spec: FockSpec, f, k: int) -> PoissonDefect:
    """poisson_eigen_defect, the residual from the dense matrix product
    annihilation_matrix(spec, k) @ Theta_f."""
    km = k - 1
    f = np.asarray(f, dtype=complex)
    theta = poisson_vector(spec, f).amplitudes
    resid = annihilation_matrix(spec, k) @ theta - f[km] * theta
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


def exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) of a hermitian h by its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def car_defect_dense(spec: FockSpec) -> CommutationDefect:
    """CAR defects from dense anticommutator matrices."""
    eye = np.eye(spec.dim)
    a = [annihilation_matrix(spec, k + 1) for k in range(spec.modes)]
    worst = 0.0
    for k in range(spec.modes):
        for l in range(spec.modes):
            anti = a[k] @ a[l].conj().T + a[l].conj().T @ a[k]
            if k == l:
                anti = anti - eye
            worst = max(worst, float(np.abs(anti).max()))
            anti2 = a[k] @ a[l] + a[l] @ a[k]
            worst = max(worst, float(np.abs(anti2).max()))
    return CommutationDefect(safe=worst, unrestricted=worst)


def correlations_chain(op: np.ndarray, spec: FockSpec, keys) -> dict:
    """Tr[(a^+)^beta a^gamma op] for each (beta, gamma) in keys, from
    dense ladder-matrix strings."""
    ups = [creation_matrix(spec, k + 1) for k in range(spec.modes)]
    downs = [annihilation_matrix(spec, k + 1) for k in range(spec.modes)]

    def string(mats, exps):
        out = np.eye(spec.dim, dtype=complex)
        for m, e in zip(mats, exps):
            for _ in range(e):
                out = out @ m
        return out

    return {(beta, gamma): complex(np.trace(string(ups, beta)
                                            @ string(downs, gamma) @ op))
            for beta, gamma in keys}


def gns_kron(state, rank_tol: float = 1e-10):
    """Carrier data and defects of the cyclic representation from the
    eigenbasis of the d^2 x d^2 Gram matrix kron(1, rho^T), every
    representative formed as basis^H kron(a, 1) basis and every pair of
    matrix units multiplied.

    Returns (basis, weights, theta, represent, homomorphism, involution,
    expectation).  The basis is fixed only up to a unitary inside each
    d-fold degenerate eigenspace, so compare it with gns_construct through
    basis^H factored_basis(gns).
    """
    d = state.dimension
    vals, vecs = np.linalg.eigh(np.kron(np.eye(d), state.rho.T))
    kept = vals > rank_tol * float(vals.max())
    weights = vals[kept]
    basis = vecs[:, kept]
    scale = np.sqrt(weights)

    def represent(a):
        core = basis.conj().T @ np.kron(a, np.eye(d)) @ basis
        return (scale[:, None] * core) / scale[None, :]

    theta = scale * (basis.conj().T @ np.eye(d, dtype=complex).reshape(-1))
    units = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    reps = [represent(e) for e in units]
    hom = inv = expect = 0.0
    for a, ra in zip(units, reps):
        expect = max(expect, abs(np.vdot(theta, ra @ theta)
                                 - state.expectation(a)))
        inv = max(inv, float(np.abs(represent(a.conj().T)
                                    - ra.conj().T).max()))
        for b, rb in zip(units, reps):
            hom = max(hom, float(np.abs(represent(a @ b) - ra @ rb).max()))
    return basis, weights, theta, represent, hom, inv, expect


def factored_basis(gns) -> np.ndarray:
    """The d^2 x (d r) carrier basis of gns_construct: column (k, i),
    k-major, is vec(e_i v_k^T) for v_k = gns.vectors[:, k]."""
    d = gns.dimension
    return np.einsum("ai,jk->ajki", np.eye(d), gns.vectors).reshape(
        d * d, -1)


def induced_matrix_kron(gns, h: np.ndarray) -> np.ndarray:
    """[B] -> [hB - Bh] on the GNS carrier, from kron(h, 1) - kron(1, h^T)
    compressed to factored_basis(gns)."""
    d = gns.dimension
    basis = factored_basis(gns)
    doubled = np.kron(h, np.eye(d)) - np.kron(np.eye(d), h.T)
    core = basis.conj().T @ doubled @ basis
    scale = np.sqrt(gns.weights)
    return (scale[:, None] * core) / scale[None, :]


def _doubling(run, steps: int, tol: float, max_steps: int):
    """Double the step count until run(steps) agrees with the previous
    resolution to tol in max norm; NumericalError past max_steps."""
    prev = run(steps)
    while True:
        steps *= 2
        if steps > max_steps:
            raise NumericalError(
                f"step-size underflow: no convergence to {tol:.1e} "
                f"within {max_steps} steps")
        cur = run(steps)
        if float(np.abs(cur - prev).max()) <= tol:
            return cur, steps
        prev = cur


def propagate_linear_ode_dense(a_of_s, dim: int, s0: float, s1: float,
                               tol: float = 1e-8, start_steps: int = 1024,
                               max_steps: int = 1 << 20):
    """U(s1) for U' = A(s) U, U(s0) = 1, by fixed-step classical RK4 slices
    (each step written as a matrix acting on U) with all 2 steps + 1
    samples of a resolution held at once and one product tree over all its
    slices."""
    eye = np.eye(dim, dtype=complex)

    def run(steps: int) -> np.ndarray:
        h = (s1 - s0) / steps
        nodes = s0 + h * np.arange(2 * steps + 1) / 2.0
        a = _sample_matrices(a_of_s, nodes, dim)
        a0, am, a1 = a[0:-1:2], a[1::2], a[2::2]
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = a0
            k2 = np.matmul(am, eye + 0.5 * h * k1)
            k3 = np.matmul(am, eye + 0.5 * h * k2)
            k4 = np.matmul(a1, eye + h * k3)
            slices = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return _tree_product(slices)

    return _doubling(run, start_steps, tol, max_steps)


def magnus_dense(h_of_s, scale: float, tol: float, max_steps: int,
                 start_steps: int = _MAGNUS_START_STEPS):
    """evolution._magnus_propagator with every step unitary of a resolution
    formed at once and one product tree over all of them."""

    def run(steps: int) -> np.ndarray:
        h = 1.0 / steps
        ratio = h / scale
        mean_coef = 0.5 * ratio
        comm_coef = math.sqrt(3.0) / 12.0 * ratio * ratio
        nodes = h * (np.arange(steps)[:, None] + _GAUSS_NODES)
        hs = h_of_s(nodes.reshape(-1))
        h1, h2 = hs[0::2], hs[1::2]
        with np.errstate(over="ignore", invalid="ignore"):
            k = (mean_coef * (h1 + h2)
                 - (1j * comm_coef) * (h2 @ h1 - h1 @ h2))
            w, v = np.linalg.eigh(k)
            unitaries = (v * np.exp(-1j * w)[:, None, :]) @ np.swapaxes(
                v, -1, -2).conj()
            return _tree_product(unitaries)

    return _doubling(run, start_steps, tol, max_steps)


def fermi_trace_fraction(eps, beta: float):
    """(Z, E, occupations) of the fermionic trace route as doubles, each
    mask weight, energy and occupation sum a Fraction."""
    eps = [float(e) for e in eps]
    m = len(eps)
    f = [Fraction(math.exp(-beta * e)) for e in eps]
    eps_frac = [Fraction(e) for e in eps]
    z_trace = Fraction(0)
    e_weighted = Fraction(0)
    occ_weighted = [Fraction(0)] * m
    for mask in range(1 << m):
        w = Fraction(1)
        e_mask = Fraction(0)
        for k in range(m):
            if mask >> k & 1:
                w *= f[k]
                e_mask += eps_frac[k]
        z_trace += w
        e_weighted += e_mask * w
        for k in range(m):
            if mask >> k & 1:
                occ_weighted[k] += w
    return (float(z_trace), float(e_weighted / z_trace),
            tuple(float(x / z_trace) for x in occ_weighted))


def phase_sums_full(phases: np.ndarray, weights=None) -> np.ndarray:
    """Sums over trials of exp(-i (phases[m] - phases[n])), every (m, n)
    pair exponentiated, each trial's terms times its weight if given."""
    factors = np.exp(-1j * (phases[:, None, :] - phases[None, :, :]))
    if weights is not None:
        factors = factors * weights
    return factors.sum(axis=2)


def trotter_errors_alternating(factors, t: float, n_values) -> dict:
    """trotter_order's errors, each slice count's exponentials and
    products formed in turn, by the package's exponential."""
    mats = [np.asarray(f, dtype=complex) for f in factors]
    exact = _expm_pade(t * sum(mats))
    errors = {}
    for n in n_values:
        step = np.eye(exact.shape[0], dtype=complex)
        for m in mats:
            step = step @ _expm_pade((t / n) * m)
        approx = np.linalg.matrix_power(step, n)
        errors[int(n)] = float(np.linalg.norm(approx - exact))
    return errors


def continued_end_frame(vecs: np.ndarray) -> np.ndarray:
    """The last of a path of eigenframes, each frame phase-aligned to the
    previous aligned one so their overlaps are real positive."""
    prev = vecs[0]
    for cur in vecs[1:]:
        ov = np.sum(prev.conj() * cur, axis=0)
        prev = cur * (ov.conj() / np.abs(ov))
    return prev


def phase_trace_dense(weights: np.ndarray, freqs: np.ndarray,
                      taus: np.ndarray) -> np.ndarray:
    """sum_j weights[j] exp(i taus freqs[j]), every entry exponentiated."""
    return np.exp(1j * np.outer(taus, freqs)) @ weights


def two_point_green_dense(n_profile, eps_profile, taus, mode: int = 1,
                          hbar: float = 1.0) -> GreenResult:
    """two_point_green of valid arguments, its weights read off dense
    (c+1) x (c+1) ladder matrices, adag * (a @ K).T and a * (adag @ K).T,
    at the level differences of every (row, column) pair."""
    n, eps = float(n_profile[mode - 1]), float(eps_profile[mode - 1])
    taus = np.asarray(taus, dtype=float)
    w = n / (1.0 + n)
    cutoff = 24 if w == 0 else max(24, int(np.ceil(np.log(1e-15)
                                                   / np.log(w))))
    spec = FockSpec(statistics="bose", cutoffs=(cutoff,), hbar=hbar)
    probs = (1.0 - w) * w ** np.arange(cutoff + 1)
    k_mat = np.diag(probs / probs.sum()).astype(complex)
    a = annihilation_matrix(spec, 1)
    adag = a.conj().T
    energies = eps * hbar * np.arange(cutoff + 1)
    freq_matrix = np.subtract.outer(energies, energies) / hbar

    def sampled(weight, sign_scale):
        idx = np.nonzero(np.abs(weight) > 0)
        trace = [sign_scale * _phase_trace(weight[idx], freq_matrix[idx], at)
                 for at in (taus, np.zeros(1))]
        return trace[0], complex(trace[1][0])

    g_less, g_less_zero = sampled(adag * (a @ k_mat).T, 1.0 / hbar)
    g_greater, g_greater_zero = sampled(a * (adag @ k_mat).T, 1.0)
    if np.abs(g_less).max() == 0:
        pole = float("nan")
        res = 2.0 * np.pi / (len(taus) * float(taus[1] - taus[0]))
    else:
        pole, res = _fit_pole(taus, g_less)
    return GreenResult(taus=taus, g_less=g_less, g_greater=g_greater,
                       g_less_zero=g_less_zero, g_greater_zero=g_greater_zero,
                       pole=pole, resolution=res, mode=mode, n_bar=n,
                       eps=eps, hbar=hbar)


def hbar_sweep_loop(hbars, t: float = 1.0, steps: int = 64,
                    spacing: float = 0.5, extent: float = 6.0):
    """The classical lattice flow, one flow per hbar (one RK4 run each)
    and the gaps max |quantum - classical| of `lfunctional.hbar_sweep`."""
    from qtoolkit.evolution import rk4_fixed
    from qtoolkit.lfunctional import _lattice_rhs

    coords = np.arange(-extent, extent + spacing / 2, spacing)
    aq = coords[:, None]
    ap = coords[None, :]
    l0 = np.exp(-0.35 * (aq ** 2 + ap ** 2)).astype(complex)
    shifts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    weights = [0.3, 0.3, 0.2, 0.2]
    sigmas = [aq * (dp * spacing) - ap * (dq * spacing)
              for (dq, dp) in shifts]

    def run(kernels):
        return rk4_fixed(lambda s, l: _lattice_rhs(l, shifts, kernels), l0,
                         0.0, t, steps)

    classical = run([w * s for w, s in zip(weights, sigmas)])
    quantum = [run([w * (2.0 / hb) * np.sin(0.5 * hb * s)
                    for w, s in zip(weights, sigmas)]) for hb in hbars]
    gaps = [float(np.abs(q - classical).max()) for q in quantum]
    return classical, quantum, gaps


def phase_table_eval(table, lam) -> np.ndarray:
    """Phases of a `decoherence._PhaseTable` at lam, shape (levels,
    len(lam)), each step of the barycentric formula in a new array."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if table.constant is not None:
        return np.repeat(table.constant[:, None], len(lam), axis=1)
    diff = lam[None, :] - table.nodes[:, None]
    hit = np.abs(diff) < 1e-14
    diff = np.where(hit, 1.0, diff)
    w = table.weights[:, None] / diff
    numer = table.values @ w
    denom = w.sum(axis=0)
    # several nodes can hit one lambda and cancel in its column sum; the
    # hit columns are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        out = numer / denom
    if hit.any():
        idx = np.argmax(hit, axis=0)
        exact = hit.any(axis=0)
        out[:, exact] = table.values[:, idx[exact]]
    return out


def simpson_eigen_traces_fresh(h_of_s, dim: int, tol: float = 1e-12,
                               max_level: int = 14):
    """(integrals, min_gap) of `evolution._simpson_eigen_traces`, every
    point of each level sampled and diagonalised afresh."""
    level = 6
    prev = None
    while True:
        m = 1 << level
        s = np.linspace(0.0, 1.0, m + 1)
        vals = np.linalg.eigvalsh(_sample_matrices(h_of_s, s, dim))
        min_gap = (float(np.diff(vals, axis=1).min()) if dim > 1
                   else math.inf)
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        integ = (w[:, None] * vals).sum(axis=0) / (3.0 * m)
        if prev is not None:
            scale = max(1.0, float(np.abs(integ).max()))
            if float(np.abs(integ - prev).max()) <= tol * scale:
                return integ, min_gap
        if level == max_level:
            return integ, min_gap
        prev = integ
        level += 1


def _shift(idx: tuple, k: int, by: int):
    val = idx[k] + by
    return None if val < 0 else idx[:k] + (val,) + idx[k + 1:]


def evolution_generator_branches(h: NormalOrderedPolynomial, keys: list,
                                 hbar: float) -> np.ndarray:
    """Generator of dV/dt under a quadratic h, derived branch by branch.

    Constant terms are skipped; a term of any other shape than (1, 1),
    (2, 0) or (0, 2) raises ValueError.  The hbar of the contraction terms
    enters as hbar itself, the others carry no hbar at all.
    """
    index = {key: i for i, key in enumerate(keys)}
    gen = np.zeros((len(keys), len(keys)), dtype=complex)

    def add(row_key, col_key, value):
        col = index.get(col_key)
        if col is not None:
            gen[index[row_key], col] += value

    def modes_of(exponents):
        return [mode for mode, e in enumerate(exponents) for _ in range(e)]

    for (ckey, akey), coeff in h.terms.items():
        shape = (sum(ckey), sum(akey))
        if shape == (0, 0):
            continue
        if shape not in ((1, 1), (2, 0), (0, 2)):
            raise ValueError(f"no branch for a term of shape {shape}")
        for key in keys:
            beta, gamma = key
            if shape == (1, 1):
                k, l = modes_of(ckey)[0], modes_of(akey)[0]
                if gamma[k] >= 1:
                    tgt = (beta, _shift(_shift(gamma, k, -1), l, 1))
                    add(key, tgt, -1j * coeff * gamma[k])
                if beta[l] >= 1:
                    tgt = (_shift(_shift(beta, k, 1), l, -1), gamma)
                    add(key, tgt, 1j * coeff * beta[l])
            elif shape == (2, 0):
                k, l = modes_of(ckey)
                if gamma[k] >= 1:
                    add(key, (_shift(beta, l, 1), _shift(gamma, k, -1)),
                        -1j * coeff * gamma[k])
                if gamma[l] >= 1:
                    add(key, (_shift(beta, k, 1), _shift(gamma, l, -1)),
                        -1j * coeff * gamma[l])
                low = _shift(gamma, k, -1)
                if low is not None and low[l] >= 1:
                    add(key, (beta, _shift(low, l, -1)),
                        -1j * coeff * hbar * gamma[k] * low[l])
            else:
                k, l = modes_of(akey)
                if beta[k] >= 1:
                    add(key, (_shift(beta, k, -1), _shift(gamma, l, 1)),
                        1j * coeff * beta[k])
                if beta[l] >= 1:
                    add(key, (_shift(beta, l, -1), _shift(gamma, k, 1)),
                        1j * coeff * beta[l])
                low = _shift(beta, l, -1)
                if low is not None and low[k] >= 1:
                    add(key, (_shift(low, k, -1), gamma),
                        1j * coeff * hbar * beta[l] * low[k])
    return gen


def _op_b(d: dict, k: int, hbar: float) -> dict:
    out = {}
    for (beta, gamma), v in d.items():
        if beta[k] >= 1:
            key = (_shift(beta, k, -1), gamma)
            out[key] = out.get(key, 0.0) + v
    return out


def _op_b_plus(d: dict, k: int, hbar: float) -> dict:
    out = {}
    for (beta, gamma), v in d.items():
        key = (beta, _shift(gamma, k, -1))
        if key[1] is not None:
            out[key] = out.get(key, 0.0) + v
        key2 = (_shift(beta, k, 1), gamma)
        out[key2] = out.get(key2, 0.0) + hbar * (beta[k] + 1) * v
    return out


def _op_b_tilde(d: dict, k: int, hbar: float) -> dict:
    out = {}
    for (beta, gamma), v in d.items():
        if gamma[k] >= 1:
            key = (beta, _shift(gamma, k, -1))
            out[key] = out.get(key, 0.0) + v
    return out


def _op_b_tilde_plus(d: dict, k: int, hbar: float) -> dict:
    out = {}
    for (beta, gamma), v in d.items():
        key = (_shift(beta, k, -1), gamma)
        if key[0] is not None:
            out[key] = out.get(key, 0.0) + v
        key2 = (beta, _shift(gamma, k, 1))
        out[key2] = out.get(key2, 0.0) + hbar * (gamma[k] + 1) * v
    return out


# the doubled operators on coefficient dicts, one map each, keyed by the
# names of lfunctional.apply_doubled (mode k 0-based)
DOUBLED_MIRRORS = {
    "b": _op_b,
    "b_plus": _op_b_plus,
    "b_tilde": _op_b_tilde,
    "b_tilde_plus": _op_b_tilde_plus,
}
