"""Time evolution engines.

Exact propagators for hermitian generators, Trotter time-slicing with a
measured convergence order, adiabatic propagation by unitary Magnus steps
with a per-level phase ledger, and a discrete qp-symbol calculus on
periodic (q, p) grids whose star product reproduces operator
multiplication exactly at the grid level.

Grid conventions.  A SymbolGrid holds n points q_j = (j - n/2) dq and
p_l = (l - n/2) dp with dp dq = 2 pi hbar / n.  With the phase matrix
E[j, l] = exp(-i p_l q_j / hbar) the symbol of a kernel matrix M is

    a = E * (M @ conj(E))          (elementwise product)

and the inverse transform M = (1/n) (a * conj(E)) @ E.T is exact on the
grid, as is the star product

    a ? b = (1/n) E * ((a * conj(E)) @ E.T @ (b * conj(E)))

which equals the symbol of the product of the two reconstructed kernels.
The normalization is fixed so the symbol of the identity matrix is the
constant 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (NumericalError, ValidationError, _hermitian,
                     _require_finite, _require_int, _require_positive)

__all__ = [
    "expm",
    "evolve_density",
    "heisenberg",
    "trotter_slices",
    "TrotterReport",
    "trotter_order",
    "SymbolGrid",
    "symbol_of_matrix",
    "matrix_of_symbol",
    "position_matrix",
    "momentum_matrix",
    "boundary_mass",
    "qp_star_product",
    "hermite_transfer",
    "mehler_kernel",
    "rk4_fixed",
    "AdiabaticResult",
    "adiabatic_evolve",
]


def expm(h: np.ndarray, t: float, hbar: float = 1.0) -> np.ndarray:
    """U(t) = exp(-i t H / hbar) for hermitian H, by eigendecomposition."""
    h = _hermitian(h, "generator")
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * vals / hbar)) @ vecs.conj().T


def evolve_density(k: np.ndarray, h: np.ndarray, t: float,
                   hbar: float = 1.0) -> np.ndarray:
    u = expm(h, t, hbar)
    return u @ _require_finite(k, "state", u.shape) @ u.conj().T


def heisenberg(a: np.ndarray, h: np.ndarray, t: float,
               hbar: float = 1.0) -> np.ndarray:
    """A(t) = U(t)^dag A U(t), so that <A(t)>_K = <A>_{K(t)}."""
    u = expm(h, t, hbar)
    return u.conj().T @ _require_finite(a, "observable", u.shape) @ u


# ---------------------------------------------------------------------------
# Trotter slicing


def _trotter_factors(factors: Sequence[np.ndarray], t: float
                     ) -> list[np.ndarray]:
    """The factors as finite complex matrices of one square shape, after
    checking that t is finite and t times the factors and their sum stays
    in double range."""
    if not np.isfinite(t):
        raise ValidationError("time t must be finite")
    mats = [_require_finite(f, "factor") for f in factors]
    if not mats:
        raise ValidationError("need at least one factor")
    dim = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for m in mats:
        if m.shape != (dim, dim):
            raise ValidationError("factors must share one square dimension")
    if dim == 0:
        raise ValidationError("factors must be nonempty matrices")
    with np.errstate(over="ignore"):
        bound = abs(t) * sum(float(np.abs(m).max()) for m in mats)
    if not math.isfinite(bound):
        raise NumericalError("t times the factors overflows double range")
    return mats


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the Padé approximant
# r_m of degree m gives e^A to unit roundoff while ||A||_1 <= theta_m; its
# numerator has the coefficients b_j = (2m - j)! / (j! (m - j)!).
_PADE = tuple(
    (m, theta, tuple(float(math.factorial(2 * m - j)
                           // (math.factorial(j) * math.factorial(m - j)))
                     for j in range(m + 1)))
    for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                     (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
                     (13, 5.371920351148152e0)))


def _expm_pade(a: np.ndarray) -> np.ndarray:
    """e^A for a general square matrix, by Higham's Padé scaling and
    squaring: the lowest degree whose theta_m bounds the 1-norm of A, else
    degree 13 on A / 2^s squared s times."""
    a = np.asarray(a, dtype=complex)
    with np.errstate(over="ignore"):
        norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise NumericalError("matrix exponential of data beyond double range")
    s = 0
    for m, theta, b in _PADE:
        if norm <= theta:
            break
    else:
        s = math.ceil(math.log2(norm / theta))
        a = a * 2.0 ** -s
    eye = np.eye(a.shape[0], dtype=complex)
    a2 = a @ a
    if m < 13:
        powers = [eye, a2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6
                 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6
             + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    if not np.all(np.isfinite(r)):
        raise NumericalError("matrix exponential overflows double range")
    return r


def _slice_exponentials(mats: Sequence[np.ndarray], t: float, n: int
                        ) -> list[np.ndarray]:
    """e^{(t/N) H_j} for each factor."""
    return [_expm_pade((t / n) * m) for m in mats]


def _slice_product(exps: Sequence[np.ndarray], n: int) -> np.ndarray:
    """(prod_j exps[j])^N, the factors multiplied left to right."""
    step = np.eye(exps[0].shape[0], dtype=complex)
    for e in exps:
        step = step @ e
    return np.linalg.matrix_power(step, n)


def trotter_slices(factors: Sequence[np.ndarray], t: float, n: int
                   ) -> np.ndarray:
    """I_N(t) = (prod_j e^{(t/N) H_j})^N for general square factors.

    Factors are applied left to right inside each slice; the limit
    N -> infinity is e^{t sum_j H_j} and the error is O(1/N).
    """
    n = _require_int(n, "slice count")
    mats = _trotter_factors(factors, t)
    return _slice_product(_slice_exponentials(mats, t, n), n)


@dataclass(frozen=True)
class TrotterReport:
    errors: Mapping[int, float]
    order: float


def trotter_order(factors: Sequence[np.ndarray], t: float,
                  n_values: Sequence[int]) -> TrotterReport:
    """Frobenius error of I_N against e^{t sum H_j} with a fitted order.

    The order is the negated slope of log error versus log N; for a
    nontrivial splitting it sits near 1.  Each slice count's exponentials,
    product and error are formed before the next count's, so the memory
    held does not grow with the number of counts.
    """
    n_values = [_require_int(n, "slice count") for n in n_values]
    if len(set(n_values)) < 2:
        raise ValidationError("need at least two distinct slice counts to "
                              "fit an order")
    mats = _trotter_factors(factors, t)
    exact = _expm_pade(t * sum(mats))
    errors = {}
    for n in n_values:
        approx = _slice_product(_slice_exponentials(mats, t, n), n)
        errors[n] = float(np.linalg.norm(approx - exact))
    ns = np.asarray(sorted(errors), dtype=float)
    es = np.asarray([errors[n] for n in sorted(errors)])
    if np.any(es <= 0):
        order = float("inf")
    else:
        order = -float(np.polyfit(np.log(ns), np.log(es), 1)[0])
    return TrotterReport(errors=errors, order=order)


# ---------------------------------------------------------------------------
# discrete qp symbols


@dataclass(frozen=True)
class SymbolGrid:
    """Centered periodic (q, p) grid with dp dq = 2 pi hbar / n.

    The defining kernels of the calculus are c(q, p) = r(q, p) = -i q p,
    entering through the phase matrix E = exp(c(q_j, p_l) / hbar).
    """

    n: int
    dq: float
    hbar: float = 1.0

    def __post_init__(self):
        _require_int(self.n, "grid points", 2)
        _require_positive(self.dq, "dq")
        _require_positive(self.hbar, "hbar")

    @property
    def dp(self) -> float:
        return 2.0 * math.pi * self.hbar / (self.n * self.dq)

    @cached_property
    def q(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dq

    @cached_property
    def p(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dp

    def kernel_c(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        return -1j * np.asarray(q) * np.asarray(p)

    @cached_property
    def phase(self) -> np.ndarray:
        return np.exp(self.kernel_c(self.q[:, None], self.p[None, :])
                      / self.hbar)

    def window(self, q_max: float, p_max: float) -> tuple:
        """Index mask pair selecting |q| <= q_max, |p| <= p_max."""
        return np.ix_(np.abs(self.q) <= q_max, np.abs(self.p) <= p_max)


def symbol_of_matrix(m: np.ndarray, grid: SymbolGrid) -> np.ndarray:
    m = _require_finite(m, "kernel matrix")
    if m.shape != (grid.n, grid.n):
        raise ValidationError("kernel matrix must match the grid")
    e = grid.phase
    return e * (m @ e.conj())


def matrix_of_symbol(a: np.ndarray, grid: SymbolGrid) -> np.ndarray:
    a = _require_finite(a, "symbol")
    if a.shape != (grid.n, grid.n):
        raise ValidationError("symbol must match the grid")
    e = grid.phase
    return (a * e.conj()) @ e.T / grid.n


def position_matrix(grid: SymbolGrid) -> np.ndarray:
    return np.diag(grid.q).astype(complex)


def momentum_matrix(grid: SymbolGrid) -> np.ndarray:
    """Spectral momentum operator; its symbol is exactly p on the grid."""
    e = grid.phase
    return (e.conj() * grid.p) @ e.T / grid.n


def boundary_mass(m: np.ndarray) -> float:
    """Fraction of L1 mass on the outer frame, identity component removed.

    The identity wraps around the periodic grid without error, so the
    multiple of the identity matching the corner diagonal entries is
    subtracted before measuring; what must decay toward the frame is
    everything else.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    c = 0.5 * (m[0, 0] + m[-1, -1])
    r = m - c * np.eye(n)
    total = float(np.abs(r).sum())
    if total <= 1e-12 * n * float(np.abs(m).max()):
        # residual at roundoff level: the kernel is a multiple of the
        # identity, which wraps without error
        return 0.0
    edge = float(np.abs(r[0, :]).sum() + np.abs(r[-1, :]).sum()
                 + np.abs(r[1:-1, 0]).sum() + np.abs(r[1:-1, -1]).sum())
    return edge / total


def qp_star_product(a: np.ndarray, b: np.ndarray, grid: SymbolGrid,
                    boundary_tol: float | None = 1e-6) -> np.ndarray:
    """Star product of two discrete symbols.

    Equals the symbol of the product of the reconstructed kernel matrices
    exactly; the boundary-mass check rejects symbols whose kernels do not
    decay inside the grid (aliasing would otherwise be silent).  Pass
    boundary_tol=None to skip the check.
    """
    a = _require_finite(a, "symbol a")
    b = _require_finite(b, "symbol b")
    if a.shape != (grid.n, grid.n) or b.shape != (grid.n, grid.n):
        raise ValidationError("symbols must match the grid")
    if boundary_tol is not None:
        for name, s in (("left", a), ("right", b)):
            mass = boundary_mass(matrix_of_symbol(s, grid))
            if mass > boundary_tol:
                raise NumericalError(
                    f"{name} symbol has boundary mass {mass:.3e} > "
                    f"{boundary_tol:.1e}; enlarge the grid")
    e = grid.phase
    return e * ((a * e.conj()) @ (e.T @ (b * e.conj()))) / grid.n


def hermite_transfer(grid: SymbolGrid, n_modes: int) -> np.ndarray:
    """Transfer matrix T[j, n] = phi_n(q_j) sqrt(dq) to the grid.

    phi_n are oscillator eigenfunctions at the grid's hbar, generated by
    the stable two-term recurrence.  Columns are grid-orthonormal once the
    grid covers the classically allowed region of the highest mode.
    """
    n_modes = _require_int(n_modes, "n_modes")
    x = grid.q / math.sqrt(grid.hbar)
    t = np.zeros((grid.n, n_modes))
    t[:, 0] = math.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if n_modes > 1:
        t[:, 1] = math.sqrt(2.0) * x * t[:, 0]
    for n in range(1, n_modes - 1):
        t[:, n + 1] = (math.sqrt(2.0 / (n + 1)) * x * t[:, n]
                       - math.sqrt(n / (n + 1)) * t[:, n - 1])
    return t * math.sqrt(grid.dq) * grid.hbar ** -0.25


def mehler_kernel(grid: SymbolGrid, beta: float) -> np.ndarray:
    """Kernel matrix of exp(-beta (N + 1/2)) on the position grid.

    Closed Gaussian form; rows/columns carry the quadrature weight dq, so
    matrix products realize the semigroup K_a K_b = K_{a+b} to quadrature
    accuracy.
    """
    _require_positive(beta, "beta")
    hb = grid.hbar
    x = grid.q[:, None] / math.sqrt(hb)
    y = grid.q[None, :] / math.sqrt(hb)
    sh = math.sinh(beta)
    ch = math.cosh(beta)
    k = np.exp(-((x * x + y * y) * ch - 2.0 * x * y) / (2.0 * sh))
    return k / math.sqrt(2.0 * math.pi * sh * hb) * grid.dq


# ---------------------------------------------------------------------------
# ODE stepping


def rk4_fixed(f: Callable, y0: np.ndarray, t0: float, t1: float,
              steps: int) -> np.ndarray:
    """Classical fixed-step 4th-order integration of y' = f(t, y)."""
    steps = _require_int(steps, "steps")
    h = (t1 - t0) / steps
    y = np.asarray(y0, dtype=complex).copy()
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


# Steps per block of the Magnus propagator.  A power of two, so every
# block starts at a multiple of its own size and its product is a subtree
# of the balanced tree over all steps: reducing the block products
# reproduces that tree, partial last block included.
_CHUNK = 1024


def _tree_product(steps: np.ndarray) -> np.ndarray:
    """Ordered product steps[-1] @ ... @ steps[0] by pairwise reduction.

    The reduction order is a fixed balanced tree, so results are
    reproducible regardless of how the batch was produced.
    """
    while steps.shape[0] > 1:
        m = steps.shape[0] // 2
        paired = np.matmul(steps[1:2 * m:2], steps[0:2 * m:2])
        if steps.shape[0] % 2:
            paired = np.concatenate([paired, steps[-1:]])
        steps = paired
    return steps[0]


def _sample_matrices(fn: Callable, xs: np.ndarray, dim: int) -> np.ndarray:
    """Evaluate a matrix-valued callable on many points, batched if it can.

    A family that cannot take an array of points (any other exception, or
    the wrong shape) is evaluated point by point; its own ValidationError
    or NumericalError propagates.
    """
    try:
        out = np.asarray(fn(xs), dtype=complex)
        if out.shape == (len(xs), dim, dim):
            return out
    except (ValidationError, NumericalError):
        raise
    except Exception:
        pass
    return np.stack([np.asarray(fn(x), dtype=complex) for x in xs])


def _blocked_product(steps: int, make_steps: Callable) -> np.ndarray:
    """Ordered product of `steps` step matrices, built in aligned blocks.

    make_steps(lo, hi) returns the stack of steps lo..hi-1; blocks of
    _CHUNK steps are built and reduced one at a time, so live memory is
    O(_CHUNK dim^2) plus one dim x dim product per block.
    """
    blocks = []
    for lo in range(0, steps, _CHUNK):
        block = make_steps(lo, min(lo + _CHUNK, steps))
        with np.errstate(over="ignore", invalid="ignore"):
            blocks.append(_tree_product(block))
    with np.errstate(over="ignore", invalid="ignore"):
        return _tree_product(np.stack(blocks))


# Gauss-Legendre nodes of the 4th-order Magnus step, as fractions of the
# step width: (1/2 -+ sqrt(3)/6) h into the step.
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_MAGNUS_START_STEPS = 16


def _magnus_propagator(h_of_s: Callable, scale: float, tol: float,
                       max_steps: int) -> tuple[np.ndarray, int]:
    """U(1) for U' = -(i/scale) H(s) U, U(0) = 1, by 4th-order Magnus steps.

    With H1, H2 at the two Gauss-Legendre nodes of a step of width h, the
    step is exp(-i K) with the hermitian
    K = (h/(2 scale)) (H1 + H2) - i (sqrt(3) h^2/(12 scale^2)) [H2, H1]
    (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009), evaluated as
    V diag(e^{-i w}) V^H from one batched eigh, so every step is unitary
    to rounding.  h_of_s maps an array of points to a stack of hermitian
    matrices.  Steps are reduced in aligned blocks of _CHUNK steps, and
    the step count doubles from _MAGNUS_START_STEPS until two consecutive
    resolutions agree to tol in max norm; NumericalError past max_steps.
    """

    def run(steps: int) -> np.ndarray:
        h = 1.0 / steps
        ratio = h / scale
        mean_coef = 0.5 * ratio
        comm_coef = math.sqrt(3.0) / 12.0 * ratio * ratio

        def unitaries(lo: int, hi: int) -> np.ndarray:
            nodes = h * (np.arange(lo, hi)[:, None] + _GAUSS_NODES)
            hs = h_of_s(nodes.reshape(-1))
            h1, h2 = hs[0::2], hs[1::2]
            with np.errstate(over="ignore", invalid="ignore"):
                k = (mean_coef * (h1 + h2)
                     - (1j * comm_coef) * (h2 @ h1 - h1 @ h2))
                w, v = np.linalg.eigh(k)
                return (v * np.exp(-1j * w)[:, None, :]) @ np.swapaxes(
                    v, -1, -2).conj()

        return _blocked_product(steps, unitaries)

    steps = _MAGNUS_START_STEPS
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


# ---------------------------------------------------------------------------
# adiabatic evolution


def _simpson_eigen_traces(h_of_s: Callable, dim: int, tol: float = 1e-12,
                          max_level: int = 14) -> tuple[np.ndarray, float]:
    """Integrals of the sorted eigenvalue curves over s in [0, 1].

    Composite quadrature with interval doubling until the per-level result
    is stable; returns the integral vector and the minimum spectral gap
    seen at the finest sampling.  The grids are dyadic, so the points of
    one level are the even points of the next bit for bit: each level
    samples and diagonalises only its odd points and interleaves their
    eigenvalues with those already held.  Integrals past double range
    raise NumericalError.
    """
    level = 6
    m = 1 << level
    vals = np.linalg.eigvalsh(
        _sample_matrices(h_of_s, np.linspace(0.0, 1.0, m + 1), dim))
    prev = None
    while True:
        gaps = np.diff(vals, axis=1)
        min_gap = float(gaps.min()) if dim > 1 else math.inf
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            integ = (w[:, None] * vals).sum(axis=0) / (3.0 * m)
        if not np.all(np.isfinite(integ)):
            raise NumericalError("eigenvalue integrals exceed double range")
        if prev is not None:
            scale = max(1.0, float(np.abs(integ).max()))
            if float(np.abs(integ - prev).max()) <= tol * scale:
                return integ, min_gap
        if level == max_level:
            return integ, min_gap
        prev = integ
        level += 1
        m = 1 << level
        fine = np.empty((m + 1, dim))
        fine[0::2] = vals
        fine[1::2] = np.linalg.eigvalsh(_sample_matrices(
            h_of_s, np.linspace(0.0, 1.0, m + 1)[1::2], dim))
        vals = fine


def _gapped_family(fn: Callable, dim: int, gap_threshold: float,
                   where: str = "") -> tuple[Callable, np.ndarray, float]:
    """(h_of_s, integrals, min_gap) of the path family fn.

    h_of_s evaluates fn on an array of points as a stack of dim x dim
    matrices, each held to the hermitian input rule (exactly hermitian
    values pass bit for bit); the integrals and minimum gap are those of
    _simpson_eigen_traces, and a gap below gap_threshold raises
    NumericalError.
    """

    def h_of_s(s):
        hs = _sample_matrices(fn, np.atleast_1d(s), dim)
        if hs.shape[1:] != (dim, dim):
            raise ValidationError("family values must share one dimension")
        return _hermitian(hs, "family value", stacked=True)

    integrals, min_gap = _simpson_eigen_traces(h_of_s, dim)
    if dim > 1 and min_gap < gap_threshold:
        raise NumericalError(
            f"spectral gap {min_gap:.3e} fell below {gap_threshold:.1e} "
            f"along the path{where}")
    return h_of_s, integrals, min_gap


def _continued_basis(h_of_s: Callable, dim: int, points: int = 1025
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenbases at s=0 and s=1 with phases continued along the path.

    Sorted eigenvectors are phase-aligned step to step by making the
    overlap with the previous frame real positive; an overlap magnitude
    below 0.7 means the sampling cannot track the branch.  Aligning frame
    k multiplies raw frame k by the running product of conj(o_j)/|o_j|
    over the raw overlaps o_j of consecutive frames j <= k, so the end
    frame is the last raw frame times that product over the whole path.
    """
    s = np.linspace(0.0, 1.0, points)
    hs = _sample_matrices(h_of_s, s, dim)
    vals, vecs = np.linalg.eigh(hs)
    ov = np.sum(vecs[:-1].conj() * vecs[1:], axis=1)
    mags = np.abs(ov)
    worst = min(1.0, float(mags.min()))
    if worst < 0.7:
        raise NumericalError(
            "eigenpath continuation lost track of a branch; "
            "the spectrum may cross along the path")
    turn = np.prod(ov.conj() / mags, axis=0)
    return vecs[0].copy(), vecs[-1] * turn, worst


@dataclass(frozen=True)
class AdiabaticResult:
    """Propagator over the scaled path plus the per-level phase ledger.

    phases[m, n] is the accumulated relative phase
    (1/(alpha hbar)) * integral of (E_m - E_n) ds; the diagonal is exactly
    zero.  leakage[n] is |U phi_n(0) - e^{-i dynamical_phases[n]} phi_n(1)|,
    the adiabatic-theorem defect, expected O(alpha) for smooth gapped
    families.
    """

    u: np.ndarray
    dynamical_phases: np.ndarray
    phases: np.ndarray
    min_gap: float
    leakage: np.ndarray
    start_basis: np.ndarray
    end_basis: np.ndarray
    steps: int
    alpha: float


def adiabatic_evolve(family: Callable, path: Callable, alpha: float,
                     hbar: float = 1.0, tol: float = 1e-8,
                     gap_threshold: float = 1e-8,
                     max_steps: int = 1 << 20) -> AdiabaticResult:
    """Integrate dU/ds = -(i/(alpha hbar)) H(g(s)) U over s in [0, 1].

    family maps a parameter value g to a hermitian matrix, path maps
    s in [0, 1] to g; alpha > 0 scales physical time as T = 1/alpha.
    Callables may accept arrays (batched evaluation) or scalars.  Every
    sampled value of family(path(s)) must pass the hermitian input rule.

    U is integrated by 4th-order Magnus steps (each one unitary), starting
    at 16 steps and doubling until two resolutions agree to tol in max
    norm; `steps` of the result counts the Magnus steps of the last one.
    """
    _require_positive(alpha, "alpha")
    _require_positive(hbar, "hbar")
    _require_positive(tol, "tol")
    dim = _hermitian(family(path(0.0)), "family value").shape[0]
    h_of_s, integrals, min_gap = _gapped_family(
        lambda x: family(path(x)), dim, gap_threshold)
    dyn = integrals / (alpha * hbar)
    phases = dyn[:, None] - dyn[None, :]

    u, steps = _magnus_propagator(h_of_s, alpha * hbar, tol, max_steps)

    start, end, _ = _continued_basis(h_of_s, dim)
    propagated = u @ start
    expected = end * np.exp(-1j * dyn)[None, :]
    leakage = np.linalg.norm(propagated - expected, axis=0)

    return AdiabaticResult(u=u, dynamical_phases=dyn, phases=phases,
                           min_gap=min_gap, leakage=leakage,
                           start_basis=start, end_basis=end, steps=steps,
                           alpha=alpha)
