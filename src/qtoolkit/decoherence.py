"""Decoherence from random adiabatic phases.

A hermitian family H(lambda, g) is driven along a path g(s) with
g(0) = g(1) = 0, so the endpoint Hamiltonian H0 = H(lambda, 0) is common to
all parameter values.  Each lambda contributes a relative phase

    beta_mn(lambda) = (1/(alpha hbar)) * integral_0^1 (E_m - E_n) ds

between eigenlevels of H0, and averaging the phase factor over lambda
suppresses off-diagonal matrix elements while leaving the diagonal exactly
fixed.  Two independent estimators of <exp(-i beta)> are kept side by side:
deterministic Gauss-Legendre quadrature and chunked Monte Carlo with
counter-based substreams (bit-reproducible for any thread count).

The module also provides the long-time-average projector onto the kernel of
a bounded generator and the common ("robust") kernel of a superoperator
family.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (NumericalError, ValidationError, _hermitian,
                     _require_int, _require_positive)
from .evolution import _gapped_family
from .fock import DensityMatrix

__all__ = [
    "PerturbationEnsemble",
    "phase_functional",
    "BornReport",
    "average_density",
    "robust_projector",
    "commutator_superoperator",
    "robust_kernel",
]

_CHUNK = 65536


def default_threads() -> int:
    value = os.environ.get("QTOOLKIT_THREADS", "1")
    try:
        n = int(value)
    except ValueError as exc:
        raise ValidationError(f"QTOOLKIT_THREADS must be an integer, "
                              f"got {value!r}") from exc
    return _require_int(n, "thread count")


@dataclass(frozen=True)
class PerturbationEnsemble:
    """Randomly perturbed adiabatic drive.

    family(lam, g) must return a hermitian matrix; path(s) must vanish at
    s = 0 and s = 1 so that all ensemble members share the endpoint
    Hamiltonian.  The parameter is uniform on [lam_low, lam_high] unless
    explicit lam_samples are given (then the empirical distribution over
    those values is used).
    """

    family: Callable
    path: Callable
    alpha: float
    lam_low: float = 0.0
    lam_high: float = 0.0
    lam_samples: tuple | None = None
    trials: int = 10000
    seed: int = 0
    hbar: float = 1.0

    def __post_init__(self):
        _require_positive(self.alpha, "alpha")
        _require_positive(self.hbar, "hbar")
        object.__setattr__(self, "trials", _require_int(self.trials,
                                                        "trials"))
        object.__setattr__(self, "seed", _require_int(self.seed, "seed", 0,
                                                      128))
        if self.lam_samples is not None:
            if len(self.lam_samples) == 0:
                raise ValidationError("lam_samples must be nonempty")
            object.__setattr__(self, "lam_samples",
                               tuple(float(x) for x in self.lam_samples))
        elif self.lam_high < self.lam_low:
            raise ValidationError("need lam_high >= lam_low")
        lams = (self.lam_low, self.lam_high) + (self.lam_samples or ())
        lo, hi = self._window()
        # uniform sampling and the table nodes both take hi - lo
        if not all(math.isfinite(x) for x in lams + (hi - lo,)):
            raise ValidationError("lambda values and the width of their "
                                  "window must be finite")
        for s_end in (0.0, 1.0):
            g = float(np.asarray(self.path(s_end)))
            if abs(g) > 1e-12:
                raise ValidationError(
                    f"path must vanish at the endpoints; g({s_end}) = {g}")

    @cached_property
    def dim(self) -> int:
        probe = np.asarray(self.family(self._lam_ref(), 0.0))
        return probe.shape[0]

    def _window(self) -> tuple[float, float]:
        """The smallest and largest lambda the distribution can draw."""
        if self.lam_samples is not None:
            return min(self.lam_samples), max(self.lam_samples)
        return self.lam_low, self.lam_high

    def _lam_ref(self) -> float:
        if self.lam_samples is not None:
            return self.lam_samples[0]
        return 0.5 * (self.lam_low + self.lam_high)

    def endpoint_hamiltonian(self) -> np.ndarray:
        """H0 = family(lam, 0), verified to be lambda-independent."""
        if self.lam_samples is not None:
            probes = [self.lam_samples[0], self.lam_samples[-1]]
        else:
            probes = [self.lam_low, self.lam_high]
        h0 = _hermitian(self.family(probes[0], 0.0), "endpoint hamiltonian")
        scale = max(float(np.abs(h0).max()), 1.0)
        for lam in probes[1:]:
            other = np.asarray(self.family(lam, 0.0), dtype=complex)
            if float(np.abs(other - h0).max()) > 1e-10 * scale:
                raise ValidationError(
                    "family(lam, 0) depends on lam; the path must switch "
                    "the perturbation off at the endpoints")
        return h0


def _level_integrals(ensemble: PerturbationEnsemble, lam: float,
                     gap_threshold: float = 1e-8) -> np.ndarray:
    """integral_0^1 E_n(lam, g(s)) ds over sorted levels of hermitian H."""
    _, integrals, _ = _gapped_family(
        lambda s: ensemble.family(lam, ensemble.path(s)), ensemble.dim,
        gap_threshold, f" at lam = {lam}")
    return integrals


def phase_functional(ensemble: PerturbationEnsemble, lam: float,
                     m: int, n: int) -> float:
    """Accumulated relative phase beta_mn(lam) between the levels m and n,
    counted from 0; exactly zero for m = n."""
    m, n = (_require_int(k, "level index", 0) for k in (m, n))
    if max(m, n) >= ensemble.dim:
        raise ValidationError(f"level index must be below {ensemble.dim}")
    if m == n:
        return 0.0
    integrals = _level_integrals(ensemble, lam)
    return float((integrals[m] - integrals[n])
                 / (ensemble.alpha * ensemble.hbar))


# ---------------------------------------------------------------------------
# phase interpolation over lambda


class _PhaseTable:
    """Barycentric Chebyshev interpolant of the per-level phase integrals.

    Exact for phases polynomial in lambda up to the node count; the node
    count doubles until three probe points reproduce direct quadrature
    (Berrut & Trefethen, SIAM Review 46, 501 (2004)).

    A lambda within 1e-14 of a node takes that node's values.  Those
    columns are found from each lambda's two neighbours in the sorted
    nodes: correctly rounded lambda - x is monotone in x, so the smallest
    |lambda - x_k| always falls at a neighbour, and the neighbour test
    finds the same columns as testing every node, with the same
    difference.  Only those columns, usually none, are snapped.
    """

    def __init__(self, ensemble: PerturbationEnsemble, lo: float, hi: float):
        self.lo, self.hi = lo, hi
        scale = 1.0 / (ensemble.alpha * ensemble.hbar)
        if hi == lo:
            self.constant = _level_integrals(ensemble, lo) * scale
            return
        self.constant = None
        for n_nodes in (33, 65, 129):
            k = np.arange(n_nodes)
            x = np.cos(math.pi * k / (n_nodes - 1))
            self.nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            self.weights = np.where(k % 2 == 0, 1.0, -1.0)
            self.weights[0] *= 0.5
            self.weights[-1] *= 0.5
            self.values = np.stack(
                [_level_integrals(ensemble, lam) for lam in self.nodes],
                axis=1) * scale
            probes = lo + (hi - lo) * np.array([0.23, 0.52, 0.81])
            direct = np.stack(
                [_level_integrals(ensemble, lam) for lam in probes],
                axis=1) * scale
            err = float(np.abs(self(probes) - direct).max())
            if err <= 1e-8 * (1.0 + float(np.abs(direct).max())):
                return
        raise NumericalError(
            "phase integrals are not smooth enough in lambda to "
            "interpolate; refine the family")

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        """Phases at given lambdas, shape (levels, len(lam))."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if self.constant is not None:
            return np.repeat(self.constant[:, None], len(lam), axis=1)
        ascending = self.nodes[::-1]
        pos = np.searchsorted(ascending, lam).clip(1, len(ascending) - 1)
        gap = np.minimum(np.abs(lam - ascending[pos - 1]),
                         np.abs(lam - ascending[pos]))
        cols = np.flatnonzero(gap < 1e-14)
        w = lam[None, :] - self.nodes[:, None]
        snapped = w[:, cols]
        hit = np.abs(snapped) < 1e-14
        snapped[hit] = 1.0
        w[:, cols] = snapped
        np.divide(self.weights[:, None], w, out=w)
        out = self.values @ w
        denom = w.sum(axis=0)
        # the hit columns are overwritten below; several nodes within 1e-14
        # of one lambda can sum to zero there
        denom[cols] = 1.0
        out /= denom
        out[:, cols] = self.values[:, hit.argmax(axis=0)]
        return out


# ---------------------------------------------------------------------------
# ensemble averaging


@dataclass(frozen=True)
class BornReport:
    """Averaged state and the two phase-average estimates behind it.

    probabilities are the diagonal of the initial state in the endpoint
    eigenbasis; they are carried through the averaging untouched.
    """

    averaged: np.ndarray
    probabilities: np.ndarray
    offdiag_norm: float
    phase_quadrature: np.ndarray
    phase_monte_carlo: np.ndarray
    mc_stderr: np.ndarray
    trials: int

    def __post_init__(self):
        p = self.probabilities
        if float(p.min()) < -1e-10:
            raise NumericalError("negative Born probability")
        if abs(float(p.sum()) - 1.0) > 1e-10:
            raise NumericalError("Born probabilities do not sum to 1")


def _phase_sums(phases: np.ndarray, weights: np.ndarray | None = None
                ) -> np.ndarray:
    """Sums over trials of exp(-i (phases[m] - phases[n])) for each (m, n).

    phases has shape (levels, trials); optional real weights, one per
    trial, multiply each trial's terms.  Only the strict upper triangle is
    exponentiated: the (n, m) term of a trial is the exact complex
    conjugate of its (m, n) term and each diagonal term is 1, so the lower
    triangle is the conjugate of the upper one and the diagonal is the
    trial count (the weight sum).
    """
    levels, trials = phases.shape
    upper = np.triu_indices(levels, 1)
    terms = -1j * (phases[upper[0]] - phases[upper[1]])
    np.exp(terms, out=terms)
    # the weights sum as complex numbers, as the terms do: a real sum of
    # the same weights can differ in the last bits
    total = trials if weights is None else weights.astype(complex).sum()
    if weights is not None:
        terms *= weights
    sums = np.diag(np.full(levels, total, dtype=complex))
    sums[upper] = terms.sum(axis=1)
    sums[upper[::-1]] = sums[upper].conj()
    return sums


def _mc_average(table: _PhaseTable, ensemble: PerturbationEnsemble,
                threads: int) -> tuple[np.ndarray, np.ndarray]:
    """Chunked Monte Carlo mean of exp(-i beta_mn) with standard errors.

    Each chunk regenerates its substream by advancing a fresh copy of the
    master Philox stream to the chunk's offset, so a chunk's output depends
    only on (seed, chunk index); chunks are then reduced in index order
    regardless of the executor, making the result byte-identical for any
    thread count.
    """
    trials = ensemble.trials
    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    sizes = [min(_CHUNK, trials - c * _CHUNK) for c in range(n_chunks)]

    def work(c):
        bits = np.random.Philox(key=ensemble.seed)
        bits.advance(c * _CHUNK)
        gen = np.random.Generator(bits)
        if ensemble.lam_samples is not None:
            samples = np.asarray(ensemble.lam_samples)
            lam = samples[gen.integers(0, len(samples), size=sizes[c])]
        else:
            lam = gen.uniform(ensemble.lam_low, ensemble.lam_high,
                              size=sizes[c])
        return _phase_sums(table(lam))

    if threads == 1:
        partials = [work(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(work, range(n_chunks)))

    total = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for sums in partials:
        total += sums
    mean = total / trials
    # the summands are unit-modulus, so the per-entry variance is exactly
    # 1 - |mean|^2
    var = np.maximum(1.0 - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / trials)
    return mean, stderr


def average_density(ensemble: PerturbationEnsemble,
                    k0: DensityMatrix | np.ndarray,
                    threads: int | None = None,
                    quad_nodes: int = 128) -> BornReport:
    """Ensemble-averaged density matrix in the endpoint eigenbasis.

    Off-diagonal entries of K0 (taken in the eigenbasis of H0) are
    multiplied by the quadrature estimate of <exp(-i beta_mn)>; diagonal
    entries pass through untouched.  The Monte Carlo estimate is computed
    alongside and must agree with quadrature within 5 standard errors
    (they are expected to agree within 3).
    """
    threads = (default_threads() if threads is None
               else _require_int(threads, "threads"))
    quad_nodes = _require_int(quad_nodes, "quad_nodes")
    k0 = k0 if isinstance(k0, DensityMatrix) else DensityMatrix(k0)
    h0 = ensemble.endpoint_hamiltonian()
    if h0.shape != k0.matrix.shape:
        raise ValidationError("state dimension must match the family")
    _, vecs = np.linalg.eigh(h0)
    k_eig = vecs.conj().T @ k0.matrix @ vecs

    lo, hi = ensemble._window()
    table = _PhaseTable(ensemble, lo, hi)

    # quadrature estimate of the phase average
    if ensemble.lam_samples is not None:
        quad = (_phase_sums(table(np.asarray(ensemble.lam_samples)))
                / len(ensemble.lam_samples))
    elif hi == lo:
        quad = _phase_sums(table(np.array([lo])))
    else:
        x, w = np.polynomial.legendre.leggauss(quad_nodes)
        lam = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        quad = _phase_sums(table(lam), 0.5 * w)

    mc, stderr = _mc_average(table, ensemble, threads)
    gap = np.abs(mc - quad)
    bound = 5.0 * stderr + 1e-9
    if bool((gap > bound).any()):
        worst = float((gap - bound).max())
        raise NumericalError(
            f"Monte Carlo and quadrature phase averages disagree "
            f"(excess {worst:.3e}); the parameter distribution may be "
            "undersampled")

    dim = ensemble.dim
    averaged_eig = k_eig * quad
    idx = np.arange(dim)
    averaged_eig[idx, idx] = k_eig[idx, idx]
    off = averaged_eig - np.diag(np.diag(averaged_eig))
    probabilities = np.real(np.diag(k_eig)).copy()
    averaged = vecs @ averaged_eig @ vecs.conj().T
    return BornReport(averaged=averaged, probabilities=probabilities,
                      offdiag_norm=float(np.linalg.norm(off)),
                      phase_quadrature=quad, phase_monte_carlo=mc,
                      mc_stderr=stderr, trials=ensemble.trials)


# ---------------------------------------------------------------------------
# time-average projectors and robust kernels


def robust_projector(generator: np.ndarray, t_max: float = 1e9,
                     agree_tol: float = 1e-6) -> np.ndarray:
    """Long-time average of exp(generator * t) as a projector onto ker.

    The generator must be diagonalizable with purely imaginary spectrum
    (a bounded group).  The average (1/T) integral_0^T e^{Lt} dt evaluates
    spectrally to f(z) = (e^z - 1)/z at z = lambda T; eigenvalues with
    |z| <= 0.01 count as kernel and are averaged to exactly 1, all others
    must satisfy |z| >= 2/agree_tol so the average has converged.  To
    detect slow convergence the result must agree with the average at
    t_max/2 within 10 agree_tol, and it is cross-checked against the
    rank-based spectral projector at agree_tol.  t_max and agree_tol are
    positive and finite.
    """
    _require_positive(t_max, "t_max")
    _require_positive(agree_tol, "agree_tol")
    g = np.asarray(generator, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValidationError("generator must be square")
    vals, vecs = np.linalg.eig(g)
    scale = max(float(np.abs(vals).max()), 1e-300)
    if float(np.abs(vals.real).max()) > 1e-10 * scale:
        raise NumericalError(
            "generator spectrum is not purely imaginary; the evolution "
            "is not a bounded group and the time average diverges")
    vinv = np.linalg.inv(vecs)

    def averaged(t):
        z = vals * t
        kernel = np.abs(z) <= 0.01
        zz = np.where(kernel, 1.0, z)
        f = np.where(kernel, 1.0, (np.exp(zz) - 1.0) / zz)
        return (vecs * f) @ vinv, kernel

    p, kernel = averaged(t_max)
    slow = ~kernel & (np.abs(vals) * t_max < 2.0 / agree_tol)
    if bool(slow.any()):
        worst = float(np.abs(vals[slow]).min())
        raise NumericalError(
            f"eigenvalue of magnitude {worst:.3e} converges too slowly "
            f"at t_max = {t_max:.1e}; increase t_max")
    if float(np.abs(averaged(0.5 * t_max)[0] - p).max()) > 10 * agree_tol:
        raise NumericalError(
            "time average has not settled between t_max/2 and t_max")
    spectral = (vecs * kernel.astype(float)) @ vinv
    if float(np.abs(p - spectral).max()) > agree_tol:
        raise NumericalError("time average disagrees with the spectral "
                             "projector")
    return p


def commutator_superoperator(h: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """Matrix of K -> -(i/hbar)[H, K] on row-major vectorized matrices."""
    h = _hermitian(h, "hamiltonian")
    eye = np.eye(h.shape[0])
    return (-1j / hbar) * (np.kron(h, eye) - np.kron(eye, h.T))


def robust_kernel(superoperators: Sequence[np.ndarray],
                  tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the common kernel of the given superoperators.

    Stacks the operators and reads the null space off the SVD; every
    returned vector is verified to be annihilated by each input within
    tol, which is the operational meaning of a mode that survives all
    sampled perturbations.
    """
    mats = [np.asarray(m, dtype=complex) for m in superoperators]
    if not mats:
        raise ValidationError("need at least one superoperator")
    d2 = mats[0].shape[1]
    for m in mats:
        if m.ndim != 2 or m.shape != (mats[0].shape[0], d2):
            raise ValidationError("superoperators must share a shape")
    stacked = np.vstack(mats)
    _, s, vh = np.linalg.svd(stacked)
    smax = s[0] if len(s) and s[0] > 0 else 1.0
    rank = int((s > tol * smax).sum())
    basis = vh[rank:].conj().T
    for m in mats:
        resid = float(np.abs(m @ basis).max()) if basis.size else 0.0
        if resid > tol * max(smax, 1.0):
            raise NumericalError("null-space candidate fails on a sampled "
                                 "perturbation")
    return basis
