"""State-space geometry of finite matrix algebras.

A state on the d x d matrix algebra is a density matrix rho acting as the
functional omega(A) = Tr(rho A).  The cyclic representation is built by
turning the algebra itself into a pre-inner-product space with
<A, B> = omega(A* B), factoring out the null space, and letting the
algebra act by left multiplication.  On matrix units the Gram matrix of
this form is kron(I, rho^T) (row-major vectorization), so the quotient is
C^d (x) range(rho^T), of dimension d * rank(rho), and one eigendecomposition
of the d x d matrix rho^T gives it.  There left multiplication by A is
kron(M, A), with M an r x r overlap that is the identity up to rounding.

The same finite-dimensional setting carries the moment map sending a unit
vector x to the functional C -> <x, C x>, whose image consists of the
rank-one density matrices; mixtures fill out the full state space (for
d = 2, the Bloch ball).  A subset of hermitian generators defines a
coarser equivalence of states by equality of moment values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (NumericalError, ValidationError, _hermitian,
                     _require_finite, _require_int)
from .fock import DensityMatrix
from .serialize import matrix_from_json, matrix_to_json

__all__ = [
    "AlgebraState",
    "GnsResult",
    "gns_construct",
    "InducedGenerator",
    "induced_hamiltonian",
    "MomentMapResult",
    "moment_map",
    "equivalence_quotient",
]

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class AlgebraState:
    """Normalized positive functional on a full matrix algebra."""

    rho: np.ndarray

    def __post_init__(self):
        checked = DensityMatrix(np.asarray(self.rho, dtype=complex))
        object.__setattr__(self, "rho", checked.matrix)

    @property
    def dimension(self) -> int:
        return self.rho.shape[0]

    def expectation(self, a: np.ndarray) -> complex:
        a = np.asarray(a, dtype=complex)
        if a.shape != self.rho.shape:
            raise ValidationError("observable dimension mismatch")
        return complex(np.trace(self.rho @ a))

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "rho": matrix_to_json(self.rho)}

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraState":
        return cls(rho=matrix_from_json(data["rho"]))


@dataclass(frozen=True)
class GnsResult:
    """Cyclic representation data for a state on M_d.

    The carrier is C^d (x) range(rho^T), of dimension d * rank(rho), indexed
    k-major by (k, i): eigenvector k of rho^T (the columns of `vectors`,
    eigenvalue `weights[k * d]`) and row i of the algebra element.  In
    these coordinates represent(A) = kron(overlap, A), where
    overlap = S V^H V S^-1 with V = vectors and S = diag(sqrt(eigenvalue)),
    the identity up to rounding; `theta` = (S V^H).reshape(-1) is the class
    of the identity.
    """

    dimension: int
    carrier_dim: int
    vectors: np.ndarray
    overlap: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    homomorphism_defect: float
    involution_defect: float
    expectation_defect: float

    def represent(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dimension, self.dimension):
            raise ValidationError("element dimension mismatch")
        return np.kron(self.overlap, a)

    def expectation(self, a: np.ndarray) -> complex:
        return complex(np.vdot(self.theta, self.represent(a) @ self.theta))

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "carrier_dim": self.carrier_dim,
            "gram_weights": [float(w) for w in self.weights],
            "homomorphism_defect": self.homomorphism_defect,
            "involution_defect": self.involution_defect,
            "expectation_defect": self.expectation_defect,
        }


def gns_construct(state: AlgebraState, max_dimension: int = 16,
                  rank_tol: float = 1e-10) -> GnsResult:
    """Cyclic representation of a state by null-space quotient.

    With <A, B> = omega(A^H B) and row-major vectorization, the Gram form
    on matrix units is kron(I, rho^T), so one eigendecomposition of rho^T
    gives it: eigenvalues above rank_tol * (largest eigenvalue) are kept,
    each repeated d times, and the carrier is C^d (x) range(rho^T)
    (Bratteli & Robinson, Operator Algebras and Quantum Statistical
    Mechanics 1, section 2.3.3).

    represent(E_ij) = kron(M, E_ij) with M the overlap, so
    represent(E_ij) represent(E_kl) - represent(E_ij E_kl) is
    delta_jk kron(M^2 - M, E_il) and represent(E_ij)^H - represent(E_ji)
    is kron(M^H - M, E_ji): the largest homomorphism and involution defects
    over all pairs of matrix units are max|M^2 - M| and max|M - M^H|.
    """
    d = state.dimension
    if d > _require_int(max_dimension, "max_dimension"):
        raise ValidationError(
            f"dimension {d} exceeds the configured bound {max_dimension}")
    if not 0 <= rank_tol < 1:  # the top weight must stay in the carrier
        raise ValidationError(f"rank_tol {rank_tol!r} must lie in [0, 1)")
    vals, vecs = np.linalg.eigh(state.rho.T)
    top = float(vals.max())
    if top <= 0:
        raise NumericalError("Gram form has no positive part")
    kept = vals > rank_tol * top
    lam = vals[kept]
    v = vecs[:, kept]
    scale = np.sqrt(lam)
    overlap = (scale[:, None] * (v.conj().T @ v)) / scale[None, :]
    factor = scale[:, None] * v.conj().T  # theta as an (r x d) matrix
    hom = float(np.abs(overlap @ overlap - overlap).max())
    inv = float(np.abs(overlap - overlap.conj().T).max())
    # <theta, represent(E_ij) theta> against omega(E_ij) = rho[j, i]
    moments = factor.conj().T @ overlap @ factor
    expect = float(np.abs(moments - state.rho.T).max())
    if max(hom, inv) > 1e-8:
        raise NumericalError(
            f"representation defects {hom:.2e}/{inv:.2e} exceed 1e-8")
    return GnsResult(
        dimension=d, carrier_dim=d * lam.size, vectors=v, overlap=overlap,
        weights=np.repeat(lam, d), theta=factor.reshape(-1),
        homomorphism_defect=hom, involution_defect=inv,
        expectation_defect=expect)


@dataclass(frozen=True)
class InducedGenerator:
    """Generator of the evolution a state's cyclic representation inherits.

    For a stationary state the map [B] -> [HB - BH] is well defined on
    the carrier and hermitian there; for an eigenprojector of H with
    eigenvalue E its spectrum is spec(H) - E, so the own energy of the
    state drops out and a ground state sits at zero.
    """

    gns: GnsResult
    energy: float
    matrix: np.ndarray
    spectrum: np.ndarray
    theta_defect: float


def induced_hamiltonian(state: AlgebraState, h: np.ndarray,
                        stationary_tol: float = 1e-10) -> InducedGenerator:
    h = _hermitian(h, "Hamiltonian")
    d = state.dimension
    if h.shape != (d, d):
        raise ValidationError("Hamiltonian dimension mismatch")
    scale = max(float(np.abs(h).max()), 1e-300)
    comm = h @ state.rho - state.rho @ h
    if float(np.abs(comm).max()) > stationary_tol * scale:
        raise ValidationError("state is not stationary under the Hamiltonian")

    gns = gns_construct(state)
    energy = float(state.expectation(h).real)
    # [B] -> [hB - Bh]: h acts on the C^d factor, -h^T on range(rho^T)
    root = np.sqrt(gns.weights[::d])
    v = gns.vectors
    right = (root[:, None] * (v.conj().T @ h.T @ v)) / root[None, :]
    mat = np.kron(gns.overlap, h) - np.kron(right, np.eye(d))
    herm_gap = float(np.abs(mat - mat.conj().T).max())
    if herm_gap > 1e-8 * max(1.0, float(np.abs(mat).max())):
        raise NumericalError("induced generator failed to be hermitian")
    mat = 0.5 * (mat + mat.conj().T)
    spectrum = np.linalg.eigvalsh(mat)
    theta_defect = float(np.linalg.norm(mat @ gns.theta))
    return InducedGenerator(gns=gns, energy=energy, matrix=mat,
                            spectrum=spectrum, theta_defect=theta_defect)


@dataclass(frozen=True)
class MomentMapResult:
    """Moment values of a unit vector against hermitian generators."""

    values: np.ndarray
    density: np.ndarray
    bloch: np.ndarray | None


def moment_map(x: Sequence[complex],
               generators: Sequence[np.ndarray]) -> MomentMapResult:
    """mu_x(C) = <x, C x>, realized by the rank-one density |x><x|.

    Generators must be hermitian; the moment values are then real.  For
    two-dimensional x the Bloch vector of the image density is attached
    (unit norm: images of unit vectors are the extreme states).
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("x must be a nonzero vector")
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ValidationError("x must be a nonzero vector")
    if abs(norm - 1.0) > 1e-12:
        raise ValidationError("x must be normalized")
    d = x.size
    values = []
    for c in generators:
        c = _hermitian(c, "generator")
        if c.shape != (d, d):
            raise ValidationError("generator dimension mismatch")
        values.append(float(np.vdot(x, c @ x).real))
    density = np.outer(x, x.conj())
    bloch = None
    if d == 2:
        bloch = np.array([float(np.trace(density @ s).real)
                          for s in _PAULIS])
    return MomentMapResult(values=np.array(values), density=density,
                           bloch=bloch)


def _span_projector(generators: Sequence[np.ndarray]) -> np.ndarray:
    columns = np.stack([np.asarray(c, dtype=complex).reshape(-1)
                        for c in generators], axis=1)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0]))
    return u[:, :rank]


def equivalence_quotient(rho_a: np.ndarray, rho_b: np.ndarray,
                         generators: Sequence[np.ndarray],
                         tol: float = 1e-10) -> bool:
    """Whether two states agree on every generator's expectation.

    The generator span is also checked for closure under i[.,.]; failure
    only warns, since equality of moment values is meaningful for any
    subset, but the orbit interpretation needs a Lie-closed family.
    """
    rho_a = DensityMatrix(np.asarray(rho_a, dtype=complex)).matrix
    rho_b = DensityMatrix(np.asarray(rho_b, dtype=complex)).matrix
    if rho_a.shape != rho_b.shape:
        raise ValidationError("states must share a dimension")
    if not generators:
        raise ValidationError("need at least one generator")
    d = rho_a.shape[0]
    gens = [_require_finite(c, "generator", (d, d)) for c in generators]

    q = _span_projector(gens)
    worst = 0.0
    for a in gens:
        for b in gens:
            comm = 1j * (a @ b - b @ a)
            v = comm.reshape(-1)
            resid = v - q @ (q.conj().T @ v)
            scale = max(1.0, float(np.linalg.norm(v)))
            worst = max(worst, float(np.linalg.norm(resid)) / scale)
    if worst > 1e-10:
        warnings.warn(
            f"generator set is not Lie-closed (residual {worst:.2e}); "
            "moment equality no longer labels a group orbit",
            stacklevel=2)

    gap = max(abs(np.trace((rho_a - rho_b) @ c)) for c in gens)
    return bool(gap <= tol)
