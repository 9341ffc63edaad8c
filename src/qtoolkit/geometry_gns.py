"""State-space geometry of finite matrix algebras.

A state on the d x d matrix algebra is a density matrix rho acting as the
functional omega(A) = Tr(rho A).  The cyclic representation is built by
turning the algebra itself into a pre-inner-product space with
<A, B> = omega(B* A), factoring out the null space, and letting the
algebra act by left multiplication.  On matrix units the Gram matrix of
this form is kron(I, rho^T) (row-major vectorization), so the carrier
dimension is d * rank(rho) and the null-space quotient reduces to an
eigendecomposition with a scale-invariant threshold.  With the carrier
basis reshaped to blocks B_i = basis.reshape(d, d, r)[i], represent(E_ij)
is B_i^H B_j rescaled by the Gram weights; no kron(a, I) is formed.

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

from .errors import NumericalError, ValidationError
from .fock import DensityMatrix, _hermitian
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

    The carrier is spanned by the columns of `basis` (eigenvectors of the
    Gram form with eigenvalue above threshold), rescaled so its inner
    product is the standard one; `theta` is the class of the identity.
    represent(A) acts by left multiplication pushed to these coordinates.
    """

    dimension: int
    carrier_dim: int
    basis: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    homomorphism_defect: float
    involution_defect: float
    expectation_defect: float

    def carrier_vector(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dimension, self.dimension):
            raise ValidationError("element dimension mismatch")
        return np.sqrt(self.weights) * (self.basis.conj().T @ a.reshape(-1))

    def represent(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        d = self.dimension
        if a.shape != (d, d):
            raise ValidationError("element dimension mismatch")
        return self._carrier_matrix(
            (a @ self.basis.reshape(d, -1)).reshape(self.basis.shape))

    def _carrier_matrix(self, image: np.ndarray) -> np.ndarray:
        """Carrier matrix of a map on M_d from its image of the basis."""
        scale = np.sqrt(self.weights)
        return (scale[:, None] * (self.basis.conj().T @ image)) / scale[None, :]

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

    The Gram form on matrix units is assembled as kron(I, rho^T), its
    eigenvectors above rank_tol * (largest eigenvalue) span the carrier,
    and the left-multiplication action is verified to be a *-homomorphism
    on all matrix units before returning.

    `reps` holds every represent(E_ij) as block (i, j) of one (dr x dr)
    matrix.  As E_ij E_kl = delta_jk E_il, the products for all i, l at a
    fixed (j, k) are one product of block column j with block row k.
    """
    d = state.dimension
    if d > max_dimension:
        raise ValidationError(
            f"dimension {d} exceeds the configured bound {max_dimension}")
    if not 0 <= rank_tol < 1:  # the top weight must stay in the carrier
        raise ValidationError(f"rank_tol {rank_tol!r} must lie in [0, 1)")
    gram = np.kron(np.eye(d), state.rho.T)
    vals, vecs = np.linalg.eigh(gram)
    top = float(vals.max())
    if top <= 0:
        raise NumericalError("Gram form has no positive part")
    kept = vals > rank_tol * top
    weights = vals[kept]
    basis = vecs[:, kept]
    r = int(kept.sum())
    scale = np.sqrt(weights)
    theta = scale * (basis.conj().T @ np.eye(d, dtype=complex).reshape(-1))

    blocks = basis.reshape(d, d, r).transpose(1, 0, 2).reshape(d, d * r)
    s = np.tile(scale, d)
    reps = (s[:, None] * (blocks.conj().T @ blocks)) / s[None, :]

    hom = 0.0
    for j in range(d):
        column = np.ascontiguousarray(reps[:, j * r:(j + 1) * r])
        for k in range(d):
            prod = column @ reps[k * r:(k + 1) * r]
            if j == k:
                prod -= reps
            hom = max(hom, float(np.abs(prod).max()))
    inv = float(np.abs(reps - reps.conj().T).max())
    # <theta, represent(E_ij) theta> against omega(E_ij) = rho[j, i]
    moments = np.einsum("a,iajb,b->ij", theta.conj(),
                        reps.reshape(d, r, d, r), theta)
    expect = float(np.abs(moments - state.rho.T).max())
    if max(hom, inv) > 1e-8:
        raise NumericalError(
            f"representation defects {hom:.2e}/{inv:.2e} exceed 1e-8")
    return GnsResult(
        dimension=d, carrier_dim=r, basis=basis, weights=weights,
        theta=theta, homomorphism_defect=hom, involution_defect=inv,
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
    carrier = gns.basis.reshape(d, d, -1)  # [B] -> [hB - Bh] on each column
    image = (np.einsum("ik,kjr->ijr", h, carrier)
             - np.einsum("ikr,kj->ijr", carrier, h))
    mat = gns._carrier_matrix(image.reshape(gns.basis.shape))
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
    gens = []
    for c in generators:
        c = np.asarray(c, dtype=complex)
        if c.shape != (d, d):
            raise ValidationError("generator dimension mismatch")
        gens.append(c)

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
