"""Cyclic representations, induced generators, and the moment map."""

import numpy as np
import pytest

from conftest import random_density, random_hermitian
from qtoolkit.errors import ValidationError
from qtoolkit.fock import DensityMatrix
from qtoolkit.geometry_gns import (AlgebraState, GnsResult, InducedGenerator,
                                   MomentMapResult, equivalence_quotient,
                                   gns_construct, induced_hamiltonian,
                                   moment_map)

from oracles import factored_basis, gns_kron, induced_matrix_kron

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestAlgebraState:
    def test_positivity_of_squares(self, rng):
        state = AlgebraState(random_density(rng, 4))
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            val = state.expectation(a.conj().T @ a)
            assert val.real >= -1e-12
            assert abs(val.imag) <= 1e-12
        assert state.expectation(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_states(self):
        with pytest.raises(ValidationError):
            AlgebraState(np.array([[0.7, 0.5], [0.0, 0.3]]))
        with pytest.raises(ValidationError):
            AlgebraState(np.diag([0.8, 0.8]))

    def test_json_roundtrip(self, rng):
        state = AlgebraState(random_density(rng, 3))
        back = AlgebraState.from_json(state.to_json())
        assert np.abs(back.rho - state.rho).max() <= 1e-15


class TestGnsConstruct:
    def test_pure_state_carrier_is_the_defining_space(self):
        state = AlgebraState(np.diag([1.0, 0.0]).astype(complex))
        res = gns_construct(state)
        assert res.carrier_dim == 2
        # left multiplication acts irreducibly: all four units land on
        # linearly independent operators of a 2x2 algebra
        reps = np.stack([res.represent(m).reshape(-1)
                         for m in (ID2, SX, SY, SZ)])
        assert np.linalg.matrix_rank(reps) == 4

    def test_faithful_state_has_full_carrier(self):
        for d in (2, 3):
            res = gns_construct(AlgebraState(np.eye(d) / d))
            assert res.carrier_dim == d * d

    def test_rank_formula_on_degenerate_states(self, rng):
        v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        rho = v @ v.conj().T
        rho /= np.trace(rho).real
        res = gns_construct(AlgebraState(rho))
        assert res.carrier_dim == 4 * 2

    def test_expectation_reproduced(self, rng):
        state = AlgebraState(random_density(rng, 3))
        res = gns_construct(state)
        for _ in range(50):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            gap = abs(res.expectation(a) - state.expectation(a))
            assert gap <= 1e-12

    def test_cyclicity_and_defects(self, rng):
        state = AlgebraState(random_density(rng, 3))
        res = gns_construct(state)
        span = np.stack([
            res.represent(e) @ res.theta
            for e in np.eye(9).reshape(9, 3, 3).astype(complex)])
        assert np.linalg.matrix_rank(span) == res.carrier_dim
        assert res.homomorphism_defect <= 1e-12
        assert res.involution_defect <= 1e-12
        assert res.expectation_defect <= 1e-12
        assert res.weights.min() > 1e-10 * res.weights.max()

    @pytest.mark.parametrize("d", [12, 16])
    @pytest.mark.parametrize("kind", ["faithful", "deficient"])
    def test_sizes_up_to_the_default_bound(self, d, kind):
        rng = np.random.default_rng(d + len(kind))
        h = random_hermitian(rng, d)
        energies, vecs = np.linalg.eigh(h)
        w = rng.uniform(0.5, 1.5, size=d)
        if kind == "deficient":
            w[rng.permutation(d)[:d // 3]] = 0.0
        rho = (vecs * (w / w.sum())) @ vecs.conj().T
        state = AlgebraState(0.5 * (rho + rho.conj().T))

        out = induced_hamiltonian(state, h)
        res = out.gns
        kept = w > 0
        assert res.carrier_dim == d * int(kept.sum())
        assert max(res.homomorphism_defect, res.involution_defect,
                   res.expectation_defect) <= 1e-12
        for _ in range(20):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert abs(res.expectation(a) - state.expectation(a)) <= 1e-12
        # on C^d (x) range(rho^T) the generator is h (x) 1 - 1 (x) h^T
        expected = np.sort(np.subtract.outer(energies,
                                             energies[kept]).ravel())
        assert np.abs(out.spectrum - expected).max() \
            <= 1e-12 * max(1.0, float(np.abs(energies).max()))
        assert out.theta_defect <= 1e-12 * max(1.0, float(np.abs(h).max()))

    def test_dimension_bound(self, rng):
        state = AlgebraState(random_density(rng, 3))
        with pytest.raises(ValidationError):
            gns_construct(state, max_dimension=2)

    def test_summary_json(self, rng):
        res = gns_construct(AlgebraState(random_density(rng, 2)))
        data = res.to_json()
        assert data["carrier_dim"] == res.carrier_dim
        assert len(data["gram_weights"]) == res.carrier_dim


class TestBlockFormMatchesKronRoute:
    """The factored carrier C^d (x) range(rho^T) against the eigenbasis of
    the d^2 x d^2 Gram matrix with basis^H kron(a, 1) basis, on Gibbs
    states of a random Hamiltonian: faithful, rank-deficient and pure.
    Each kept weight is d-fold degenerate, so the two bases agree only up
    to the unitary U = B_kron^H B_factored, and carrier vectors and
    matrices are compared after rotating by it.  Entries of a represented
    matrix reach sqrt(w_max / w_min) of the Gram weights, which sets the
    scale of their rounding."""

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("kind", ["faithful", "deficient", "pure"])
    def test_defects_representatives_and_generator(self, d, kind):
        rng = np.random.default_rng(10 * d + len(kind))
        h = random_hermitian(rng, d)
        energies, vecs = np.linalg.eigh(h)
        w = np.exp(-(energies - energies[0]))
        if kind == "deficient":
            w[d // 2 + 1:] = 0.0
        elif kind == "pure":
            w[1:] = 0.0
        rho = (vecs * (w / w.sum())) @ vecs.conj().T
        state = AlgebraState(0.5 * (rho + rho.conj().T))

        out = induced_hamiltonian(state, h)
        res = out.gns
        basis, weights, theta, represent, hom, inv, expect = gns_kron(state)
        assert np.abs(res.weights - weights).max() <= 1e-14 * weights.max()
        tol = 1e-12 * float(np.sqrt(weights.max() / weights.min()))
        u = basis.conj().T @ factored_basis(res)
        assert np.abs(u.conj().T @ u - np.eye(res.carrier_dim)).max() \
            <= 1e-12
        assert np.abs(u @ res.theta - theta).max() <= tol
        assert abs(res.homomorphism_defect - hom) <= tol
        assert abs(res.involution_defect - inv) <= tol
        assert abs(res.expectation_defect - expect) <= tol
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.abs(u @ res.represent(a) @ u.conj().T - represent(a)).max() \
            <= tol * np.abs(a).max()
        ref = induced_matrix_kron(res, h)
        assert np.abs(out.matrix - 0.5 * (ref + ref.conj().T)).max() \
            <= tol * max(1.0, float(np.abs(h).max()))


class TestInducedHamiltonian:
    def test_spectrum_shifts_by_the_own_energy(self):
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        state = AlgebraState(np.diag([0.0, 1.0, 0.0]).astype(complex))
        out = induced_hamiltonian(state, h)
        assert out.energy == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.sort(out.spectrum), [-1.0, 0.0, 2.0],
                           atol=1e-12)
        assert out.theta_defect <= 1e-12

    def test_ground_state_spectrum_is_nonnegative(self):
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        state = AlgebraState(np.diag([1.0, 0.0, 0.0]).astype(complex))
        out = induced_hamiltonian(state, h)
        assert out.spectrum.min() >= -1e-12
        assert np.allclose(np.sort(out.spectrum), [0.0, 1.0, 3.0],
                           atol=1e-12)

    def test_degenerate_eigenprojector(self):
        h = np.diag([1.0, 1.0, 2.0]).astype(complex)
        state = AlgebraState(np.diag([0.5, 0.5, 0.0]).astype(complex))
        out = induced_hamiltonian(state, h)
        assert out.gns.carrier_dim == 6
        counts = {0.0: 0, 1.0: 0}
        for val in out.spectrum:
            counts[round(float(val), 9)] += 1
        assert counts == {0.0: 4, 1.0: 2}

    def test_rejects_non_stationary_states(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(ValidationError):
            induced_hamiltonian(AlgebraState(plus), SZ)
        with pytest.raises(ValidationError):
            induced_hamiltonian(AlgebraState(np.eye(2) / 2), SX + 1j * ID2)


class TestMomentMap:
    def test_basis_vector_image(self):
        out = moment_map([1.0, 0.0], [SZ])
        assert np.allclose(out.density, np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(out.bloch, [0.0, 0.0, 1.0], atol=1e-15)
        assert out.values[0] == pytest.approx(1.0, abs=1e-15)

    def test_extreme_points_have_unit_bloch_norm(self, rng):
        for _ in range(20):
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            x /= np.linalg.norm(x)
            out = moment_map(x, [SX, SY, SZ])
            assert np.linalg.norm(out.bloch) == pytest.approx(1.0,
                                                              abs=1e-12)

    def test_equivariance_under_unitaries(self, rng):
        for _ in range(20):
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            x /= np.linalg.norm(x)
            u = random_unitary(rng, 3)
            direct = moment_map(u @ x, []).density
            conjugated = u @ moment_map(x, []).density @ u.conj().T
            assert np.abs(direct - conjugated).max() <= 1e-12

    def test_mixtures_fill_the_state_space(self, rng):
        images = []
        for _ in range(100):
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            x /= np.linalg.norm(x)
            images.append(moment_map(x, []).density)
        weights = rng.dirichlet(np.ones(100))
        mixture = sum(w * k for w, k in zip(weights, images))
        DensityMatrix(mixture)  # validates hermitian, positive, trace one
        bloch = np.array([np.trace(mixture @ s).real for s in (SX, SY, SZ)])
        assert np.linalg.norm(bloch) < 1.0

    def test_every_bloch_point_is_a_mixture_of_two_images(self, rng):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        rho = 0.5 * (ID2 + v[0] * SX + v[1] * SY + v[2] * SZ)
        vals, vecs = np.linalg.eigh(rho)
        rebuilt = sum(
            lam * moment_map(vecs[:, i], []).density
            for i, lam in enumerate(vals))
        assert np.abs(rebuilt - rho).max() <= 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            moment_map([0.0, 0.0], [SZ])
        with pytest.raises(ValidationError):
            moment_map([1.0, 1.0], [SZ])
        with pytest.raises(ValidationError):
            moment_map([1.0, 0.0], [1j * SX])
        with pytest.raises(ValidationError):
            moment_map([1.0, 0.0], [np.eye(3)])


class TestEquivalenceQuotient:
    def test_full_basis_separates_states(self, rng):
        gens = [ID2, SX, SY, SZ]
        rho = random_density(rng, 2)
        assert equivalence_quotient(rho, rho.copy(), gens)
        other = random_density(rng, 2)
        assert not equivalence_quotient(rho, other, gens)

    def test_diagonal_subset_ignores_coherences(self):
        gens = [ID2, SZ]
        rho_a = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        rho_b = np.diag([0.7, 0.3]).astype(complex)
        assert equivalence_quotient(rho_a, rho_b, gens)

    def test_non_lie_closed_subset_warns(self, rng):
        rho = random_density(rng, 2)
        with pytest.warns(UserWarning):
            result = equivalence_quotient(rho, rho, [SX, SY])
        assert result is True

    def test_moment_values_separate_orbit_points(self, rng):
        u = random_unitary(rng, 3)
        p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        p2 = u @ p1 @ u.conj().T
        gens = [random_hermitian(rng, 3) for _ in range(9)]
        gens.append(np.eye(3, dtype=complex))
        if np.abs(p1 - p2).max() > 1e-6:
            assert not equivalence_quotient(p1, p2, gens, tol=1e-10)
        assert equivalence_quotient(p2, p2, gens, tol=1e-10)

    def test_validation(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(ValidationError):
            equivalence_quotient(rho, rho, [])
        with pytest.raises(ValidationError):
            equivalence_quotient(rho, random_density(rng, 3), [SZ])
        with pytest.raises(ValidationError):
            equivalence_quotient(rho, rho, [np.eye(3)])
