import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtoolkit import fock
from qtoolkit.errors import NumericalError, ValidationError
from qtoolkit.fock import (
    DensityMatrix,
    FockSpec,
    FockVector,
    annihilation_matrix,
    car_defect,
    ccr_defect,
    creation_matrix,
    norm_divergence_demo,
    number_operator,
    poisson_eigen_defect,
    poisson_overlap,
    poisson_vector,
    quadratic_hamiltonian,
    quadratic_hamiltonian_diagonal,
)
from qtoolkit.lfunctional import from_density
from qtoolkit.weyl_clifford import poly, represent

from conftest import random_density
from oracles import (_key_to_word, car_defect_dense, ccr_defect_dense,
                     ladder_word_loop, poisson_eigen_defect_dense,
                     quadratic_hamiltonian_chain, represent_chain)


def _bose_specs():
    for hbar in (0.5, 0.3):
        for modes in (1, 2, 3):
            for cutoffs in itertools.product(range(2, 6), repeat=modes):
                yield FockSpec.bose(cutoffs, hbar=hbar)


class TestBasisOrder:
    def test_colexicographic_mode_one_fastest(self):
        spec = FockSpec.bose([2, 1])
        occ = [tuple(row) for row in spec.occupations]
        assert occ == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]

    def test_index_round_trip(self):
        spec = FockSpec.bose([3, 2, 4])
        for i in range(spec.dim):
            assert spec.index_of(spec.occupations[i]) == i

    def test_dimensions(self):
        assert FockSpec.bose([2, 3]).dim == 12
        assert FockSpec.fermi(5).dim == 32

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        with pytest.raises(ValidationError, match="positive and finite"):
            FockSpec.bose([2], hbar=hbar)
        with pytest.raises(ValidationError, match="positive and finite"):
            FockSpec.fermi(2, hbar=hbar)


class TestLadders:
    def test_single_mode_creation_matrix_frozen(self):
        # c = 2: a^+ = [[0,0,0],[1,0,0],[0,sqrt2,0]]
        spec = FockSpec.bose([2])
        a_dag = creation_matrix(spec, 1)
        expected = np.array(
            [[0, 0, 0], [1, 0, 0], [0, math.sqrt(2), 0]], dtype=complex
        )
        assert np.array_equal(a_dag, expected)

    def test_hbar_scaling(self):
        spec = FockSpec.bose([2], hbar=0.25)
        a_dag = creation_matrix(spec, 1)
        assert a_dag[1, 0] == 0.5

    def test_fermionic_creation_and_pauli(self):
        spec = FockSpec.fermi(1)
        a_dag = creation_matrix(spec, 1)
        assert np.array_equal(a_dag, np.array([[0, 0], [1, 0]], dtype=complex))
        assert np.array_equal(a_dag @ a_dag, np.zeros((2, 2)))

    def test_jordan_wigner_sign(self):
        spec = FockSpec.fermi(2)
        a2_dag = creation_matrix(spec, 2)
        # |n1=1, n2=0> -> sign (-1)^{n1} = -1
        i_src = spec.index_of((1, 0))
        i_dst = spec.index_of((1, 1))
        assert a2_dag[i_dst, i_src] == -1.0

    def test_vacuum_annihilated(self):
        for spec in (FockSpec.bose([3, 2]), FockSpec.fermi(3)):
            vac = np.zeros(spec.dim)
            vac[0] = 1.0
            for k in range(1, spec.modes + 1):
                assert np.all(annihilation_matrix(spec, k) @ vac == 0)

    def test_mode_out_of_range(self):
        spec = FockSpec.bose([2])
        with pytest.raises(ValidationError):
            creation_matrix(spec, 2)


class TestCommutationRelations:
    def test_ccr_safe_and_top_defect(self):
        spec = FockSpec.bose([5])
        d = ccr_defect(spec)
        # sqrt(n)^2 re-rounds, so "exact" means one ulp here, far below 1e-12
        assert d.safe <= 1e-12
        # unrestricted defect localizes at the cutoff with value hbar*(c+1)
        assert d.unrestricted == pytest.approx(6.0, abs=1e-12)

    def test_ccr_hbar(self):
        spec = FockSpec.bose([4, 3], hbar=0.5)
        d = ccr_defect(spec)
        assert d.safe <= 1e-12
        assert d.unrestricted == pytest.approx(0.5 * 5, abs=1e-12)

    def test_car_exact_everywhere(self):
        d = car_defect(FockSpec.fermi(2))
        assert d.safe == 0.0
        assert d.unrestricted == 0.0

    @given(
        cutoffs=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)
    )
    @settings(max_examples=25, deadline=None)
    def test_ccr_safe_subspace_property(self, cutoffs):
        d = ccr_defect(FockSpec.bose(cutoffs))
        assert d.safe <= 1e-12

    @given(modes=st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_car_property(self, modes):
        d = car_defect(FockSpec.fermi(modes))
        assert d.unrestricted == 0.0


class TestLadderWordMatchesMatrixChains:
    """The ladder-word kernel against the dense matrix-chain route: the
    words multiply their factors in the chain's association, so every
    entry and every defect is equal bit for bit."""

    def test_bose_defects_and_hamiltonian(self):
        for spec in _bose_specs():
            assert ccr_defect(spec) == ccr_defect_dense(spec), spec
            eps = np.linspace(0.3, 1.7, spec.modes)
            assert np.array_equal(quadratic_hamiltonian(spec, eps),
                                  quadratic_hamiltonian_chain(spec, eps)), spec

    @pytest.mark.parametrize("modes", range(1, 7))
    def test_fermi_defects_and_hamiltonian(self, modes):
        spec = FockSpec.fermi(modes)
        assert car_defect(spec) == car_defect_dense(spec)
        eps = np.linspace(-0.7, 1.9, modes)
        assert np.array_equal(quadratic_hamiltonian(spec, eps),
                              quadratic_hamiltonian_chain(spec, eps))


def _random_stack(rng, spec, words, length):
    creation = rng.integers(0, 2, size=(words, length)).astype(bool)
    modes = rng.integers(0, spec.modes, size=(words, length))
    return creation, modes


def _assert_bit_equal(got, want):
    assert got[0].shape == want[0].shape
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


class TestLadderWordStack:
    """The stack kernel against the word-by-word loop, bit for bit."""

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.5])
    def test_bose_stacks(self, hbar):
        rng = np.random.default_rng(int(10 * hbar))
        zeros = 0
        for cutoffs in [(1,), (2,), (3,), (4,), (5,), (1, 4), (5, 2),
                        (3, 1, 2)]:
            spec = FockSpec.bose(cutoffs, hbar=hbar)
            tables = fock._letter_tables(spec)
            for length in range(9):
                creation, modes = _random_stack(rng, spec, 25, length)
                got = fock._ladder_words(tables, creation, modes)
                _assert_bit_equal(got, ladder_word_loop(spec, creation, modes))
                zeros += np.count_nonzero(got[1] == 0.0)
        assert zeros > 0  # words that pass a cutoff or hit the vacuum

    @pytest.mark.parametrize("modes", range(1, 8))
    def test_fermi_stacks(self, modes):
        rng = np.random.default_rng(modes)
        spec = FockSpec.fermi(modes)
        tables = fock._letter_tables(spec)
        for length in range(9):
            creation, word_modes = _random_stack(rng, spec, 25, length)
            got = fock._ladder_words(tables, creation, word_modes)
            _assert_bit_equal(got,
                              ladder_word_loop(spec, creation, word_modes))
        # Pauli exclusion zeroes a^+_k a^+_k on every column
        assert not np.any(fock._ladder_words(tables, [True, True], [0, 0])[1])

    def test_stack_of_several_blocks(self):
        rng = np.random.default_rng(3)
        spec = FockSpec.bose((5, 4, 5), hbar=0.7)
        exponents = rng.integers(0, 3, size=(1500, 2 * spec.modes))
        assert len(fock._blocks(len(exponents), spec.dim)) > 3
        rows, weights = map(np.concatenate, zip(*(
            (r, w) for _, r, w in fock._monomials(spec, exponents))))
        words = [_key_to_word("bose", spec.modes,
                              (tuple(e[:spec.modes]), tuple(e[spec.modes:])))
                 for e in exponents.tolist()]
        want_rows, want_weights = [], []
        for word in words:
            r, w = ladder_word_loop(spec, [[c for c, _ in word]],
                                    [[k for _, k in word]])
            want_rows.append(r)
            want_weights.append(w)
        _assert_bit_equal((rows, weights), (np.concatenate(want_rows),
                                            np.concatenate(want_weights)))

    def test_callers_match_chains_across_small_blocks(self, monkeypatch):
        rng = np.random.default_rng(8)
        spec = FockSpec.bose((4, 4), hbar=0.6)
        rho = random_density(rng, spec.dim)
        whole = from_density(rho, spec, degree=4).correlations
        # a cap of a few entries splits every stack into many blocks
        monkeypatch.setattr(fock, "_WORD_BLOCK", 40)
        got = from_density(rho, spec, degree=4).correlations
        assert list(got) == list(whole)
        assert np.array(list(got.values())).tobytes() \
            == np.array(list(whole.values())).tobytes()
        for spec in (FockSpec.bose((3, 2, 2), hbar=0.3),
                     FockSpec.bose((1,) * 4, hbar=2.5)):
            assert ccr_defect(spec) == ccr_defect_dense(spec)
            eps = np.linspace(0.3, 1.7, spec.modes)
            assert np.array_equal(quadratic_hamiltonian(spec, eps),
                                  quadratic_hamiltonian_chain(spec, eps))
        p = poly("bose", 3, {((1, 0, 2), (0, 1, 0)): 0.5 - 1j,
                             ((0, 0, 0), (0, 0, 0)): 2.0,
                             ((0, 1, 0), (1, 0, 1)): -0.25j}, hbar=0.3)
        spec = FockSpec.bose((3, 2, 3), hbar=0.3)
        assert np.array_equal(represent(p, spec), represent_chain(p, spec))
        for modes in (3, 5):
            spec = FockSpec.fermi(modes)
            assert car_defect(spec) == car_defect_dense(spec)
            p = poly("fermi", modes, {(3, 1): 1.5, (0, 0): -1j, (5, 6): 0.25})
            assert np.array_equal(represent(p, spec), represent_chain(p, spec))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_defect_memory_is_bounded_by_the_block_cap():
    # one block of words is a few (words x dim) arrays of _WORD_BLOCK
    # entries; the letter tables and occupations add O(modes dim)
    def bound(spec):
        return 8 * (12 * fock._WORD_BLOCK + 8 * spec.modes * spec.dim)

    cases = [(car_defect, FockSpec.fermi(12)),
             (ccr_defect, FockSpec.bose((10, 10, 10))),
             (ccr_defect, FockSpec.bose((1,) * 12))]
    for defect, spec in cases:
        peak = _traced_peak(lambda: defect(spec))
        # all 144 mode pairs of the 12-mode specs at once would take
        # 144 x 4 x 4096 (car) or 144 x 2 x 4096 (ccr) entries per array
        assert peak <= bound(spec), (spec, peak, bound(spec))


class TestNumberAndHamiltonian:
    def test_number_operator_integer_spectrum(self):
        spec = FockSpec.bose([3, 2], hbar=0.7)
        n_direct = number_operator(spec)
        n_ladder = sum(
            creation_matrix(spec, k) @ annihilation_matrix(spec, k)
            for k in range(1, spec.modes + 1)
        ) / spec.hbar
        assert np.allclose(n_ladder, n_direct, atol=1e-13)

    def test_occupation_eigenvalue_example(self):
        # eps = (1, 3), |n1=2, n2=1> has energy 5
        spec = FockSpec.bose([3, 2])
        h = quadratic_hamiltonian_diagonal(spec, [1.0, 3.0])
        i = spec.index_of((2, 1))
        assert h[i, i] == 5.0

    def test_ladder_route_matches_diagonal_route(self):
        spec = FockSpec.bose([3, 2, 2])
        eps = [1.0, 3.0, 2.0]
        h1 = quadratic_hamiltonian(spec, eps)
        h2 = quadratic_hamiltonian_diagonal(spec, eps)
        assert np.allclose(h1, h2, atol=1e-12)

    @pytest.mark.parametrize("build, eps, hbar", [
        (quadratic_hamiltonian, [5e307, 5e307], 1.0),
        (quadratic_hamiltonian_diagonal, [5e307, 5e307], 1.0),
        (quadratic_hamiltonian_diagonal, [-1e308, -1e308], 1.0),
        # the ladder route scales eps by 1 / hbar
        (quadratic_hamiltonian, [1e300, 0.0], 1e-10)])
    def test_energy_past_double_range_raises(self, build, eps, hbar):
        spec = FockSpec.bose([3, 3], hbar=hbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="double range"):
                build(spec, eps)

    def test_hbar_times_cutoff_past_double_range_raises(self):
        spec = FockSpec.bose([3], hbar=5e307)
        with pytest.raises(NumericalError, match="double range"):
            creation_matrix(spec, 1)
        assert np.isfinite(creation_matrix(FockSpec.bose([3], hbar=4e307),
                                           1)).all()

    def test_fermi_two_mode_spectrum(self):
        spec = FockSpec.fermi(2)
        h = quadratic_hamiltonian_diagonal(spec, [1.0, 2.0])
        assert sorted(np.diag(h).real) == [0.0, 1.0, 2.0, 3.0]

    def test_creation_raises_number_by_one(self):
        spec = FockSpec.bose([4, 4])
        n_op = number_operator(spec)
        for k in (1, 2):
            a_dag = creation_matrix(spec, k)
            comm = n_op @ a_dag - a_dag @ n_op
            safe = spec.safe_indices(margin=1)
            assert np.allclose(
                comm[:, safe], a_dag[:, safe], atol=1e-13
            )


class TestPoissonVectors:
    def test_zero_drift_gives_vacuum(self):
        spec = FockSpec.bose([4])
        theta = poisson_vector(spec, [0.0])
        vac = np.zeros(spec.dim, dtype=complex)
        vac[0] = 1.0
        assert np.array_equal(theta.amplitudes, vac)

    def test_overlap_matches_exponential(self):
        spec = FockSpec.bose([40])
        for lam, mu in [(2.0, 2.0), (1.5 + 0.5j, -0.7 + 1.2j), (2j, -2j)]:
            t1 = poisson_vector(spec, [lam])
            t2 = poisson_vector(spec, [mu])
            got = t1.inner(t2)
            want = poisson_overlap(spec, [lam], [mu])
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_overlap_hbar(self):
        spec = FockSpec.bose([60], hbar=0.5)
        t1 = poisson_vector(spec, [0.8])
        t2 = poisson_vector(spec, [0.5 + 0.3j])
        want = np.exp(0.8 * np.conj(0.5 + 0.3j) / 0.5)
        assert abs(t1.inner(t2) - want) <= 1e-12 * abs(want)

    def test_eigen_defect_matches_analytic_tail(self):
        spec = FockSpec.bose([12])
        lam = 1.3 - 0.4j
        rep = poisson_eigen_defect(spec, [lam], 1)
        c = 12
        analytic = abs(lam) ** (c + 1) / math.sqrt(math.factorial(c))
        assert rep.tail_bound == pytest.approx(analytic, rel=1e-13)
        assert rep.defect <= rep.tail_bound * (1 + 1e-10)
        assert rep.defect == pytest.approx(rep.tail_bound, rel=1e-9)

    def test_eigen_defect_multimode(self):
        spec = FockSpec.bose([6, 8])
        f = [0.9, 1.1j]
        for k in (1, 2):
            rep = poisson_eigen_defect(spec, f, k)
            assert rep.defect <= rep.tail_bound * (1 + 1e-10)

    @pytest.mark.parametrize("hbar", [1.0, 0.3, 2.5])
    @pytest.mark.parametrize("cutoffs, f", [
        ((200,), [30.0]), ((900,), [30.0]), ((2047,), [0.5]),
        ((44, 45), [1.3 - 0.4j, 2.0j]),
        ((10, 12, 3), [0.9, 1.1j, -0.7 + 0.2j]),
    ])
    def test_eigen_defect_equals_dense_annihilator(self, cutoffs, f, hbar):
        # a_k applied as one ladder word gives the bits of the dense
        # a_k @ Theta_f, or the same NumericalError past double range
        def outcome(defect, k):
            try:
                return defect(FockSpec.bose(cutoffs, hbar=hbar), f, k)
            except NumericalError as exc:
                return str(exc)

        for k in range(1, len(cutoffs) + 1):
            assert (outcome(poisson_eigen_defect, k)
                    == outcome(poisson_eigen_defect_dense, k))

    def test_eigen_defect_memory_is_linear_in_dim(self):
        # a dense a_k at dimension 2,048 alone takes 64 MiB
        spec = FockSpec.bose([2047])
        assert _traced_peak(
            lambda: poisson_eigen_defect(spec, [0.5], 1)) <= 4 << 20

    def test_eigenvector_property_on_safe_subspace(self):
        spec = FockSpec.bose([10])
        lam = 0.6 + 0.2j
        theta = poisson_vector(spec, [lam])
        a = annihilation_matrix(spec, 1)
        resid = a @ theta.amplitudes - lam * theta.amplitudes
        # the residual is supported on the top level up to rounding
        assert np.all(np.abs(resid[:-1]) <= 1e-14)
        assert abs(resid[-1]) > 0

    def test_large_drift_matches_log_space_amplitudes(self):
        # f^n / sqrt(n!) peaks near 1e108 here; n! itself exceeds double
        # range from n = 171 on.
        lam = 18.0 + 24.0j
        theta = poisson_vector(FockSpec.bose([200]), [lam])
        n = np.arange(201)
        log_mag = np.array([k * math.log(abs(lam)) - 0.5 * math.lgamma(k + 1)
                            for k in n])
        want = np.exp(log_mag + 1j * n * np.angle(lam))
        assert np.all(np.abs(theta.amplitudes - want) <= 1e-12 * np.abs(want))

    def test_amplitudes_beyond_double_range_raise(self):
        with pytest.raises(NumericalError):
            poisson_vector(FockSpec.bose([5]), [1e100])

    def test_fermionic_rejected(self):
        with pytest.raises(ValidationError):
            poisson_vector(FockSpec.fermi(2), [0.1, 0.2])
        with pytest.raises(ValidationError, match="bosonic"):
            poisson_overlap(FockSpec.fermi(2), [1, 2], [1, 2])

    def test_norm_divergence_rows(self):
        f = [1.0] * 8
        rows = norm_divergence_demo(f, [1, 2, 4, 8])
        assert [r["norm_sq"] for r in rows] == pytest.approx(
            [math.e, math.e ** 2, math.e ** 4, math.e ** 8]
        )

    def test_overlap_requires_one_entry_per_mode(self):
        spec = FockSpec.bose([4, 4, 4])
        for f, g in (([0.5], [0.1, 0.2, 0.3]), ([0.1, 0.2, 0.3], [0.5]),
                     ([0.1, 0.2], [0.1, 0.2]), ([[0.1, 0.2, 0.3]], [0.1] * 3)):
            with pytest.raises(ValidationError, match="mode count"):
                poisson_overlap(spec, f, g)

    def test_overlap_beyond_double_range_raises(self):
        spec = FockSpec.bose([4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                poisson_overlap(spec, [30.0], [30.0 + 1j])
            with pytest.raises(NumericalError):
                poisson_overlap(spec, [1e200], [1e200])
            # still finite just below the exp overflow threshold
            assert math.isfinite(abs(poisson_overlap(spec, [26.0], [27.0])))

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
    def test_norm_divergence_rejects_bad_hbar(self, hbar):
        with pytest.raises(ValidationError, match="positive and finite"):
            norm_divergence_demo([1.0, 0.5], [1, 2], hbar=hbar)

    def test_norm_divergence_overflow_raises(self):
        for f in ([1e3], [1e200], [20.0] * 3):
            with pytest.raises(NumericalError, match="double range"):
                norm_divergence_demo(f, [len(f)])
        with pytest.raises(ValidationError, match="non-finite"):
            norm_divergence_demo([math.nan], [1])
        # the largest finite row still passes
        rows = norm_divergence_demo([26.0, 0.5], [0, 1, 2], hbar=1.0)
        assert rows[0]["norm_sq"] == 1.0
        assert rows[2]["norm_sq"] == math.exp(676.25)

    def test_norm_divergence_zeta_limit(self):
        f = [1.0 / k for k in range(1, 4001)]
        rows = norm_divergence_demo(f, [4000])
        assert rows[0]["norm_sq"] == pytest.approx(
            math.exp(math.pi ** 2 / 6), rel=1e-3
        )

    def test_truncated_norm_matches_partial_product(self):
        spec = FockSpec.bose([30, 30])
        f = [0.7, 0.4]
        theta = poisson_vector(spec, f)
        assert theta.norm() ** 2 == pytest.approx(
            math.exp(sum(abs(x) ** 2 for x in f)), rel=1e-12
        )


class TestFockVectorValidation:
    def test_accepts_strided_amplitudes_and_rejects_non_finite(self):
        spec = FockSpec.bose([3])
        amps = np.arange(8, dtype=complex)[::2]  # not contiguous
        assert np.array_equal(FockVector(spec, amps).amplitudes, amps)
        with pytest.raises(ValidationError, match="non-finite"):
            FockVector(spec, [1.0, np.nan, 0.0, 0.0])


class TestDensityMatrixValidation:
    def test_accepts_valid(self):
        k = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert k.dim == 2

    def test_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        m = np.diag([0.6, 0.6]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(m)
