"""Correlation-functional layer: closed forms, doubled operators, evolution,
lattice hbar sweep, Green functions, and Fourier asymptotics."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from qtoolkit import evolution, lfunctional
from qtoolkit.errors import NumericalError, ValidationError
from qtoolkit.fock import (DensityMatrix, FockSpec, annihilation_matrix,
                           creation_matrix, poisson_vector)
from qtoolkit.lfunctional import (BOperatorReport, GaussianLFunctional,
                                  GreenResult, TaylorLFunctional,
                                  apply_doubled, b_operators_check,
                                  coherent_lfunctional, evolve_L,
                                  fourier_asymptotics_demo, from_density,
                                  hbar_sweep, thermal_lfunctional,
                                  two_point_green)
from qtoolkit.lfunctional import _reference_state, _taylor_from_operator
from qtoolkit.weyl_clifford import involution, poly

from conftest import random_density
from oracles import (DOUBLED_MIRRORS, _key_to_word, correlations_chain,
                     evolution_generator_branches, hbar_sweep_loop,
                     ladder_word_loop, phase_trace_dense,
                     two_point_green_dense)


def normalized_coherent(spec, lam):
    theta = poisson_vector(spec, lam).amplitudes
    rho = np.outer(theta, theta.conj())
    return DensityMatrix(rho / np.trace(rho).real)


def geometric_state(spec, w):
    probs = w ** np.arange(spec.dim)
    probs = probs / probs.sum()
    return DensityMatrix(np.diag(probs).astype(complex))


class TestClosedForms:
    def test_coherent_matches_operator_traces_to_degree_six(self):
        spec = FockSpec.bose((40,))
        lam = 0.6 - 0.3j
        full = from_density(normalized_coherent(spec, [lam]), spec, degree=6)
        closed = coherent_lfunctional([lam], degree=6)
        for key, v in closed.correlations.items():
            assert abs(full.value(*key) - v) <= 1e-12

    @pytest.mark.parametrize("cutoffs,degree,hbar", [
        ((8,), 8, 0.3), ((4, 4), 4, 0.5), ((6, 6), 6, 1.7), ((3, 3, 3), 3, 0.3)])
    def test_from_density_matches_matrix_strings(self, rng, cutoffs, degree,
                                                 hbar):
        spec = FockSpec.bose(cutoffs, hbar=hbar)
        rho = random_density(rng, spec.dim)
        got = from_density(rho, spec, degree).correlations
        want = correlations_chain(rho, spec, got)
        scale = max(abs(v) for v in want.values())
        assert max(abs(got[k] - v) for k, v in want.items()) <= 1e-12 * scale

    @pytest.mark.parametrize("degree,cut", [(4, 4), (5, 5), (6, 6), (7, 7),
                                            (8, 9)])
    def test_from_density_bit_equal_to_per_key_route(self, rng, degree, cut):
        # each key's trace from its own word, as one dot product a key
        spec = FockSpec.bose((cut, cut), hbar=0.5 + 0.2 * degree)
        rho = random_density(rng, spec.dim)
        got = from_density(rho, spec, degree).correlations
        cols = np.arange(spec.dim)
        for key, value in got.items():
            word = _key_to_word("bose", spec.modes, key)
            rows, weights = ladder_word_loop(spec, [[c for c, _ in word]],
                                             [[k for _, k in word]])
            want = complex(weights[0] @ rho[cols, rows[0]])
            assert np.array([value]).tobytes() == np.array([want]).tobytes()

    def test_coherent_evaluation_matches_exponential(self):
        lam = 0.4 + 0.1j
        closed = coherent_lfunctional([lam], degree=6)
        alpha = 0.2 - 0.15j
        exact = np.exp(np.conj(alpha) * lam - alpha * np.conj(lam))
        assert abs(closed.evaluate([alpha]) - exact) <= 1e-8

    def test_thermal_matches_geometric_state(self):
        spec = FockSpec.bose((40,))
        w = 0.3
        full = from_density(geometric_state(spec, w), spec, degree=6)
        closed = thermal_lfunctional([w / (1.0 - w)], degree=6)
        for key, v in closed.correlations.items():
            assert abs(full.value(*key) - v) <= 1e-12

    def test_thermal_respects_hbar_in_correlations(self):
        spec = FockSpec.bose((40,), hbar=0.5)
        w = 0.25
        full = from_density(geometric_state(spec, w), spec, degree=4)
        n_bar = spec.hbar * w / (1.0 - w)
        closed = thermal_lfunctional([n_bar], degree=4, hbar=spec.hbar)
        for key, v in closed.correlations.items():
            assert abs(full.value(*key) - v) <= 1e-12

    def test_normalization_coefficient_is_one(self):
        spec = FockSpec.bose((6, 6))
        state = geometric_state(spec, 0.2)
        full = from_density(state, spec, degree=2)
        assert full.value((0, 0), (0, 0)) == pytest.approx(1.0, abs=1e-13)

    def test_occupation_matrix_is_positive(self, rng):
        spec = FockSpec.bose((5, 5))
        g = rng.standard_normal((spec.dim, spec.dim)) \
            + 1j * rng.standard_normal((spec.dim, spec.dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        full = from_density(DensityMatrix(rho), spec, degree=2)
        occ = full.occupation_matrix()
        assert np.abs(occ - occ.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(occ).min() >= -1e-12

    def test_from_density_rejects_bad_input(self):
        spec = FockSpec.bose((3,))
        state = geometric_state(spec, 0.2)
        with pytest.raises(ValidationError):
            from_density(state, spec, degree=5)
        with pytest.raises(ValidationError):
            from_density(state, FockSpec.fermi(2), degree=1)
        with pytest.raises(ValidationError):
            from_density(state, FockSpec.bose((7,)), degree=3)
        for degree in (-1, 2.5, 2.0, "2", None):
            with pytest.raises(ValidationError, match="integer >= 0"):
                from_density(state, spec, degree=degree)
        assert type(from_density(state, spec, np.int64(2)).degree) is int
        zero = from_density(state, spec, degree=0).correlations
        assert zero == {((0,), (0,)): pytest.approx(1.0, abs=1e-15)}

    def test_every_route_requires_an_integer_degree(self):
        routes = (lambda d: coherent_lfunctional([0.3 - 0.1j], degree=d),
                  lambda d: thermal_lfunctional([0.4], degree=d),
                  lambda d: GaussianLFunctional(modes=1).to_taylor(d),
                  lambda d: TaylorLFunctional(modes=1, degree=d, hbar=1.0,
                                              correlations={}))
        for route in routes:
            for degree in (2.5, -2, -1, "2"):
                with pytest.raises(ValidationError, match="integer >= 0"):
                    route(degree)
            assert route(np.int64(0)).degree == 0


class TestGaussianContainer:
    def test_json_roundtrip(self):
        g = GaussianLFunctional(
            modes=2, log_constant=0.1 - 0.2j,
            linear_star=(0.3 + 0.1j, -0.2j), linear=(-0.3 + 0.1j, 0.2j),
            occupation=((0.5, 0.1j), (-0.1j, 0.7)))
        back = GaussianLFunctional.from_json(g.to_json())
        assert back == g

    def test_rejects_non_hermitian_or_negative_occupation(self):
        with pytest.raises(ValidationError):
            GaussianLFunctional(modes=2, occupation=((0.0, 1.0), (0.0, 0.0)))
        with pytest.raises(ValidationError):
            GaussianLFunctional(modes=1, occupation=((-0.5,),))
        with pytest.raises(ValidationError):
            GaussianLFunctional(modes=2, linear_star=(1.0,))

    def test_taylor_agrees_with_direct_evaluation(self):
        g = GaussianLFunctional(modes=1, linear_star=(0.2 + 0.1j,),
                                linear=(-0.2 + 0.1j,), occupation=((0.3,),))
        taylor = g.to_taylor(degree=8)
        alpha = [0.15 - 0.1j]
        assert abs(taylor.evaluate(alpha) - g.evaluate(alpha)) <= 1e-9


class TestDoubledOperators:
    def test_check_reports_exact_commutators(self):
        spec = FockSpec.bose((6, 6), hbar=0.5)
        report = b_operators_check(spec, degree=3)
        assert isinstance(report, BOperatorReport)
        assert report.ccr_defect == 0.0
        assert report.cross_defect == 0.0

    def test_check_trace_identities_tight(self):
        spec = FockSpec.bose((6, 6), hbar=0.5)
        report = b_operators_check(spec, degree=3)
        assert report.trace_defect_b <= 1e-12
        assert report.trace_defect_b_plus <= 1e-12
        assert report.trace_defect_b_tilde <= 1e-12
        assert report.trace_defect_b_tilde_plus <= 1e-12
        assert report.max_defect() <= 1e-12

    def test_trace_functionals_match_matrix_strings(self):
        # the functionals b_operators_check compares: K and K times ladders
        spec = FockSpec.bose((6, 6), hbar=0.3)
        k_mat = _reference_state(spec, margin=4)
        a = annihilation_matrix(spec, 2)
        for op in (k_mat, a @ k_mat, k_mat @ a.conj().T):
            got = _taylor_from_operator(op, spec, 3).correlations
            want = correlations_chain(op, spec, got)
            scale = max(abs(v) for v in want.values())
            assert max(abs(got[k] - v) for k, v in want.items()) \
                <= 1e-12 * scale

    def test_check_validation(self):
        with pytest.raises(ValidationError):
            b_operators_check(FockSpec.fermi(2), degree=2)
        with pytest.raises(ValidationError):
            b_operators_check(FockSpec.bose((8,)), degree=1)
        with pytest.raises(ValidationError):
            b_operators_check(FockSpec.bose((3,)), degree=3)

    def test_public_ccr_on_thermal_functional(self):
        l = thermal_lfunctional([0.7], degree=4, hbar=0.5)
        left = apply_doubled(apply_doubled(l, "b_plus", 1), "b", 1)
        right = apply_doubled(apply_doubled(l, "b", 1), "b_plus", 1)
        for key in left.correlations:
            gap = left.value(*key) - right.value(*key)
            assert abs(gap - 0.5 * l.value(*key)) <= 1e-13

    def test_annihilation_from_the_left_matches_matrices(self):
        spec = FockSpec.bose((12,))
        state = normalized_coherent(spec, [0.5])
        full = from_density(state, spec, degree=4)
        moved = apply_doubled(full, "b_tilde", 1)
        a = annihilation_matrix(spec, 1)
        oracle = a @ state.matrix
        for (beta, gamma), v in moved.correlations.items():
            mats = np.linalg.matrix_power(a.conj().T, beta[0]) \
                @ np.linalg.matrix_power(a, gamma[0])
            assert abs(v - np.trace(mats @ oracle)) <= 1e-12

    def test_unknown_operator_and_mode_rejected(self):
        l = thermal_lfunctional([0.4], degree=3)
        with pytest.raises(ValidationError):
            apply_doubled(l, "c", 1)
        with pytest.raises(ValidationError):
            apply_doubled(l, "b", 2)


class TestEvolution:
    def test_number_hamiltonian_rotates_phases(self):
        l0 = coherent_lfunctional([0.5 + 0.2j], degree=5)
        h = poly("bose", 1, {((1,), (1,)): 0.7})
        t = 1.3
        out = evolve_L(l0, h, t)
        for (beta, gamma), v in l0.correlations.items():
            expect = v * np.exp(1j * 0.7 * (beta[0] - gamma[0]) * t)
            assert abs(out.value(beta, gamma) - expect) <= 1e-12

    def test_slicing_does_not_change_the_result(self):
        l0 = coherent_lfunctional([0.3 - 0.4j], degree=4)
        h = poly("bose", 1, {((1,), (1,)): 1.1})
        one = evolve_L(l0, h, 0.9, steps=1)
        many = evolve_L(l0, h, 0.9, steps=7)
        for key in one.correlations:
            assert abs(one.value(*key) - many.value(*key)) <= 1e-12

    def test_thermal_is_stationary_under_number_hamiltonian(self):
        l0 = thermal_lfunctional([0.8], degree=4)
        h = poly("bose", 1, {((1,), (1,)): 0.9})
        out = evolve_L(l0, h, 2.7)
        for key, v in l0.correlations.items():
            assert abs(out.value(*key) - v) <= 1e-12

    def test_matches_matrix_evolution_with_squeezing(self):
        # weak squeeze on a generous cutoff keeps the matrix oracle itself
        # free of truncation leakage at the comparison tolerance
        spec = FockSpec.bose((50,), hbar=0.5)
        t = 0.6
        state = normalized_coherent(spec, [0.4])
        h = poly("bose", 1, {((1,), (1,)): 0.8, ((2,), (0,)): 0.15,
                             ((0,), (2,)): 0.15}, hbar=spec.hbar)
        a = annihilation_matrix(spec, 1)
        h_mat = 0.8 * a.conj().T @ a \
            + 0.15 * (a @ a + a.conj().T @ a.conj().T)
        u = scipy.linalg.expm(-1j * t / spec.hbar * h_mat)
        evolved_state = DensityMatrix(u @ state.matrix @ u.conj().T)

        l0 = from_density(state, spec, degree=4)
        moved = evolve_L(l0, h, t)
        direct = from_density(evolved_state, spec, degree=4)
        worst = max(abs(moved.value(*key) - direct.value(*key))
                    for key in direct.correlations)
        assert worst <= 1e-9
        assert abs(moved.value((0,), (0,)) - 1.0) <= 1e-13

    def test_rejects_cubic_and_non_selfadjoint_hamiltonians(self):
        l0 = thermal_lfunctional([0.5], degree=4)
        with pytest.raises(ValidationError):
            evolve_L(l0, poly("bose", 1, {((3,), (0,)): 1.0,
                                          ((0,), (3,)): 1.0}), 1.0)
        with pytest.raises(ValidationError):
            evolve_L(l0, poly("bose", 1, {((1,), (1,)): 1j}), 1.0)
        with pytest.raises(ValidationError):
            evolve_L(l0, poly("fermi", 1, {}), 1.0)
        with pytest.raises(ValidationError):
            evolve_L(l0, poly("bose", 2, {}), 1.0)


def quadratic_hamiltonian(rng, modes, hbar):
    """Random self-adjoint h with every (1, 1), (2, 0) and (0, 2) term."""
    def e(k):
        return tuple(int(i == k) for i in range(modes))
    zero = (0,) * modes
    terms = {}
    for k in range(modes):
        for l in range(modes):
            pair = tuple(x + y for x, y in zip(e(k), e(l)))
            terms[(e(k), e(l))] = complex(*rng.normal(size=2))
            terms[(pair, zero)] = (terms.get((pair, zero), 0)
                                   + complex(*rng.normal(size=2)))
    h = poly("bose", modes, terms, hbar=hbar)
    return h + involution(h)


class TestComposedGenerator:
    def test_matches_branch_oracle(self):
        # diagonal entries sum over modes and can cancel, so the error is
        # measured against the largest entry of each column
        rng = np.random.default_rng(np.random.Philox(14))
        eps = np.finfo(float).eps
        for modes in (1, 2, 3):
            for degree in (2, 3, 4, 5):
                for hbar in (0.3, 1.0, 2.5):
                    h = quadratic_hamiltonian(rng, modes, hbar)
                    keys = lfunctional._all_keys(modes, degree)
                    got = lfunctional._evolution_generator(h, keys, hbar)
                    want = evolution_generator_branches(h, keys, hbar)
                    assert np.array_equal(got != 0, want != 0)
                    scale = np.abs(want).max(axis=0)
                    assert np.all(np.abs(got - want) <= 4 * eps * scale)

    def test_evolve_matches_branch_oracle_on_two_modes(self):
        rng = np.random.default_rng(np.random.Philox(15))
        h = quadratic_hamiltonian(rng, 2, 0.7)
        l0 = coherent_lfunctional([0.3 - 0.1j, -0.2 + 0.4j], degree=4,
                                  hbar=0.7)
        moved = evolve_L(l0, h, 0.8)
        keys = lfunctional._all_keys(2, 4)
        gen = evolution_generator_branches(h, keys, 0.7)
        vec = scipy.linalg.expm(0.8 * gen) @ [l0.value(*k) for k in keys]
        # the random squeeze grows the coefficients to about 1e5
        assert max(abs(moved.value(*k) - v) for k, v in zip(keys, vec)) \
            <= 1e-14 * np.abs(vec).max()

    def test_linear_hamiltonian_matches_matrix_evolution(self):
        spec = FockSpec.bose((60,), hbar=0.5)
        t, f = 0.7, 0.3 - 0.2j
        state = normalized_coherent(spec, [0.4])
        h = poly("bose", 1, {((1,), (1,)): 0.8, ((1,), (0,)): f,
                             ((0,), (1,)): np.conj(f), ((0,), (0,)): 0.25},
                 hbar=spec.hbar)
        a = annihilation_matrix(spec, 1)
        h_mat = (0.8 * a.conj().T @ a + f * a.conj().T + np.conj(f) * a
                 + 0.25 * np.eye(spec.dim))
        u = scipy.linalg.expm(-1j * t / spec.hbar * h_mat)
        direct = from_density(DensityMatrix(u @ state.matrix @ u.conj().T),
                              spec, degree=4)
        moved = evolve_L(from_density(state, spec, degree=4), h, t)
        assert max(abs(moved.value(*key) - direct.value(*key))
                   for key in direct.correlations) <= 1e-12

    def test_constant_hamiltonian_leaves_the_functional(self):
        l0 = thermal_lfunctional([0.6, 0.2], degree=3)
        out = evolve_L(l0, poly("bose", 2, {((0, 0), (0, 0)): 2.5}), 1.9)
        assert out.correlations == l0.correlations

    def test_rejects_a_cubic_term_next_to_linear_ones(self):
        l0 = thermal_lfunctional([0.5], degree=4)
        h = poly("bose", 1, {((1,), (0,)): 1.0, ((0,), (1,)): 1.0,
                             ((2,), (1,)): 1.0, ((1,), (2,)): 1.0})
        with pytest.raises(ValidationError, match="degree overflow"):
            evolve_L(l0, h, 1.0)

    @pytest.mark.parametrize("name", sorted(DOUBLED_MIRRORS))
    def test_apply_doubled_equals_mirror_maps(self, name):
        # bytes and key order of the output dict, on a functional whose
        # every coefficient is distinct and nonzero
        g = GaussianLFunctional(modes=2, linear_star=(0.2 + 0.1j, -0.3),
                                linear=(0.1, 0.4j),
                                occupation=((0.5, 0.1j), (-0.1j, 0.3)))
        l = g.to_taylor(5, hbar=0.3)
        for k in (1, 2):
            got = apply_doubled(l, name, k).correlations
            raw = DOUBLED_MIRRORS[name](dict(l.correlations), k - 1, l.hbar)
            want = {key: v for key, v in raw.items() if sum(key[0])
                    + sum(key[1]) <= l.degree - 1}
            for key in lfunctional._all_keys(l.modes, l.degree - 1):
                want.setdefault(key, 0.0 + 0.0j)
            assert list(got) == list(want)
            assert (np.array(list(got.values()), dtype=complex).tobytes()
                    == np.array(list(want.values()), dtype=complex).tobytes())

    @pytest.mark.parametrize("cutoffs, degree, hbar", [
        ((6, 6), 3, 0.5), ((7,), 5, 1.3), ((5, 5, 5), 3, 0.3)])
    def test_operator_check_report_equals_mirror_maps(self, monkeypatch,
                                                      cutoffs, degree, hbar):
        spec = FockSpec.bose(cutoffs, hbar=hbar)
        got = b_operators_check(spec, degree)
        names = {pair: name for name, pair in lfunctional._B_OPS.items()}
        monkeypatch.setattr(
            lfunctional, "_doubled", lambda d, k, hbar, plus, tilde:
            DOUBLED_MIRRORS[names[(plus, tilde)]](d, k, hbar))
        assert b_operators_check(spec, degree) == got


class TestHbarSweep:
    def test_gap_shrinks_quadratically(self):
        result = hbar_sweep(hbars=(1e-1, 1e-2, 1e-3), t=1.0, steps=48)
        assert result.gaps[0] > result.gaps[1] > result.gaps[2] > 0
        assert 1.7 <= result.slope <= 2.3

    def test_needs_two_scales(self):
        with pytest.raises(ValidationError):
            hbar_sweep(hbars=(0.1,))
        with pytest.raises(ValidationError):
            hbar_sweep(hbars=(0.1, -0.2))

    @pytest.mark.parametrize("t", [0.0, 1e300])
    def test_zero_or_overflowing_gaps_raise_without_warnings(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="no slope"):
                hbar_sweep(t=t, steps=4)

    def test_rejects_non_finite_and_empty_lattices(self, capfd):
        nan, inf = float("nan"), float("inf")
        for kw in (dict(hbars=(nan, 0.1)), dict(hbars=(0.1, inf)),
                   dict(t=nan), dict(t=-inf), dict(spacing=nan),
                   dict(spacing=0.0), dict(spacing=-0.5), dict(extent=inf),
                   dict(extent=-1.0)):
            with pytest.raises(ValidationError):
                hbar_sweep(**kw)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("hbars, t, steps, lattice", [
        ((0.3, 0.05), 1.0, 33, {}),
        ((1e-1, 1e-2, 1e-3), 0.93, 64, {}),
        ((0.3, 0.05, 0.01, 1e-4), 0.93, 33, {}),
        ((2.0, 0.4, 0.04, 1.0), -0.7, 64, dict(spacing=0.37, extent=3.3)),
    ])
    def test_stacked_flows_equal_one_run_per_hbar(self, monkeypatch, hbars,
                                                  t, steps, lattice):
        classical, quantum, gaps = hbar_sweep_loop(hbars, t, steps,
                                                   **lattice)
        runs = []
        rk4 = evolution.rk4_fixed
        monkeypatch.setattr(evolution, "rk4_fixed",
                            lambda *args: runs.append(rk4(*args)) or runs[-1])
        result = hbar_sweep(hbars=hbars, t=t, steps=steps, **lattice)
        [flows] = runs
        # bytes, so signed zeros count
        assert [f.tobytes() for f in flows] == [
            f.tobytes() for f in [classical] + quantum]
        assert repr(result.gaps) == repr(tuple(gaps))


class TestTwoPointGreen:
    @pytest.mark.parametrize("eps, hbar, window", [
        (1e308, 1.0, 20.0), (1e307, 1.0, 200.0), (1.0, 5e307, 20.0)])
    def test_energies_or_phases_past_double_range_raise(self, eps, hbar,
                                                        window):
        taus = np.arange(0.0, window, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="double range"):
                two_point_green([1.0], [eps], taus, hbar=hbar)

    def test_closed_forms_from_ladder_oracle(self):
        taus = np.arange(0.0, 40.0, 0.05)
        res = two_point_green([1.0], [0.7], taus)
        assert np.abs(res.g_less - 1.0 * np.exp(1j * 0.7 * taus)).max() \
            <= 1e-12
        assert np.abs(res.g_greater - 2.0 * np.exp(-1j * 0.7 * taus)).max() \
            <= 1e-12

    def test_pole_recovered_within_resolution(self):
        taus = np.arange(0.0, 200.0, 0.05)
        res = two_point_green([1.0], [0.7], taus)
        assert res.resolution == pytest.approx(2 * np.pi / 200.0, rel=1e-9)
        assert abs(res.pole - 0.7) <= res.resolution
        assert abs(res.pole - 0.7) <= 0.01

    def test_negative_frequency_pole(self):
        taus = np.arange(0.0, 150.0, 0.1)
        res = two_point_green([0.5, 2.0], [0.3, -0.4], taus, mode=2)
        assert abs(res.pole - (-0.4)) <= res.resolution

    def test_detailed_balance_ratio(self):
        taus = np.linspace(0.0, 10.0, 64)
        res = two_point_green([0.5], [1.2], taus, hbar=0.5)
        assert res.kms_ratio() == pytest.approx(0.5 * (1.5 / 0.5), rel=1e-12)
        assert res.g_less_zero == pytest.approx(0.5, rel=1e-12)
        assert res.g_greater_zero == pytest.approx(0.5 * 1.5, rel=1e-12)

    def test_kms_ratio_is_boltzmann_factor(self):
        beta, eps = 0.9, 1.1
        n = 1.0 / np.expm1(beta * eps)
        taus = np.linspace(0.0, 10.0, 64)
        res = two_point_green([n], [eps], taus)
        assert res.kms_ratio() == pytest.approx(np.exp(beta * eps), rel=1e-11)

    def test_empty_mode(self):
        taus = np.linspace(0.0, 10.0, 64)
        res = two_point_green([0.0], [0.8], taus)
        assert np.abs(res.g_less).max() == 0.0
        assert np.isnan(res.pole)
        assert np.abs(res.g_greater - np.exp(-1j * 0.8 * taus)).max() <= 1e-12
        with pytest.raises(Exception):
            res.kms_ratio()

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.2])
    @pytest.mark.parametrize("n", [0.0, 0.2, 1.0, 20.0])
    def test_distinct_frequencies_equal_dense_route(self, monkeypatch, n,
                                                    hbar):
        rng = np.random.default_rng(np.random.Philox(int(100 * n + hbar)))
        for _ in range(3):
            taus = np.arange(2 * int(rng.integers(4, 800)) + 1) * float(
                rng.uniform(0.01, 0.2))
            args = ([0.5, n], [1.1, float(rng.uniform(-2.0, 2.0))], taus)
            got = two_point_green(*args, mode=2, hbar=hbar)
            with monkeypatch.context() as m:
                m.setattr(lfunctional, "_phase_trace", phase_trace_dense)
                want = two_point_green(*args, mode=2, hbar=hbar)
            for field in dataclasses.fields(GreenResult):
                assert (np.asarray(getattr(got, field.name)).tobytes()
                        == np.asarray(getattr(want, field.name)).tobytes()
                        ), field.name

    @pytest.mark.parametrize("hbar", [1.0, 0.3, 2.5])
    @pytest.mark.parametrize("eps", [0.7, 1.3, -0.4])
    @pytest.mark.parametrize("n", [0.0, 1e-3, 0.5, 1.0, 3.0, 7.5, 20.0, 28.0])
    def test_ladder_band_equals_dense_ladder_matrices(self, n, eps, hbar):
        # the weights come from the band of the letter tables; reading
        # them off dense (c+1) x (c+1) ladder matrices gives the same bits
        taus = np.arange(4097 + int(10 * n)) * 0.05
        args = ([0.5, n], [1.1, eps], taus)
        got = two_point_green(*args, mode=2, hbar=hbar)
        want = two_point_green_dense(*args, mode=2, hbar=hbar)
        for field in dataclasses.fields(GreenResult):
            assert (np.asarray(getattr(got, field.name)).tobytes()
                    == np.asarray(getattr(want, field.name)).tobytes()
                    ), field.name

    def test_phase_trace_equals_dense_route_on_repeated_frequencies(self):
        # np.unique merges 0.0 and -0.0; their exponentials agree, since
        # 1j * x has imaginary part +0.0 for either zero
        rng = np.random.default_rng(np.random.Philox(31))
        values = np.array([0.0, -0.0, 1.5, -1.5, 0.7, 1e-300])
        for size in (1, 2, 9, 63):
            freqs = values[rng.integers(0, len(values), size)]
            weights = rng.normal(size=size) + 1j * rng.normal(size=size)
            taus = np.concatenate([[0.0, -0.0], rng.normal(size=37) * 50])
            got = lfunctional._phase_trace(weights, freqs, taus)
            want = phase_trace_dense(weights, freqs, taus)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [4095, 4096, 4097, 4098, 8193, 8194,
                                      8209, 12289])
    def test_phase_trace_blocks_equal_one_product(self, rows):
        # the blocks of _GREEN_ROWS samples, a final single row joined to
        # the block before it, give the bits of the one full product
        rng = np.random.default_rng(np.random.Philox(rows))
        for size in (50, 985):
            freqs = rng.integers(-12, 12, size) * 0.7
            weights = rng.normal(size=size) + 1j * rng.normal(size=size)
            taus = np.arange(rows) * 0.05
            got = lfunctional._phase_trace(weights, freqs, taus)
            want = phase_trace_dense(weights, freqs, taus)
            assert got.tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_the_sample_count(self):
        # n = 28 has 985 weights: the full (samples x weights) matrix
        # would be 123 MiB at 8,193 samples and 493 MiB at 32,769
        def peak(samples):
            taus = np.arange(samples) * 0.05
            tracemalloc.start()
            try:
                two_point_green([28.0], [0.7], taus)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2 * 4096 + 1), peak(8 * 4096 + 1)
        assert large <= 160 << 20
        assert large <= 1.05 * small
        # one block of the phase table, _GREEN_ROWS x 985 complex entries
        # (62 MiB), and a few MiB of samples; dense ladder matrices would
        # add 65 MiB
        cutoff = int(np.ceil(np.log(1e-15) / np.log(28 / 29)))
        assert large <= 16 * lfunctional._GREEN_ROWS * cutoff + (6 << 20)

    def test_window_and_grid_validation(self):
        good = np.arange(0.0, 20.0, 0.1)
        with pytest.raises(ValidationError):
            two_point_green([1.0], [0.5], good[:4])
        with pytest.raises(ValidationError):
            two_point_green([1.0], [0.5], np.sort(np.cos(good)))
        with pytest.raises(ValidationError):
            two_point_green([1.0], [0.5], good, resolution=0.01)
        with pytest.raises(ValidationError):
            two_point_green([1.0], [0.5, 0.7], good)
        with pytest.raises(ValidationError):
            two_point_green([1.0], [0.5], good, mode=2)
        two_point_green([1.0], [0.5], good, resolution=0.5)


class TestFourierAsymptotics:
    def test_pole_term_dominates_at_large_time(self):
        out = fourier_asymptotics_demo([40.0, 100.0])
        assert out["relative_error"].max() <= 0.05

    def test_validation(self):
        with pytest.raises(ValidationError):
            fourier_asymptotics_demo([])
        with pytest.raises(ValidationError):
            fourier_asymptotics_demo([10.0], eta=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in (np.inf, np.nan):
                with pytest.raises(ValidationError, match="eta"):
                    fourier_asymptotics_demo([10.0], eta=eta)
            for t in (np.nan, np.inf):
                with pytest.raises(ValidationError, match="non-finite"):
                    fourier_asymptotics_demo([10.0, t])
