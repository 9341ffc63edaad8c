import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtoolkit import evolution
from qtoolkit.errors import ValidationError
from qtoolkit.fock import FockSpec
from qtoolkit.weyl_clifford import (
    SigmaForm,
    annihilator,
    canonical_quadratures,
    commutator,
    creator,
    format_poly,
    involution,
    parse_poly,
    poly,
    product,
    represent,
    unit,
    weyl_exponential_check,
    wick_symbol,
    zero,
)

from oracles import exp_i_hermitian, represent_chain, word_reduction


def bose_unit(m=1, hbar=1.0):
    return unit("bose", m, hbar)


# --- strategies producing exactly-representable polynomials ---------------

def gaussian_int():
    return st.builds(
        complex,
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4),
    )


def bose_keys(modes, max_deg=3):
    degs = st.tuples(*[st.integers(min_value=0, max_value=max_deg)
                       for _ in range(modes)])
    return st.tuples(degs, degs).filter(
        lambda k: sum(k[0]) <= max_deg and sum(k[1]) <= max_deg
    )


def bose_polys(modes=2, hbar=1.0):
    return st.dictionaries(bose_keys(modes), gaussian_int(), min_size=1, max_size=4
                           ).map(lambda t: poly("bose", modes, t, hbar))


def fermi_polys(modes=3, hbar=1.0):
    keys = st.tuples(st.integers(min_value=0, max_value=2 ** modes - 1),
                     st.integers(min_value=0, max_value=2 ** modes - 1))
    return st.dictionaries(keys, gaussian_int(), min_size=1, max_size=4
                           ).map(lambda t: poly("fermi", modes, t, hbar))


class TestProducts:
    def test_bose_ccr_product(self):
        # a . a* = a*a + hbar
        for hbar in (1.0, 0.5):
            a = annihilator("bose", 1, 1, hbar)
            ad = creator("bose", 1, 1, hbar)
            got = product(a, ad)
            want = product(ad, a) + unit("bose", 1, hbar).scale(hbar)
            assert got.terms == want.terms

    def test_fermi_car_product(self):
        # a . a* = 1 - a*a
        a = annihilator("fermi", 1, 1)
        ad = creator("fermi", 1, 1)
        got = product(a, ad)
        want = unit("fermi", 1) - product(ad, a)
        assert got.terms == want.terms

    def test_fermi_pauli(self):
        ad = creator("fermi", 1, 1)
        assert product(ad, ad).is_zero()

    def test_fermi_cross_mode_anticommute(self):
        a1 = annihilator("fermi", 2, 1)
        a2 = annihilator("fermi", 2, 2)
        anti = product(a1, a2) + product(a2, a1)
        assert anti.is_zero()

    def test_unit_law(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            keys = [((int(rng.integers(0, 3)),), (int(rng.integers(0, 3)),))
                    for _ in range(3)]
            a = poly("bose", 1, {k: complex(int(rng.integers(-3, 4))) for k in keys})
            one = bose_unit()
            assert product(a, one).terms == a.terms
            assert product(one, a).terms == a.terms

    def test_degree_cap(self):
        a = poly("bose", 1, {((5,), (0,)): 1.0})
        with pytest.raises(ValidationError):
            product(a, a)
        # explicit cap raise is allowed
        assert product(a, a, degree_cap=10).terms == {((10,), (0,)): 1.0 + 0j}

    @pytest.mark.parametrize("hbar", [math.inf, math.nan, 0.0, -1.0])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        with pytest.raises(ValidationError, match="positive and finite"):
            poly("bose", 1, {((1,), (0,)): 1.0}, hbar=hbar)

    def test_bose_contraction_formula(self):
        # a^2 (a*)^2 = (a*)^2 a^2 + 4 hbar a* a + 2 hbar^2
        hbar = 0.5
        a = annihilator("bose", 1, 1, hbar)
        ad = creator("bose", 1, 1, hbar)
        lhs = product(product(a, a), product(ad, ad))
        want = {
            ((2,), (2,)): 1.0 + 0j,
            ((1,), (1,)): 4 * hbar + 0j,
            ((0,), (0,)): 2 * hbar ** 2 + 0j,
        }
        assert lhs.terms == want

    def test_bose_contraction_formula_degree_eight(self):
        # a^8 (a*)^8 = sum_j j! C(8,j)^2 hbar^j (a*)^(8-j) a^(8-j)
        hbar = 0.5
        a = poly("bose", 1, {((0,), (8,)): 1.0}, hbar)
        b = poly("bose", 1, {((8,), (0,)): 1.0}, hbar)
        want = {((8 - j,), (8 - j,)): complex(
                    math.factorial(j) * math.comb(8, j) ** 2 * hbar ** j)
                for j in range(9)}
        assert product(a, b, 16).terms == want

    @given(a=bose_polys(), b=bose_polys(), c=bose_polys())
    @settings(max_examples=60, deadline=None)
    def test_bose_associativity_exact(self, a, b, c):
        lhs = product(product(a, b, 20), c, 20)
        rhs = product(a, product(b, c, 20), 20)
        assert lhs.terms == rhs.terms

    @given(a=fermi_polys(), b=fermi_polys(), c=fermi_polys())
    @settings(max_examples=60, deadline=None)
    def test_fermi_associativity_exact(self, a, b, c):
        lhs = product(product(a, b, 20), c, 20)
        rhs = product(a, product(b, c, 20), 20)
        assert lhs.terms == rhs.terms


class TestClosedFormAgainstWords:
    """The closed-form product equals word-by-word reduction bit for bit at
    dyadic hbar, where every coefficient is exact."""

    HBAR = 0.5

    def assert_all_pairs_match(self, statistics, modes, keys):
        polys = [poly(statistics, modes, {key: 1.0}, self.HBAR) for key in keys]
        for a in polys:
            for b in polys:
                assert product(a, b, 16).terms == word_reduction(a, b)

    @pytest.mark.parametrize("modes", [1, 2])
    def test_bose_term_pairs_exhaustive(self, modes):
        # every a*^alpha a^beta with creation and annihilation degree <= 4
        side = [d for d in itertools.product(range(5), repeat=modes)
                if sum(d) <= 4]
        self.assert_all_pairs_match(
            "bose", modes, list(itertools.product(side, side)))

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_fermi_term_pairs_exhaustive(self, modes):
        masks = range(1 << modes)
        self.assert_all_pairs_match(
            "fermi", modes, list(itertools.product(masks, masks)))

    @given(a=bose_polys(hbar=HBAR), b=bose_polys(hbar=HBAR))
    @settings(max_examples=60, deadline=None)
    def test_bose_random(self, a, b):
        assert product(a, b, 20).terms == word_reduction(a, b)

    @given(a=fermi_polys(modes=5, hbar=HBAR), b=fermi_polys(modes=5, hbar=HBAR))
    @settings(max_examples=60, deadline=None)
    def test_fermi_random(self, a, b):
        assert product(a, b, 20).terms == word_reduction(a, b)

    @given(a=bose_polys(hbar=0.3), b=bose_polys(hbar=0.3))
    @settings(max_examples=40, deadline=None)
    def test_bose_random_non_dyadic_hbar(self, a, b):
        # the word route adds equal contraction paths one by one where the
        # closed form multiplies by their count; each coefficient is held
        # to the size of its contributions before any cancellation
        got = product(a, b, 20).terms
        want = word_reduction(a, b)
        sizes = word_reduction(*(
            poly("bose", p.modes, {k: abs(c) for k, c in p.terms.items()}, 0.3)
            for p in (a, b)))
        for key, size in sizes.items():
            assert abs(got.get(key, 0j) - want.get(key, 0j)) <= 1e-13 * size.real


class TestInvolution:
    def test_self_adjoint_monomial(self):
        ad = creator("bose", 1, 1)
        a = annihilator("bose", 1, 1)
        n = product(ad, a)
        assert involution(n).terms == n.terms

    def test_fermi_two_annihilators(self):
        # (c a_1 a_2)* = -conj(c) a*_1 a*_2
        c = 2.0 - 3.0j
        x = poly("fermi", 2, {(0, 0b11): c})
        want = poly("fermi", 2, {(0b11, 0): -c.conjugate()})
        assert involution(x).terms == want.terms

    @given(a=bose_polys(), b=bose_polys())
    @settings(max_examples=40, deadline=None)
    def test_antihomomorphism_bose(self, a, b):
        lhs = involution(product(a, b, 20))
        rhs = product(involution(b), involution(a), 20)
        assert lhs.terms == rhs.terms

    @given(a=fermi_polys(), b=fermi_polys())
    @settings(max_examples=40, deadline=None)
    def test_antihomomorphism_fermi(self, a, b):
        lhs = involution(product(a, b, 20))
        rhs = product(involution(b), involution(a), 20)
        assert lhs.terms == rhs.terms

    @given(a=fermi_polys())
    @settings(max_examples=30, deadline=None)
    def test_involutive(self, a):
        assert involution(involution(a)).terms == a.terms


class TestDerivationProperties:
    def hamiltonian(self, eps, modes, hbar=1.0):
        h = zero("bose", modes, hbar)
        for k, e in enumerate(eps, start=1):
            h = h + product(creator("bose", modes, k, hbar),
                            annihilator("bose", modes, k, hbar)).scale(e)
        return h

    def test_heisenberg_commutator(self):
        # [h, a_k] = -eps_k hbar a_k
        eps = (2.0, 3.0)
        hbar = 0.5
        h = self.hamiltonian(eps, 2, hbar)
        for k in (1, 2):
            a_k = annihilator("bose", 2, k, hbar)
            got = commutator(h, a_k)
            want = a_k.scale(-eps[k - 1] * hbar)
            assert got.terms == want.terms

    @given(a=bose_polys(), b=bose_polys())
    @settings(max_examples=30, deadline=None)
    def test_leibniz_rule(self, a, b):
        h = self.hamiltonian((1.0, 2.0), 2)
        lhs = commutator(h, product(a, b, 20), 24)
        rhs = (product(commutator(h, a, 24), b, 24)
               + product(a, commutator(h, b, 24), 24))
        assert lhs.terms == rhs.terms


class TestWickSymbols:
    def test_read_off(self):
        hbar = 1.0
        n = product(creator("bose", 1, 1), annihilator("bose", 1, 1))
        s = wick_symbol(n + bose_unit().scale(hbar))
        assert s.terms == {((1,), (1,)): 1.0 + 0j, ((0,), (0,)): hbar + 0j}

    def test_ordering_ambiguity(self):
        a = annihilator("bose", 1, 1)
        ad = creator("bose", 1, 1)
        s_prod = wick_symbol(product(a, ad))
        # symbol(a)*symbol(a*) as a commuting polynomial is a*a alone
        assert s_prod.terms == {((1,), (1,)): 1.0 + 0j, ((0,), (0,)): 1.0 + 0j}
        val = s_prod.evaluate([0.3 + 0.1j], [0.3 - 0.1j])
        naive = (0.3 + 0.1j) * (0.3 - 0.1j)
        assert abs(val - naive - 1.0) < 1e-15

    @given(a=bose_polys())
    @settings(max_examples=25, deadline=None)
    def test_conjugation_consistency_bose(self, a):
        assert wick_symbol(involution(a)).terms == wick_symbol(a).conjugate().terms

    @given(a=fermi_polys())
    @settings(max_examples=25, deadline=None)
    def test_conjugation_consistency_fermi(self, a):
        assert wick_symbol(involution(a)).terms == wick_symbol(a).conjugate().terms


class TestRepresent:
    def test_number_operator_diagonal(self):
        spec = FockSpec.bose([3], hbar=0.5)
        n = product(creator("bose", 1, 1, 0.5), annihilator("bose", 1, 1, 0.5))
        m = represent(n, spec)
        assert np.allclose(m, np.diag([0, 0.5, 1.0, 1.5]), atol=1e-14)

    def test_identity(self):
        spec = FockSpec.bose([2, 2])
        assert np.array_equal(represent(unit("bose", 2), spec), np.eye(spec.dim))

    def test_cutoff_rejection(self):
        spec = FockSpec.bose([2])
        p = poly("bose", 1, {((2,), (1,)): 1.0})
        with pytest.raises(ValidationError):
            represent(p, spec)

    def test_homomorphism_on_safe_subspace(self):
        rng = np.random.default_rng(42)
        spec = FockSpec.bose([9, 9])
        occ = spec.occupations
        safe = np.nonzero(np.all(occ <= 3, axis=1))[0]
        for _ in range(50):
            def rand_poly():
                terms = {}
                for _ in range(3):
                    alpha = tuple(int(x) for x in rng.integers(0, 2, size=2))
                    beta = tuple(int(x) for x in rng.integers(0, 2, size=2))
                    terms[(alpha, beta)] = complex(int(rng.integers(-3, 4)),
                                                   int(rng.integers(-3, 4)))
                return poly("bose", 2, terms)
            a, b = rand_poly(), rand_poly()
            lhs = represent(product(a, b), spec)
            rhs = represent(a, spec) @ represent(b, spec)
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs((lhs - rhs)[:, safe]).max() <= 1e-12 * scale

    def test_homomorphism_exact_fermi(self):
        rng = np.random.default_rng(3)
        spec = FockSpec.fermi(3)
        for _ in range(25):
            def rand_poly():
                terms = {}
                for _ in range(3):
                    key = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
                    terms[key] = complex(int(rng.integers(-3, 4)),
                                         int(rng.integers(-3, 4)))
                return poly("fermi", 3, terms)
            a, b = rand_poly(), rand_poly()
            lhs = represent(product(a, b), spec)
            rhs = represent(a, spec) @ represent(b, spec)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)

    def test_bose_equals_matrix_chains_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for hbar in (0.5, 0.3):
            for modes in (1, 2, 3):
                for cutoffs in itertools.product(range(2, 6), repeat=modes):
                    spec = FockSpec.bose(cutoffs, hbar=hbar)
                    terms = {}
                    for _ in range(4):
                        # at most cutoff letters of each mode per monomial
                        alpha = [int(rng.integers(0, c + 1)) for c in cutoffs]
                        beta = [int(rng.integers(0, c - a + 1))
                                for a, c in zip(alpha, cutoffs)]
                        terms[(tuple(alpha), tuple(beta))] = complex(
                            *rng.normal(size=2))
                    p = poly("bose", modes, terms, hbar)
                    assert np.array_equal(represent(p, spec),
                                          represent_chain(p, spec)), spec

    @pytest.mark.parametrize("modes", range(1, 7))
    def test_fermi_equals_matrix_chains_bit_for_bit(self, modes):
        rng = np.random.default_rng(modes)
        spec = FockSpec.fermi(modes)
        for _ in range(10):
            terms = {(int(rng.integers(0, 2 ** modes)),
                      int(rng.integers(0, 2 ** modes))):
                     complex(*rng.normal(size=2)) for _ in range(5)}
            p = poly("fermi", modes, terms)
            assert np.array_equal(represent(p, spec), represent_chain(p, spec))

    def test_involution_is_adjoint(self):
        spec = FockSpec.bose([6])
        p = poly("bose", 1, {((2,), (1,)): 1.5 - 0.5j, ((0,), (1,)): 2.0j})
        assert np.allclose(represent(involution(p), spec),
                           represent(p, spec).conj().T, atol=1e-13)


class TestWeylExponential:
    def test_zero_alpha_exact(self):
        spec = FockSpec.bose([20])
        res = weyl_exponential_check(spec, [0.0, 0.0], [0.4, -0.3])
        assert res.defect <= 1e-12

    def test_defect_small_at_cutoff_60(self):
        spec = FockSpec.bose([60])
        res = weyl_exponential_check(spec, [1.0, 0.0], [0.0, 1.0])
        assert res.defect <= 1e-8

    def test_phase_matches_bch(self):
        # V_alpha V_beta V_{alpha+beta}^{-1} should be the scalar
        # exp(-i(hbar/2) alpha sigma beta); check the phase directly on |0>
        spec = FockSpec.bose([60])
        alpha = np.array([0.7, 0.2])
        beta = np.array([-0.3, 0.5])
        res = weyl_exponential_check(spec, alpha, beta)
        sigma = SigmaForm.canonical(1).matrix
        want = np.exp(-0.5j * (alpha @ sigma @ beta))
        assert abs(res.phase - want) < 1e-14

    def test_expm_equals_eigh_exponential(self, monkeypatch):
        # V_alpha = evolution.expm(h, -1.0) has the bits of the eigenbasis
        # exp(i h) that the check once built for itself
        rng = np.random.default_rng(np.random.Philox(11))
        for cutoffs, hbar in (((30,), 1.0), ((60,), 0.3), ((8, 8), 1.0),
                              ((4, 4, 4), 2.5)):
            spec = FockSpec.bose(cutoffs, hbar=hbar)
            us = canonical_quadratures(spec)
            for _ in range(3):
                alpha, beta = rng.normal(size=(2, 2 * spec.modes))
                h = sum(c * u for c, u in zip(alpha, us))
                assert (evolution.expm(h, -1.0).tobytes()
                        == exp_i_hermitian(h).tobytes())
                got = weyl_exponential_check(spec, alpha, beta)
                with monkeypatch.context() as m:
                    m.setattr(evolution, "expm",
                              lambda h, t: exp_i_hermitian(h))
                    want = weyl_exponential_check(spec, alpha, beta)
                assert got == want

    def test_quadrature_ccr(self):
        spec = FockSpec.bose([30], hbar=0.7)
        q, p = canonical_quadratures(spec)
        comm = q @ p - p @ q
        sub = np.arange(25)
        assert np.allclose(comm[np.ix_(sub, sub)], 0.7j * np.eye(25), atol=1e-12)

    def test_sigma_validation(self):
        with pytest.raises(ValidationError):
            SigmaForm(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestTextForm:
    def test_round_trip(self):
        p = poly("bose", 3, {
            ((2, 0, 0), (0, 0, 1)): 1.5 - 0.5j,
            ((0, 0, 0), (0, 0, 0)): 0.25 + 0j,
            ((0, 1, 0), (1, 0, 0)): -2.0 + 1e-3j,
        })
        text = format_poly(p)
        assert "a*[1]^2 a[3]" in text
        back = parse_poly(text, "bose", 3)
        assert back.terms == p.terms

    def test_round_trip_fermi(self):
        p = poly("fermi", 3, {(0b101, 0b010): 1.0 + 2.0j, (0, 0): -1.0 + 0j})
        back = parse_poly(format_poly(p), "fermi", 3)
        assert back.terms == p.terms

    def test_rejects_abnormal_order(self):
        with pytest.raises(ValidationError):
            parse_poly("(1.0+0.0i) a[1] a*[1]", "bose", 1)
