import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtoolkit import grassmann
from qtoolkit.errors import NumericalError, ValidationError
from qtoolkit.grassmann import (
    GrassmannElement,
    berezin_integral,
    compose_even,
    cos_element,
    d_operator,
    delta_operator,
    element,
    exp_element,
    format_element,
    gaussian_integral,
    gaussian_integral_series,
    generator,
    left_derivative,
    linear_change_of_variables,
    mixed,
    multiply,
    parse_expression,
    pfaffian,
    scalar,
    sin_element,
)

from qtoolkit.grassmann import _power

from oracles import elementary_numpy, pfaffian_expansion
from test_cli import fresh_python


def eps(n, *indices):
    out = scalar(n, 1.0)
    for i in indices:
        out = multiply(out, generator(n, i))
    return out


def rand_element(rng, n, nterms=4, odd=None):
    terms = {}
    for _ in range(nterms):
        mask = int(rng.integers(0, 1 << n))
        if odd is True and mask.bit_count() % 2 == 0:
            continue
        if odd is False and mask.bit_count() % 2 == 1:
            continue
        terms[mask] = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
    return GrassmannElement(n, terms)


class TestMultiplication:
    def test_product_of_binomials(self):
        # (e1+e2)(e2+e3)(e3+e4) = e1e2e3 + e1e2e4 + e1e3e4 + e2e3e4
        n = 4
        x = (generator(n, 1) + generator(n, 2)) \
            * (generator(n, 2) + generator(n, 3)) \
            * (generator(n, 3) + generator(n, 4))
        want = eps(n, 1, 2, 3) + eps(n, 1, 2, 4) + eps(n, 1, 3, 4) + eps(n, 2, 3, 4)
        assert x.terms == want.terms

    def test_anticommutation(self):
        n = 2
        assert multiply(generator(n, 1), generator(n, 2)).terms == {0b11: 1.0 + 0j}
        assert multiply(generator(n, 2), generator(n, 1)).terms == {0b11: -1.0 + 0j}

    def test_square_vanishes(self):
        g = generator(3, 2)
        assert multiply(g, g).is_zero()

    def test_unit_law(self):
        rng = np.random.default_rng(0)
        x = rand_element(rng, 5)
        one = scalar(5, 1.0)
        assert multiply(x, one).terms == x.terms
        assert multiply(one, x).terms == x.terms

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_odd_elements_anticommute(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
        rng = np.random.default_rng(seed)
        n = 6
        x = rand_element(rng, n, odd=True)
        y = rand_element(rng, n, odd=True)
        lhs = multiply(x, y)
        rhs = multiply(y, x).scale(-1)
        assert lhs.terms == rhs.terms

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_even_elements_central(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
        rng = np.random.default_rng(seed)
        n = 6
        x = rand_element(rng, n, odd=False)
        y = rand_element(rng, n)
        assert multiply(x, y).terms == multiply(y, x).terms

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
        rng = np.random.default_rng(seed)
        n = 6
        x, y, z = (rand_element(rng, n) for _ in range(3))
        assert multiply(multiply(x, y), z).terms == multiply(x, multiply(y, z)).terms


class TestDerivatives:
    def test_single_transposition_sign(self):
        # d/de2 (e1 e2 e3) = -e1 e3
        got = left_derivative(2, eps(3, 1, 2, 3))
        assert got.terms == {0b101: -1.0 + 0j}

    def test_derivative_of_constant(self):
        assert left_derivative(1, scalar(3, 1.0)).is_zero()

    def test_derivatives_anticommute(self):
        rng = np.random.default_rng(5)
        x = rand_element(rng, 6, nterms=8)
        d12 = left_derivative(1, left_derivative(2, x))
        d21 = left_derivative(2, left_derivative(1, x))
        assert d12.terms == d21.scale(-1).terms
        assert left_derivative(3, left_derivative(3, x)).is_zero()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_graded_leibniz(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
        odd = data.draw(st.booleans())
        rng = np.random.default_rng(seed)
        n = 5
        w = rand_element(rng, n, odd=odd)
        rho = rand_element(rng, n)
        i = int(rng.integers(1, n + 1))
        lhs = left_derivative(i, multiply(w, rho))
        sign = -1 if odd else 1
        rhs = multiply(left_derivative(i, w), rho) \
            + multiply(w, left_derivative(i, rho)).scale(sign)
        assert lhs.terms == rhs.terms

    def test_integral_of_derivative_vanishes(self):
        rng = np.random.default_rng(9)
        x = rand_element(rng, 5, nterms=10)
        for i in range(1, 6):
            assert berezin_integral(left_derivative(i, x)) == 0

    def test_integration_by_parts(self):
        rng = np.random.default_rng(11)
        n = 5
        for odd in (True, False):
            w = rand_element(rng, n, odd=odd)
            rho = rand_element(rng, n)
            i = 3
            lhs = berezin_integral(multiply(left_derivative(i, w), rho))
            sign = -1 if odd else 1
            rhs = -sign * berezin_integral(multiply(w, left_derivative(i, rho)))
            assert lhs == rhs


class TestBerezinIntegral:
    def test_top_monomial(self):
        assert berezin_integral(eps(2, 1, 2)) == 1.0

    def test_submaximal_degree(self):
        assert berezin_integral(scalar(1, 1.0)) == 0

    def test_cyclic_product_integrates_to_zero(self):
        # (e1+e2)(e2+e3)(e3+e4)(e4+e1): the two top contributions cancel
        n = 4
        x = (generator(n, 1) + generator(n, 2)) \
            * (generator(n, 2) + generator(n, 3)) \
            * (generator(n, 3) + generator(n, 4)) \
            * (generator(n, 4) + generator(n, 1))
        assert berezin_integral(x) == 0


class TestCompose:
    def test_cos_of_quadratic(self):
        # cos(e1 e2 + e3 e4) = 1 - e1 e2 e3 e4
        n = 4
        omega = eps(n, 1, 2) + eps(n, 3, 4)
        got = cos_element(omega)
        assert got.terms == {0: 1.0 + 0j, 0b1111: -1.0 + 0j}

    def test_exp_zero(self):
        got = exp_element(GrassmannElement(4, {}))
        assert got.terms == {0: 1.0 + 0j}

    def test_exp_factorizes(self):
        n = 4
        l1, l2 = 0.75, -1.5
        omega = eps(n, 1, 2).scale(l1) + eps(n, 3, 4).scale(l2)
        got = exp_element(omega)
        want = multiply(scalar(n, 1.0) + eps(n, 1, 2).scale(l1),
                        scalar(n, 1.0) + eps(n, 3, 4).scale(l2))
        assert got.terms == pytest.approx(want.terms)

    def test_sin_cos_identity_nilpotent(self):
        n = 4
        omega = eps(n, 1, 2) + eps(n, 3, 4).scale(2.0)
        s, c = sin_element(omega), cos_element(omega)
        total = multiply(s, s) + multiply(c, c)
        assert total.terms == pytest.approx({0: 1.0 + 0j})

    def test_requires_even(self):
        with pytest.raises(ValidationError):
            exp_element(generator(2, 1))

    def test_insufficient_derivatives(self):
        omega = eps(4, 1, 2)
        with pytest.raises(ValidationError):
            compose_even([1.0], omega)

    def test_body_offset(self):
        # f(a + nu) with nonzero body a
        n = 2
        omega = scalar(n, 0.3) + eps(n, 1, 2).scale(0.5)
        got = exp_element(omega)
        assert got.terms[0] == pytest.approx(math.exp(0.3))
        assert got.terms[0b11] == pytest.approx(0.5 * math.exp(0.3))


def _bits(x: GrassmannElement) -> list:
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()]


def _even_element(rng, n, body):
    masks = [m for m in range(1, 1 << n) if m.bit_count() % 2 == 0]
    terms = {0: body}
    for _ in range(int(rng.integers(1, 7))):
        z = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 1, size=2)
        terms[int(rng.choice(masks))] = complex(*z)
    return GrassmannElement(n, terms)


class TestElementaryFunctionBytes:
    """exp, cos and sin take their body values from cmath and round each
    Taylor coefficient as numpy's complex / int does: the terms equal the
    numpy-scalar route's in key order and in every bit, signed zeros
    included."""

    @pytest.mark.parametrize("name, fn", [
        ("exp", exp_element), ("cos", cos_element), ("sin", sin_element)])
    def test_terms_match_numpy_scalar_route(self, rng, name, fn):
        for n in (2, 4, 5, 6, 8, 10):
            for _ in range(12):
                re, im = rng.normal(size=2) * 10.0 ** rng.uniform(-4, 1.3,
                                                                  size=2)
                for body in (complex(re, im), complex(re, 0.0),
                             complex(re, -0.0), complex(0.0, im),
                             complex(-0.0, im), 0j):
                    omega = _even_element(rng, n, body)
                    want = elementary_numpy(name, omega)
                    assert _bits(fn(omega)) == _bits(want), (n, body)

    @pytest.mark.parametrize("name, fn", [
        ("exp", exp_element), ("cos", cos_element), ("sin", sin_element)])
    @pytest.mark.parametrize("body", [
        complex(708.7, 0.3), complex(709.6, -0.0), complex(-720.0, 2.0),
        complex(0.2, 709.5), complex(-1.1, -708.5), complex(1e300, 0.0)])
    def test_large_bodies_are_finite_and_close_or_raise(self, name, fn,
                                                         body):
        # cmath rescales a large argument, so the last bits may leave the
        # numpy route's; the values stay within rounding of it, and a value
        # beyond double range is a NumericalError either way
        omega = GrassmannElement(4, {0: body, 0b11: 0.25,
                                     0b1100: -0.125 + 0.0625j})
        with np.errstate(all="ignore"):
            want = elementary_numpy(name, omega).terms
        if all(cmath.isfinite(c) for c in want.values()):
            got = fn(omega).terms
            assert list(got) == list(want)
            assert all(cmath.isfinite(c) for c in got.values())
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        else:
            with pytest.raises(NumericalError, match="not finite"):
                fn(omega)

    @pytest.mark.parametrize("text", ["exp(710)", "cos(800i + e1 e2)",
                                      "sin(1000i)", "exp(710 + 0.5i)"])
    def test_value_beyond_double_range_is_numerical_error(self, text):
        with pytest.raises(NumericalError, match="not finite"):
            parse_expression(text)

    @pytest.mark.parametrize("fn", [exp_element, cos_element, sin_element])
    @pytest.mark.parametrize("body", [math.inf, math.nan,
                                      complex(0.0, math.inf)])
    def test_non_finite_body_is_numerical_error(self, fn, body):
        omega = GrassmannElement._valid(2, {0: complex(body), 3: 1 + 0j})
        with pytest.raises(NumericalError, match="not finite"):
            fn(omega)

    def test_series_takes_no_coefficient_past_the_last_power(self):
        # 1 / l! leaves double range past l = 170; exp(e1 e2) needs l <= 1
        got = exp_element(eps(400, 1, 2))
        assert got.terms == {0: 1 + 0j, 0b11: 1 + 0j}


class TestGaussianIntegral:
    def test_block_diagonal(self):
        lam1, lam2 = 2.0, -0.75
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = lam1, -lam1
        a[2, 3], a[3, 2] = lam2, -lam2
        assert gaussian_integral(a) == pytest.approx(lam1 * lam2)

    def test_zero_matrix(self):
        assert gaussian_integral(np.zeros((2, 2))) == 0

    def test_odd_dimension_returns_zero(self):
        assert gaussian_integral(np.zeros((3, 3))) == 0
        m = np.random.default_rng(59).normal(size=(7, 7))
        assert gaussian_integral(m - m.T) == 0

    def test_empty_matrix_has_unit_pfaffian(self):
        empty = np.zeros((0, 0))
        assert pfaffian(empty) == 1
        assert gaussian_integral_series(empty) == 1

    def test_rejects_nonantisymmetric(self):
        with pytest.raises(ValidationError):
            gaussian_integral(np.eye(2))

    def test_pfaffian_squared_is_determinant(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            m = rng.normal(size=(6, 6))
            a = m - m.T
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert abs(pf ** 2 - det) <= 1e-12 * max(abs(det), 1.0)

    def test_matches_series_expansion(self):
        rng = np.random.default_rng(17)
        for n in (2, 4, 6, 8):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = m - m.T
            direct = gaussian_integral(a)
            series = gaussian_integral_series(a)
            assert abs(direct - series) <= 1e-10 * max(abs(direct), 1.0)

    def test_transformation_law(self):
        rng = np.random.default_rng(29)
        m = rng.normal(size=(6, 6))
        a = m - m.T
        t = rng.normal(size=(6, 6))
        lhs = gaussian_integral(t.T @ a @ t)
        rhs = np.linalg.det(t) * gaussian_integral(a)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


class TestPfaffianElimination:
    @staticmethod
    def hadamard(a):
        """Product of row norms: an upper bound for |det a|."""
        return float(np.prod(np.linalg.norm(a, axis=1)))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_matches_expansion(self, complex_entries):
        rng = np.random.default_rng(41)
        for n in range(2, 15, 2):
            for _ in range(3):
                m = rng.normal(size=(n, n))
                if complex_entries:
                    m = m + 1j * rng.normal(size=(n, n))
                a = m - m.T
                want = pfaffian_expansion(a)
                assert abs(pfaffian(a) - want) <= 1e-12 * abs(want)

    def test_integer_entries_match_expansion(self):
        rng = np.random.default_rng(43)
        for n in (4, 8, 12):
            upper = np.triu(rng.integers(-3, 4, size=(n, n)), 1)
            a = (upper - upper.T).astype(float)
            want = pfaffian_expansion(a)
            assert abs(pfaffian(a) - want) <= 1e-12 * self.hadamard(a) ** 0.5

    def test_singular_gives_zero(self):
        rng = np.random.default_rng(53)
        m = rng.normal(size=(6, 6))
        a = m - m.T
        a[3, :] = 0.0
        a[:, 3] = 0.0
        assert pfaffian(a) == 0
        assert pfaffian(np.zeros((8, 8))) == 0

    def test_squared_is_determinant_at_n_40(self):
        rng = np.random.default_rng(61)
        m = rng.normal(size=(40, 40))
        a = m - m.T
        pf = pfaffian(a)
        assert abs(pf * pf - np.linalg.det(a)) <= 1e-12 * self.hadamard(a)


class TestChangeOfVariables:
    def test_identity(self):
        rng = np.random.default_rng(31)
        x = rand_element(rng, 4)
        got = linear_change_of_variables(np.eye(4), x)
        assert got.terms == x.terms

    def test_diagonal_scaling_of_top(self):
        a = np.diag([2.0, 1.0, 1.0])
        x = eps(3, 1, 2, 3)
        got = linear_change_of_variables(a, x)
        assert got.terms == {0b111: 2.0 + 0j}

    def test_top_coefficient_scales_by_det(self):
        rng = np.random.default_rng(37)
        t = rng.normal(size=(4, 4))
        x = eps(4, 1, 2, 3, 4)
        got = linear_change_of_variables(t, x)
        assert berezin_integral(got) == pytest.approx(np.linalg.det(t))

    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            linear_change_of_variables(np.zeros((2, 2)), scalar(2, 1.0))


class TestMixedDifferentials:
    def rand_mixed(self, rng, r, max_deg=3, nterms=6):
        terms = {}
        for _ in range(nterms):
            deg = tuple(int(x) for x in rng.integers(0, max_deg + 1, size=r))
            mask = int(rng.integers(0, 1 << r))
            terms[(deg, mask)] = complex(int(rng.integers(-3, 4)),
                                         int(rng.integers(-3, 4)))
        return mixed(r, r, terms)

    def test_d_squared_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = self.rand_mixed(rng, 4)
            assert d_operator(d_operator(x)).is_zero()

    def test_delta_squared_zero(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            x = self.rand_mixed(rng, 4)
            assert delta_operator(delta_operator(x)).is_zero()

    def test_d_example(self):
        # d(x1) = xi1, d(x1 x2) = xi1 x2 + x1 xi2
        x1 = mixed(2, 2, {((1, 0), 0): 1.0})
        got = d_operator(x1)
        assert got.terms == {((0, 0), 0b01): 1.0 + 0j}
        x1x2 = mixed(2, 2, {((1, 1), 0): 1.0})
        got = d_operator(x1x2)
        assert got.terms == {((0, 1), 0b01): 1.0 + 0j, ((1, 0), 0b10): 1.0 + 0j}

    def test_delta_example(self):
        # Delta(x1 xi1) = 1
        x = mixed(1, 1, {((1,), 0b1): 1.0})
        assert delta_operator(x).terms == {((0,), 0): 1.0 + 0j}


class TestExpressionLanguage:
    def test_cos_expression(self):
        got = parse_expression("cos(e1 e2 + e3 e4)")
        assert format_element(got) == "1 - e1 e2 e3 e4"

    def test_problem_product(self):
        got = parse_expression("(e1+e2)(e2+e3)(e3+e4)")
        assert format_element(got) == "e1 e2 e3 + e1 e2 e4 + e1 e3 e4 + e2 e3 e4"

    def test_numbers_and_powers(self):
        got = parse_expression("2 e1 e2 + (e1 e2)^2", n=4)
        assert got.terms == {0b0011: 2.0 + 0j}

    def test_imaginary_literal(self):
        got = parse_expression("1i e1 e2", n=2)
        assert got.terms == {0b11: 1j}

    def test_round_trip_through_format(self):
        expr = "exp(e1 e2) - 1"
        got = parse_expression(expr, n=2)
        assert format_element(got) == "e1 e2"

    def test_unknown_function_rejected(self):
        with pytest.raises(ValidationError):
            parse_expression("tan(e1 e2)")

    def test_nilpotent_power_stops_at_zero(self):
        # the loop ends once the power vanishes, so a huge exponent is cheap
        assert parse_expression("e1^1000000000", n=2).is_zero()
        assert parse_expression("(e1 + e2)^1000000000").is_zero()
        assert parse_expression("(e1 + e2)^0").terms == {0: 1.0 + 0j}

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_power_matches_repeated_multiplication(self, data):
        n = 4
        terms = data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=2 ** n - 1),
            st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                               allow_infinity=False), max_size=6))
        x = GrassmannElement(n, terms)
        exponent = data.draw(st.integers(min_value=0, max_value=12))
        want = scalar(n, 1.0)
        for _ in range(exponent):
            want = multiply(want, x)
        got = _power(x, exponent)
        scale = max(1.0, sum(abs(c) for c in x.terms.values())) ** exponent
        for mask in set(got.terms) | set(want.terms):
            gap = abs(got.terms.get(mask, 0j) - want.terms.get(mask, 0j))
            assert gap <= 1e-12 * scale

    def test_power_with_a_body_costs_log_n(self):
        got = parse_expression("(e1 + 1)^1000000000")
        assert got.terms == {0: 1.0 + 0j, 0b1: 1e9 + 0j}
        got = parse_expression("(e1 e2 - 1)^999999999")
        assert got.terms == {0: -1.0 + 0j, 0b11: 999999999.0 + 0j}
        with pytest.raises(NumericalError):
            parse_expression("(e1 + 2)^2000")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ValidationError):
            parse_expression("cos(e1 e2")

    def test_generators_up_to_the_cap(self):
        top = grassmann.GENERATORS_MAX
        x = parse_expression(f"e1 e{top:07d} + 2 e{top}")
        assert x.n == top
        assert format_element(x) == f"2 e{top} + e1 e{top}"
        assert parse_expression("e1", n=top).n == top

    @pytest.mark.parametrize("text, n", [
        (f"e{grassmann.GENERATORS_MAX + 1}", None),
        ("e" + "9" * 5000, None),
        ("e1", grassmann.GENERATORS_MAX + 1),
        ("e\u00b2", None), ("e1^\u00b2", None), ("\u0663 e1", None),
        ("e1", -1), ("e1", True)],
        ids=["one-past-cap", "past-int-digits", "n-past-cap",
             "superscript-index", "superscript-exponent",
             "arabic-indic-digit", "negative-n", "bool-n"])
    def test_indices_past_the_cap_or_not_ascii_are_refused(self, text, n):
        with pytest.raises(ValidationError):
            parse_expression(text, n)


# the array route of multiply against the dict loop, byte for byte

# parts with signed zeros, subnormals and values near double range, where a
# product overflows and rounding differs first
_EDGE_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, 0.1, -1.7, 5e-324, -5e-324,
               1e-310, 2.2250738585072014e-308, 1e200, -1.5e308,
               1.7976931348623157e308]


def _hex_terms(terms):
    return [(mask, c.real.hex(), c.imag.hex()) for mask, c in terms.items()]


def _edge_terms(rng, bits, count):
    """Up to `count` terms whose masks are subsets of `bits`, so keys meet
    often, with coefficients that mix edge parts and normal draws."""
    terms = {}
    for _ in range(count):
        mask = sum(1 << b for b in bits if rng.integers(0, 2))
        if rng.integers(0, 2):
            coeff = complex(*rng.choice(_EDGE_PARTS, size=2))
        else:
            coeff = complex(*rng.normal(size=2))
        terms[mask] = coeff
    return terms


class TestArrayRoute:
    @pytest.mark.parametrize("n", [10, 40, 62, 63])
    @pytest.mark.parametrize("count_x, count_y", [
        (1, 1), (20, 30), (30, 30), (64, 12), (300, 300)],
        ids=["one-pair", "600-pairs", "900-pairs", "768-pairs",
             "across-a-block-edge"])
    def test_same_bytes_as_the_dict_loop(self, n, count_x, count_y):
        rng = np.random.default_rng(n * 1000 + count_x)
        # 14 of the n bits, the top one (bit 62 at n = 63) among them
        bits = sorted({n - 1, *rng.choice(n, size=min(n, 13),
                                          replace=False).tolist()})
        xt = _edge_terms(rng, bits, count_x)
        yt = _edge_terms(rng, bits, count_y)
        want = grassmann._multiply_dicts(xt, yt)
        got = grassmann._multiply_arrays(xt, yt)
        assert _hex_terms(got) == _hex_terms(want)
        assert ((len(xt) * len(yt) > grassmann.BLOCK_PAIRS)
                == (count_x == 300))

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_keys_met_again_in_later_blocks(self, block, monkeypatch):
        rng = np.random.default_rng(block)
        xt = _edge_terms(rng, range(9), 120)
        yt = _edge_terms(rng, range(9), 40)
        monkeypatch.setattr(grassmann, "BLOCK_PAIRS", block)
        assert (_hex_terms(grassmann._multiply_arrays(xt, yt))
                == _hex_terms(grassmann._multiply_dicts(xt, yt)))

    def test_no_valid_pair_gives_no_term(self):
        xt = {1 | 2 * k: 1.5 + 0j for k in range(40)}
        assert grassmann._multiply_arrays(xt, xt) == {}

    def test_unit_multiply_keeps_cpython_rounding(self):
        # CPython's 1 * (2-0j) is (2+0j) and 1 * complex(2, inf) is
        # complex(nan, inf): the sign multiply is kept
        xt = {0: complex(2.0, -0.0), 1: complex(-0.0, -0.0),
              8: complex(2.0, math.inf)}
        yt = {2: 1.0 + 0j, 16: complex(-0.0, 1.0), 32: 1.0 + 0j}
        assert (_hex_terms(grassmann._multiply_arrays(xt, yt))
                == _hex_terms(grassmann._multiply_dicts(xt, yt)))

    @pytest.mark.parametrize("n, extra, taken", [
        (63, 12, True), (64, 12, False), (10, 1, True), (10, 0, False)],
        ids=["63-bits", "64-bits", "at-threshold", "below-threshold"])
    def test_route_follows_the_operands(self, n, extra, taken, monkeypatch):
        # count^2 pairs: at least ARRAY_PAIRS from extra = 1 on
        count = math.isqrt(grassmann.ARRAY_PAIRS - 1) + extra
        calls = []
        arrays = grassmann._multiply_arrays
        monkeypatch.setattr(grassmann, "_multiply_arrays",
                            lambda x, y: calls.append(1) or arrays(x, y))
        rng = np.random.default_rng(n + count)
        bits = sorted({n - 1, *rng.choice(n, size=9, replace=False).tolist()})
        x = GrassmannElement(n, _edge_terms(rng, bits, 4 * count))
        x = GrassmannElement(n, dict(list(x.terms.items())[:count]))
        assert len(x.terms) == count
        got = multiply(x, x)
        assert bool(calls) == taken
        assert _hex_terms(got.terms) == _hex_terms(
            GrassmannElement._valid(
                n, grassmann._multiply_dicts(x.terms, x.terms)).terms)

    def test_peak_memory_stays_within_a_block(self, monkeypatch):
        # all 1,024 masks of 10 generators times the first `rows`: at 1,024
        # rows 2^20 pairs in 16 blocks, whose pair table as int64 would be
        # 8 MiB on its own
        xt = {m: complex(m, -m) for m in range(1 << 10)}

        def peak(rows):
            x = dict(list(xt.items())[:rows])
            tracemalloc.start()
            try:
                grassmann._multiply_arrays(x, xt)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = grassmann.BLOCK_PAIRS >> 10
        peak(rows)  # numpy's first-call allocations
        one_block, sixteen = peak(rows), peak(1 << 10)
        monkeypatch.setattr(grassmann, "BLOCK_PAIRS", 1 << 20)
        unblocked = peak(1 << 10)
        assert sixteen < 2 * one_block
        assert 3 * sixteen < unblocked

    def test_parse_gives_the_same_bytes_with_and_without_numpy(self):
        inner = " + ".join(
            f"{(7 * i + 3 * j) % 11 / 7 - 0.6!r} e{i} e{j}"
            for i in range(1, 11) for j in range(i + 1, 11))
        script = (
            "import json, sys\n"
            "if sys.argv[1] == 'numpy':\n"
            "    import numpy\n"
            "from qtoolkit import grassmann as g\n"
            "calls = []\n"
            "arrays = g._multiply_arrays\n"
            "g._multiply_arrays = lambda x, y: calls.append(1) or "
            "arrays(x, y)\n"
            "out = [[[m, c.real.hex(), c.imag.hex()] for m, c in "
            "g.parse_expression(f).terms.items()] for f in sys.argv[2:]]\n"
            "print(json.dumps([out, len(calls), 'numpy' in sys.modules]))\n")
        texts = [f"exp(0.3 + 0.2i + {inner})", f"cos(0.7i + {inner})"]
        results = []
        for mode in ("numpy", "plain"):
            proc = fresh_python(["-c", script, mode, *texts])
            assert proc.returncode == 0, proc.stderr
            results.append(json.loads(proc.stdout))
        (with_numpy, calls, loaded), (without, none, absent) = results
        assert calls > 0 and loaded
        assert none == 0 and not absent
        assert with_numpy == without
        assert all(len(terms) > 200 for terms in with_numpy)

