"""Kernel results skip the constructors' checks and keep their bytes.

`multiply`, the `GrassmannElement` arithmetic, the series behind exp, cos,
sin and `^`, and the `NormalOrderedPolynomial` arithmetic build their
results from already-valid operands through a private constructor that
only drops exact zeros, and `multiply` takes each merge sign from one
parity mask per left monomial.  Each test here recomputes a result with
every intermediate rebuilt through the validating constructor and every
Grassmann sign counted crossing by crossing (the routes in `oracles`), and
asks for the same terms in the same order with the same coefficient bits,
signed zeros included.  `product` walks every term pair in one loop, and
its results are compared the same way with the route that normal-orders
each pair by a generator of its own (`oracles.product_pairwise`).  The
public constructors keep every check, and hold every term key and mask
to the integer rule.
"""

import math

import numpy as np
import pytest

from qtoolkit import grassmann, weyl_clifford
from qtoolkit.errors import ValidationError
from qtoolkit.grassmann import (GrassmannElement, _parity_mask, element,
                                generator, multiply, parse_expression,
                                scalar)
from qtoolkit.weyl_clifford import (NormalOrderedPolynomial, WickSymbol,
                                    _bose_weights, annihilator, commutator,
                                    creator, involution, poly, product)

import oracles
from oracles import _merge_sign


def _sign(mask_a, mask_b):
    return -1 if (mask_b & _parity_mask(mask_a)).bit_count() & 1 else 1


def _mask(rng, n, density):
    return sum(1 << k for k in np.flatnonzero(rng.random(n) < density)
               .tolist())


def test_parity_mask_matches_crossing_count_up_to_8_generators():
    bad = [(a, b) for a in range(1 << 8) for b in range(1 << 8)
           if _sign(a, b) != _merge_sign(a, b)]
    assert bad == []


@pytest.mark.parametrize("n", [64, 65, 100, 128, 130])
def test_parity_mask_matches_crossing_count_past_64_bits(n):
    rng = np.random.default_rng(n)
    top = 1 << (n - 1)
    pairs = [(_mask(rng, n, da) | top * int(rng.integers(0, 2)),
              _mask(rng, n, db))
             for da in (0.05, 0.5, 0.95) for db in (0.0, 0.05, 0.5, 0.95)
             for _ in range(40)]
    assert [_sign(a, b) for a, b in pairs] == [_merge_sign(a, b)
                                               for a, b in pairs]


def _bytes(x):
    """Everything a result holds, each coefficient as its exact bits."""
    head = ((x.n,) if isinstance(x, GrassmannElement)
            else (x.statistics, x.modes, x.hbar))
    return head, [(repr(key), type(c), c.real.hex(), c.imag.hex())
                  for key, c in x.terms.items()]


@pytest.fixture
def validating(monkeypatch):
    """fn(*args) recomputed through the validating routes."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(grassmann, "multiply", oracles.multiply_crossing)
            m.setattr(GrassmannElement, "_valid",
                      classmethod(oracles.validating_element))
            m.setattr(NormalOrderedPolynomial, "_like",
                      oracles.validating_like)
            return fn(*args)
    return run


# coefficients with signed zeros, dyadic and non-dyadic parts
_PARTS = [0.0, -0.0, 1.0, -2.0, 0.5, 0.1, -1.7]


def _coeff(rng):
    return complex(*rng.choice(_PARTS, size=2)) + complex(
        *(rng.normal(size=2) * int(rng.integers(0, 2))))


def _element(rng, n, count):
    return GrassmannElement(n, {int(rng.integers(0, 1 << n)): _coeff(rng)
                                for _ in range(count)})


@pytest.mark.parametrize("n", range(0, 11))
def test_multiply_keeps_its_bytes(n, validating):
    rng = np.random.default_rng(100 + n)
    for count_x, count_y in ((1, 1), (4, 6), (12, 9)):
        x, y = _element(rng, n, count_x), _element(rng, n, count_y)
        for call in (lambda: multiply(x, y), lambda: x * y + y,
                     lambda: x - y.scale(np.complex128(0.3 - 0.7j)),
                     lambda: grassmann.left_derivative(1, x) if n else x):
            assert _bytes(call()) == _bytes(validating(call))


def _quadratic(rng, n):
    """A signed sum of quadratic monomials: '+ 0.5 e1 e2 - 1.7 e1 e4 ...'."""
    return " ".join(f"{rng.choice(['+', '-'])} "
                    f"{rng.choice(['1', '0.5', '0.1', '1.7'])} e{i} e{j}"
                    for i in range(1, n + 1) for j in range(i + 1, n + 1)
                    if rng.random() < 0.7)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_parse_expression_keeps_its_bytes(n, validating):
    rng = np.random.default_rng(200 + n)
    texts = [f"{fn}({body} {_quadratic(rng, n)})"
             for fn in ("exp", "cos", "sin")
             for body in ("0", "0.3", "0.5i", "-0.0")]
    texts += [f"(1 {_quadratic(rng, n)})^5",
              f"(0.5i + e1 {_quadratic(rng, n)})^3 * exp(1 "
              f"{_quadratic(rng, n)})",
              f"-(2 - e1 e2)^{n + 3} - cos(e1 e2)^2 + sin(e1 e2)^2",
              f"e{n} e1 (e1 + 0.1 e{n})^2 - 1i"]
    for text in texts:
        assert _bytes(parse_expression(text, n)) == _bytes(
            validating(parse_expression, text, n)), text


def _poly(rng, statistics, modes, count, hbar):
    terms = {}
    for _ in range(count):
        if statistics == "bose":
            key = tuple(tuple(int(d) for d in rng.integers(0, 3, size=modes))
                        for _ in range(2))
        else:
            key = tuple(int(m) for m in rng.integers(0, 1 << modes, size=2))
        terms[key] = _coeff(rng)
    return poly(statistics, modes, terms, hbar=hbar)


@pytest.mark.parametrize("statistics, modes", [
    ("bose", 1), ("bose", 2), ("bose", 3), ("fermi", 2), ("fermi", 4),
    ("fermi", 8)])
@pytest.mark.parametrize("hbar", [1.0, 0.3, np.float64(0.5),
                                  np.float32(0.5)])
def test_product_keeps_its_bytes(statistics, modes, hbar, validating):
    rng = np.random.default_rng(modes)
    a, b, c = (_poly(rng, statistics, modes, 4, hbar) for _ in range(3))
    calls = [lambda: product(a, b, 24), lambda: product(product(a, b, 24), c,
                                                        24),
             lambda: commutator(a, c, 24), lambda: involution(a) - b,
             lambda: b.scale(np.complex128(1.5 - 0.25j)) + a,
             lambda: creator(statistics, modes, 1, hbar)
             * annihilator(statistics, modes, modes, hbar)]
    for call in calls:
        assert _bytes(call()) == _bytes(validating(call))


@pytest.fixture
def pairwise(monkeypatch):
    """fn(*args) recomputed with every Weyl-Clifford product taken term
    pair by term pair."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(weyl_clifford, "product", oracles.product_pairwise)
            return fn(*args)
    return run


_HBARS = [1.0, 0.3, np.float64(0.5), np.float32(0.3)]


def _product_calls(a, b, c, cap):
    """Products, commutators and involutions of a, b and c, each looking
    `product` up on its module when it runs."""
    wc = weyl_clifford
    return [lambda: wc.product(a, b, cap),
            lambda: wc.product(wc.product(a, b, cap), c, cap),
            lambda: wc.product(a, wc.product(b, c, cap), cap),
            lambda: commutator(a, c, cap), lambda: commutator(b, a, cap),
            lambda: involution(wc.product(a, b, cap)),
            lambda: wc.product(involution(b), involution(a), cap)]


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
@pytest.mark.parametrize("hbar", _HBARS)
def test_bose_product_matches_pairwise_route(modes, hbar, pairwise):
    rng = np.random.default_rng(300 + modes)
    for _ in range(6):
        a, b, c = (poly("bose", modes, {
            tuple(tuple(int(d) for d in rng.integers(0, 5, size=modes))
                  for _ in range(2)): _coeff(rng)
            for _ in range(int(rng.integers(1, 4)))}, hbar=hbar)
            for _ in range(3))
        for call in _product_calls(a, b, c, 48 * modes):
            assert _bytes(call()) == _bytes(pairwise(call))


@pytest.mark.parametrize("modes", range(1, 11))
def test_fermi_product_matches_pairwise_route(modes, pairwise):
    rng = np.random.default_rng(400 + modes)
    for density in (0.2, 0.5, 0.8):
        a, b, c = (poly("fermi", modes, {
            tuple(_mask(rng, modes, density) for _ in range(2)): _coeff(rng)
            for _ in range(int(rng.integers(1, 6)))}) for _ in range(3))
        for call in _product_calls(a, b, c, 6 * modes):
            assert _bytes(call()) == _bytes(pairwise(call))


@pytest.mark.parametrize("modes", [60, 64, 65, 100, 130])
def test_fermi_product_matches_pairwise_route_past_64_bits(modes,
                                                           pairwise):
    rng = np.random.default_rng(500 + modes)
    top = 1 << (modes - 1)
    for _ in range(4):
        a, b, c = (poly("fermi", modes, {
            (_mask(rng, modes, 0.1) | top * int(rng.integers(0, 2)),
             _mask(rng, modes, 0.1) | top * int(rng.integers(0, 2))):
            _coeff(rng) for _ in range(3)}) for _ in range(3))
        for call in _product_calls(a, b, c, 6 * modes):
            assert _bytes(call()) == _bytes(pairwise(call))


@pytest.mark.parametrize("statistics, modes", [("bose", 2), ("fermi", 4)])
def test_product_matches_pairwise_route_past_overflow(statistics, modes,
                                                      pairwise):
    """Term products that overflow: an infinite c times r = 1.0 or -1 has a
    nan part that c or -c alone lacks, so each c * r must stay."""
    rng = np.random.default_rng(600 + modes)
    huge = [1e200, -1e200, 1e200j, 3e300 - 1e200j]
    for _ in range(6):
        a, b, c = (_poly(rng, statistics, modes, 3, 1e300)
                   for _ in range(3))
        a = a.scale(complex(rng.choice(huge)))
        b = b.scale(complex(rng.choice(huge)))
        for call in _product_calls(a, b, c, 12 * modes):
            assert _bytes(call()) == _bytes(pairwise(call))


@pytest.mark.parametrize("statistics", ["bose", "fermi"])
@pytest.mark.parametrize("hbar", _HBARS)
def test_ladder_products_match_pairwise_route(statistics, hbar, pairwise):
    ladders = [f(statistics, 3, k, hbar) for f in (creator, annihilator)
               for k in (1, 2, 3)]
    for x in ladders:
        for y in ladders:
            call = (lambda: x * y)
            assert _bytes(call()) == _bytes(pairwise(call))


def test_bose_weights_are_the_contraction_counts():
    for k in range(13):
        for l in range(13):
            assert _bose_weights(k, l) == [
                (j, math.factorial(j) * math.comb(k, j) * math.comb(l, j))
                for j in range(min(k, l) + 1)]


@pytest.mark.parametrize("call", [
    lambda: GrassmannElement(3, {8: 1.0}),
    lambda: GrassmannElement(3, {-1: 1.0}),
    lambda: element(2, {4: 1j}),
    lambda: GrassmannElement(-1, {}),
    lambda: GrassmannElement(2.5, {}),
    lambda: GrassmannElement(True, {}),
    lambda: scalar(-1, 1.0),
    lambda: generator(2, 3),
    lambda: poly("bose", 2, {((1,), (0, 0)): 1.0}),
    lambda: poly("bose", 1, {((-1,), (0,)): 1.0}),
    lambda: poly("fermi", 2, {(4, 0): 1.0}),
    lambda: poly("fermi", 2, {(0, -1): 1.0}),
    lambda: poly("fermi", 0, {}),
    lambda: poly("bose", 1.5, {}),
    lambda: poly("boson", 1, {}),
    lambda: NormalOrderedPolynomial("fermi", 1, 0.0, {}),
    lambda: NormalOrderedPolynomial("fermi", 1, math.nan, {}),
    lambda: NormalOrderedPolynomial("bose", 1, 1j, {}),
    lambda: GrassmannElement(2, {1.5: 1}),
    lambda: GrassmannElement(2, {True: 1}),
    lambda: poly("bose", 1, {((1.5,), (0,)): 1}),
    lambda: poly("bose", 2, {((0, 0), (np.float64(1), True)): 1}),
    lambda: poly("bose", 1, {((1.5,), (0,)): 0}),
    lambda: poly("fermi", 2, {(1.5, 0): 1}),
    lambda: poly("fermi", 2, {(0, True): 1}),
    lambda: grassmann.mixed(1, 1, {((1.5,), 0): 1}),
    lambda: grassmann.mixed(1, 1, {((1,), True): 1}),
    lambda: WickSymbol("fermi", 2, {(1.5, 0): 1}),
    lambda: WickSymbol("bose", 1, {((0,), (-1,)): 1}),
    lambda: WickSymbol("boson", 1, {}),
], ids=["mask-above-n", "negative-mask", "element-mask", "negative-n",
        "float-n", "bool-n", "scalar-n", "generator-index", "bose-key-length",
        "bose-negative-degree", "fermi-key-above-modes",
        "fermi-negative-key", "zero-modes", "float-modes", "statistics",
        "zero-hbar", "nan-hbar", "complex-hbar", "float-mask", "bool-mask",
        "bose-float-degree", "bose-numpy-float-and-bool-degree",
        "bose-float-degree-zero-coefficient", "fermi-float-mask",
        "fermi-bool-mask", "mixed-float-degree", "mixed-bool-mask",
        "wick-float-mask", "wick-negative-degree", "wick-statistics"])
def test_public_constructors_keep_every_check(call):
    with pytest.raises(ValidationError):
        call()


def test_public_constructors_store_numpy_integer_keys_as_ints():
    i = np.int64
    made = [poly("bose", 2, {((i(1), np.int8(0)), (0, i(2))): 1}).terms,
            poly("fermi", 3, {(i(5), np.uint8(2)): 1}).terms,
            GrassmannElement(3, {i(6): 1}).terms,
            grassmann.mixed(1, 2, {((i(2),), i(3)): 1}).terms]
    assert [repr(list(terms)) for terms in made] == [
        "[((1, 0), (0, 2))]", "[(5, 2)]", "[6]", "[((2,), 3)]"]
