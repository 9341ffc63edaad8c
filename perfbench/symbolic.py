"""Workload `symbolic`: exact normal-ordered products and Grassmann calculus.

Single thread, no dense matrices in the timed calls.  The load is carried
by the exponential symbolic kernels: `weyl_clifford.product` word
reduction (one bosonic mode up to a^7 . a*^7, two modes up to
a^4a^4 . a*^4a*^4, fermions up to 8 modes), associativity triples and
Jacobi commutator triples at hbar = 0.5 with Gaussian-integer
coefficients (so every defect is exactly 0), Grassmann parse/exp/cos up
to 10 generators, and `pfaffian` for n = 10..18.

Seeds change coefficients, mode labels and matrix entries, never the
shape of the work, so every seed costs the same.

Left out for cost: one-mode a^8 . a*^8 (4-7 s per call).
"""

from __future__ import annotations

import math

import numpy as np

from qtoolkit import grassmann, weyl_clifford

import fock_action
from batch import Batch, Check, Op

HBAR = 0.5


def _gauss_int(rng):
    """Gaussian integer with nonzero real part, so products never vanish."""
    re = int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)
    return complex(re, int(rng.integers(-3, 4)))


def _poly(stat, modes, terms):
    return weyl_clifford.poly(stat, modes, terms, hbar=HBAR)


# --------------------------------------------------------------------------
# oracles


def wick_product(a, b):
    """Bosonic product by the per-mode closed form
    a^k a*^l = sum_j j! C(k,j) C(l,j) hbar^j a*^(l-j) a^(k-j)."""
    out = {}
    for (al, be), ca in a.terms.items():
        for (ga, de), cb in b.terms.items():
            partial = [((), (), ca * cb)]
            for k in range(a.modes):
                nxt = []
                for j in range(min(be[k], ga[k]) + 1):
                    w = (math.factorial(j) * math.comb(be[k], j)
                         * math.comb(ga[k], j) * a.hbar ** j)
                    for cre, ann, c in partial:
                        nxt.append((cre + (al[k] + ga[k] - j,),
                                    ann + (be[k] + de[k] - j,), c * w))
                partial = nxt
            for cre, ann, c in partial:
                out[(cre, ann)] = out.get((cre, ann), 0j) + c
    return {k: v for k, v in out.items() if v != 0}


def _check_wick(a, b, name):
    def fn(outs):
        if outs[name].terms != wick_product(a, b):
            return "product differs from the closed-form Wick expansion"
        return None
    return fn


def _check_fermi_rep(a, b, name):
    def fn(outs):
        lhs = fock_action.matrix(outs[name])
        rhs = fock_action.matrix(a) @ fock_action.matrix(b)
        gap = float(np.abs(lhs - rhs).max())
        if gap > 1e-12 * max(1.0, float(np.abs(rhs).max())):
            return f"Fock matrices: |rep(a.b) - rep(a) rep(b)| = {gap:.3e}"
        return None
    return fn


def _exact_zero(poly, what):
    if not poly.is_zero():
        worst = max(abs(c) for c in poly.terms.values())
        return f"{what} defect {worst!r} is not exactly 0"
    return None


def _hadamard(a):
    """Product of row norms: an upper bound for |det a|."""
    return float(np.prod(np.linalg.norm(a, axis=1)))


# --------------------------------------------------------------------------
# structure templates: fixed shapes, seeded mode labels and coefficients


def _random_terms(rng, stat, modes, count, template, perm):
    """`count` terms shaped by `template`, with modes relabelled by `perm`
    and seeded coefficients.  Polynomials that meet in one product share
    `perm`, so a seed relabels the whole problem and its cost is fixed."""
    terms = {}
    for alpha, beta in template[:count]:
        if stat == "bose":
            key = (tuple(int(alpha[perm[k]]) for k in range(modes)),
                   tuple(int(beta[perm[k]]) for k in range(modes)))
        else:
            key = tuple(sum(1 << int(perm[k]) for k in range(modes)
                            if bits[k]) for bits in (alpha, beta))
        terms[key] = terms.get(key, 0j) + _gauss_int(rng)
    return _poly(stat, modes, terms)


def _template(modes, count, salt):
    shape = np.random.default_rng(1000 * modes + salt)
    return [(shape.integers(0, 2, size=modes),
             shape.integers(0, 2, size=modes)) for _ in range(count)]


def build(seed: int) -> Batch:
    rng = np.random.default_rng(np.random.Philox(seed))
    wc = weyl_clifford
    ops, checks, warmup = [], [], []

    def add(name, layer, call):
        ops.append(Op(name, layer, call))
        return name

    # single products against the closed form (bosons) or the Fock
    # representation (fermions)
    singles = []
    for k in range(3, 8):
        singles.append((f"bose1 a^{k}.a*^{k}", "bose", 1,
                        {((0,), (k,)): _gauss_int(rng)},
                        {((k,), (0,)): _gauss_int(rng)}))
    singles.append(("bose1 (a^7+a^3).(a*^7+a*)", "bose", 1,
                    {((0,), (7,)): _gauss_int(rng),
                     ((0,), (3,)): _gauss_int(rng)},
                    {((7,), (0,)): _gauss_int(rng),
                     ((1,), (0,)): _gauss_int(rng)}))
    for k in range(2, 5):
        singles.append((f"bose2 a^{k}a^{k}.a*^{k}a*^{k}", "bose", 2,
                        {((0, 0), (k, k)): _gauss_int(rng)},
                        {((k, k), (0, 0)): _gauss_int(rng)}))
    for m in (4, 6, 8):
        full = (1 << m) - 1
        singles.append((f"fermi{m} a_all.a*_all", "fermi", m,
                        {(0, full): _gauss_int(rng)},
                        {(full, 0): _gauss_int(rng)}))
    for label, stat, modes, ta, tb in singles:
        a, b = _poly(stat, modes, ta), _poly(stat, modes, tb)
        cap = sum(a.degree()) + sum(b.degree())
        name = add(f"product[{label}]", "weyl_clifford",
                   lambda o, a=a, b=b, cap=cap: wc.product(a, b,
                                                           degree_cap=cap))
        fn = (_check_wick if stat == "bose" else _check_fermi_rep)(a, b, name)
        checks.append(Check("wick_closed_form" if stat == "bose"
                            else "fermi_represent_homomorphism",
                            (name,), fn))
    warmup += [ops[0].name, ops[6].name, ops[-3].name]

    # random fermionic product on 8 modes
    perm = rng.permutation(8)
    a = _random_terms(rng, "fermi", 8, 4, _template(8, 4, 1), perm)
    b = _random_terms(rng, "fermi", 8, 4, _template(8, 4, 2), perm)
    name = add("product[fermi8 random 4x4 terms]", "weyl_clifford",
               lambda o, a=a, b=b: wc.product(a, b, degree_cap=16))
    checks.append(Check("fermi_represent_homomorphism", (name,),
                        _check_fermi_rep(a, b, name)))

    # associativity triples: (ab)c and a(bc), defect exactly 0
    for stat, modes in (("bose", 2), ("bose", 3), ("fermi", 4),
                        ("fermi", 6), ("fermi", 8)):
        perm = rng.permutation(modes)
        a, b, c = (_random_terms(rng, stat, modes, 4,
                                 _template(modes, 4, salt), perm)
                   for salt in (3, 4, 5))
        cap = 6 * modes + 6
        tag = f"assoc {stat}{modes}"
        names = (
            add(f"product[{tag} ab]", "weyl_clifford",
                lambda o, a=a, b=b, cap=cap: wc.product(a, b, cap)),
            add(f"product[{tag} (ab)c]", "weyl_clifford",
                lambda o, c=c, cap=cap, t=tag: wc.product(
                    o[f"product[{t} ab]"], c, cap)),
            add(f"product[{tag} bc]", "weyl_clifford",
                lambda o, b=b, c=c, cap=cap: wc.product(b, c, cap)),
            add(f"product[{tag} a(bc)]", "weyl_clifford",
                lambda o, a=a, cap=cap, t=tag: wc.product(
                    a, o[f"product[{t} bc]"], cap)),
        )
        checks.append(Check(
            "associativity_exact", names,
            lambda o, n=names: _exact_zero(o[n[1]] - o[n[3]],
                                           "associativity")))

    # Jacobi triples of commutators, sum exactly 0
    for stat, modes in (("bose", 2), ("fermi", 4), ("fermi", 6)):
        perm = rng.permutation(modes)
        polys = [_random_terms(rng, stat, modes, 3,
                               _template(modes, 3, salt), perm)
                 for salt in (6, 7, 8)]
        cap = 6 * modes + 6
        tag = f"jacobi {stat}{modes}"
        names = []
        for i in range(3):
            x, y, z = polys[i], polys[(i + 1) % 3], polys[(i + 2) % 3]
            inner = add(f"commutator[{tag} [y{i},z{i}]]", "weyl_clifford",
                        lambda o, y=y, z=z, cap=cap: wc.commutator(y, z, cap))
            outer = add(f"commutator[{tag} [x{i},[y{i},z{i}]]]",
                        "weyl_clifford",
                        lambda o, x=x, inner=inner, cap=cap: wc.commutator(
                            x, o[inner], cap))
            names += [inner, outer]
        checks.append(Check(
            "jacobi_exact", tuple(names),
            lambda o, n=tuple(names): _exact_zero(
                o[n[1]] + o[n[3]] + o[n[5]], "Jacobi")))
    warmup.append("commutator[jacobi bose2 [y0,z0]]")

    # generator relations through NormalOrderedPolynomial.__mul__
    for stat in ("bose", "fermi"):
        for k in range(3):
            for l in range(3):
                ann = wc.annihilator(stat, 3, k + 1, hbar=HBAR)
                cre = wc.creator(stat, 3, l + 1, hbar=HBAR)
                ac = add(f"mul[{stat} a{k + 1}.a*{l + 1}]", "weyl_clifford",
                         lambda o, x=ann, y=cre: x * y)
                ca = add(f"mul[{stat} a*{l + 1}.a{k + 1}]", "weyl_clifford",
                         lambda o, x=cre, y=ann: x * y)
                delta = (HBAR if stat == "bose" else 1.0) * (k == l)
                unit = wc.unit(stat, 3, hbar=HBAR).scale(delta)
                sign = -1 if stat == "bose" else 1

                def relation(o, ac=ac, ca=ca, unit=unit, sign=sign):
                    return _exact_zero(o[ac] + o[ca].scale(sign) - unit,
                                       "canonical relation")
                checks.append(Check("canonical_relations_exact", (ac, ca),
                                    relation))

    # Grassmann: exp and cos of a random quadratic element, parsed from text
    for n in (4, 6, 8, 10):
        mat = np.zeros((n, n))
        parts = []
        for i in range(n):
            for j in range(i + 1, n):
                v = int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)
                mat[i, j], mat[j, i] = v, -v
                sign = "+" if v > 0 else "-"
                parts.append(f"{sign} {abs(v)} e{i + 1} e{j + 1}")
        omega = " ".join(parts).lstrip("+ ")
        det = float(np.linalg.det(mat))
        bound = _hadamard(mat)
        # top coefficient: Pf(A) for exp, Re(i^(n/2)) Pf(A) for cos
        for fname, factor in (("exp", 1.0), ("cos", (1j ** (n // 2)).real)):
            name = add(f"parse_expression[{fname} quadratic n={n}]",
                       "grassmann",
                       lambda o, t=f"{fname}({omega})": grassmann
                       .parse_expression(t))

            def berezin(o, name=name, n=n, det=det, bound=bound,
                        factor=factor):
                x = o[name]
                top = x.terms.get((1 << n) - 1, 0j)
                gap = abs(top * top - factor * factor * det)
                if x.terms.get(0, 0j) != 1:
                    return f"body {x.terms.get(0, 0j)!r} != 1"
                if gap > 1e-12 * bound:
                    return f"top coefficient squared misses det by {gap:.3e}"
                return None
            checks.append(Check("berezin_pfaffian_square", (name,), berezin))
    warmup.append("parse_expression[exp quadratic n=4]")

    def antisymmetric(n):
        upper = rng.integers(1, 4, size=(n, n)) * rng.choice([-1, 1], (n, n))
        mat = np.triu(upper, 1).astype(float)
        return mat - mat.T

    for n in (10, 12, 14, 16, 18):
        mat = antisymmetric(n)
        name = add(f"pfaffian[n={n}]", "grassmann",
                   lambda o, m=mat: grassmann.pfaffian(m))

        def squared(o, name=name, mat=mat):
            pf = o[name]
            gap = abs(pf * pf - np.linalg.det(mat))
            if gap > 1e-12 * _hadamard(mat):
                return f"|pf^2 - det| = {gap:.3e}"
            return None
        checks.append(Check("pf_squared_det", (name,), squared))
    warmup.append("pfaffian[n=10]")

    for n in (6, 8, 10):
        mat = antisymmetric(n)
        name = add(f"gaussian_integral[n={n}]", "grassmann",
                   lambda o, m=mat: grassmann.gaussian_integral(m))

        def series(o, name=name, mat=mat):
            gap = abs(o[name] - grassmann.gaussian_integral_series(mat))
            if gap > 1e-12 * math.sqrt(_hadamard(mat)):
                return f"Pfaffian and Berezin series differ by {gap:.3e}"
            return None
        checks.append(Check("gaussian_series", (name,), series))
    warmup.append("gaussian_integral[n=6]")

    return Batch(ops, checks, warmup)
