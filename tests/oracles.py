"""Brute-force routes kept as test oracles for the closed forms in src.

`word_reduction` normal-orders a product by rewriting words one adjacent
swap at a time (each swap of an annihilator past a creator of the same mode
also emits the contraction); `pfaffian_expansion` is the recursive
first-row expansion memoised over index subsets.  Both cost exponential
time and are meant for small sizes only.
"""

from functools import lru_cache
from typing import Sequence

from qtoolkit.weyl_clifford import NormalOrderedPolynomial, _key_to_word


def _sort_parity(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort generator indices, returning the permutation parity sign."""
    items = list(indices)
    sign = 1
    # insertion sort; each adjacent swap is one transposition
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


def _accumulate_bose(result: dict, modes: int, creations: list, annihilations: list,
                     coeff: complex) -> None:
    alpha = [0] * modes
    beta = [0] * modes
    for k in creations:
        alpha[k] += 1
    for k in annihilations:
        beta[k] += 1
    key = (tuple(alpha), tuple(beta))
    result[key] = result.get(key, 0j) + coeff


def _accumulate_fermi(result: dict, creations: list, annihilations: list,
                      coeff: complex) -> None:
    c_sorted, sc = _sort_parity(creations)
    a_sorted, sa = _sort_parity(annihilations)
    if len(set(c_sorted)) != len(c_sorted) or len(set(a_sorted)) != len(a_sorted):
        return  # repeated fermionic generator: term vanishes
    cmask = 0
    for k in c_sorted:
        cmask |= 1 << k
    amask = 0
    for k in a_sorted:
        amask |= 1 << k
    key = (cmask, amask)
    result[key] = result.get(key, 0j) + coeff * sc * sa


def _normal_order_word(word: tuple, statistics: str, modes: int, hbar: float) -> dict:
    """Reduce a word of (is_creation, mode) factors to normal form.

    Returns a term map.  Bosonic swaps commute with contraction hbar;
    fermionic swaps anticommute with unit contraction.
    """
    result: dict = {}
    fermi = statistics == "fermi"
    stack = [(word, 1.0 + 0j)]
    while stack:
        w, coeff = stack.pop()
        swap_at = -1
        for t in range(len(w) - 1):
            if (not w[t][0]) and w[t + 1][0]:
                swap_at = t
                break
        if swap_at < 0:
            creations = [m for is_c, m in w if is_c]
            annihilations = [m for is_c, m in w if not is_c]
            if fermi:
                _accumulate_fermi(result, creations, annihilations, coeff)
            else:
                _accumulate_bose(result, modes, creations, annihilations, coeff)
            continue
        t = swap_at
        swapped = w[:t] + (w[t + 1], w[t]) + w[t + 2:]
        stack.append((swapped, -coeff if fermi else coeff))
        if w[t][1] == w[t + 1][1]:
            contracted = w[:t] + w[t + 2:]
            stack.append((contracted, coeff * (1.0 if fermi else hbar)))
    return result


def word_reduction(a: NormalOrderedPolynomial, b: NormalOrderedPolynomial
                   ) -> dict:
    """Term map of the product a*b, each term pair reduced as a word."""
    out: dict = {}
    for key_a, ca in a.terms.items():
        word_a = _key_to_word(a.statistics, a.modes, key_a)
        for key_b, cb in b.terms.items():
            word = word_a + _key_to_word(b.statistics, b.modes, key_b)
            reduced = _normal_order_word(word, a.statistics, a.modes, a.hbar)
            c = ca * cb
            for key, r in reduced.items():
                out[key] = out.get(key, 0j) + c * r
    return {key: c for key, c in out.items() if c != 0}


def pfaffian_expansion(a) -> complex:
    """Pfaffian of an even antisymmetric matrix by first-row expansion."""
    n = a.shape[0]

    @lru_cache(maxsize=None)
    def pf(indices: tuple) -> complex:
        if not indices:
            return 1.0 + 0j
        i0 = indices[0]
        rest = indices[1:]
        total = 0j
        for pos, j in enumerate(rest):
            sub = rest[:pos] + rest[pos + 1:]
            sign = -1 if pos % 2 else 1
            total += sign * a[i0, j] * pf(sub)
        return total

    return complex(pf(tuple(range(n))))
