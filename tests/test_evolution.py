"""Propagators, Trotter slicing, qp symbols, and adiabatic evolution."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from oracles import (continued_end_frame, magnus_dense,
                     propagate_linear_ode_dense, trotter_errors_alternating)
from qtoolkit import evolution
from qtoolkit.errors import NumericalError, ValidationError
from qtoolkit.evolution import (
    AdiabaticResult,
    SymbolGrid,
    adiabatic_evolve,
    boundary_mass,
    evolve_density,
    expm,
    heisenberg,
    hermite_transfer,
    matrix_of_symbol,
    mehler_kernel,
    momentum_matrix,
    position_matrix,
    qp_star_product,
    rk4_fixed,
    symbol_of_matrix,
    trotter_order,
    trotter_slices,
)
from qtoolkit.fock import FockSpec, annihilation_matrix, creation_matrix


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def ladder_quadratures(cutoff, hbar=1.0):
    spec = FockSpec.bose([cutoff], hbar=hbar)
    ad = creation_matrix(spec, 1)
    a = annihilation_matrix(spec, 1)
    q = (a + ad) / math.sqrt(2.0)
    p = (a - ad) / (1j * math.sqrt(2.0))
    return q, p


# ---------------------------------------------------------------------------
# exact propagators


def test_expm_diagonal_case():
    eps, t, hbar = 0.7, 1.3, 0.5
    u = expm(np.diag([0.0, eps]), t, hbar)
    assert u[0, 0] == 1.0 + 0.0j
    assert u[1, 1] == pytest.approx(np.exp(-1j * eps * t / hbar), abs=1e-15)


def test_expm_group_inverse_and_unitarity(rng):
    h = random_hermitian(rng, 8)
    u = expm(h, 0.9)
    assert np.abs(u @ expm(h, -0.9) - np.eye(8)).max() <= 1e-12
    assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-10


def test_expm_rejects_nonhermitian_and_nonfinite():
    with pytest.raises(ValidationError):
        expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValidationError):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)


def test_stationary_state_is_fixed(rng):
    # any function of H commutes with the propagator, so it does not move
    h = random_hermitian(rng, 5)
    vals, vecs = np.linalg.eigh(h)
    k = (vecs * np.exp(-vals)) @ vecs.conj().T
    k /= np.trace(k).real
    assert np.abs(evolve_density(k, h, 2.1) - k).max() <= 1e-12


def test_density_evolution_preserves_spectrum_and_trace(rng):
    h = random_hermitian(rng, 6)
    k = random_hermitian(rng, 6)
    k = k @ k.conj().T
    k /= np.trace(k).real
    kt = evolve_density(k, h, 1.7)
    assert np.trace(kt).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(kt - kt.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(kt) == pytest.approx(np.linalg.eigvalsh(k),
                                                   abs=1e-10)


def test_heisenberg_schrodinger_equivalence(rng):
    h = random_hermitian(rng, 6)
    k = random_hermitian(rng, 6)
    k = k @ k.conj().T
    k /= np.trace(k).real
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    t = 1.9
    lhs = np.trace(evolve_density(k, h, t) @ a)
    rhs = np.trace(k @ heisenberg(a, h, t))
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# Trotter slicing


def test_trotter_single_factor_is_exact(rng):
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    exact = scipy.linalg.expm(0.7 * h)
    for n in (1, 3, 16):
        assert np.abs(trotter_slices([h], 0.7, n) - exact).max() <= 1e-10


def test_trotter_oscillator_first_order():
    # kinetic/potential split of the oscillator on a 31-level ladder
    q, p = ladder_quadratures(30)
    factors = [-0.5j * (p @ p), -0.5j * (q @ q)]
    report = trotter_order(factors, 1.0, [16, 32, 64, 128, 256])
    ratio = report.errors[64] / report.errors[128]
    assert 1.8 <= ratio <= 2.2
    assert abs(report.order - 1.0) <= 0.2


def test_trotter_skew_hermitian_products_stay_bounded(rng):
    h1 = random_hermitian(rng, 6)
    h2 = random_hermitian(rng, 6)
    for n in (1, 8, 64):
        i_n = trotter_slices([-1j * h1, -1j * h2], 3.0, n)
        assert np.linalg.norm(i_n, 2) <= 1.0 + 1e-10


def test_trotter_dimension_mismatch():
    with pytest.raises(ValidationError):
        trotter_slices([np.eye(2), np.eye(3)], 1.0, 4)
    with pytest.raises(ValidationError):
        trotter_slices([np.eye(2)], 1.0, 0)
    with pytest.raises(ValidationError, match="nonempty"):
        trotter_slices([np.zeros((0, 0))] * 2, 1.0, 4)


def oscillator_factors(cutoff):
    q, p = ladder_quadratures(cutoff)
    return [-0.5j * (p @ p), -0.5j * (q @ q)]


@pytest.mark.parametrize("cutoff, t, n_values", [
    (8, 1.0, [16, 32, 64, 128]),
    (20, 1.0, [16, 32, 64, 128]),
    (40, 1.0, [16, 32, 64, 128]),
    (40, 0.7, [128, 3, 16, 16, 5]),
    (12, 2.5, [1, 2]),
])
def test_trotter_order_errors_equal_alternating_route(cutoff, t, n_values):
    factors = oscillator_factors(cutoff)
    report = trotter_order(factors, t, n_values)
    expected = trotter_errors_alternating(factors, t, n_values)
    assert list(report.errors) == list(expected)
    for n, e in expected.items():
        assert report.errors[n].hex() == e.hex(), n


def test_trotter_order_errors_equal_alternating_route_random(rng):
    factors = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
               for _ in range(3)]
    report = trotter_order(factors, 0.9, [4, 9, 17])
    expected = trotter_errors_alternating(factors, 0.9, [4, 9, 17])
    assert {n: e.hex() for n, e in report.errors.items()} == {
        n: e.hex() for n, e in expected.items()}


def test_trotter_order_peak_does_not_grow_with_slice_counts():
    # each count's two 41 x 41 exponentials are freed before the next
    factors = oscillator_factors(40)

    def peak(n_values):
        tracemalloc.start()
        try:
            trotter_order(factors, 1.0, n_values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    counts = [16, 32, 64, 128, 256, 512, 1024, 2048]
    small, large = peak(counts[:2]), peak(counts)
    assert large <= 1.05 * small


@pytest.mark.parametrize("factors, t, n_values, match", [
    ([np.eye(2), np.eye(3)], 1.0, [4, 8], "square dimension"),
    ([np.eye(2), np.ones((2, 3))], 1.0, [4, 8], "square dimension"),
    ([np.ones(2), np.ones(2)], 1.0, [4, 8], "square dimension"),
    ([np.eye(2), np.array([1.0, np.nan])], 1.0, [4, 8], "non-finite"),
    ([], 1.0, [4, 8], "at least one factor"),
    ([np.eye(2)], math.inf, [4, 8], "finite"),
    ([np.eye(2)], math.nan, [4, 8], "finite"),
    ([np.eye(2)], 1.0, [0, 8], ">= 1"),
    ([np.eye(2)], 1.0, [-4, 8], ">= 1"),
    ([np.zeros((0, 0))] * 2, 1.0, [4, 8], "nonempty"),
])
def test_trotter_order_validates_before_any_exponential(
        monkeypatch, factors, t, n_values, match):
    def refuse(*args, **kwargs):
        raise AssertionError("expm called before validation")
    monkeypatch.setattr(evolution, "_expm_pade", refuse)
    with pytest.raises(ValidationError, match=match):
        trotter_order(factors, t, n_values)


def test_trotter_rejects_overflowing_time_without_warnings(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm called before validation")
    monkeypatch.setattr(evolution, "_expm_pade", refuse)
    big = [1e300 * np.eye(2), np.eye(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflows"):
            trotter_order(big, 1e300, [4, 8])
        with pytest.raises(NumericalError, match="overflows"):
            trotter_slices(big, -1e10, 4)


def test_trotter_slices_rejects_infinite_time():
    with pytest.raises(ValidationError, match="finite"):
        trotter_slices([np.eye(2)], math.inf, 4)


# ---------------------------------------------------------------------------
# the general matrix exponential of the Trotter factors


def _unit_complex(rng, n):
    """An n x n complex Gaussian matrix over sqrt(n): spectral radius near
    1 at every n."""
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            ) / math.sqrt(n)


def _relative(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 41, 64, 129])
def test_expm_pade_matches_scipy(rng, n):
    # 1-norms 0.01, 0.2, 0.9, 2 and 5 select Padé degrees 3, 5, 7, 9 and
    # 13 unscaled; the larger entry scales need squaring
    z = _unit_complex(rng, n)
    for a, top in ((z, 30.0), (z - z.conj().T, 30.0), (np.triu(z), 10.0)):
        norm = np.abs(a).sum(axis=0).max()
        inputs = [a * (x / norm) for x in (0.01, 0.2, 0.9, 2.0, 5.0)]
        for m in inputs + [a, 3.0 * a, top * a]:
            assert _relative(evolution._expm_pade(m),
                             scipy.linalg.expm(m)) <= 1e-13


@pytest.mark.parametrize("n", [2, 8, 33])
def test_expm_pade_of_large_anti_hermitian_matches_eigen_route(rng, n):
    h = random_hermitian(rng, n, 1.0 / math.sqrt(n))
    for t in (1e2, 1e3, 1e4):
        a = -1j * t * h
        # both routes err by about ||tH|| eps: the eigen route in its
        # phases, the Padé route in its squarings
        bound = 10.0 * np.finfo(float).eps * np.abs(a).sum(axis=0).max()
        assert _relative(evolution._expm_pade(a), expm(h, t)) <= bound


def _nilpotent_exponential(m):
    """e^N of a strictly upper triangular integer matrix N by its finite
    series sum_{k<n} N^k / k!, exact in integers and rounded once."""
    n = len(m)
    ints = m.astype(np.int64).astype(object)
    scale = math.factorial(n - 1)
    term = np.eye(n, dtype=np.int64).astype(object)
    total = term * scale
    for k in range(1, n):
        term = term.dot(ints)
        total = total + term * (scale // math.factorial(k))
    return np.array([[float(Fraction(x, scale)) for x in row]
                     for row in total])


# Large nilpotent and triangular inputs: here scipy.linalg.expm is the
# inaccurate side (about 1e-5 relative on the n = 20 nilpotent case), so
# the references are exact or in 40 digits.
@pytest.mark.parametrize("n", [2, 5, 20, 64])
def test_expm_pade_of_nilpotent_matches_exact_series(rng, n):
    m = np.triu(rng.integers(-300, 301, size=(n, n)), 1).astype(float)
    assert _relative(evolution._expm_pade(m),
                     _nilpotent_exponential(m)) <= 1e-12


@pytest.mark.parametrize("n", [3, 8, 20])
def test_expm_pade_of_triangular_matches_mpmath(rng, n):
    m = np.triu(rng.uniform(-300.0, 300.0, size=(n, n)))
    with mpmath.workdps(40):
        want = np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(),
                        dtype=float)
    assert _relative(evolution._expm_pade(m), want) <= 1e-12


@pytest.mark.parametrize("a, match", [
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), "beyond double range"),
    (np.array([[math.inf, 0.0], [0.0, 1.0]]), "beyond double range"),
    (np.full((2, 2), 1e308), "beyond double range"),
    (np.array([[800.0]]), "overflows double range"),
])
def test_expm_pade_non_finite_is_numerical_error_without_warnings(a, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=match):
            evolution._expm_pade(a)


# ---------------------------------------------------------------------------
# qp symbols


@pytest.fixture(scope="module")
def grid():
    return SymbolGrid(n=128, dq=0.125)


def test_symbol_roundtrip_is_exact(grid, rng):
    m = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    assert np.abs(matrix_of_symbol(symbol_of_matrix(m, grid), grid)
                  - m).max() <= 1e-11


def test_symbol_of_identity_is_one(grid):
    s = symbol_of_matrix(np.eye(grid.n, dtype=complex), grid)
    assert np.abs(s - 1.0).max() <= 1e-12


def test_unit_law(grid, rng):
    ones = np.ones((grid.n, grid.n), dtype=complex)
    b = symbol_of_matrix(mehler_kernel(grid, 0.8), grid)
    assert np.abs(qp_star_product(ones, b, grid) - b).max() <= 1e-11
    assert np.abs(qp_star_product(b, ones, grid) - b).max() <= 1e-11


def test_position_momentum_symbols_exact(grid):
    sq = symbol_of_matrix(position_matrix(grid), grid)
    sp = symbol_of_matrix(momentum_matrix(grid), grid)
    assert np.abs(sq - grid.q[:, None]).max() <= 1e-12
    assert np.abs(sp - grid.p[None, :]).max() <= 1e-10


def test_ordered_product_symbol_is_qp(grid):
    m = position_matrix(grid) @ momentum_matrix(grid)
    s = symbol_of_matrix(m, grid)
    assert np.abs(s - np.outer(grid.q, grid.p)).max() <= 1e-10


def test_damped_commutator_symbol_is_i_hbar(grid):
    # Gaussian-damped products: the two orderings differ by i*hbar times
    # the damped unit, pointwise to machine precision on the window
    g = mehler_kernel(grid, 0.5)
    q_m, p_m = position_matrix(grid), momentum_matrix(grid)
    lhs = (qp_star_product(symbol_of_matrix(g @ q_m, grid),
                           symbol_of_matrix(p_m @ g, grid), grid)
           - qp_star_product(symbol_of_matrix(g @ p_m, grid),
                             symbol_of_matrix(q_m @ g, grid), grid))
    sg = symbol_of_matrix(g, grid)
    rhs = 1j * grid.hbar * qp_star_product(sg, sg, grid)
    assert np.abs(lhs - rhs).max() <= 1e-10
    win = grid.window(3.0, 3.0)
    assert np.abs((lhs - rhs)[win]).max() <= 1e-12


def test_star_matches_operator_oracle_for_gaussians(grid):
    # two smoothing operators built on the ladder basis, pushed to the
    # grid; the star product of their symbols must match the symbol of
    # the operator product
    t = hermite_transfer(grid, 41)
    n = np.arange(41)
    a_op = np.diag(np.exp(-0.4 * (n + 0.5))).astype(complex)
    q, p = ladder_quadratures(40)
    b_op = scipy.linalg.expm(-0.45 * (q @ q) - 0.55 * (p @ p))
    ma = t @ a_op @ t.conj().T
    mb = t @ b_op @ t.conj().T
    sa, sb = symbol_of_matrix(ma, grid), symbol_of_matrix(mb, grid)
    oracle = symbol_of_matrix(t @ (a_op @ b_op) @ t.conj().T, grid)
    assert np.abs(qp_star_product(sa, sb, grid) - oracle).max() <= 1e-6


def test_boundary_check_rejects_undamped_polynomials(grid):
    sq = symbol_of_matrix(position_matrix(grid), grid)
    with pytest.raises(NumericalError):
        qp_star_product(sq, sq, grid)
    # and the check can be disabled explicitly
    qp_star_product(sq, sq, grid, boundary_tol=None)


def test_boundary_mass_examples(grid):
    assert boundary_mass(np.eye(grid.n)) == 0.0
    assert boundary_mass(mehler_kernel(grid, 0.5)) <= 1e-6
    assert boundary_mass(position_matrix(grid)) > 1e-3


def test_mehler_semigroup_matrix_and_star(grid):
    m1, m2 = mehler_kernel(grid, 0.6), mehler_kernel(grid, 0.9)
    m3 = mehler_kernel(grid, 1.5)
    assert np.abs(m1 @ m2 - m3).max() <= 1e-12
    s = qp_star_product(symbol_of_matrix(m1, grid),
                        symbol_of_matrix(m2, grid), grid)
    assert np.abs(s - symbol_of_matrix(m3, grid)).max() <= 1e-6


def test_hermite_transfer_orthonormal_and_mehler_expansion():
    wide = SymbolGrid(n=256, dq=0.125)
    t = hermite_transfer(wide, 31)
    assert np.abs(t.T @ t - np.eye(31)).max() <= 1e-12
    # truncated eigenfunction expansion reproduces the closed-form kernel
    n = np.arange(31)
    beta = 0.6
    approx = t @ np.diag(np.exp(-beta * (n + 0.5))) @ t.T
    assert np.abs(approx - mehler_kernel(wide, beta)).max() <= 1e-6


def test_hermite_transfer_scales_with_hbar():
    g = SymbolGrid(n=256, dq=0.0625, hbar=0.25)
    t = hermite_transfer(g, 21)
    assert np.abs(t.T @ t - np.eye(21)).max() <= 1e-12


def test_symbol_grid_validation():
    with pytest.raises(ValidationError):
        SymbolGrid(n=1, dq=0.1)
    with pytest.raises(ValidationError):
        SymbolGrid(n=16, dq=-1.0)
    for dq, hbar in ((math.inf, 1.0), (0.5, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValidationError, match="positive and finite"):
            SymbolGrid(n=16, dq=dq, hbar=hbar)
    g = SymbolGrid(n=16, dq=0.5, hbar=2.0)
    assert g.dp * g.dq * g.n == pytest.approx(2 * np.pi * 2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# ODE stepping


def test_rk4_fixed_scalar_order():
    f = lambda t, y: 1j * 3.0 * y
    exact = np.exp(1j * 3.0 * 2.0)
    e1 = abs(rk4_fixed(f, np.array(1.0 + 0j), 0.0, 2.0, 64) - exact)
    e2 = abs(rk4_fixed(f, np.array(1.0 + 0j), 0.0, 2.0, 128) - exact)
    assert 12.0 <= e1 / e2 <= 20.0


# ---------------------------------------------------------------------------
# adiabatic evolution


def diag_two_level(g):
    g = np.asarray(g, dtype=float)
    out = np.zeros(g.shape + (2, 2), dtype=complex)
    out[..., 1, 1] = 1.0 + g / 2.0
    return out


def test_adiabatic_constant_path_phases():
    alpha = 0.25
    res = adiabatic_evolve(lambda g: np.diag([0.0, 1.5]), lambda s: 0.0,
                           alpha, tol=1e-9)
    # beta_mn = (E_m - E_n) / alpha, diagonal exactly zero
    assert res.phases[0, 0] == 0.0 and res.phases[1, 1] == 0.0
    assert res.phases[1, 0] == pytest.approx(1.5 / alpha, rel=1e-12)
    u_exact = np.diag(np.exp(-1j * np.array([0.0, 1.5]) / alpha))
    assert np.abs(res.u - u_exact).max() <= 1e-8


def test_adiabatic_eigenvalue_integrals_past_double_range_raise():
    # Simpson's weight 4 takes an eigenvalue of 6e307 past double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="double range"):
            adiabatic_evolve(lambda g: np.diag([0.0, 6e307]), lambda s: 0.0,
                             0.25)


def test_adiabatic_two_level_leakage_small():
    res = adiabatic_evolve(diag_two_level,
                           lambda s: np.sin(np.pi * np.asarray(s)),
                           alpha=1e-3, tol=1e-7)
    assert res.leakage.max() <= 1e-4
    # dynamical phase of the upper level: (1/alpha) * (1 + (1/pi))
    expected = 1e3 * (1.0 + 1.0 / np.pi)
    assert res.dynamical_phases[1] == pytest.approx(expected, rel=1e-9)
    assert res.min_gap >= 1.0 - 1e-12


def test_adiabatic_leakage_scales_linearly():
    def family(g):
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = -1.0
        out[..., 1, 1] = 1.0
        out[..., 0, 1] = g
        out[..., 1, 0] = g
        return out

    path = lambda s: 0.8 * np.sin(np.pi * np.asarray(s))
    leak1 = adiabatic_evolve(family, path, alpha=0.1,
                             tol=1e-9).leakage.max()
    leak2 = adiabatic_evolve(family, path, alpha=0.05,
                             tol=1e-9).leakage.max()
    assert 1.4 <= leak1 / leak2 <= 2.8


def test_adiabatic_oscillator_commuting_family_closed_form(rng):
    # frequency drifts along the path; levels only pick up phases
    w0, w, alpha = 1.0, 0.7, 0.5
    d = np.diag(np.arange(6) + 0.5)

    def family(g):
        g = np.asarray(g, dtype=float)
        return (w0 + w * np.exp(-g))[..., None, None] * d

    res = adiabatic_evolve(family, lambda s: np.asarray(s), alpha, tol=1e-9)
    k0 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    k0 = k0 @ k0.conj().T
    k0 /= np.trace(k0).real
    kt = res.u @ k0 @ res.u.conj().T
    phi = (w0 + w * (1.0 - np.exp(-1.0))) / alpha
    mn = np.arange(6)
    closed = np.exp(-1j * (mn[:, None] - mn[None, :]) * phi) * k0
    assert np.abs(kt - closed).max() <= 1e-7


def four_level_drive(alpha):
    """The gapped 4-level drive of the benchmark's numeric workload: its
    family, path and -(i/alpha) H(path(s))."""
    levels = np.diag([0.0, 1.0, 2.1, 3.3]).astype(complex)
    coupling = np.zeros((4, 4), dtype=complex)
    for k, z in enumerate([0.13 * np.exp(0.4j), 0.17 * np.exp(2.2j),
                           0.11 * np.exp(-1.3j)]):
        coupling[k, k + 1], coupling[k + 1, k] = z, np.conj(z)

    def family(g):
        return levels + np.asarray(g, dtype=float)[..., None, None] * coupling

    def path(s):
        return np.sin(np.pi * np.asarray(s, dtype=float))
    return family, path


def avoided_crossing(alpha):
    def family(g):
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = g, -g
        out[..., 0, 1] = out[..., 1, 0] = 0.3
        return out
    return family, lambda s: 2.0 * np.asarray(s, dtype=float) - 1.0


def random_drive(alpha):
    rng = np.random.default_rng(np.random.Philox(31))
    h0, h1, h2 = (random_hermitian(rng, 3) for _ in range(3))

    def family(g):
        g = np.asarray(g, dtype=float)[..., None, None]
        return h0 + np.sin(2.0 * g) * h1 + g * g * h2
    return family, lambda s: np.asarray(s, dtype=float)


@pytest.mark.parametrize("drive, alpha", [
    (four_level_drive, 0.1), (four_level_drive, 0.05),
    (avoided_crossing, 0.2), (random_drive, 0.25)])
def test_adiabatic_magnus_matches_rk4(drive, alpha):
    family, path = drive(alpha)
    res = adiabatic_evolve(family, path, alpha, tol=1e-10,
                           gap_threshold=1e-3)
    dim = res.u.shape[0]
    u_rk4, _ = propagate_linear_ode_dense(
        lambda s: (-1j / alpha) * family(path(s)), dim, 0.0, 1.0, tol=1e-10)
    assert np.abs(res.u - u_rk4).max() <= 1e-8
    assert np.abs(res.u.conj().T @ res.u - np.eye(dim)).max() <= 1e-12


@pytest.mark.parametrize("chunk", [1, 2, 8, 64, 1024])
@pytest.mark.parametrize("drive, alpha", [
    (four_level_drive, 0.1), (four_level_drive, 0.01),
    (avoided_crossing, 0.2), (random_drive, 0.25)])
def test_magnus_blocks_equal_dense_route(monkeypatch, drive, alpha, chunk):
    # four_level_drive at alpha = 0.01 converges at 2,048 steps, two blocks
    # of the default size
    family, path = drive(alpha)
    h_of_s = lambda s: family(path(s))
    monkeypatch.setattr(evolution, "_CHUNK", chunk)
    u, steps = evolution._magnus_propagator(h_of_s, alpha, 1e-8, 1 << 20)
    u_dense, steps_dense = magnus_dense(h_of_s, alpha, 1e-8, 1 << 20)
    assert steps == steps_dense
    assert u.tobytes() == u_dense.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 8, 64])
def test_magnus_any_step_count_keeps_the_tree(monkeypatch, chunk):
    # tol = inf stops after one doubling, so each start gives the
    # resolution 2 * start; step counts 2..138 against blocks of 1..64
    family, path = random_drive(1.0)
    h_of_s = lambda s: family(path(s))
    monkeypatch.setattr(evolution, "_CHUNK", chunk)
    for start in range(1, 70):
        monkeypatch.setattr(evolution, "_MAGNUS_START_STEPS", start)
        u, steps = evolution._magnus_propagator(h_of_s, 0.5, math.inf,
                                                1 << 20)
        u_dense, steps_dense = magnus_dense(h_of_s, 0.5, math.inf, 1 << 20,
                                            start_steps=start)
        assert steps == steps_dense == 2 * start
        assert u.tobytes() == u_dense.tobytes(), start


def test_adiabatic_step_underflow():
    family, path = four_level_drive(1e-3)
    with pytest.raises(NumericalError, match="step-size underflow"):
        adiabatic_evolve(family, path, 1e-3, max_steps=64)


@pytest.mark.parametrize("error", [ValidationError, NumericalError])
def test_adiabatic_family_error_in_magnus_step_propagates(error):
    # the quadrature and continuation grids are dyadic; the Gauss nodes of
    # the Magnus steps are the first points that are not
    refused = []

    def family(g):
        g = np.asarray(g, dtype=float)
        if np.any(g * 2.0 ** 20 % 1.0):
            refused.append(g)
            raise error("family refuses")
        return diag_two_level(g)

    with pytest.raises(error, match="family refuses"):
        adiabatic_evolve(family, lambda s: np.asarray(s, dtype=float), 0.5)
    assert len(refused) == 1  # not re-run one point at a time


def test_adiabatic_scalar_only_family():
    # float(g) fails on the batch of nodes, so each node is sampled alone
    res = adiabatic_evolve(lambda g: (1.0 + float(g)) * np.diag([0.0, 1.0]),
                           lambda s: s, alpha=0.5, tol=1e-10)
    u_exact = np.diag([1.0, np.exp(-1j * 1.5 / 0.5)])
    assert np.abs(res.u - u_exact).max() <= 1e-9


def _traced_peak_of_failed_run(max_steps):
    # a jump at the non-dyadic s = 1/3 keeps the error O(h), so no
    # resolution up to max_steps meets tol
    h = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)

    def h_of_s(s):
        sign = np.where(np.asarray(s, dtype=float) < 1.0 / 3.0, 1.0, -1.0)
        return sign[..., None, None] * h

    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="step-size underflow"):
            evolution._magnus_propagator(h_of_s, 1.0, 1e-12, max_steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_magnus_memory_is_bounded():
    small = _traced_peak_of_failed_run(1 << 13)
    large = _traced_peak_of_failed_run(1 << 17)
    # every step unitary of the last resolution at once would be 8 MiB
    assert large <= 4 << 20
    assert large <= 1.1 * small


def test_adiabatic_magnus_is_fourth_order():
    # the commutator term [H2, H1] with the wrong sign still converges,
    # but only at 2nd order: 32,768 steps on this drive instead of 256
    family, path = four_level_drive(0.1)
    res = adiabatic_evolve(family, path, 0.1)
    assert res.steps <= 512


def test_adiabatic_small_alpha_converges():
    family, path = four_level_drive(1e-3)
    res = adiabatic_evolve(family, path, 1e-3)
    assert res.steps <= 1 << 14
    assert np.abs(res.u.conj().T @ res.u - np.eye(4)).max() <= 1e-12
    assert res.leakage.max() <= 10 * 1e-3


def test_adiabatic_rejects_nonfinite_interior_value():
    # finite at s = 0, NaN past g = 0.5
    def family(g):
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape + (2, 2), dtype=complex)
        out[..., 1, 1] = np.where(g > 0.5, np.nan, 1.0 + g)
        return out

    with pytest.raises(ValidationError, match="non-finite"):
        adiabatic_evolve(family, lambda s: np.asarray(s), alpha=0.1)


def test_adiabatic_rejects_nonhermitian_interior_value():
    # hermitian at g = 0 only
    def family(g):
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape + (2, 2), dtype=complex)
        out[..., 1, 1] = 1.0
        out[..., 0, 1] = g
        return out

    with pytest.raises(ValidationError, match="hermitian"):
        adiabatic_evolve(family, lambda s: np.asarray(s), alpha=0.1)


@pytest.mark.parametrize("alpha, hbar", [
    (math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, -1.0)])
def test_adiabatic_scales_must_be_positive_and_finite(alpha, hbar):
    with pytest.raises(ValidationError, match="positive and finite"):
        adiabatic_evolve(lambda g: np.diag([0.0, 1.5]), lambda s: 0.0,
                         alpha=alpha, hbar=hbar)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_adiabatic_tolerance_must_be_positive_and_finite(tol):
    # a nan tol once doubled the steps up to max_steps before failing
    def refuse(*args):
        raise AssertionError("Magnus steps taken before validation")

    with pytest.raises(ValidationError, match="positive and finite"):
        adiabatic_evolve(refuse, lambda s: 0.0, alpha=0.1, tol=tol)


def test_adiabatic_rejects_family_changing_dimension():
    def family(g):
        return np.eye(2) if float(g) == 0.0 else np.eye(3)

    with pytest.raises(ValidationError, match="dimension"):
        adiabatic_evolve(family, lambda s: s, alpha=0.1)


def test_continued_basis_aligns_consecutive_frames():
    family, path = four_level_drive(0.1)
    h_of_s = lambda s: family(path(s))
    start, end, worst = evolution._continued_basis(h_of_s, 4)
    vecs = np.linalg.eigh(h_of_s(np.linspace(0.0, 1.0, 1025)))[1]
    assert start.tobytes() == vecs[0].tobytes()
    assert np.abs(end - continued_end_frame(vecs)).max() <= 1e-13
    assert 0.7 <= worst <= 1.0


def test_adiabatic_gap_collapse_detected():
    family = lambda g: np.diag([0.0, float(g)])
    with pytest.raises(NumericalError):
        adiabatic_evolve(family, lambda s: 1.0 - 2.0 * s, alpha=0.5)


def test_adiabatic_rejects_bad_input():
    with pytest.raises(ValidationError):
        adiabatic_evolve(lambda g: np.diag([0.0, 1.0]), lambda s: s,
                         alpha=0.0)
    with pytest.raises(ValidationError):
        adiabatic_evolve(lambda g: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         lambda s: s, alpha=1.0)
