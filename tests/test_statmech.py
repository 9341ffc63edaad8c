"""Gibbs states, free gases, KMS, and truncated correlations."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import fermi_trace_fraction
from qtoolkit import statmech
from qtoolkit.errors import NumericalError, ValidationError
from qtoolkit.evolution import SymbolGrid, mehler_kernel
from qtoolkit.statmech import (
    bose_gas_truncated_trace,
    energy_from_log_z,
    entropy,
    fermi_gas_dual_route,
    free_energy,
    free_gas,
    gibbs_state,
    kms_check,
    mean_energy,
    set_partitions,
    truncated_correlations,
)


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# Gibbs states


def test_two_level_gibbs_closed_form():
    h = np.diag([0.0, 1.0])
    beta = math.log(3.0)
    res = gibbs_state(h, beta)
    # Z = 1 + 1/3, populations 3/4 and 1/4
    assert res.z == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert res.state.matrix[0, 0].real == pytest.approx(0.75, rel=1e-14)
    assert res.state.matrix[1, 1].real == pytest.approx(0.25, rel=1e-14)


def test_spectral_shift_avoids_overflow():
    h = np.diag([0.0, 2000.0])
    res = gibbs_state(h, beta=1.0)
    assert math.isfinite(res.log_z)
    assert res.log_z == pytest.approx(0.0, abs=1e-12)  # log(1 + e^-2000)
    assert res.state.matrix[0, 0].real == pytest.approx(1.0, rel=1e-14)


def test_gibbs_requires_positive_beta_and_hermitian():
    with pytest.raises(ValidationError):
        gibbs_state(np.eye(2), beta=0.0)
    with pytest.raises(ValidationError):
        gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]), beta=1.0)


# Entry points taking an inverse temperature, each called with beta.
_BETA_INPUTS = {
    "gibbs_state": lambda beta: gibbs_state(np.diag([0.0, 1.0]), beta),
    "free_gas": lambda beta: free_gas([0.0, 1.0], beta, "fermi"),
    "mehler_kernel": lambda beta: mehler_kernel(SymbolGrid(8, 0.5), beta),
    "kms_check": lambda beta: kms_check(np.diag([0.0, 1.0]), np.eye(2),
                                        np.eye(2), beta, 0.0),
    "fermi_gas_dual_route": lambda beta: fermi_gas_dual_route([0.0, 1.0],
                                                              beta),
}


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", list(_BETA_INPUTS))
def test_beta_must_be_positive_and_finite(name, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="positive and finite"):
            _BETA_INPUTS[name](beta)


def test_entropy_limits():
    assert entropy(np.eye(4) / 4.0) == pytest.approx(math.log(4.0), abs=1e-14)
    pure = np.zeros((3, 3))
    pure[0, 0] = 1.0
    assert entropy(pure) == pytest.approx(0.0, abs=1e-14)


def test_thermodynamic_identities(rng):
    # S = beta E + log Z and F = E - T S, both to 1e-10
    for d in (2, 5, 8):
        h = random_hermitian(rng, d)
        beta = 0.8
        res = gibbs_state(h, beta)
        e = mean_energy(res.state, h)
        s = entropy(res.state)
        assert s == pytest.approx(beta * e + res.log_z, abs=1e-10)
        f = free_energy(h, beta)
        assert f == pytest.approx(e - s / beta, abs=1e-10)
        assert f == pytest.approx(-res.log_z / beta, abs=1e-12)


def test_energy_is_minus_dlogz_dbeta(rng):
    h = random_hermitian(rng, 6)
    beta = 1.3
    res = gibbs_state(h, beta)
    e_spectral = mean_energy(res.state, h)
    e_fd = energy_from_log_z(h, beta)
    assert e_fd == pytest.approx(e_spectral, abs=1e-7)


def test_lagrange_stationarity(rng):
    # -log K = beta H + log Z * I as matrices
    h = random_hermitian(rng, 6)
    beta = 0.9
    res = gibbs_state(h, beta)
    vals, vecs = np.linalg.eigh(res.state.matrix)
    log_k = (vecs * np.log(vals)) @ vecs.conj().T
    resid = -log_k - beta * h - res.log_z * np.eye(6)
    assert np.abs(resid).max() <= 1e-10


def test_entropy_maximality(rng):
    # among states with the same energy, the Gibbs state has strictly
    # larger entropy than nearby perturbations along traceless directions
    # orthogonal to H
    d = 5
    h = random_hermitian(rng, d)
    beta = 1.0
    res = gibbs_state(h, beta)
    k = res.state.matrix
    h0 = h - (np.trace(h).real / d) * np.eye(d)
    lam_min = np.linalg.eigvalsh(k).min()
    for _ in range(10):
        delta = random_hermitian(rng, d)
        delta -= (np.trace(delta).real / d) * np.eye(d)
        delta -= (np.trace(h0 @ delta).real / np.trace(h0 @ h0).real) * h0
        assert abs(np.trace(delta)) <= 1e-12
        assert abs(np.trace(h @ delta)) <= 1e-12
        step = 1e-2 * lam_min / np.abs(delta).max()
        k_pert = k + step * delta
        assert np.linalg.eigvalsh(k_pert).min() > 0
        assert entropy(k_pert) < entropy(res.state)


# ---------------------------------------------------------------------------
# free gases


def test_free_fermi_closed_form_half_filling():
    # beta * eps = ln 2: n = 1/3, Z = 3/2
    res = free_gas([1.0], beta=math.log(2.0), statistics="fermi")
    assert res.occupations[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert res.z == pytest.approx(1.5, rel=1e-14)
    assert res.energy == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_free_bose_closed_form():
    # beta * eps = ln 2: n = 1, Z = 2
    res = free_gas([1.0], beta=math.log(2.0), statistics="bose")
    assert res.occupations[0] == pytest.approx(1.0, rel=1e-14)
    assert res.z == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_free_gas_large_beta_limit_is_silent(statistics):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = free_gas([0.5, 2.0], beta=1e300, statistics=statistics)
    assert res.occupations == (0.0, 0.0)
    assert res.energy == 0.0 and res.log_z == 0.0 and res.z == 1.0


def test_free_bose_rejects_nonpositive_modes():
    with pytest.raises(ValidationError):
        free_gas([1.0, 0.0], beta=1.0, statistics="bose")
    with pytest.raises(ValidationError):
        free_gas([1.0], beta=1.0, statistics="maxwell")


@pytest.mark.parametrize("m", [1, 4, 8, 12])
def test_fermi_dual_route_bit_exact(m):
    eps = [0.3 + 0.47 * k for k in range(m)]
    res = fermi_gas_dual_route(eps, beta=0.73)
    # same double, bit for bit: both routes reduce the same rational
    assert res.z_product == res.z_trace
    assert res.energy_product == res.energy_trace
    assert res.occupations_product == res.occupations_trace
    # and the rational agrees with the closed form within float error
    ref = free_gas(eps, beta=0.73, statistics="fermi")
    assert res.z_product == pytest.approx(ref.z, rel=1e-13)
    assert res.energy_product == pytest.approx(ref.energy, rel=1e-13)


def _fermi_energies(rng, m, kind):
    if kind == "random":
        return [float(x) for x in rng.uniform(0.1, 2.0, size=m)]
    if kind == "signed":  # negative, zero and positive levels
        return [float(x) for x in rng.choice([-1.7, -0.3, 0.0, 0.0, 0.9],
                                             size=m) * rng.uniform(1, 2, m)]
    # at beta = 1: f_k underflows to 0 (800), to subnormals (709.5..745),
    # or stays normal
    return [float(x) for x in rng.choice([800.0, 744.9, 720.25, 709.5, 0.6],
                                         size=m)]


@pytest.mark.parametrize("m", range(13))
def test_fermi_dual_route_equals_fraction_trace(rng, m):
    for kind in ("random", "signed", "underflow"):
        eps = _fermi_energies(rng, m, kind)
        beta = 1.0 if kind == "underflow" else float(rng.uniform(0.5, 1.5))
        res = fermi_gas_dual_route(eps, beta)
        z, energy, occupations = fermi_trace_fraction(eps, beta)
        assert res.z_product == res.z_trace == z, kind
        assert res.energy_product == res.energy_trace == energy, kind
        assert res.occupations_product == res.occupations_trace \
            == occupations, kind


def test_fermi_dual_route_no_modes():
    res = fermi_gas_dual_route([], beta=1.0)
    assert res.z_product == res.z_trace == 1.0
    assert res.energy_product == res.energy_trace == 0.0
    assert res.occupations_product == res.occupations_trace == ()


@pytest.mark.parametrize("call, reason", [
    (lambda: free_gas([1.0, math.nan], 1.0, "fermi"), "finite"),
    (lambda: fermi_gas_dual_route([1.0, -math.inf], 1.0), "finite"),
    (lambda: bose_gas_truncated_trace([1.0], 1.0, [-1]), "cutoffs"),
], ids=["free_gas-eps", "fermi_gas_dual_route-eps",
        "bose_gas_truncated_trace-cutoff"])
def test_gas_rejects_bad_mode_inputs(call, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=reason):
            call()


def test_fermi_dual_route_overflowing_factor_is_numerical_error():
    with pytest.raises(NumericalError, match="double range"):
        fermi_gas_dual_route([-1000.0], 1.0)


def test_fermi_dual_route_rejects_large_m():
    with pytest.raises(ValidationError):
        fermi_gas_dual_route([1.0] * 17, beta=1.0)


def test_bose_truncated_trace_within_tail_bound():
    res = bose_gas_truncated_trace([1.0, 1.7], beta=1.2, cutoffs=[8, 6])
    gap = abs(res.z_truncated - res.z_closed)
    assert gap <= res.tail_bound
    # the exact finite geometric sums match the product identity
    r = np.exp(-1.2 * np.array([1.0, 1.7]))
    predicted = res.z_closed * float(np.prod(1.0 - r ** np.array([9, 7])))
    assert res.z_truncated == pytest.approx(predicted, rel=1e-12)


@pytest.mark.parametrize("cutoffs, past", [
    ([511, 511], False), ([(1 << 18) - 1], False),
    ([512, 511], True), ([1 << 18], True), ([30] * 6, True)],
    ids=["two-modes-at-cap", "one-mode-at-cap", "two-modes-past-cap",
         "one-mode-past-cap", "six-modes"])
def test_bose_truncated_trace_box_cap_is_checked_before_the_sum(
        cutoffs, past, monkeypatch):
    calls = []

    def stub(*args):
        calls.append(args)
        raise NumericalError("stub reached")

    monkeypatch.setattr(statmech.itertools, "product", stub)
    eps = [1.0] * len(cutoffs)
    if past:
        with pytest.raises(ValidationError, match=str(
                statmech.BOSE_TRACE_TERMS_MAX)):
            bose_gas_truncated_trace(eps, 1.0, cutoffs)
    else:
        with pytest.raises(NumericalError, match="stub reached"):
            bose_gas_truncated_trace(eps, 1.0, cutoffs)
    assert len(calls) == (not past)


def test_bose_truncated_trace_tightens_with_cutoff():
    gaps = []
    for c in (2, 5, 9):
        res = bose_gas_truncated_trace([0.8], beta=1.0, cutoffs=[c])
        gaps.append(abs(res.z_truncated - res.z_closed))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# KMS


def test_kms_identity_random_systems(rng):
    for d in (2, 4, 8):
        h = random_hermitian(rng, d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert kms_check(h, a, b, beta=0.7, t=0.3) <= 1e-12


def test_kms_at_zero_time_reduces_to_detailed_balance(rng):
    h = np.diag([0.0, 1.0])
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # lowering
    assert kms_check(h, a, a.conj().T, beta=1.1, t=0.0) <= 1e-14


def test_kms_dimension_mismatch():
    with pytest.raises(ValidationError):
        kms_check(np.eye(2), np.eye(3), np.eye(2), beta=1.0, t=0.0)


_NAN_OP = np.array([[math.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("a, b, t, reason", [
    (np.eye(2), np.eye(2), math.nan, "finite"),
    (np.eye(2), np.eye(2), math.inf, "finite"),
    (_NAN_OP, np.eye(2), 0.5, "non-finite"),
    (np.eye(2), _NAN_OP, 0.5, "non-finite"),
], ids=["t-nan", "t-inf", "a-nan", "b-nan"])
def test_kms_rejects_non_finite_time_and_operators(a, b, t, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=reason):
            kms_check(np.diag([0.0, 1.0]), a, b, 1.0, t)


# ---------------------------------------------------------------------------
# truncated correlations


def test_set_partition_counts():
    bell = [1, 1, 2, 5, 15]
    for n in range(5):
        assert len(list(set_partitions(list(range(n))))) == bell[n]


def test_truncated_pair_is_covariance(rng):
    d = 4
    h = random_hermitian(rng, d)
    k = gibbs_state(h, 1.0).state
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = truncated_correlations(k, [a, b])
    m = k.matrix
    ab = np.trace(m @ a @ b)
    assert w[(0, 1)] == pytest.approx(
        ab - np.trace(m @ a) * np.trace(m @ b), abs=1e-12)


def test_truncated_triple_explicit_formula(rng):
    d = 3
    h = random_hermitian(rng, d)
    k = gibbs_state(h, 0.8).state
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
           for _ in range(3)]
    w = truncated_correlations(k, ops)
    m = k.matrix

    def mom(*idx):
        prod = np.eye(d, dtype=complex)
        for i in idx:
            prod = prod @ ops[i]
        return complex(np.trace(m @ prod))

    expected = (mom(0, 1, 2)
                - mom(0) * mom(1, 2) - mom(1) * mom(0, 2) - mom(2) * mom(0, 1)
                + 2 * mom(0) * mom(1) * mom(2))
    assert w[(0, 1, 2)] == pytest.approx(expected, abs=1e-12)


def test_truncated_cross_cumulant_vanishes_on_product_state(rng):
    # K = K1 (x) K2, A = X (x) 1, B = 1 (x) Y: the pair cumulant is zero
    k1 = gibbs_state(random_hermitian(rng, 2), 1.0).state.matrix
    k2 = gibbs_state(random_hermitian(rng, 3), 1.0).state.matrix
    k = np.kron(k1, k2)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = np.kron(x, np.eye(3))
    b = np.kron(np.eye(2), y)
    w = truncated_correlations(k, [a, b])
    assert abs(w[(0, 1)]) <= 1e-12


def test_truncated_rejects_more_than_three():
    with pytest.raises(ValidationError):
        truncated_correlations(np.eye(2) / 2, [np.eye(2)] * 4)
