"""The one integer rule shared by every count, index and seed, and the one
scale rule shared by every scale and tolerance.

Each entry point below takes a count or a 1-based index and checks it with
`errors._require_int` or `errors._require_index`: anything
`operator.index` accepts except a bool, at or above a floor and, for an
index, at most the number of items.  A float such as 2.5 is refused rather
than truncated, and True is refused rather than read as 1, so each call
here raises ValidationError and never TypeError or a result.  Likewise a
scale that is not a real number (complex, str, None) meets
`errors._require_positive` and raises ValidationError, not TypeError.
"""

import warnings

import numpy as np
import pytest

from qtoolkit.decoherence import PerturbationEnsemble, phase_functional
from qtoolkit.decoherence import robust_projector
from qtoolkit.errors import (ValidationError, _require_index, _require_int,
                             _require_positive)
from qtoolkit.evolution import (SymbolGrid, adiabatic_evolve,
                                hermite_transfer, mehler_kernel, rk4_fixed,
                                trotter_order, trotter_slices)
from qtoolkit.fock import (FockSpec, creation_matrix, norm_divergence_demo,
                           poisson_eigen_defect)
from qtoolkit.geometry_gns import AlgebraState, gns_construct
from qtoolkit.grassmann import GrassmannElement, generator, left_derivative
from qtoolkit.lfunctional import (apply_doubled, b_operators_check,
                                  coherent_lfunctional, evolve_L,
                                  fourier_asymptotics_demo, from_density,
                                  hbar_sweep, two_point_green)
from qtoolkit.statmech import bose_gas_truncated_trace, gibbs_state
from qtoolkit.weyl_clifford import annihilator, creator, parse_poly, poly

_SPEC = FockSpec.bose((3,))
_FACTORS = [np.eye(2), np.diag([1.0, -1.0])]
_GRID = SymbolGrid(8, 0.5)
_L0 = coherent_lfunctional([0.2], degree=3)
_NUMBER = creator("bose", 1, 1) * annihilator("bose", 1, 1)
_TAUS = np.arange(0.0, 20.0, 0.1)
_ENSEMBLE = PerturbationEnsemble(
    family=lambda lam, g: np.diag([0.0, 1.0 + lam * g]),
    path=lambda s: s * (1.0 - s), alpha=1.0, lam_low=0.0, lam_high=1.0,
    trials=16)

# name -> (call taking the integer, an out-of-range integer)
_ENTRY_POINTS = {
    "FockSpec.cutoffs": (lambda v: FockSpec.bose((3, v)), 0),
    "FockSpec.fermi": (lambda v: FockSpec.fermi(v), 0),
    "creation_matrix": (lambda v: creation_matrix(_SPEC, v), 2),
    "poisson_eigen_defect": (
        lambda v: poisson_eigen_defect(_SPEC, [0.5], v), 2),
    "norm_divergence_demo": (
        lambda v: norm_divergence_demo([0.1, 0.2], [1, v]), 3),
    "GrassmannElement.n": (lambda v: GrassmannElement(v, {}), -1),
    "generator-count": (lambda v: generator(v, 1), 0),
    "generator-index": (lambda v: generator(3, v), 4),
    "left_derivative": (
        lambda v: left_derivative(v, generator(2, 1)), 3),
    "NormalOrderedPolynomial.modes": (lambda v: poly("bose", v, {}), 0),
    "creator": (lambda v: creator("bose", 2, v), 3),
    "annihilator-fermi": (lambda v: annihilator("fermi", 2, v), 3),
    "creator-modes": (lambda v: creator("fermi", v, 1), 0),
    "parse_poly": (lambda v: parse_poly("(1) a*[1]", "fermi", v), 0),
    "apply_doubled": (lambda v: apply_doubled(_L0, "b", v), 2),
    "two_point_green": (
        lambda v: two_point_green([1.0], [0.5], _TAUS, mode=v), 2),
    "b_operators_check": (lambda v: b_operators_check(_SPEC, degree=v), 1),
    "evolve_L": (lambda v: evolve_L(_L0, _NUMBER, 0.1, steps=v), 0),
    "from_density": (lambda v: from_density(
        np.diag([1.0, 0.0, 0.0, 0.0]), _SPEC, degree=v), -1),
    "coherent_lfunctional": (
        lambda v: coherent_lfunctional([0.1], degree=v), -1),
    "hbar_sweep": (lambda v: hbar_sweep(steps=v), 0),
    "rk4_fixed": (lambda v: rk4_fixed(lambda t, y: y, np.ones(1), 0.0,
                                      1.0, v), 0),
    "trotter_order": (lambda v: trotter_order(_FACTORS, 1.0, [v, 4]), 0),
    "trotter_slices": (lambda v: trotter_slices(_FACTORS, 1.0, v), 0),
    "SymbolGrid.n": (lambda v: SymbolGrid(v, 0.5), 1),
    "hermite_transfer": (lambda v: hermite_transfer(_GRID, v), 0),
    "phase_functional": (lambda v: phase_functional(_ENSEMBLE, 0.5, 0, v),
                         2),
    "gns_construct": (lambda v: gns_construct(
        AlgebraState(np.eye(2) / 2.0), max_dimension=v), 0),
    "bose_gas_truncated_trace": (
        lambda v: bose_gas_truncated_trace([1.0], 1.0, [v]), -1),
}


@pytest.mark.parametrize("value", [2.5, True, "out-of-range"],
                         ids=["float", "bool", "out-of-range"])
@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_point_refuses_a_non_integer_or_out_of_range(name, value):
    call, out_of_range = _ENTRY_POINTS[name]
    # a range check may word its own message; a non-integer never gets
    # past the integer rule
    match = None if value == "out-of-range" else "must be an integer"
    if value == "out-of-range":
        value = out_of_range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=match):
            call(value)


@pytest.mark.parametrize("stat", ["bose", "fermi"])
def test_parsed_mode_index_is_held_to_the_rule(stat):
    assert parse_poly("(1) a*[2]", stat, 2).modes == 2
    for text in ("(1) a*[0]", "(1) a[3]"):
        with pytest.raises(ValidationError, match="mode must be an integer"):
            parse_poly(text, stat, 2)


def test_rule_accepts_numpy_integers_and_returns_python_ints():
    for value in (np.int64(3), np.uint8(3), 3):
        assert type(_require_int(value, "count")) is int
        assert _require_index(value, 3, "index") == 2
    for value in (np.True_, np.float64(3.0), 3.0, "3", None, 1 + 0j):
        with pytest.raises(ValidationError, match="count must be an integer"):
            _require_int(value, "count")
    assert _require_int(2 ** 64 - 1, "seed", 0, 64) == 2 ** 64 - 1
    with pytest.raises(ValidationError, match=r"in \[0, 2\*\*64\)"):
        _require_int(2 ** 64, "seed", 0, 64)


# name -> call taking a scale or tolerance
_SCALE_ENTRY_POINTS = {
    "_require_positive": lambda v: _require_positive(v, "scale"),
    "FockSpec.bose-hbar": lambda v: FockSpec.bose((2,), hbar=v),
    "FockSpec.fermi-hbar": lambda v: FockSpec.fermi(2, hbar=v),
    "poly-hbar": lambda v: poly("bose", 1, {}, hbar=v),
    "norm_divergence_demo-hbar": lambda v: norm_divergence_demo(
        [0.1, 0.2], [1], hbar=v),
    "SymbolGrid-dq": lambda v: SymbolGrid(8, v),
    "mehler_kernel-beta": lambda v: mehler_kernel(_GRID, v),
    "gibbs_state-beta": lambda v: gibbs_state(np.eye(2), v),
    "two_point_green-hbar": lambda v: two_point_green(
        [1.0], [0.5], _TAUS, hbar=v),
    "fourier_asymptotics_demo-eta": lambda v: fourier_asymptotics_demo(
        [1.0], eta=v),
    "PerturbationEnsemble-alpha": lambda v: PerturbationEnsemble(
        family=lambda lam, g: np.eye(2), path=lambda s: s * (1.0 - s),
        alpha=v, lam_low=0.0, lam_high=1.0, trials=4),
    "robust_projector-agree_tol": lambda v: robust_projector(
        np.zeros((2, 2)), agree_tol=v),
    "adiabatic_evolve-tol": lambda v: adiabatic_evolve(
        lambda g: np.eye(2), lambda s: s, 1.0, tol=v),
}


@pytest.mark.parametrize("value", [1j, 1 + 0j, "1", None],
                         ids=["imaginary", "complex", "str", "None"])
@pytest.mark.parametrize("name", sorted(_SCALE_ENTRY_POINTS))
def test_scale_that_is_not_a_real_number_is_refused(name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="positive and finite"):
            _SCALE_ENTRY_POINTS[name](value)
