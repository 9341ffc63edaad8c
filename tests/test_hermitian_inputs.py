"""The one hermiticity rule shared by every matrix input.

Each entry point that takes a hamiltonian, generator, occupation matrix or
state validates it through `errors._hermitian`: a nonempty square matrix of
finite entries with max|m - m^H| <= 1e-12 max|m|.  Because the bound has
no floor, scaling the input by 1e-200 or 1e200 never changes the verdict.
An operator passed next to a state or generator must be finite and of its
dimension.
"""

import numpy as np
import pytest

from qtoolkit.decoherence import (PerturbationEnsemble, average_density,
                                  commutator_superoperator)
from qtoolkit.errors import NumericalError, ValidationError, _hermitian
from qtoolkit.evolution import (adiabatic_evolve, evolve_density, expm,
                                heisenberg)
from qtoolkit.fock import DensityMatrix, FockSpec
from qtoolkit.geometry_gns import (AlgebraState, equivalence_quotient,
                                   induced_hamiltonian, moment_map)
from qtoolkit.lfunctional import GaussianLFunctional, from_density
from qtoolkit.statmech import (entropy, gibbs_state, kms_check, mean_energy,
                               truncated_correlations)

# A positive definite, unit-trace hermitian matrix: a valid state, and a
# valid hamiltonian, generator or occupation matrix.
_STATE = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 1.0]]) / 3.0


def _ensemble(family):
    return PerturbationEnsemble(family=family, path=lambda s: s * (1.0 - s),
                                alpha=1.0, lam_low=0.0, lam_high=1.0,
                                trials=16)


def _drive(lam, g):
    return np.diag([0.0, 1.0]) + lam * g * np.array([[0.0, 1.0], [1.0, 0.0]])


# Entry points taking any hermitian matrix, each called with m in its
# matrix slot.
_OPERATOR_INPUTS = {
    "gibbs_state": lambda m: gibbs_state(m, 1.0),
    "kms_check": lambda m: kms_check(m, m, m, 1.0, 0.5),
    "expm": lambda m: expm(m, 1.0),
    "adiabatic_evolve": lambda m: adiabatic_evolve(
        lambda g: m, lambda s: s, alpha=1.0, max_steps=2048),
    "endpoint_hamiltonian": lambda m: _ensemble(
        lambda lam, g: m).endpoint_hamiltonian(),
    "commutator_superoperator": commutator_superoperator,
    "induced_hamiltonian": lambda m: induced_hamiltonian(
        AlgebraState(np.eye(2) / 2.0), m),
    "moment_map": lambda m: moment_map([1.0, 0.0], [m]),
    "GaussianLFunctional": lambda m: GaussianLFunctional(
        modes=len(m), occupation=m),
}
# Entry points taking a state, which must also be positive with unit trace.
_STATE_INPUTS = {
    "DensityMatrix": DensityMatrix,
    "AlgebraState": AlgebraState,
    "entropy": entropy,
    "mean_energy": lambda m: mean_energy(m, np.eye(2)),
    "truncated_correlations": lambda m: truncated_correlations(m, []),
    "from_density": lambda m: from_density(m, FockSpec.bose([1]), degree=1),
    "average_density": lambda m: average_density(_ensemble(_drive), m,
                                                 quad_nodes=4),
}
_ENTRY_POINTS = {**_OPERATOR_INPUTS, **_STATE_INPUTS}

_ANTI = np.array([[0.0, 1.0], [-1.0, 0.0]])
# name -> (matrix, the reason the rule gives); `anti-hermitian` carries an
# anti-hermitian part of 1e-11 max|m|, ten times the tolerance.
_REJECTED = {
    "nan": ([[np.nan, 0.0], [0.0, 1.0]], "non-finite"),
    "inf": ([[np.inf, 0.0], [0.0, 1.0]], "non-finite"),
    "minus-inf": ([[1.0, 0.0], [0.0, -np.inf]], "non-finite"),
    "empty": (np.zeros((0, 0)), "nonempty square"),
    "non-square": (np.ones((2, 3)), "nonempty square"),
    "anti-hermitian": (_STATE + 0.5e-11 * np.abs(_STATE).max() * _ANTI,
                       "hermitian within 1e-12"),
    "tiny-non-hermitian": ([[0.0, 1e-13], [0.0, 0.0]],
                           "hermitian within 1e-12"),
}
_SCALES = (1.0, 1e-200, 1e200, 1e308)


def _accepts(call, m):
    """Run call(m), which must pass validation; a NumericalError raised
    after it (a zero gap, an overflow at 1e200) is not a verdict on m."""
    try:
        with np.errstate(all="ignore"):
            call(m)
    except NumericalError:
        pass


@pytest.mark.parametrize("case", sorted(_REJECTED))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_rejects_at_every_scale(entry, case):
    m, reason = _REJECTED[case]
    for scale in _SCALES:
        with np.errstate(invalid="ignore"):  # inf * 0j is nan: still rejected
            scaled = scale * np.asarray(m, dtype=complex)
        with pytest.raises(ValidationError, match=reason):
            _ENTRY_POINTS[entry](scaled)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_accepts_exactly_hermitian(entry):
    m = np.asarray(_STATE, dtype=complex)
    _accepts(_ENTRY_POINTS[entry], m)
    # a transposed view is hermitian too, and not C-contiguous
    _accepts(_ENTRY_POINTS[entry], m.T)


@pytest.mark.parametrize("entry", sorted(_OPERATOR_INPUTS))
def test_operator_verdict_is_scale_free(entry):
    for m in (_STATE, np.zeros((2, 2))):
        for scale in _SCALES:
            _accepts(_OPERATOR_INPUTS[entry], scale * np.asarray(m, complex))


def test_stacked_rule_holds_each_matrix_to_its_own_scale():
    # the skew of `tiny` is 1e-15 absolute: far below 1e-12 of the stack's
    # largest entry, far above 1e-12 of its own
    big = 1e6 * np.asarray(_STATE, dtype=complex)
    tiny = 1e-9 * np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError, match="hermitian"):
        _hermitian(np.stack([big, tiny]), "stack", stacked=True)
    out = _hermitian(np.stack([big, big.T, 0 * big]), "stack", stacked=True)
    for m, got in zip((big, big.T, 0 * big), out):
        assert got.tobytes() == _hermitian(m, "one").tobytes()
    with pytest.raises(ValidationError, match="square"):
        _hermitian(big, "stack", stacked=True)


def test_hermitian_part_past_double_range_is_refused():
    # m + m^H overflows at 1e308; the part is refused, not returned as inf
    for m in ([[1e308]], [[1e308, 0.0], [0.0, 1.0]],
              [[0.0, 1e308 + 1e308j], [1e308 - 1e308j, 0.0]]):
        with pytest.raises(ValidationError, match="double range"):
            _hermitian(np.asarray(m, dtype=complex), "m")
    # where it is finite, the part is 0.5 (m + m^H) bit for bit
    m = 1e308 * np.asarray(_STATE, dtype=complex)
    want = 0.5 * (m + m.conj().T)
    assert _hermitian(m, "m").tobytes() == want.tobytes()


_NAN = [[np.nan, 0.0], [0.0, 1.0]]
# An operator next to a 2x2 state or generator, non-finite or 3x3.
_BAD_OPERANDS = {
    "mean_energy-nan": lambda: mean_energy(_STATE, _NAN),
    "mean_energy-3x3": lambda: mean_energy(_STATE, np.eye(3)),
    "truncated_correlations-nan": lambda: truncated_correlations(
        _STATE, [_NAN]),
    "truncated_correlations-3x3": lambda: truncated_correlations(
        _STATE, [np.eye(3)]),
    "evolve_density-3x3": lambda: evolve_density(np.eye(3) / 3.0, _STATE,
                                                 1.0),
    "heisenberg-3x3": lambda: heisenberg(np.eye(3), _STATE, 1.0),
    "equivalence_quotient-nan": lambda: equivalence_quotient(
        _STATE, _STATE, [_NAN]),
}


@pytest.mark.parametrize("case", sorted(_BAD_OPERANDS))
def test_rejects_bad_operands(case):
    with pytest.raises(ValidationError):
        _BAD_OPERANDS[case]()
