"""Random adiabatic phase averaging, projectors, robust kernels."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_density
from oracles import (phase_sums_full, phase_table_eval,
                     simpson_eigen_traces_fresh)
from qtoolkit import decoherence, evolution
from qtoolkit.decoherence import (
    BornReport,
    PerturbationEnsemble,
    average_density,
    commutator_superoperator,
    phase_functional,
    robust_kernel,
    robust_projector,
)
from qtoolkit.errors import NumericalError, ValidationError
from qtoolkit.fock import DensityMatrix


def bump_path(s):
    s = np.asarray(s, dtype=float)
    return 4.0 * s * (1.0 - s)


def two_level_family(lam, g):
    g = np.asarray(g, dtype=float)
    out = np.zeros(g.shape + (2, 2), dtype=complex)
    out[..., 1, 1] = 1.0 + lam * g
    return out


def make_ensemble(**kw):
    base = dict(family=two_level_family, path=bump_path, alpha=1e-2,
                lam_low=-0.3, lam_high=0.3, trials=4096, seed=7)
    base.update(kw)
    return PerturbationEnsemble(**base)


# ---------------------------------------------------------------------------
# phase functional


def test_phase_diagonal_is_exactly_zero():
    ens = make_ensemble()
    assert phase_functional(ens, 0.21, 1, 1) == 0.0
    assert phase_functional(ens, -0.3, 0, 0) == 0.0


def test_phase_closed_form_value():
    # E1 - E0 = 1 + lam*g(s), integral of 4s(1-s) is 2/3:
    # beta_10 = (1/alpha) (1 + lam * 2/3) = 120 at lam = 0.3, alpha = 1e-2
    ens = make_ensemble()
    beta = phase_functional(ens, 0.3, 1, 0)
    assert beta == pytest.approx(120.0, rel=1e-10)
    assert phase_functional(ens, 0.3, 0, 1) == pytest.approx(-120.0,
                                                             rel=1e-10)


def test_phase_scales_with_inverse_alpha():
    b1 = phase_functional(make_ensemble(alpha=1e-2), 0.2, 1, 0)
    b2 = phase_functional(make_ensemble(alpha=5e-3), 0.2, 1, 0)
    assert b2 == pytest.approx(2.0 * b1, rel=1e-12)


def test_phase_crossing_detected():
    def crossing(lam, g):
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape + (2, 2), dtype=complex)
        out[..., 1, 1] = 1.0 - g  # hits the other level mid-path
        return out

    ens = PerturbationEnsemble(family=crossing, path=bump_path, alpha=0.1,
                               lam_low=0.0, lam_high=1.0)
    with pytest.raises(NumericalError):
        phase_functional(ens, 0.5, 1, 0)


def test_family_coupling_above_the_diagonal_only_is_rejected():
    # eigvalsh reads one triangle: unchecked, this family passes as the
    # real symmetric one
    def upper(lam, g):
        out = two_level_family(lam, g)
        out[..., 0, 1] = 0.3 * np.asarray(g, dtype=float)
        return out

    ens = make_ensemble(family=upper)
    with pytest.raises(ValidationError, match="hermitian"):
        average_density(ens, plus_state())
    with pytest.raises(ValidationError, match="hermitian"):
        phase_functional(ens, 0.2, 1, 0)


@pytest.mark.parametrize("kw", [
    dict(hbar=0.0), dict(hbar=-1.0), dict(hbar=math.nan),
    dict(alpha=math.inf), dict(alpha=math.nan)])
def test_ensemble_scales_must_be_positive_and_finite(kw):
    with pytest.raises(ValidationError, match="positive and finite"):
        make_ensemble(**kw)


def test_ensemble_validation():
    with pytest.raises(ValidationError):
        make_ensemble(alpha=0.0)
    with pytest.raises(ValidationError):
        make_ensemble(trials=0)
    with pytest.raises(ValidationError):
        make_ensemble(path=lambda s: np.asarray(s) + 1.0)
    with pytest.raises(ValidationError):
        make_ensemble(lam_low=1.0, lam_high=0.0)


@pytest.mark.parametrize("kw", [
    dict(lam_samples=(0.1, math.nan)), dict(lam_samples=(0.1, math.inf)),
    dict(lam_high=math.inf), dict(lam_low=-math.inf),
    dict(lam_low=math.nan), dict(lam_low=-1e308, lam_high=1e308),
    dict(lam_samples=(-1e308, 1e308)), dict(trials=100.5),
    dict(trials=True), dict(seed=-1), dict(seed=2 ** 200),
    dict(seed=2 ** 128), dict(seed=1.0), dict(seed=True)])
def test_ensemble_input_rule(kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            make_ensemble(**kw)


def test_ensemble_input_rule_accepts_numpy_integers_and_wide_seeds():
    ens = make_ensemble(trials=np.int64(64), seed=np.uint64(2 ** 64 - 1))
    assert (type(ens.trials), type(ens.seed)) == (int, int)
    assert make_ensemble(seed=2 ** 128 - 1).seed == 2 ** 128 - 1


@pytest.mark.parametrize("kw", [
    dict(threads=0), dict(threads=-1), dict(threads=2.5), dict(threads=True),
    dict(quad_nodes=0), dict(quad_nodes=-3), dict(quad_nodes=2.5)])
def test_average_density_input_rule(kw):
    with pytest.raises(ValidationError):
        average_density(make_ensemble(trials=64), plus_state(), **kw)


def test_ensemble_dimension_is_probed_once():
    probes = []

    def family(lam, g):
        probes.append(g)
        return two_level_family(lam, g)

    ens = make_ensemble(family=family)
    assert ens.dim == 2
    phase_functional(ens, 0.1, 1, 0)
    phase_functional(ens, 0.2, 1, 0)
    assert ens.dim == 2
    assert sum(np.ndim(g) == 0 for g in probes) == 1


# ---------------------------------------------------------------------------
# averaged densities


def plus_state():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def test_degenerate_distribution_is_pure_phase():
    ens = make_ensemble(lam_low=0.0, lam_high=0.0, trials=128)
    report = average_density(ens, plus_state())
    # no randomness: off-diagonals keep unit magnitude
    assert abs(abs(report.phase_quadrature[0, 1]) - 1.0) <= 1e-12
    assert report.offdiag_norm == pytest.approx(
        np.linalg.norm(plus_state().matrix
                       - np.diag(np.diag(plus_state().matrix))), abs=1e-12)


def test_diagonal_entries_exactly_preserved():
    ens = make_ensemble(trials=2048)
    k0 = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    report = average_density(ens, k0)
    # the family is diagonal, so the eigenbasis is the computational one
    assert report.averaged[0, 0] == pytest.approx(0.7, abs=1e-14)
    assert report.averaged[1, 1] == pytest.approx(0.3, abs=1e-14)
    assert report.probabilities == pytest.approx([0.7, 0.3], abs=1e-14)


def test_sinc_suppression_closed_form():
    # beta_10(lam) = (1 + lam * 2/3)/alpha; uniform lam on [-d, d] gives
    # |<e^{-i beta}>| = |sin(d Theta)/(d Theta)| with Theta = (2/3)/alpha
    ens = make_ensemble(alpha=1e-2, lam_low=-0.3, lam_high=0.3,
                        trials=200000, seed=11)
    report = average_density(ens, plus_state())
    theta = (2.0 / 3.0) / ens.alpha
    d = 0.3
    expected = abs(math.sin(d * theta) / (d * theta))
    got = abs(report.phase_quadrature[1, 0])
    assert got == pytest.approx(expected, abs=1e-9)
    # Monte Carlo agrees within 3 standard errors
    mc_gap = abs(report.phase_monte_carlo[1, 0]
                 - report.phase_quadrature[1, 0])
    assert mc_gap <= 3.0 * report.mc_stderr[1, 0]


def test_offdiagonal_suppression_monotone_in_alpha():
    norms = []
    for alpha in (1e-1, 1e-2, 1e-3):
        ens = make_ensemble(alpha=alpha, trials=1024)
        norms.append(average_density(ens, plus_state()).offdiag_norm)
    assert norms[0] > norms[1] > norms[2]


def test_phase_average_magnitude_bounded():
    ens = make_ensemble(trials=4096)
    report = average_density(ens, plus_state())
    assert np.all(np.abs(report.phase_quadrature) <= 1.0 + 1e-12)


def test_average_density_thread_count_is_byte_identical():
    ens = make_ensemble(trials=3 * 65536 + 123, seed=5)
    k0 = plus_state()
    r1 = average_density(ens, k0, threads=1)
    r4 = average_density(ens, k0, threads=4)
    assert np.array_equal(r1.phase_monte_carlo, r4.phase_monte_carlo)
    assert np.array_equal(r1.averaged, r4.averaged)


def test_phase_sums_equal_full_route():
    # signed zeros included: compare bytes, over d = 1..6 and odd counts
    rng = np.random.default_rng(np.random.Philox(2024))
    for _ in range(120):
        d = int(rng.integers(1, 7))
        trials = int(rng.integers(1, 4000)) | 1
        phases = rng.normal(size=(d, trials)) * rng.uniform(0.1, 1e3)
        got = decoherence._phase_sums(phases)
        assert got.tobytes() == phase_sums_full(phases).tobytes()
        weights = rng.uniform(0.0, 2.0, size=trials)
        got = decoherence._phase_sums(phases, weights)
        assert got.tobytes() == phase_sums_full(phases, weights).tobytes()


def sine_drive(d, freq):
    """Levels 3k + sin(freq lam g / (k + 1)): the phase table needs 33, 65
    or 129 nodes at freq 1, 60 or 150 on lam in [-0.3, 0.3]."""
    def family(lam, g):
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape + (d, d), dtype=complex)
        for k in range(d):
            out[..., k, k] = 3 * k + np.sin(freq * lam * g / (k + 1))
        return out
    return family


@pytest.mark.parametrize("d, freq, nodes", [
    (1, 1, 33), (3, 1, 33), (1, 60, 65), (3, 60, 65), (1, 150, 129)])
def test_phase_table_equals_fresh_temporaries(d, freq, nodes):
    ens = make_ensemble(family=sine_drive(d, freq), alpha=0.05)
    table = decoherence._PhaseTable(ens, -0.3, 0.3)
    assert len(table.nodes) == nodes
    rng = np.random.default_rng(np.random.Philox(10 * d + nodes))
    for size in (1, 2, 7, 129, 1000, 4097):
        lam = rng.uniform(-0.3, 0.3, size)
        # exact node hits, and hits within the 1e-14 snap
        picks = rng.integers(0, nodes, size)
        lam[::3] = table.nodes[picks[::3]]
        lam[1::5] = table.nodes[picks[1::5]] + 5e-15
        got = table(lam)
        assert got.tobytes() == phase_table_eval(table, lam).tobytes()
    lam = table.nodes[::-1].copy()
    assert table(lam).tobytes() == table.values[:, ::-1].tobytes()
    flat = decoherence._PhaseTable(ens, 0.1, 0.1)
    assert flat(lam).tobytes() == phase_table_eval(flat, lam).tobytes()


def assert_table_equals_full_mask(table, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = table(lam)
    assert got.tobytes() == phase_table_eval(table, lam).tobytes()


def node_hits(table, lam):
    """Per lambda, the number of nodes within the 1e-14 snap."""
    return (np.abs(lam[None, :] - table.nodes[:, None]) < 1e-14).sum(axis=0)


def test_phase_table_hit_columns_equal_full_mask():
    ens = make_ensemble(family=sine_drive(3, 1), alpha=0.05)
    table = decoherence._PhaseTable(ens, -0.3, 0.3)
    nodes = table.nodes
    rng = np.random.default_rng(np.random.Philox(19))
    # no hit at all
    for size in (1, 2, 33, 5000):
        lam = rng.uniform(-0.3, 0.3, size)
        assert not node_hits(table, lam).any()
        assert_table_equals_full_mask(table, lam)
    # on both sides of every node, just inside and just outside the snap
    lam = np.concatenate([nodes + 0.9e-14, nodes - 1.1e-14,
                          nodes - 0.9e-14, nodes + 1.1e-14,
                          rng.uniform(-0.3, 0.3, 50)])
    assert (node_hits(table, lam)[:4 * 33]
            == np.repeat([1, 0, 1, 0], 33)).all()
    assert_table_equals_full_mask(table, lam)
    # beyond the window, and at both end nodes
    lam = np.array([-0.3 - 1e-3, -7.0, 0.3 + 1e-3, 7.0, nodes[0], nodes[-1],
                    -0.3, 0.3, nodes[0] + 1.1e-14, nodes[-1] - 1.1e-14])
    assert_table_equals_full_mask(table, lam)
    # every node at once
    order = rng.permutation(33)
    assert (node_hits(table, nodes[order]) == 1).all()
    assert_table_equals_full_mask(table, nodes[order])
    assert table(nodes[order]).tobytes() == np.ascontiguousarray(
        table.values[:, order]).tobytes()


def test_phase_table_narrow_window_snaps_without_warnings():
    # hi - lo = 2e-15: several nodes hit every lambda, and their weights
    # can cancel in the column sum
    ens = make_ensemble(family=sine_drive(3, 1), alpha=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = decoherence._PhaseTable(ens, -1e-15, 1e-15)
    rng = np.random.default_rng(np.random.Philox(23))
    lam = np.concatenate([rng.uniform(-1e-15, 1e-15, 1000), table.nodes,
                          [-3e-14, 3e-14]])
    assert (node_hits(table, lam)[:-2] > 1).all()
    assert_table_equals_full_mask(table, lam)


def test_phase_table_call_peak_memory():
    # the (nodes x lambdas) buffer of the barycentric formula is the one
    # large array of a call; the hit test adds O(lambdas)
    ens = make_ensemble(family=sine_drive(3, 1), alpha=0.05)
    table = decoherence._PhaseTable(ens, -0.3, 0.3)
    assert len(table.nodes) == 33
    lam = np.random.default_rng(np.random.Philox(5)).uniform(-0.3, 0.3,
                                                             65536)
    lam[::4096] = table.nodes[:16]
    table(lam)
    tracemalloc.start()
    try:
        table(lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * (33 * 65536 * 8), peak


def test_thread_count_byte_identical_with_node_hits(monkeypatch):
    # the samples are table nodes, so every chunk of 1000 draws hits
    nodes = decoherence._PhaseTable(
        make_ensemble(family=sine_drive(3, 1), alpha=0.05), -0.3, 0.3).nodes
    samples = (-0.3, 0.3) + tuple(nodes[1:-1:3]) + (0.05, -0.17)
    ens = make_ensemble(family=sine_drive(3, 1), alpha=0.05,
                        lam_samples=samples, trials=5001, seed=4)
    k0 = random_density(np.random.default_rng(np.random.Philox(8)), 3)
    monkeypatch.setattr(decoherence, "_CHUNK", 1000)
    reports = [average_density(ens, k0, threads=t) for t in (1, 2, 3)]
    monkeypatch.setattr(decoherence._PhaseTable, "__call__",
                        phase_table_eval)
    reports.append(average_density(ens, k0, threads=1))
    for field in dataclasses.fields(BornReport):
        got = {np.asarray(getattr(r, field.name)).tobytes() for r in reports}
        assert len(got) == 1, field.name


@pytest.mark.parametrize("d, freq", [(1, 1), (3, 1), (3, 60), (2, 150)])
def test_simpson_samples_each_point_once(d, freq):
    seen = []

    def path(s):
        seen.append(np.atleast_1d(np.asarray(s, dtype=float)).copy())
        return bump_path(s)

    family = sine_drive(d, freq)
    ens = make_ensemble(family=family, path=path, alpha=0.05)
    for lam in (-0.3, 0.1, 0.3):
        seen.clear()
        got = decoherence._level_integrals(ens, lam)
        s = np.concatenate(seen)
        assert len(s) > 129
        assert np.sort(s).tobytes() == np.linspace(0.0, 1.0,
                                                   len(s)).tobytes()
        h_of_s, _, min_gap = evolution._gapped_family(
            lambda x, lam=lam: family(lam, bump_path(x)), d, 0.0)
        want, want_gap = simpson_eigen_traces_fresh(h_of_s, d)
        assert got.tobytes() == want.tobytes()
        assert min_gap == want_gap


def level_drive(d, rng):
    """d gapped levels shifted by lam g a_k + lam^2 g b_k: phases are
    quadratic in lam, so the phase table stays small."""
    a, b = rng.uniform(-1.0, 1.0, size=(2, d))

    def family(lam, g):
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape + (d, d), dtype=complex)
        for k in range(d):
            out[..., k, k] = k + lam * g * a[k] + lam * lam * g * b[k]
        return out
    return family


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("samples", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_born_report_equals_full_phase_sums(monkeypatch, d, samples,
                                            threads):
    # chunks of 1000 trials: 2,501 trials end on a partial third chunk
    rng = np.random.default_rng(np.random.Philox(100 * d + samples))
    lam = tuple(rng.uniform(-0.3, 0.3, size=37)) if samples else None
    ens = make_ensemble(family=level_drive(d, rng), alpha=0.05,
                        lam_samples=lam, trials=2501, seed=d)
    k0 = random_density(rng, d)
    monkeypatch.setattr(decoherence, "_CHUNK", 1000)
    got = average_density(ens, k0, threads=threads)
    monkeypatch.setattr(decoherence, "_phase_sums", phase_sums_full)
    want = average_density(ens, k0, threads=threads)
    for field in dataclasses.fields(BornReport):
        assert (np.asarray(getattr(got, field.name)).tobytes()
                == np.asarray(getattr(want, field.name)).tobytes()), field.name


@pytest.mark.parametrize("d", [1, 3, 5])
def test_born_report_at_one_lambda_equals_full_phase_sums(monkeypatch, d):
    rng = np.random.default_rng(np.random.Philox(300 + d))
    ens = make_ensemble(family=level_drive(d, rng), alpha=0.05,
                        lam_low=0.1, lam_high=0.1, trials=2501, seed=d)
    k0 = random_density(rng, d)
    got = average_density(ens, k0, threads=1)
    monkeypatch.setattr(decoherence, "_phase_sums", phase_sums_full)
    want = average_density(ens, k0, threads=1)
    for field in dataclasses.fields(BornReport):
        assert (np.asarray(getattr(got, field.name)).tobytes()
                == np.asarray(getattr(want, field.name)).tobytes()), field.name


def test_born_report_equals_full_phase_sums_at_full_chunks(monkeypatch):
    rng = np.random.default_rng(np.random.Philox(77))
    ens = make_ensemble(family=level_drive(3, rng), alpha=0.05,
                        trials=65536 + 4097, seed=11)
    k0 = random_density(rng, 3)
    got = average_density(ens, k0, threads=2)
    monkeypatch.setattr(decoherence, "_phase_sums", phase_sums_full)
    want = average_density(ens, k0, threads=2)
    for field in dataclasses.fields(BornReport):
        assert (np.asarray(getattr(got, field.name)).tobytes()
                == np.asarray(getattr(want, field.name)).tobytes()), field.name


def test_average_density_positive_and_trace_preserving():
    ens = make_ensemble(trials=2048)
    k0 = DensityMatrix(np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex))
    report = average_density(ens, k0)
    DensityMatrix(report.averaged)  # hermitian, positive, unit trace
    assert report.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_user_sample_distribution():
    # two-point distribution: average of two pure phases
    ens = make_ensemble(lam_samples=(-0.2, 0.2), lam_low=0.0, lam_high=0.0,
                        trials=50000, seed=3)
    report = average_density(ens, plus_state())
    beta = phase_functional(ens, 0.2, 1, 0)
    beta_m = phase_functional(ens, -0.2, 1, 0)
    expected = 0.5 * (np.exp(-1j * beta) + np.exp(-1j * beta_m))
    assert report.phase_quadrature[1, 0] == pytest.approx(expected,
                                                          abs=1e-10)


def test_born_report_rejects_bad_probabilities():
    with pytest.raises(NumericalError):
        BornReport(averaged=np.eye(2), probabilities=np.array([0.5, 0.4]),
                   offdiag_norm=0.0, phase_quadrature=np.eye(2),
                   phase_monte_carlo=np.eye(2), mc_stderr=np.zeros((2, 2)),
                   trials=1)


# ---------------------------------------------------------------------------
# projectors and robust kernels


def test_projector_of_zero_generator_is_identity():
    p = robust_projector(np.zeros((3, 3)))
    assert np.abs(p - np.eye(3)).max() <= 1e-12


def test_commutator_superoperator_action(rng):
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 0.5 * (h + h.conj().T)
    k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    hbar = 0.5
    lhs = commutator_superoperator(h, hbar) @ k.reshape(-1)
    rhs = (-1j / hbar) * (h @ k - k @ h)
    assert np.abs(lhs - rhs.reshape(-1)).max() <= 1e-12


def test_projector_zeroes_offdiagonals():
    gen = commutator_superoperator(np.diag([0.0, 1.0]))
    p = robust_projector(gen)
    k = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    out = (p @ k.reshape(-1)).reshape(2, 2)
    assert np.abs(out - np.diag([0.5, 0.5])).max() <= 1e-8
    # projector law and kernel residual
    assert np.abs(p @ p - p).max() <= 1e-8
    assert np.abs(p @ gen).max() <= 1e-8


def test_projector_rejects_decaying_generator():
    with pytest.raises(NumericalError):
        robust_projector(np.diag([-1.0, 0.0]))


def test_projector_slow_mode_detected():
    gen = commutator_superoperator(np.diag([0.0, 1e-5]))
    with pytest.raises(NumericalError):
        robust_projector(gen, t_max=1e6)


@pytest.mark.parametrize("kwargs", [
    dict(agree_tol=0.0), dict(agree_tol=math.nan), dict(agree_tol=-1e-6),
    dict(t_max=math.nan), dict(t_max=math.inf), dict(t_max=0.0)])
def test_projector_scales_must_be_positive_and_finite(kwargs):
    gen = commutator_superoperator(np.diag([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="positive and finite"):
            robust_projector(gen, **kwargs)


def test_robust_kernel_common_modes():
    h0 = np.diag([0.0, 1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sups = [commutator_superoperator(h0 + lam * sx)
            for lam in (0.0, 0.25, 0.5)]
    basis = robust_kernel(sups)
    # only multiples of the identity commute with every sampled matrix
    assert basis.shape == (4, 1)
    vec = basis[:, 0].reshape(2, 2)
    assert np.abs(vec - vec[0, 0] * np.eye(2)).max() <= 1e-10


def test_robust_kernel_diagonal_family():
    sups = [commutator_superoperator(np.diag([0.0, 1.0 + lam]))
            for lam in (0.0, 0.3)]
    basis = robust_kernel(sups)
    assert basis.shape == (4, 2)
    for col in basis.T:
        m = col.reshape(2, 2)
        assert abs(m[0, 1]) <= 1e-10 and abs(m[1, 0]) <= 1e-10


def test_robust_kernel_validation():
    with pytest.raises(ValidationError):
        robust_kernel([])
    with pytest.raises(ValidationError):
        robust_kernel([np.eye(2), np.eye(3)])
