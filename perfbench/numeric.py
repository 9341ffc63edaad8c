"""Workload `numeric`: dense ladder products, GNS, the adaptive ODE, threads.

Dense dim x dim ladder products and the adaptive ODE carry the wall time
and the memory here, and `average_density(threads=2)` is the only
threaded path of the package.  Operations: `represent` at dim 64..729,
`ccr_defect` at dim 125..729, `car_defect` at 4..8 modes, `from_density`
at degree 4..8 (dim 25..100), `gns_construct` and `induced_hamiltonian`
on Gibbs states with d = 3..8, `adiabatic_evolve` on a 4-level family
at alpha = 1e-1 and 1e-2 (8,192 and 131,072 steps), `average_density` at
2^16..2^18 trials, `trotter_order` at cutoff 40, `hbar_sweep`,
`two_point_green` over a window of 800 and `fermi_gas_dual_route` with
m = 8..12.

Seeds change coefficients, matrices, couplings and parameters inside
ranges that keep the amount of work fixed (the same step counts, node
counts and truncation cutoffs for every seed).
"""

from __future__ import annotations

import numpy as np

from qtoolkit import (decoherence, evolution, fock, geometry_gns,
                      lfunctional, statmech, weyl_clifford)

import fock_action
from batch import Batch, Check, Op, expect


def _density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _condition(weights):
    """sqrt(w_max / w_min) of the Gram weights: the largest entry of a
    represented matrix unit, so the scale of GNS roundoff."""
    return float(np.sqrt(weights.max() / weights.min()))


def _word_terms(rng, modes, count, cutoff_room):
    """`count` monomials a*^alpha a^beta with |alpha| = |beta| = 2 and at
    most `cutoff_room` letters per mode; the seed picks the modes."""
    terms = {}
    while len(terms) < count:
        letters = [0] * modes
        alpha, beta = [0] * modes, [0] * modes
        for side in (alpha, beta):
            for _ in range(2):
                free = [k for k in range(modes) if letters[k] < cutoff_room]
                k = int(rng.choice(free))
                side[k] += 1
                letters[k] += 1
        key = (tuple(alpha), tuple(beta))
        if key not in terms:
            terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return terms


def build(seed: int) -> Batch:
    rng = np.random.default_rng(np.random.Philox(seed))
    ops, checks = [], []

    def add(name, layer, call):
        ops.append(Op(name, layer, call))
        return name

    # represent: 3 modes, 3 terms of two creators and two annihilators
    for cut in (3, 4, 5, 6, 7, 8):
        spec = fock.FockSpec.bose((cut,) * 3, hbar=0.5)
        a = weyl_clifford.poly("bose", 3, _word_terms(rng, 3, 3, 2), hbar=0.5)
        b = weyl_clifford.poly("bose", 3, _word_terms(rng, 3, 3, 2), hbar=0.5)
        name = add(f"represent[dim={spec.dim}]", "weyl_clifford",
                   lambda o, a=a, s=spec: weyl_clifford.represent(a, s))

        def homomorphism(o, name=name, a=a, b=b, spec=spec):
            # represent(a) rep(b) = rep(ab) on every column whose image
            # under b stays below the cutoff; rep is the independent
            # index-shift construction of fock_action
            rep_b = fock_action.matrix(b, spec.cutoffs)
            rep_ab = fock_action.matrix(weyl_clifford.product(a, b),
                                        spec.cutoffs)
            margin = max(max(alpha) for alpha, _ in b.terms)
            cols = spec.safe_indices(margin=margin)
            lhs = (o[name] @ rep_b)[:, cols]
            gap = float(np.abs(lhs - rep_ab[:, cols]).max())
            scale = max(1.0, float(np.abs(rep_ab).max()))
            return expect(gap <= 1e-12 * scale,
                          f"homomorphism defect {gap:.3e} on safe columns")
        checks.append(Check("represent_homomorphism", (name,), homomorphism))

    for cut in (4, 5, 6, 7, 8):
        hbar = float(rng.uniform(0.5, 2.0))
        spec = fock.FockSpec.bose((cut,) * 3, hbar=hbar)
        name = add(f"ccr_defect[dim={spec.dim}]", "fock",
                   lambda o, s=spec: fock.ccr_defect(s))

        def ccr(o, name=name, hbar=hbar, cut=cut):
            d = o[name]
            top = hbar * (cut + 1)
            return expect(d.safe <= 1e-12 * max(1.0, hbar)
                          and abs(d.unrestricted - top) <= 1e-12 * top,
                          f"CCR defects {d.safe:.3e} / {d.unrestricted!r}")
        checks.append(Check("ccr_reported_defect", (name,), ccr))

    for modes in (4, 5, 6, 7, 8):
        spec = fock.FockSpec.fermi(modes)
        name = add(f"car_defect[modes={modes}]", "fock",
                   lambda o, s=spec: fock.car_defect(s))
        checks.append(Check(
            "car_reported_defect", (name,),
            lambda o, name=name: expect(o[name].safe <= 1e-12,
                                        f"CAR defect {o[name].safe:.3e}")))

    for degree, cut in ((4, 4), (5, 5), (6, 6), (7, 7), (8, 9)):
        hbar = float(rng.uniform(0.5, 2.0))
        spec = fock.FockSpec.bose((cut, cut), hbar=hbar)
        rho = _density(rng, spec.dim)
        name = add(f"from_density[degree={degree},dim={spec.dim}]",
                   "lfunctional",
                   lambda o, r=rho, s=spec, d=degree: lfunctional
                   .from_density(r, s, degree=d))

        def occupations(o, name=name, rho=rho, spec=spec):
            lf = o[name]
            zero = (0,) * spec.modes
            norm = abs(lf.value(zero, zero) - 1.0)
            expected = spec.hbar * (spec.occupations.T @ np.diag(rho).real)
            occ = np.diag(lf.occupation_matrix()).real
            gap = float(np.abs(occ - expected).max())
            return expect(norm <= 1e-12 and gap <= 1e-12 * max(1.0, spec.hbar),
                          f"normalisation {norm:.3e}, occupations {gap:.3e}")
        checks.append(Check("from_density_trace", (name,), occupations))

    for d in (3, 4, 5, 6, 8):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.5 * (m + m.conj().T)
        energies, vecs = np.linalg.eigh(h)
        weights = np.exp(-rng.uniform(0.5, 1.5) * (energies - energies[0]))
        rho = (vecs * (weights / weights.sum())) @ vecs.conj().T
        state = geometry_gns.AlgebraState(0.5 * (rho + rho.conj().T))
        gns = add(f"gns_construct[d={d}]", "geometry_gns",
                  lambda o, s=state: geometry_gns.gns_construct(s))
        ind = add(f"induced_hamiltonian[d={d}]", "geometry_gns",
                  lambda o, s=state, h=h: geometry_gns.induced_hamiltonian(
                      s, h))

        # the Gram form kron(1, rho^T) repeats each kept eigenvalue of
        # rho d times
        kept = int((weights > 1e-10 * weights.max()).sum())

        def gns_defects(o, gns=gns, carrier=d * kept):
            r = o[gns]
            scale = _condition(r.weights)
            worst = max(r.homomorphism_defect, r.involution_defect,
                        r.expectation_defect)
            return expect(worst <= 1e-12 * scale and r.carrier_dim == carrier,
                          f"GNS defect {worst:.3e} at scale {scale:.3g}, "
                          f"carrier {r.carrier_dim}")

        def induced(o, ind=ind, energies=energies):
            r = o[ind]
            expected = np.sort(np.subtract.outer(energies, energies).ravel())
            tol = (1e-12 * max(1.0, float(np.abs(energies).max()))
                   * _condition(r.gns.weights))
            gap = float(np.abs(np.sort(r.spectrum) - expected).max())
            return expect(gap <= tol and r.theta_defect <= tol,
                          f"spectrum gap {gap:.3e}, "
                          f"theta {r.theta_defect:.3e}")
        checks.append(Check("gns_defects", (gns,), gns_defects))
        checks.append(Check("induced_spectrum", (ind,), induced))

    # adiabatic drag of a gapped 4-level family; levels fixed, couplings
    # seeded, so the step count is the same for every seed
    levels = np.array([0.0, 1.0, 2.1, 3.3])
    coupling = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        z = rng.uniform(0.1, 0.2) * np.exp(2j * np.pi * rng.uniform())
        coupling[k, k + 1], coupling[k + 1, k] = z, np.conj(z)

    def family(g, levels=levels, coupling=coupling):
        g = np.asarray(g, dtype=float)
        return np.diag(levels).astype(complex) + g[..., None, None] * coupling

    def path(s):
        return np.sin(np.pi * np.asarray(s, dtype=float))

    for alpha in (1e-1, 1e-2):
        name = add(f"adiabatic_evolve[alpha={alpha:g}]", "evolution",
                   lambda o, a=alpha: evolution.adiabatic_evolve(
                       family, path, a))

        def unitary(o, name=name, alpha=alpha):
            r = o[name]
            gap = float(np.abs(r.u.conj().T @ r.u - np.eye(4)).max())
            leak = float(r.leakage.max())
            return expect(gap <= 1e-9 and leak <= 10 * alpha,
                          f"unitarity {gap:.3e}, leakage {leak:.3e}")
        checks.append(Check("ode_unitarity_leakage", (name,), unitary))

    # fixed hbar and t: the cost of scipy's expm depends on the norm
    cutoff = 40
    lower = np.diag(np.sqrt(np.arange(1, cutoff + 1.0)), 1)
    q = (lower + lower.T) / np.sqrt(2.0)
    p = (lower - lower.T) / (1j * np.sqrt(2.0))
    factors = [-0.5j * (p @ p), -0.5j * (q @ q)]
    name = add(f"trotter_order[cutoff={cutoff}]", "evolution",
               lambda o: evolution.trotter_order(factors, 1.0,
                                                 [16, 32, 64, 128]))
    checks.append(Check(
        "splitting_order", (name,),
        lambda o, name=name: expect(abs(o[name].order - 1.0) <= 0.2,
                                    f"order {o[name].order!r}")))

    t_sweep = float(rng.uniform(0.8, 1.2))
    name = add("hbar_sweep[1e-1..1e-3]", "lfunctional",
               lambda o: lfunctional.hbar_sweep(t=t_sweep))
    checks.append(Check(
        "classical_limit_slope", (name,),
        lambda o, name=name: expect(abs(o[name].slope - 2.0) <= 0.3,
                                    f"slope {o[name].slope!r}")))

    # the occupation sets the truncation cutoff, so it stays fixed
    n_bar = 1.0
    eps = float(rng.uniform(0.5, 1.0))
    taus = np.arange(0.0, 800.0, 0.05)
    name = add("two_point_green[window=800]", "lfunctional",
               lambda o: lfunctional.two_point_green([n_bar], [eps], taus))

    def green(o, name=name):
        r = o[name]
        ratio = (n_bar + 1.0) / n_bar
        kms = abs(r.kms_ratio() - ratio)
        return expect(abs(r.pole - eps) <= r.resolution
                      and kms <= 1e-12 * ratio,
                      f"pole gap {abs(r.pole - eps):.3e}, KMS {kms:.3e}")
    checks.append(Check("green_pole_kms", (name,), green))

    for m in (8, 9, 10, 11, 12):
        energies = [float(x) for x in rng.uniform(0.1, 2.0, size=m)]
        beta = float(rng.uniform(0.5, 1.5))
        name = add(f"fermi_gas_dual_route[m={m}]", "statmech",
                   lambda o, e=energies, b=beta: statmech
                   .fermi_gas_dual_route(e, b))

        def bit_exact(o, name=name):
            r = o[name]
            return expect(r.z_product == r.z_trace
                          and r.energy_product == r.energy_trace
                          and r.occupations_product == r.occupations_trace,
                          "product and trace routes differ")
        checks.append(Check("fermi_routes_bit_exact", (name,), bit_exact))

    # commuting 3-level drive: phases are linear in lam, so the phase
    # table needs the same node count for every seed
    slopes = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1, 1], size=2)

    def drive(lam, g, slopes=slopes):
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape + (3, 3), dtype=complex)
        out[..., 1, 1] = 1.0 + lam * g * slopes[0]
        out[..., 2, 2] = 2.2 + lam * g * slopes[1]
        return out

    def bump(s):
        s = np.asarray(s, dtype=float)
        return 4.0 * s * (1.0 - s)

    k0 = _density(rng, 3)
    for power in (16, 17, 18):
        ensemble = decoherence.PerturbationEnsemble(
            family=drive, path=bump, alpha=0.05, lam_low=-0.3, lam_high=0.3,
            trials=1 << power, seed=int(rng.integers(0, 2 ** 32)))
        name = add(f"average_density[trials=2^{power},threads=2]",
                   "decoherence",
                   lambda o, e=ensemble: decoherence.average_density(
                       e, k0, threads=2))

        def agreement(o, name=name):
            r = o[name]
            excess = float((np.abs(r.phase_monte_carlo - r.phase_quadrature)
                            - 5.0 * r.mc_stderr - 1e-9).max())
            diag = float(np.abs(np.diag(r.averaged) - np.diag(k0)).max())
            return expect(excess <= 0 and diag <= 1e-12,
                          f"MC excess {excess:.3e}, diagonal {diag:.3e}")
        checks.append(Check("mc_quadrature_agreement", (name,), agreement))

    warmup = ["represent[dim=64]", "ccr_defect[dim=125]",
              "car_defect[modes=4]", "from_density[degree=4,dim=25]",
              "gns_construct[d=3]", "induced_hamiltonian[d=3]",
              "adiabatic_evolve[alpha=0.1]",
              "average_density[trials=2^16,threads=2]",
              "trotter_order[cutoff=40]", "hbar_sweep[1e-1..1e-3]",
              "two_point_green[window=800]", "fermi_gas_dual_route[m=8]"]
    return Batch(ops, checks, warmup)
