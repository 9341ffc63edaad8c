"""Command-line front end: one subcommand per module, deterministic output.

Every command reads flat key-value flags (matrices enter as inline JSON in
the {"rows", "cols", "data"} schema), runs a single module operation, and
emits JSON (default) or CSV.  Numeric experiments report their tolerance
or tail bound next to the values.  Runs with identical argv are
byte-identical: all randomness flows through --seed (default 0).

Exit codes: 0 success, 2 invalid input (including unknown flags or
subcommands, with usage on stderr), 3 numerical failure (including any
NaN that would otherwise reach the output).  Every error, usage errors
included, is mirrored as one line of machine-readable JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from .errors import (NumericalError, ValidationError, _require_finite,
                     _require_int, _require_positive)
from .serialize import (complex_pair, matrix_from_json, to_csv_bytes,
                        to_json_bytes)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["run", "main", "emit"]


def emit(payload: dict, fmt: str, header=None, rows=None) -> bytes:
    """Render a result dict (JSON) or its tabular form (CSV) to bytes."""
    if fmt == "json":
        return to_json_bytes(payload)
    if header is None:
        raise ValidationError("this command has no CSV form")
    return to_csv_bytes(header, rows or [])


def _floats(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated floats: {text!r}") \
            from exc
    if not all(math.isfinite(x) for x in values):
        raise ValidationError(f"expected finite floats: {text!r}")
    return values


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers: {text!r}") \
            from exc


def _beta(text: str) -> list[float]:
    """--beta: a single value, or the start, stop and step of an inclusive
    range with finite ends and step, step > 0, stop >= start and a finite
    stop + step / 2 (the end np.arange is given)."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValidationError("beta range must look like start:stop:step")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"expected a float or start:stop:step: {text!r}") \
            from exc
    if not all(math.isfinite(x) for x in values):
        raise ValidationError(f"beta needs finite values: {text!r}")
    if len(values) == 3 and (values[2] <= 0 or values[1] < values[0]):
        raise ValidationError("beta range needs step > 0 and stop >= start")
    if len(values) == 3 and not math.isfinite(values[1] + 0.5 * values[2]):
        raise ValidationError(f"beta range ends past double range: {text!r}")
    return values


def _beta_points(text: str) -> float:
    values = _beta(text)
    if len(values) == 1:
        return 1
    start, stop, step = values
    return (stop - start) / step + 1  # inf if the quotient overflows


def _green_samples(args) -> float:
    _require_positive(args.window, "--window")
    _require_positive(args.dt, "--dt")
    return args.window / args.dt  # inf if the quotient overflows


def _cutoffs_dim(args) -> int:
    return math.prod(c + 1 for c in _ints(args.cutoffs))


# Every limit on an argv: for each (subcommand, action), rows of (quantity,
# count, low, high).  `run` checks the rows in order before it calls the
# handler, so no refused argv does any work or loads numpy: count reads the
# quantity off the parsed argv (it may refuse a malformed flag itself), and
# the quantity must lie in [low, high], a bound of None being absent.  The
# README's limits table lists the same rows.
LIMITS = {
    # `fock spectrum` and `evolve trotter` build dim x dim matrices
    ("fock", "spectrum"): [("Fock dimension", _cutoffs_dim, None, 2048)],
    ("fock", "poisson"): [("Fock dimension", _cutoffs_dim, None, 2048)],
    # the work of a trial grows with --terms cubed, and exponentially in
    # --modes
    ("weyl", "check"): [
        ("--modes", lambda a: a.modes, 1, None),
        ("--trials", lambda a: a.trials, 0, 1000),
        ("--terms", lambda a: a.terms, 0, 16)],
    # each --n value forms two dim x dim exponentials and a matrix power,
    # so its time grows with dim^3; the budget admits all 16 values up to
    # dimension 1,024 and two (about 100 s) at 2,048
    ("evolve", "trotter"): [
        ("Fock dimension", lambda a: a.cutoff + 1, None, 2048),
        ("--n values", lambda a: len(_ints(a.n)), 1, 16),
        ("--n values x (dim / 1024)^3",
         lambda a: len(_ints(a.n)) * (a.cutoff + 1) ** 3 / 1024 ** 3, None,
         16)],
    # 64 chunks of decoherence._CHUNK trials, about 1 s per --alpha value
    ("decohere", "sweep"): [
        ("--trials", lambda a: a.trials, 1, 1 << 22),
        ("--alpha values", lambda a: len(_floats(a.alpha)), 1, 16)],
    # grassmann.GENERATORS_MAX, restated so the check loads no grassmann
    ("grassmann", "eval"): [
        ("--modes", lambda a: 0 if a.modes is None else a.modes, 0,
         1 << 16)],
    ("lfunc", "green"): [
        ("--window / --dt samples", _green_samples, None, 100_000)],
    # one RK4 lattice per --hbars value and one classical: memory grows
    # with the values, time with steps x lattices (about 3-4 s at the cap)
    ("lfunc", "sweep"): [
        ("--hbars values", lambda a: len(_floats(a.hbars)), 1, 64),
        ("--steps x (--hbars values + 1)",
         lambda a: a.steps * (len(_floats(a.hbars)) + 1), None, 40_000)],
    # each beta point prints a row of 5 + --eps values numbers; the budget
    # admits 100,000 points of one value (about 3 s and 14 MB)
    ("statmech", "sweep"): [
        ("beta points", lambda a: _beta_points(a.beta), None, 100_000),
        ("beta points x (5 + --eps values)",
         lambda a: _beta_points(a.beta) * (5 + len(_floats(a.eps))), None,
         600_000)],
}


def _json_matrix(text: str) -> np.ndarray:
    try:
        m = matrix_from_json(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad inline JSON matrix: {exc}") from exc
    return _require_finite(m, "inline JSON matrix")


# ---------------------------------------------------------------------------
# per-module handlers; each returns (payload, csv_header, csv_rows)


def _cmd_fock_spectrum(args):
    import numpy as np

    from .fock import FockSpec, quadratic_hamiltonian, \
        quadratic_hamiltonian_diagonal

    spec = FockSpec(statistics=args.stat, cutoffs=tuple(_ints(args.cutoffs)),
                    hbar=args.hbar)
    eps = _floats(args.eps)
    dense = np.linalg.eigvalsh(quadratic_hamiltonian(spec, eps))
    expected = np.sort(np.diag(quadratic_hamiltonian_diagonal(spec, eps))
                       .real)
    gap = float(np.abs(dense - expected).max())
    payload = {
        "spec": spec.to_json(),
        "eigenvalues": [float(v) for v in dense],
        "occupation_energies": [float(v) for v in expected],
        "max_gap": gap,
        "tolerance": 1e-12,
    }
    rows = [(i, float(v), float(e))
            for i, (v, e) in enumerate(zip(dense, expected))]
    return payload, ("index", "eigenvalue", "occupation_energy"), rows


def _cmd_fock_poisson(args):
    from .fock import FockSpec, poisson_eigen_defect

    spec = FockSpec(statistics="bose", cutoffs=tuple(_ints(args.cutoffs)),
                    hbar=args.hbar)
    f = [complex(x) for x in _floats(args.f)]
    reports = [poisson_eigen_defect(spec, f, k)
               for k in range(1, spec.modes + 1)]
    payload = {
        "spec": spec.to_json(),
        "f": [complex_pair(z) for z in f],
        "defects": [r.defect for r in reports],
        "tail_bounds": [r.tail_bound for r in reports],
    }
    rows = [(k + 1, r.defect, r.tail_bound) for k, r in enumerate(reports)]
    return payload, ("mode", "defect", "tail_bound"), rows


def _cmd_weyl_check(args):
    import numpy as np

    from .weyl_clifford import poly, product

    rng = np.random.default_rng(np.random.Philox(args.seed))
    rows = []
    worst = 0.0
    for trial in range(args.trials):
        polys = []
        for _ in range(3):
            terms = {}
            for _ in range(args.terms):
                bits_c = rng.integers(0, 2, size=args.modes)
                bits_a = rng.integers(0, 2, size=args.modes)
                if args.stat == "bose":
                    key = (tuple(int(x) for x in bits_c),
                           tuple(int(x) for x in bits_a))
                else:  # Python ints: masks of 64 modes and more
                    key = tuple(sum(b << k for k, b in enumerate(bits))
                                for bits in (bits_c.tolist(),
                                             bits_a.tolist()))
                coeff = complex(int(rng.integers(-3, 4)),
                                int(rng.integers(-3, 4)))
                terms[key] = terms.get(key, 0j) + coeff
            polys.append(poly(args.stat, args.modes, terms, hbar=args.hbar))
        a, b, c = polys
        cap = 6 * args.modes + 6
        left = product(product(a, b, degree_cap=cap), c, degree_cap=cap)
        right = product(a, product(b, c, degree_cap=cap), degree_cap=cap)
        keys = set(left.terms) | set(right.terms)
        defect = max((abs(left.terms.get(k, 0j) - right.terms.get(k, 0j))
                      for k in keys), default=0.0)
        worst = max(worst, defect)
        rows.append((trial, defect))
    payload = {
        "statistics": args.stat,
        "modes": args.modes,
        "trials": args.trials,
        "max_associativity_defect": worst,
        "tolerance": 0.0,
    }
    return payload, ("trial", "associativity_defect"), rows


def _cmd_grassmann_eval(args):
    from .grassmann import berezin_integral, format_element, parse_expression

    element = parse_expression(args.expression, n=args.modes)
    payload = {
        "expression": args.expression,
        "result": format_element(element),
        "generators": element.n,
        "berezin_integral": complex_pair(berezin_integral(element)),
    }
    rows = [(format_element(element),)]
    return payload, ("result",), rows


def _cmd_evolve_trotter(args):
    from .evolution import trotter_order
    from .fock import FockSpec
    from .weyl_clifford import canonical_quadratures

    spec = FockSpec(statistics="bose", cutoffs=(args.cutoff,), hbar=args.hbar)
    q, p = canonical_quadratures(spec)
    factors = [-0.5j * (p @ p), -0.5j * (q @ q)]
    report = trotter_order(factors, args.t, _ints(args.n))
    payload = {
        "cutoff": args.cutoff,
        "t": args.t,
        "errors": {str(n): e for n, e in report.errors.items()},
        "order": report.order,
        "expected_order": 1.0,
        "tolerance": 0.2 if args.tol is None else args.tol,
    }
    if abs(report.order - 1.0) > payload["tolerance"]:
        raise NumericalError(
            f"measured splitting order {report.order:.3f} is outside "
            f"1 +- {payload['tolerance']}")
    rows = sorted((int(n), e) for n, e in report.errors.items())
    return payload, ("slices", "error"), rows


def _default_two_level():
    import numpy as np

    def family(lam, g):
        g = np.asarray(g, dtype=float)
        zero = np.zeros_like(g)
        top = 1.0 + lam * g
        return np.stack([
            np.stack([zero, zero], axis=-1),
            np.stack([zero, top], axis=-1),
        ], axis=-2).astype(complex)

    def path(s):
        s = np.asarray(s, dtype=float)
        return 4.0 * s * (1.0 - s)

    return family, path


def _cmd_decohere_sweep(args):
    import numpy as np

    from .decoherence import PerturbationEnsemble, average_density

    family, path = _default_two_level()
    k0 = np.full((2, 2), 0.5, dtype=complex)
    rows = []
    entries = []
    for alpha in _floats(args.alpha):
        ensemble = PerturbationEnsemble(
            family=family, path=path, alpha=alpha,
            lam_low=-args.lam, lam_high=args.lam,
            trials=args.trials, seed=args.seed)
        report = average_density(ensemble, k0, threads=args.threads)
        stderr = float(np.max(report.mc_stderr - np.diag(
            np.diag(report.mc_stderr))))
        rows.append((alpha, report.offdiag_norm, stderr))
        entries.append({
            "alpha": alpha,
            "offdiag_norm": report.offdiag_norm,
            "mc_stderr": stderr,
            "trials": report.trials,
        })
    payload = {
        "model": "two-level bump drive, uniform perturbation",
        "lam_window": [-args.lam, args.lam],
        "seed": args.seed,
        "results": entries,
    }
    return payload, ("alpha", "offdiag_norm", "mc_stderr"), rows


def _cmd_lfunc_green(args):
    import numpy as np

    from .lfunctional import two_point_green

    if args.n <= 0:
        raise ValidationError("need a positive occupation for a pole fit")
    taus = np.arange(0.0, args.window, args.dt)
    res = two_point_green([args.n], [args.eps], taus, mode=1,
                          hbar=args.hbar, resolution=args.tol)
    payload = {
        "n": args.n,
        "eps": args.eps,
        "pole": res.pole,
        "resolution": res.resolution,
        "pole_gap": abs(res.pole - args.eps),
        "kms_ratio": complex_pair(res.kms_ratio()),
        "samples": len(taus),
    }
    rows = [(float(t), float(g.real), float(g.imag))
            for t, g in zip(res.taus, res.g_less)]
    return payload, ("tau", "re_g", "im_g"), rows


def _cmd_lfunc_sweep(args):
    from .lfunctional import hbar_sweep

    result = hbar_sweep(hbars=tuple(_floats(args.hbars)), t=args.t,
                        steps=args.steps)
    payload = {
        "hbars": list(result.hbars),
        "gaps": list(result.gaps),
        "slope": result.slope,
        "expected_slope": 2.0,
        "tolerance": 0.3 if args.tol is None else args.tol,
    }
    rows = list(zip(result.hbars, result.gaps))
    return payload, ("hbar", "gap"), rows


def _cmd_statmech_sweep(args):
    import numpy as np

    from .statmech import free_gas

    eps = _floats(args.eps)
    betas = _beta(args.beta)
    if len(betas) == 3:
        start, stop, step = betas
        betas = np.arange(start, stop + 0.5 * step, step)
    rows = []
    for beta in betas:
        gas = free_gas(eps, float(beta), args.stat)
        s = float(beta) * gas.energy + gas.log_z
        f = -gas.log_z / float(beta)
        rows.append((float(beta), gas.z, gas.energy, s, f,
                     *[float(n) for n in gas.occupations]))
    header = ("beta", "Z", "E", "S", "F",
              *[f"n_{k + 1}" for k in range(len(eps))])
    payload = {
        "statistics": args.stat,
        "eps": eps,
        "columns": list(header),
        "rows": [list(r) for r in rows],
        "note": "closed-form ideal gas; no truncation tail",
    }
    return payload, header, rows


def _cmd_gns_construct(args):
    from .geometry_gns import (AlgebraState, gns_construct,
                               induced_hamiltonian)

    state = AlgebraState(_json_matrix(args.rho))
    tol = 1e-10 if args.tol is None else args.tol
    result = gns_construct(state, rank_tol=tol)
    payload = {"state": state.to_json(), "gns": result.to_json()}
    rows = [("dimension", result.dimension),
            ("carrier_dim", result.carrier_dim),
            ("homomorphism_defect", result.homomorphism_defect),
            ("involution_defect", result.involution_defect),
            ("expectation_defect", result.expectation_defect)]
    if args.h is not None:
        induced = induced_hamiltonian(state, _json_matrix(args.h))
        payload["induced"] = {
            "energy": induced.energy,
            "spectrum": [float(v) for v in induced.spectrum],
            "theta_defect": induced.theta_defect,
        }
        rows.append(("energy", induced.energy))
        rows.extend((f"spectrum_{i}", float(v))
                    for i, v in enumerate(induced.spectrum))
    return payload, ("quantity", "value"), rows


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors also mirrored as JSON on stderr;
    subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _print_error("validation", ValidationError(f"{self.prog}: {message}"))
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)
    common.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json")
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--threads", type=int, default=None)

    parser = _Parser(
        prog="qtoolkit",
        description="finite-dimensional quantum algebra workbench")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    fock = subs.add_parser("fock").add_subparsers(dest="action",
                                                  required=True)
    p = fock.add_parser("spectrum", parents=[common])
    p.add_argument("--stat", choices=("bose", "fermi"), default="bose")
    p.add_argument("--cutoffs", default="3,3")
    p.add_argument("--eps", default="1.0,2.0")
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(handler=_cmd_fock_spectrum)
    p = fock.add_parser("poisson", parents=[common])
    p.add_argument("--cutoffs", default="40")
    p.add_argument("--f", default="0.5")
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(handler=_cmd_fock_poisson)

    weyl = subs.add_parser("weyl").add_subparsers(dest="action",
                                                  required=True)
    p = weyl.add_parser("check", parents=[common])
    p.add_argument("--stat", choices=("bose", "fermi"), default="bose")
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--terms", type=int, default=4)
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(handler=_cmd_weyl_check)

    grassmann = subs.add_parser("grassmann").add_subparsers(dest="action",
                                                            required=True)
    p = grassmann.add_parser("eval", parents=[common])
    p.add_argument("expression")
    p.add_argument("--modes", type=int, default=None)
    p.set_defaults(handler=_cmd_grassmann_eval)

    evolve = subs.add_parser("evolve").add_subparsers(dest="action",
                                                      required=True)
    p = evolve.add_parser("trotter", parents=[common])
    p.add_argument("--cutoff", type=int, default=20)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n", default="16,32,64,128")
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(handler=_cmd_evolve_trotter)

    decohere = subs.add_parser("decohere").add_subparsers(dest="action",
                                                          required=True)
    p = decohere.add_parser("sweep", parents=[common])
    p.add_argument("--alpha", default="1e-1,1e-2")
    p.add_argument("--lam", type=float, default=0.3)
    p.add_argument("--trials", type=int, default=4096)
    p.set_defaults(handler=_cmd_decohere_sweep)

    lfunc = subs.add_parser("lfunc").add_subparsers(dest="action",
                                                    required=True)
    p = lfunc.add_parser("green", parents=[common])
    p.add_argument("--n", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.7)
    p.add_argument("--window", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--hbar", type=float, default=1.0)
    p.set_defaults(handler=_cmd_lfunc_green)
    p = lfunc.add_parser("sweep", parents=[common])
    p.add_argument("--hbars", default="1e-1,1e-2,1e-3")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=48)
    p.set_defaults(handler=_cmd_lfunc_sweep)

    statmech = subs.add_parser("statmech").add_subparsers(dest="action",
                                                          required=True)
    p = statmech.add_parser("sweep", parents=[common])
    p.add_argument("--eps", default="1.0")
    p.add_argument("--stat", choices=("bose", "fermi"), default="fermi")
    p.add_argument("--beta", default="1.0")
    p.set_defaults(handler=_cmd_statmech_sweep)

    gns = subs.add_parser("gns").add_subparsers(dest="action", required=True)
    p = gns.add_parser("construct", parents=[common])
    p.add_argument("--rho", required=True)
    p.add_argument("--h", default=None)
    p.set_defaults(handler=_cmd_gns_construct)

    return parser


def run(argv) -> int:
    """Execute one command line; returns the exit code (never raises)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"--{name} must be finite, got {value!r}")
        _require_int(args.seed, "seed", 0, 64)
        if args.threads is not None:
            _require_int(args.threads, "threads")
        for quantity, count, low, high in LIMITS.get(
                (args.subcommand, args.action), ()):
            value = count(args)
            if low is not None and value < low:
                raise ValidationError(f"{quantity} is {value}; at least {low}")
            if high is not None and value > high:
                raise ValidationError(f"{quantity} is {value}; at most {high}")
        payload, header, rows = args.handler(args)
        data = emit(payload, args.fmt, header, rows)
        if args.out:
            try:
                with open(args.out, "wb") as sink:
                    sink.write(data)
            except OSError as exc:
                raise ValidationError(
                    f"cannot write --out {args.out!r}: {exc.strerror}") from exc
        else:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        return 0
    except ValidationError as exc:
        _print_error("validation", exc)
        return 2
    except NumericalError as exc:
        _print_error("numerical", exc)
        return 3


def _print_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
    sys.stderr.flush()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
