"""End-to-end checks of the command-line front end.

Runs the entry point in-process through qtoolkit.cli.run so exit codes,
stdout bytes, and stderr diagnostics can be asserted exactly.
"""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtoolkit
from qtoolkit import cli
from qtoolkit.serialize import matrix_to_json


def invoke(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_bytes(argv, capsysbinary):
    code = cli.run(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def matrix_arg(m):
    return json.dumps(matrix_to_json(np.asarray(m, dtype=complex)))


def fresh_python(args):
    """Run `python ARGS` in a new interpreter that imports this qtoolkit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtoolkit.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=120, check=False)


_BIG = "9" * 200  # finite, but its square is not

# generator indices that are no ASCII number, or past the generator cap:
# int() refuses the first and third, 1 << index overflows on the second,
# and an algebra of a million generators is slow to print
_BAD_INDICES = {
    "grassmann-superscript-index": "e\u00b2",
    "grassmann-index-past-int64": "e1 e99999999999999999999999999",
    "grassmann-index-past-int-digits": "e1 e" + "9" * 5000,
    "grassmann-index-million": "e1000000",
    "grassmann-index-one-past-cap": "e65537",
}


def _high(command, quantity):
    """The upper bound of one row of cli.LIMITS."""
    (high,) = [h for q, _, _, h in cli.LIMITS[command] if q == quantity]
    return high


def _values(k, value="0.1"):
    return ",".join([value] * k)


def _counts(k):
    return ",".join(str(n) for n in range(1, k + 1))


# Every row of cli.LIMITS with an upper bound: the module and kernel stubbed
# out, the row's command and quantity, the largest k that its bound admits,
# and the argv at k.  argv(cap) reaches the kernel; argv(cap + 1) is refused
# before any work.
_CAPS = {
    "fock-spectrum-dim": (
        "fock", "quadratic_hamiltonian", ("fock", "spectrum"),
        "Fock dimension", lambda h: h,
        lambda k: ["fock", "spectrum", "--cutoffs", str(k - 1), "--eps", "1"]),
    "fock-poisson-dim": (
        "fock", "poisson_eigen_defect", ("fock", "poisson"), "Fock dimension",
        lambda h: h, lambda k: ["fock", "poisson", "--cutoffs", str(k - 1)]),
    "weyl-trials": (
        "weyl_clifford", "product", ("weyl", "check"), "--trials",
        lambda h: h, lambda k: ["weyl", "check", "--trials", str(k)]),
    "weyl-terms": (
        "weyl_clifford", "product", ("weyl", "check"), "--terms",
        lambda h: h, lambda k: ["weyl", "check", "--terms", str(k)]),
    # stubbing the quadratures builds no large matrix
    "trotter-dim": (
        "weyl_clifford", "canonical_quadratures", ("evolve", "trotter"),
        "Fock dimension", lambda h: h,
        lambda k: ["evolve", "trotter", "--cutoff", str(k - 1), "--n",
                   "1,2"]),
    "trotter-counts": (
        "evolution", "trotter_order", ("evolve", "trotter"), "--n values",
        lambda h: h, lambda k: ["evolve", "trotter", "--n", _counts(k)]),
    # the budget shrinks with dim^3
    **{f"trotter-work-dim-{c + 1}": (
        "weyl_clifford", "canonical_quadratures", ("evolve", "trotter"),
        "--n values x (dim / 1024)^3",
        lambda h, c=c: int(h * 1024 ** 3 // (c + 1) ** 3),
        lambda k, c=c: ["evolve", "trotter", "--cutoff", str(c), "--n",
                        _counts(k)])
       for c in (1499, 2047)},
    "decohere-trials": (
        "decoherence", "average_density", ("decohere", "sweep"), "--trials",
        lambda h: h, lambda k: ["decohere", "sweep", "--trials", str(k)]),
    "decohere-alphas": (
        "decoherence", "average_density", ("decohere", "sweep"),
        "--alpha values", lambda h: h,
        lambda k: ["decohere", "sweep", "--trials", "64", "--alpha",
                   _values(k)]),
    "grassmann-modes": (
        "grassmann", "parse_expression", ("grassmann", "eval"), "--modes",
        lambda h: h, lambda k: ["grassmann", "eval", "e1", "--modes", str(k)]),
    "green-samples": (
        "lfunctional", "two_point_green", ("lfunc", "green"),
        "--window / --dt samples", lambda h: h,
        lambda k: ["lfunc", "green", "--window", str(k), "--dt", "1"]),
    "sweep-hbars": (
        "lfunctional", "hbar_sweep", ("lfunc", "sweep"), "--hbars values",
        lambda h: h, lambda k: ["lfunc", "sweep", "--hbars", _values(k)]),
    # steps x (3 default hbars + 1)
    "sweep-steps": (
        "lfunctional", "hbar_sweep", ("lfunc", "sweep"),
        "--steps x (--hbars values + 1)", lambda h: h // 4,
        lambda k: ["lfunc", "sweep", "--steps", str(k)]),
    "statmech-beta-points": (
        "statmech", "free_gas", ("statmech", "sweep"), "beta points",
        lambda h: h, lambda k: ["statmech", "sweep", "--beta", f"0:{k - 1}:1"]),
    # beta points x (5 + 64 values)
    "statmech-eps-budget": (
        "statmech", "free_gas", ("statmech", "sweep"),
        "beta points x (5 + --eps values)", lambda h: h // 69,
        lambda k: ["statmech", "sweep", "--eps", _values(64, "1"), "--beta",
                   f"0:{k - 1}:1"]),
}


class TestExitCodes:
    def test_success_returns_zero(self, capsys):
        code, out, err = invoke(
            ["statmech", "sweep", "--eps", "1", "--beta", "1"], capsys)
        assert code == 0
        assert err == ""
        json.loads(out)

    def test_unknown_subcommand_exits_two_with_usage(self, capsys):
        code, out, err = invoke(["frobnicate"], capsys)
        assert code == 2
        assert out == ""
        assert "usage" in err or "invalid choice" in err

    def test_unknown_flag_exits_two(self, capsys):
        code, _, err = invoke(
            ["statmech", "sweep", "--nonsense", "1"], capsys)
        assert code == 2
        assert err != ""

    def test_validation_error_is_json_on_stderr(self, capsys):
        code, out, err = invoke(
            ["statmech", "sweep", "--eps", "1", "--stat", "bose",
             "--beta", "-2"], capsys)
        assert code == 2
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "validation"
        assert message["message"]

    def test_numerical_error_exits_three(self, capsys):
        code, out, err = invoke(
            ["evolve", "trotter", "--cutoff", "10", "--n", "8,16",
             "--tol", "1e-9"], capsys)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "numerical"

    def test_bad_inline_matrix_exits_two(self, capsys):
        code, _, err = invoke(
            ["gns", "construct", "--rho", "{not json"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("argv, code, kind", [
        (["lfunc", "green", "--dt", "0"], 2, "validation"),
        (["lfunc", "green", "--window", "nan"], 2, "validation"),
        (["lfunc", "green", "--window", "inf"], 2, "validation"),
        (["lfunc", "green", "--window", "-1", "--dt", "1e-300"], 2,
         "validation"),
        (["evolve", "trotter", "--n", ","], 2, "validation"),
        (["evolve", "trotter", "--n", "16"], 2, "validation"),
        (["statmech", "sweep", "--out", "{missing_dir}/x"], 2, "validation"),
        (["fock", "poisson", "--cutoffs", "900", "--f", "100"], 3,
         "numerical"),
        (["statmech", "sweep", "--beta", "0:1e15:1"], 2, "validation"),
        (["statmech", "sweep", "--beta", "1e-300:1e300:1e-300"], 2,
         "validation"),
        (["statmech", "sweep", "--beta", "0.1:nan:0.1"], 2, "validation"),
        (["statmech", "sweep", "--beta", "0.1:x:0.1"], 2, "validation"),
        (["statmech", "sweep", "--beta", "0:1.7e308:1.7e308"], 2,
         "validation"),
        (["grassmann", "eval", "(e1 + 2)^2000"], 3, "numerical"),
        (["lfunc", "green", "--window", "1e15", "--dt", "1"], 2,
         "validation"),
        (["lfunc", "green", "--window", "20", "--dt", "1e-300"], 2,
         "validation"),
        (["gns", "construct", "--rho", '{{"rows":0,"cols":0,"data":[]}}'],
         2, "validation"),
        (["weyl", "check", "--trials", "1", "--seed", str(2 ** 64)], 2,
         "validation"),
        (["decohere", "sweep", "--trials", "16", "--threads", "0"], 2,
         "validation"),
        (["weyl", "check", "--modes", "0"], 2, "validation"),
        (["weyl", "check", "--trials", "-1"], 2, "validation"),
        (["weyl", "check", "--terms", "-1"], 2, "validation"),
        (["grassmann", "eval", "exp(710 + e1 e2)"], 3, "numerical"),
        (["grassmann", "eval", "cos(1000i)"], 3, "numerical"),
        (["grassmann", "eval", "exp(e1 e2)", "--modes", "400"], 0, None),
        (["grassmann", "eval", "9" * 400 + " e1"], 2, "validation"),
        (["grassmann", "eval", _BIG + " " + _BIG + " e1"], 3, "numerical"),
        (["grassmann", "eval", _BIG + " " + _BIG, "--format", "csv"], 3,
         "numerical"),
        (["fock", "spectrum", "--eps", "5e307,5e307"], 3, "numerical"),
        (["fock", "spectrum", "--eps", "1e306,1e306"], 0, None),
        (["lfunc", "green", "--eps", "1e308"], 3, "numerical"),
        (["decohere", "sweep", "--alpha", ","], 2, "validation"),
        (["lfunc", "sweep", "--hbars", ","], 2, "validation"),
        *[(["grassmann", "eval", text], 2, "validation")
          for text in _BAD_INDICES.values()],
        (["grassmann", "eval", "e1^\u00b2"], 2, "validation"),
        (["grassmann", "eval", "\u0663 e1"], 2, "validation"),
    ], ids=["green-dt-zero", "green-window-nan", "green-window-inf",
            "green-negative-window-tiny-dt",
            "trotter-no-slices",
            "trotter-one-slice-count", "out-missing-dir", "poisson-overflow",
            "beta-range-too-long", "beta-range-overflows", "beta-range-nan",
            "beta-range-not-a-number", "beta-range-end-overflows",
            "grassmann-power-overflow",
            "green-too-many-samples", "green-samples-overflow",
            "gns-empty-rho", "seed-past-64-bits", "zero-threads",
            "weyl-zero-modes", "weyl-negative-trials",
            "weyl-negative-terms", "grassmann-exp-overflow",
            "grassmann-cos-overflow", "grassmann-400-generators",
            "grassmann-literal-overflow", "grassmann-product-overflow",
            "grassmann-product-overflow-csv", "spectrum-energy-overflow",
            "spectrum-energy-in-range", "green-energy-overflow",
            "decohere-no-alphas", "sweep-no-hbars", *_BAD_INDICES,
            "grassmann-superscript-exponent",
            "grassmann-arabic-indic-digit"])
    def test_bad_input_exits_with_json_not_traceback(self, argv, code, kind,
                                                     tmp_path, capsys):
        argv = [a.format(missing_dir=tmp_path / "missing") for a in argv]
        got, out, err = invoke(argv, capsys)
        assert got == code
        assert "Traceback" not in err
        if kind is None:
            assert err == ""
            return
        assert out == ""
        assert json.loads(err)["error"] == kind


    @pytest.mark.parametrize("argv", [
        ["fock", "spectrum", "--cutoffs", "1000,1000"],
        ["fock", "spectrum", "--cutoffs", "2048"],
        ["fock", "spectrum", "--stat", "fermi", "--cutoffs", ",".join(
            ["1"] * 12), "--eps", ",".join(["1"] * 12)],
        ["evolve", "trotter", "--cutoff", "2048"],
        ["evolve", "trotter", "--cutoff", str(10 ** 30)],
        ["fock", "poisson", "--cutoffs", "30,30,30", "--f", "0.5,0.5,0.5"],
    ], ids=["bose-two-modes", "bose-one-past-cap", "fermi-12-modes",
            "trotter-one-past-cap", "trotter-huge", "poisson-three-modes"])
    def test_dense_dimension_cap_exits_two(self, argv, capsys):
        code, out, err = invoke(argv, capsys)
        assert code == 2
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "validation"
        assert str(_high(tuple(argv[:2]), "Fock dimension")) in \
            message["message"]

    @pytest.mark.parametrize("extra, code", [(0, 3), (1, 2)],
                             ids=["at-cap", "one-past-cap"])
    @pytest.mark.parametrize("case", sorted(_CAPS))
    def test_count_caps_are_checked_before_any_work(
            self, case, extra, code, capsys, monkeypatch):
        module, kernel, command, quantity, cap, argv = _CAPS[case]
        calls = []

        def stub(*args, **kwargs):
            calls.append(args)
            raise cli.NumericalError("stub reached")

        monkeypatch.setattr(importlib.import_module(f"qtoolkit.{module}"),
                            kernel, stub)
        high = _high(command, quantity)
        code_got, out, err = invoke(argv(cap(high) + extra), capsys)
        assert (code_got, out) == (code, "")
        assert len(calls) == (extra == 0)
        if extra:
            message = json.loads(err)
            assert message["error"] == "validation"
            assert message["message"].startswith(f"{quantity} is ")
            assert message["message"].endswith(f"; at most {high}")

    def test_generator_cap_is_the_library_cap(self):
        from qtoolkit.grassmann import GENERATORS_MAX

        assert _high(("grassmann", "eval"), "--modes") == GENERATORS_MAX

    def test_every_cap_has_a_case(self):
        capped = {(command, quantity)
                  for command, rows in cli.LIMITS.items()
                  for quantity, _, _, high in rows if high is not None}
        assert capped == {case[2:4] for case in _CAPS.values()}

    def test_readme_table_lists_every_limit(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
            section = f.read().split("\n## Command line\n")[1]
        table = [line for line in section.split("\n## ")[0].splitlines()
                 if line.startswith("| `")]
        rows = [f"| `{' '.join(command)}` | {quantity} | "
                f"{'-' if low is None else f'{low:,}'} | "
                f"{'-' if high is None else f'{high:,}'} |"
                for command, limits in cli.LIMITS.items()
                for quantity, _, low, high in limits]
        assert table == rows


class TestSerialize:
    """Once numpy is loaded, arrays and numpy integers in a result are
    still recognised, even if it loaded after qtoolkit.serialize."""

    def test_numpy_values_after_a_late_numpy_import(self):
        proc = fresh_python(["-c", (
            "import sys, qtoolkit.serialize as s\n"
            "assert 'numpy' not in sys.modules\n"
            "import numpy as np\n"
            "for bad in (np.array([1.0, np.nan]), np.array([[np.inf]])):\n"
            "    for emit in (lambda: s.to_json_bytes({'m': bad}),\n"
            "                 lambda: s.to_csv_bytes(('m',), [(bad,)])):\n"
            "        try:\n"
            "            emit()\n"
            "        except s.NumericalError as exc:\n"
            "            assert 'non-finite array entry' in str(exc)\n"
            "        else:\n"
            "            raise AssertionError('non-finite array emitted')\n"
            "s.check_finite({'m': np.zeros(3)})\n"
            "sys.stdout.buffer.write(s.to_csv_bytes(\n"
            "    ('n', 'x'), [(np.int64(7), np.float64(0.5))]))\n")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"n,x\n7,0.5\n"


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, capsysbinary):
        argv = ["decohere", "sweep", "--alpha", "0.1", "--trials", "256",
                "--seed", "7", "--format", "csv"]
        code_a, out_a, _ = invoke_bytes(argv, capsysbinary)
        code_b, out_b, _ = invoke_bytes(argv, capsysbinary)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_thread_count_does_not_change_bytes(self, capsysbinary,
                                                monkeypatch):
        argv = ["decohere", "sweep", "--alpha", "0.1", "--trials", "256",
                "--format", "csv"]
        _, base, _ = invoke_bytes(argv, capsysbinary)
        monkeypatch.setenv("QTOOLKIT_THREADS", "4")
        _, enved, _ = invoke_bytes(argv, capsysbinary)
        monkeypatch.delenv("QTOOLKIT_THREADS")
        _, flagged, _ = invoke_bytes(argv + ["--threads", "3"], capsysbinary)
        assert base == enved == flagged

    def test_seed_changes_monte_carlo_output(self, capsysbinary):
        argv = ["decohere", "sweep", "--alpha", "0.1", "--trials", "256",
                "--format", "csv"]
        _, out_a, _ = invoke_bytes(argv + ["--seed", "1"], capsysbinary)
        _, out_b, _ = invoke_bytes(argv + ["--seed", "2"], capsysbinary)
        assert out_a != out_b

    def test_rejects_seed_out_of_range(self, capsys):
        code, _, err = invoke(
            ["weyl", "check", "--trials", "1", "--seed", "-5"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "validation"


class TestOutputs:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "result.csv"
        code, out, _ = invoke(
            ["statmech", "sweep", "--eps", "1", "--beta", "1",
             "--format", "csv", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("beta,Z,E,S,F,n_1")

    def test_csv_uses_dot_decimal_and_newlines(self, capsysbinary):
        code, out, _ = invoke_bytes(
            ["statmech", "sweep", "--eps", "1", "--beta", "0.5",
             "--format", "csv"], capsysbinary)
        assert code == 0
        assert b"\r" not in out
        assert b"," in out and b";" not in out
        assert out.endswith(b"\n")

    def test_json_numbers_roundtrip(self, capsys):
        code, out, _ = invoke(
            ["statmech", "sweep", "--eps", "1", "--beta",
             "0.6931471805599453"], capsys)
        assert code == 0
        payload = json.loads(out)
        beta = payload["rows"][0][0]
        assert beta == 0.6931471805599453


class TestStatmech:
    def test_fermi_occupation_at_log_two(self, capsys):
        code, out, _ = invoke(
            ["statmech", "sweep", "--eps", "1", "--stat", "fermi",
             "--beta", "0.693", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,Z,E,S,F,n_1"
        row = [float(x) for x in lines[1].split(",")]
        assert abs(row[5] - 1.0 / 3.0) < 1e-4

    def test_beta_range_sweep(self, capsys):
        code, out, _ = invoke(
            ["statmech", "sweep", "--eps", "1,2", "--stat", "bose",
             "--beta", "0.5:2.0:0.5", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,Z,E,S,F,n_1,n_2"
        assert len(lines) == 1 + 4
        betas = [float(line.split(",")[0]) for line in lines[1:]]
        assert betas == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_thermodynamic_identity_in_rows(self, capsys):
        code, out, _ = invoke(
            ["statmech", "sweep", "--eps", "1.3", "--stat", "fermi",
             "--beta", "0.8", "--format", "csv"], capsys)
        assert code == 0
        beta, z, e, s, f = [float(x) for x in
                            out.strip().split("\n")[1].split(",")[:5]]
        assert abs(f - (e - s / beta)) < 1e-12
        assert abs(s - (beta * e + np.log(z))) < 1e-12


class TestGrassmann:
    def test_cosine_identity(self, capsys):
        code, out, _ = invoke(
            ["grassmann", "eval", "cos(e1 e2 + e3 e4)"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "1 - e1 e2 e3 e4"
        assert payload["berezin_integral"] == [-1.0, 0.0]

    def test_csv_form(self, capsys):
        code, out, _ = invoke(
            ["grassmann", "eval", "exp(e1 e2)", "--format", "csv"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1] == "1 + e1 e2"

    def test_parse_error_exits_two(self, capsys):
        code, _, err = invoke(["grassmann", "eval", "cos(e1 +"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "validation"


class TestFock:
    def test_spectrum_matches_occupations(self, capsys):
        code, out, _ = invoke(
            ["fock", "spectrum", "--stat", "bose", "--cutoffs", "3,3",
             "--eps", "1.0,2.0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_gap"] <= payload["tolerance"]

    def test_poisson_defect_below_tail(self, capsys):
        code, out, _ = invoke(
            ["fock", "poisson", "--f", "0.5,0.3", "--cutoffs", "30,30"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        for defect, tail in zip(payload["defects"], payload["tail_bounds"]):
            assert defect <= tail + 1e-15

    def test_poisson_large_drift_is_finite(self, capsys):
        code, out, _ = invoke(
            ["fock", "poisson", "--cutoffs", "200", "--f", "30"], capsys)
        assert code == 0
        payload = json.loads(out)
        # one mode: the defect is the single top-level component, |f| c_200
        assert payload["defects"][0] == pytest.approx(
            payload["tail_bounds"][0], rel=1e-12)

    def test_poisson_defect_beyond_squared_range(self, capsys):
        # |f| c_900 is about 9.4e195: representable, though its square is not
        code, out, _ = invoke(
            ["fock", "poisson", "--cutoffs", "900", "--f", "30"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["defects"][0] == pytest.approx(
            payload["tail_bounds"][0], rel=1e-12)
        assert payload["defects"][0] > 1e195


class TestWeylAndEvolve:
    def test_associativity_is_exact(self, capsys):
        code, out, _ = invoke(
            ["weyl", "check", "--trials", "20", "--modes", "2",
             "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["max_associativity_defect"] == 0.0

    def test_fermi_variant(self, capsys):
        code, out, _ = invoke(
            ["weyl", "check", "--trials", "10", "--stat", "fermi"], capsys)
        assert code == 0
        assert json.loads(out)["max_associativity_defect"] == 0.0

    @pytest.mark.parametrize("modes", [64, 70])
    def test_fermi_masks_past_64_modes(self, modes, capsys):
        code, out, _ = invoke(
            ["weyl", "check", "--stat", "fermi", "--modes", str(modes),
             "--trials", "1", "--terms", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["modes"] == modes
        assert payload["max_associativity_defect"] == 0.0

    def test_trotter_reports_first_order(self, capsys):
        code, out, _ = invoke(
            ["evolve", "trotter", "--cutoff", "14", "--n", "16,32,64"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["order"] - 1.0) <= payload["tolerance"]


class TestLfunc:
    def test_green_pole_within_resolution(self, capsys):
        code, out, _ = invoke(
            ["lfunc", "green", "--n", "1", "--eps", "0.7",
             "--window", "120", "--dt", "0.1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pole_gap"] <= payload["resolution"]
        assert payload["kms_ratio"] == pytest.approx([2.0, 0.0])

    def test_green_csv_columns(self, capsys):
        code, out, _ = invoke(
            ["lfunc", "green", "--window", "10", "--dt", "0.5",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau,re_g,im_g"
        assert len(lines) == 1 + 20

    def test_window_shorter_than_tol_exits_two(self, capsys):
        code, _, err = invoke(
            ["lfunc", "green", "--window", "10", "--dt", "0.5",
             "--tol", "0.01"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "validation"


class TestGns:
    def test_pure_state_summary(self, capsys):
        rho = matrix_arg([[1, 0], [0, 0]])
        code, out, _ = invoke(["gns", "construct", "--rho", rho], capsys)
        assert code == 0
        assert json.loads(out)["gns"] == {
            "dimension": 2,
            "carrier_dim": 2,
            "gram_weights": [1.0, 1.0],
            "homomorphism_defect": 0.0,
            "involution_defect": 0.0,
            "expectation_defect": 0.0,
        }

    def test_induced_spectrum(self, capsys):
        rho = matrix_arg([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        h = matrix_arg(np.diag([0.0, 1.0, 3.0]))
        code, out, _ = invoke(
            ["gns", "construct", "--rho", rho, "--h", h], capsys)
        assert code == 0
        induced = json.loads(out)["induced"]
        assert induced["energy"] == pytest.approx(1.0)
        assert induced["spectrum"] == pytest.approx([-1.0, 0.0, 2.0])
        assert induced["theta_defect"] <= 1e-12

    def test_non_stationary_h_exits_two(self, capsys):
        rho = matrix_arg([[1, 0], [0, 0]])
        h = matrix_arg([[0, 1], [1, 0]])
        code, _, err = invoke(
            ["gns", "construct", "--rho", rho, "--h", h], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "validation"


class TestImport:
    def test_cli_import_loads_no_handler_module_or_scipy(self):
        proc = fresh_python(["-c", (
            "import json, sys, qtoolkit.cli; "
            "print(json.dumps(sorted(sys.modules)))")])
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        lazy = {"numpy", "scipy"} | {f"qtoolkit.{m}" for m in (
            "evolution", "decoherence", "lfunctional", "geometry_gns",
            "statmech", "grassmann", "weyl_clifford", "fock")}
        assert not lazy & loaded

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["nope"], 2),
        (["weyl", "check", "--seed", "-1"], 2),
        (["grassmann", "eval", "exp(0.3 + 0.2i + e1 e2 - 2 e3 e4)"], 0),
        (["grassmann", "eval", "cos(0.7i + e1 e2 e3 e4 + e5 e6)"], 0),
        (["grassmann", "eval", "sin(1.5 + e1 e2 + e3 e4)", "--format",
          "csv"], 0),
        (["grassmann", "eval", "(1 + 2 e1)(e2 - 0.5i e1 e3)^2"], 0),
        *[(argv(cap(_high(command, quantity)) + 1), 2)
          for _, _, command, quantity, cap, argv in _CAPS.values()],
        *[(["grassmann", "eval", text], 2) for text in _BAD_INDICES.values()],
    ], ids=["help", "usage-error", "bad-seed", "grassmann-exp",
            "grassmann-cos", "grassmann-sin", "grassmann-product",
            *[f"{case}-past-cap" for case in _CAPS], *_BAD_INDICES])
    def test_command_without_arrays_loads_no_numpy(self, argv, code):
        proc = fresh_python(["-c", (
            "import json, sys\n"
            "from qtoolkit.cli import run\n"
            "code = run(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, 'numpy' in sys.modules]))\n"),
            json.dumps(argv)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [code, False]

    @pytest.mark.parametrize("argv, modules", [
        (["lfunc", "green"], ["fock", "lfunctional"]),
        (["lfunc", "sweep", "--steps", "8"],
         ["evolution", "fock", "lfunctional"]),
    ], ids=["lfunc-green", "lfunc-sweep"])
    def test_command_loads_only_its_modules(self, argv, modules):
        proc = fresh_python(["-c", (
            "import json, sys\n"
            "from qtoolkit.cli import run\n"
            "code = run(json.loads(sys.argv[1]) + ['--out', sys.argv[2]])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.startswith('qtoolkit.'))]))\n"),
            json.dumps(argv), os.devnull])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, sorted(
            f"qtoolkit.{m}" for m in ("cli", "errors", "serialize",
                                      *modules))]

    def test_package_import_loads_no_numpy(self):
        # errors.py states every input rule without importing numpy
        proc = fresh_python(["-c", (
            "import sys, qtoolkit; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'qtoolkit')))")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"['qtoolkit', 'qtoolkit.errors']\n"

    def test_submodules_load_on_attribute_access(self):
        proc = fresh_python(["-c", (
            "import qtoolkit; "
            "assert qtoolkit.fock.FockSpec.__name__ == 'FockSpec'; "
            "assert set(qtoolkit.__all__) <= set(dir(qtoolkit)); "
            "print(hasattr(qtoolkit, 'no_such_module'))")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False\n"

    @pytest.mark.parametrize("name", qtoolkit._SUBMODULES)
    def test_every_public_name_resolves(self, name):
        # a stale __all__ entry would otherwise go unnoticed by anything
        # that looks names up with a default
        module = importlib.import_module(f"qtoolkit.{name}")
        assert [attr for attr in module.__all__
                if not hasattr(module, attr)] == []

    def test_module_entry_matches_console_entry(self):
        argv = ["statmech", "sweep", "--eps", "1", "--stat", "fermi",
                "--beta", "0.693"]
        as_module = fresh_python(["-m", "qtoolkit.cli", *argv])
        as_script = fresh_python(
            ["-c", "import sys; from qtoolkit.cli import main; "
                   "sys.exit(main())", *argv])
        assert as_module.returncode == as_script.returncode == 0
        assert as_module.stderr == b""  # no runpy RuntimeWarning
        assert as_module.stdout == as_script.stdout


# --- argv fuzzing ----------------------------------------------------------
# Flag values come from the flag grammar: every value type argparse accepts
# for the flag, plus out-of-range, non-finite and malformed text.  Sizes are
# either small or past a cap of cli.LIMITS, so each draw either runs quickly
# or fails validation before it allocates.

_FLOAT = st.sampled_from(["0", "-1", "0.5", "1", "2.5", "1e-3", "1e300",
                          "5e307", "1e308", "nan", "inf", "-inf"])


def _past_cap(draw, command, quantity, argv_value):
    """draw, or else the flag value one step past a LIMITS cap."""
    return st.one_of(draw, st.just(argv_value(_high(command, quantity) + 1)))


def _float_list(pool=_FLOAT):
    return st.one_of(st.lists(pool, max_size=3).map(",".join),
                     st.sampled_from(["x", ",", "1,,2", "1;2"]))


def _int_list(low, high):
    return st.one_of(
        st.lists(st.integers(low, high).map(str), max_size=3).map(",".join),
        st.sampled_from(["x", ",", "1.5"]))


def _int(low, high):
    return st.integers(low, high).map(str)


_STATES = [matrix_arg(m) for m in (
    [[1, 0], [0, 0]], [[0.7, 0], [0, 0.3]], [[0.5, 0.5], [0.5, 0.5]],
    [[1]], [[0.5, 0.2], [0.1, 0.5]], [[0.7, 0], [0, 0.5]], [[2, 0], [0, -1]],
    [[0.5, 0.1j, 0], [-0.1j, 0.3, 0], [0, 0, 0.2]], [[1, 0, 0]],
    np.zeros((0, 0)))] + [
    "{not json", '{"rows": 2}', "[]", '{"rows":1,"cols":1,"data":[[1]]}']
_HAMILTONIANS = [matrix_arg(m) for m in (
    [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 2.5]],
    [[1, 1j], [0, 1]], [[np.nan, 0], [0, 1]], np.zeros((0, 0)),
    [[np.inf, 0], [0, 1]], [[1e308, 0], [0, 1]])] + ["{bad"]
_GRASSMANN_TOKENS = ["e1", "e2", "e3", "2", "0.5", "1i", " + ", " - ", "*",
                     "(", ")", "^2", "^0", "^999999999", "cos(", "sin(",
                     "exp(", " ", "x", "e0"]

_FLAGS = {
    ("fock", "spectrum"): {
        "--stat": st.sampled_from(["bose", "fermi"]),
        "--cutoffs": st.one_of(_int_list(-1, 4), st.sampled_from(
            ["2048", "1000,1000", "46,46", "3,2048", str(10 ** 30),
             ",".join(["1"] * 12)])),
        "--eps": _float_list(), "--hbar": _FLOAT},
    ("fock", "poisson"): {
        "--cutoffs": _int_list(-1, 30), "--f": _float_list(),
        "--hbar": _FLOAT},
    ("weyl", "check"): {
        "--stat": st.sampled_from(["bose", "fermi"]), "--modes": _int(-1, 3),
        "--trials": _past_cap(_int(-1, 3), ("weyl", "check"), "--trials", str),
        "--terms": _past_cap(_int(-1, 3), ("weyl", "check"), "--terms", str),
        "--hbar": _FLOAT},
    ("grassmann", "eval"): {"--modes": _int(-1, 4)},
    ("evolve", "trotter"): {
        "--cutoff": st.one_of(_int(-1, 8), st.sampled_from(
            ["2048", "1000000", str(10 ** 30)])),
        "--t": _FLOAT,
        "--n": _past_cap(_int_list(-1, 16), ("evolve", "trotter"),
                         "--n values", _counts),
        "--hbar": _FLOAT},
    ("decohere", "sweep"): {
        "--alpha": _past_cap(_float_list(st.sampled_from(
            ["0", "-1", "0.2", "0.5", "1", "nan", "inf"])),
            ("decohere", "sweep"), "--alpha values", _values),
        "--lam": st.one_of(_FLOAT, st.just("1e-15")),
        "--trials": _past_cap(_int(-1, 32), ("decohere", "sweep"),
                              "--trials", str)},
    ("lfunc", "green"): {
        "--n": _FLOAT, "--eps": _FLOAT,
        "--window": _past_cap(st.sampled_from(
            ["0", "-1", "5", "20", "1e15", "1e300", "nan", "inf"]),
            ("lfunc", "green"), "--window / --dt samples", str),
        "--dt": st.sampled_from(["0", "-1", "0.05", "0.5", "1e-300", "nan",
                                 "inf"]),
        "--hbar": _FLOAT},
    ("lfunc", "sweep"): {
        "--hbars": _past_cap(_float_list(), ("lfunc", "sweep"),
                             "--hbars values", _values),
        "--t": _FLOAT,
        "--steps": _past_cap(_int(-1, 8), ("lfunc", "sweep"),
                             "--steps x (--hbars values + 1)", str)},
    ("statmech", "sweep"): {
        "--eps": _past_cap(_float_list(), ("statmech", "sweep"),
                           "beta points x (5 + --eps values)",
                           lambda k: _values(k - 5, "1")),
        "--stat": st.sampled_from(["bose", "fermi"]),
        "--beta": _past_cap(st.one_of(_FLOAT, st.sampled_from(
            ["0.1:1:0.1", "1:0.1:0.1", "0.5:2:0", "0:1e15:1", "0.1:inf:1",
             "1:2", "a:b:c", "1:1.7e308:1.7e308"])), ("statmech", "sweep"),
            "beta points",
            lambda k: f"0:{k - 1}:1")},
    ("gns", "construct"): {
        "--rho": st.sampled_from(_STATES),
        "--h": st.sampled_from(_HAMILTONIANS)},
}
_COMMON = {"--seed": _int(-1, 3), "--format": st.sampled_from(["json", "csv"]),
           "--tol": _FLOAT, "--threads": _int(-1, 2)}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = list(command)
    if command == ("grassmann", "eval"):
        # a leading space keeps an expression like "-e1" positional
        argv.append(" " + "".join(draw(st.lists(
            st.sampled_from(_GRASSMANN_TOKENS), max_size=8))))
    flags = {**_FLAGS[command], **_COMMON}
    if command == ("gns", "construct"):
        argv += ["--rho", draw(flags.pop("--rho"))]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        argv += [flag, draw(flags[flag])]
    return argv


def _run_captured(argv):
    """Exit code, stdout bytes, stderr text and every warning raised."""
    stdout, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(argv)
    return code, stdout.buffer.getvalue(), err.getvalue(), caught


class TestArgvFuzz:
    @given(argv=_argv())
    @settings(max_examples=300, deadline=None)
    def test_every_argv_exits_cleanly(self, argv):
        code, out, err, caught = _run_captured(argv)
        assert code in (0, 2, 3), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        if code:
            assert out == b""
            diagnostic = json.loads(err.splitlines()[-1])
            assert diagnostic["error"] == ("validation" if code == 2
                                           else "numerical")

    @pytest.mark.parametrize("lam", ["1e-15", "3e-15"])
    def test_narrow_lambda_window_is_silent(self, lam):
        # several phase-table nodes lie within the 1e-14 snap of each lambda
        code, out, err, caught = _run_captured(
            ["decohere", "sweep", "--trials", "1000", "--lam", lam])
        assert (code, err, caught) == (0, "", [])
        assert json.loads(out)["lam_window"] == [-float(lam), float(lam)]
