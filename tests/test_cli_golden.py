"""Stdout of a fixed set of command lines against committed golden output.

`tests/golden/cli_stdout.json` holds, for every argv of ARGVS, the sha256
of its stdout and the parsed payload (JSON object, or CSV rows with
numeric cells as numbers), together with the software stack it was made
under.  On that stack the sha256 must match exactly.  On any other stack
floating-point bytes may legitimately differ in their last digits, so the
parsed payloads are compared instead, numbers to 1e-12 relative (with a
floor of 1 on the scale).  The payloads are compared in both modes; the
mode that ran is named in the test session's summary.

A change that means to move a printed digit regenerates the file in the
same commit:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from qtoolkit import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "cli_stdout.json")

_DECOHERE = ["decohere", "sweep", "--alpha", "1e-1,1e-2", "--trials", "4096"]
# a non-diagonal mixed state (h + I/2) / 3.2 and the h it commutes with
_MIXED_RHO = json.dumps({"rows": 3, "cols": 3, "data": [
    [0.46875, 0.0], [0.0625, 0.0], [0.0, 0.0],
    [0.0625, 0.0], [0.46875, 0.0], [0.0, 0.0],
    [0.0, 0.0], [0.0, 0.0], [0.0625, 0.0]]})
_MIXED_H = json.dumps({"rows": 3, "cols": 3, "data": [
    [1.0, 0.0], [0.2, 0.0], [0.0, 0.0],
    [0.2, 0.0], [1.0, 0.0], [0.0, 0.0],
    [0.0, 0.0], [0.0, 0.0], [-0.3, 0.0]]})

ARGVS = [
    # the README commands
    ["statmech", "sweep", "--eps", "1", "--stat", "fermi", "--beta",
     "0.693", "--format", "csv"],
    ["grassmann", "eval", "cos(e1 e2 + e3 e4)"],
    ["fock", "spectrum", "--stat", "bose", "--cutoffs", "3,3", "--eps",
     "1.0,2.0"],
    ["weyl", "check", "--modes", "2", "--trials", "50"],
    ["evolve", "trotter", "--cutoff", "20", "--n", "16,32,64,128"],
    _DECOHERE,
    ["lfunc", "green", "--n", "1", "--eps", "0.7", "--window", "200",
     "--dt", "0.05"],
    ["lfunc", "sweep", "--hbars", "1e-1,1e-2,1e-3"],
    ["gns", "construct", "--rho",
     '{"rows":2,"cols":2,"data":[[1,0],[0,0],[0,0],[0,0]]}'],
    # edges: Poisson amplitudes near and past double range, three-mode
    # spectra, the green sample cap, thread counts, a mixed GNS state
    ["fock", "poisson", "--cutoffs", "200", "--f", "30"],
    ["fock", "poisson", "--cutoffs", "900", "--f", "30"],
    ["fock", "spectrum", "--cutoffs", "3,3,3", "--eps", "1.0,2.0,0.5",
     "--hbar", "0.3"],
    ["fock", "spectrum", "--stat", "fermi", "--cutoffs", "1,1,1", "--eps",
     "1.0,2.0,0.5"],
    ["lfunc", "green", "--window", "5000", "--dt", "0.05"],
    _DECOHERE + ["--threads", "1"],
    _DECOHERE + ["--threads", "2"],
    ["decohere", "sweep", "--trials", "100001", "--threads", "2"],
    ["gns", "construct", "--rho", _MIXED_RHO, "--h", _MIXED_H],
    ["evolve", "trotter", "--cutoff", "40"],
    # Green samples at a large occupation (the csv rows print every
    # sample); four hbars at an odd step count
    ["lfunc", "green", "--n", "20", "--eps", "1.37", "--hbar", "2.2",
     "--window", "300", "--dt", "0.03"],
    ["lfunc", "green", "--n", "20", "--eps", "1.37", "--hbar", "2.2",
     "--window", "12", "--dt", "0.03", "--format", "csv"],
    ["lfunc", "sweep", "--hbars", "0.3,0.05,0.01,1e-4", "--t", "0.93",
     "--steps", "33"],
    # a lambda window narrower than the node-hit tolerance: several nodes
    # hit each sample
    ["decohere", "sweep", "--trials", "1000", "--lam", "1e-15"],
    # fermionic associativity, where a wrong contraction sign shows as a
    # nonzero defect; every trial's defect at hbar = 0.3
    ["weyl", "check", "--stat", "fermi", "--modes", "6", "--trials", "20",
     "--terms", "5"],
    ["weyl", "check", "--modes", "3", "--hbar", "0.3", "--terms", "5",
     "--trials", "20", "--format", "csv"],
    # Grassmann functions of a real, a complex and an imaginary body: the
    # Taylor coefficients round like numpy's complex / int (a multiply by
    # the reciprocal), which a plain complex division does not
    ["grassmann", "eval", "sin(1.5 + e1 e2 + e3 e4 + e5 e6 + e7 e8)"],
    ["grassmann", "eval",
     "sin(0.25 + 0.5i + e1 e2 + e3 e4 + e5 e6 + e7 e8)"],
    ["grassmann", "eval", "exp(0.3 + 0.2i + e1 e2 - 2 e3 e4 + e5 e6)",
     "--format", "csv"],
    ["grassmann", "eval", "cos(0.7i + e1 e2 e3 e4 + e5 e6 + e7 e8)"],
    # the caps: the largest Green cutoff (n = 28) over 100,000 samples,
    # and a Poisson defect at Fock dimension 2,048
    ["lfunc", "green", "--n", "28", "--window", "5000", "--dt", "0.05"],
    ["fock", "poisson", "--cutoffs", "2047", "--f", "0.5"],
    # the --hbars cap of `lfunc sweep`: 64 values, at the default steps
    ["lfunc", "sweep", "--hbars",
     ",".join(f"{0.3 * 0.9 ** k:.4g}" for k in range(64))],
    # the generator cap of `grassmann eval`: index e65536 and --modes 65536
    ["grassmann", "eval", "exp(e1 e65536) + 2 e2 e3 - e65536"],
    ["grassmann", "eval", "cos(e1 e2 + e3 e4)", "--modes", "65536"],
]


def _blas(config) -> str | None:
    try:
        blas = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception:
        return None


def stack() -> dict:
    """The software and instruction set whose rounding the bytes record."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "numpy_blas": _blas(np.show_config),
        "cpu_features": sorted(k for k, v in __cpu_features__.items() if v),
    }


def stdout_of(argv) -> bytes:
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(sink):
        code = cli.run(argv)
    assert code == 0, argv
    return sink.buffer.getvalue()


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def parse(argv, data: bytes):
    text = data.decode("utf-8")
    if "csv" in argv:
        return [[_number(c) for c in row]
                for row in csv.reader(io.StringIO(text))]
    return json.loads(text)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def close(got, want, where="payload") -> list[str]:
    """Paths at which two parsed payloads differ beyond 1e-12 relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [d for k in want for d in close(got[k], want[k],
                                               f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in close(g, w, f"{where}[{i}]")]
    if got == want or (_is_number(got) and _is_number(want) and abs(
            got - want) <= 1e-12 * max(1.0, abs(got), abs(want))):
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _load() -> dict:
    if not os.path.exists(GOLDEN):
        return {"stack": None, "commands": []}
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


_RECORDED = _load()
MODE = ("sha256 (recorded stack)" if _RECORDED["stack"] == stack()
        else "payload at 1e-12 (stack differs from the recorded one)")


def test_golden_covers_every_argv():
    assert [entry["argv"] for entry in _RECORDED["commands"]] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)),
                         ids=["-".join(a[:2] + [str(i)])
                              for i, a in enumerate(ARGVS)])
def test_cli_stdout_matches_golden(index):
    entry = _RECORDED["commands"][index]
    argv = entry["argv"]
    data = stdout_of(argv)
    assert close(parse(argv, data), entry["payload"]) == [], argv
    if MODE.startswith("sha256"):
        assert hashlib.sha256(data).hexdigest() == entry["sha256"], argv


def test_payload_comparison_tolerance():
    want = {"a": [1.0, 2e-17, "x"], "b": 123456.0, "ok": True}
    assert close({"a": [1.0 + 1e-13, 3e-17, "x"], "b": 123456.0 + 1e-8,
                  "ok": True}, want) == []
    assert close({"a": [1.0 + 1e-11, 2e-17, "x"], "b": 123456.0,
                  "ok": True}, want) == ["payload.a[0]: 1.00000000001 != 1.0"]
    assert close({"a": [1.0, 2e-17], "b": 123456.0, "ok": True}, want)
    assert close({"a": [1.0, 2e-17, "y"], "b": 123456.0, "ok": 1}, want)
    assert close({"a": [1.0, 2e-17, "x"], "ok": True}, want)


def runtime_outputs() -> dict:
    """The sha256 of every argv's stdout, and the bytes of a Trotter
    product and of an L-functional evolution: the paths that exponentiate
    general matrices."""
    from qtoolkit.evolution import trotter_slices
    from qtoolkit.lfunctional import coherent_lfunctional, evolve_L
    from qtoolkit.weyl_clifford import poly

    factors = [np.diag([1.0, -0.5, 0.25]), np.ones((3, 3)) - 2j * np.eye(3)]
    h = poly("bose", 1, {((1,), (1,)): 1.1, ((2,), (0,)): 0.3,
                         ((0,), (2,)): 0.3})
    moved = evolve_L(coherent_lfunctional([0.3 - 0.4j], degree=4), h, 0.9,
                     steps=3)
    return {
        "stdout": [hashlib.sha256(stdout_of(argv)).hexdigest()
                   for argv in ARGVS],
        "trotter_slices": trotter_slices(factors, 0.7, 9).tobytes().hex(),
        "evolve_L": [[repr(key), v.real.hex(), v.imag.hex()]
                     for key, v in moved.correlations.items()],
    }


@functools.cache
def _outputs_here() -> dict:
    return runtime_outputs()


def child_outputs(prelude: str = "", env: dict | None = None) -> dict:
    """runtime_outputs() of a fresh interpreter that first runs prelude,
    with env added to this process's environment."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = ("import json, sys\n"
              f"{prelude}"
              f"sys.path[:0] = [{here!r}, {src!r}]\n"
              "import test_cli_golden\n"
              "print(json.dumps(test_cli_golden.runtime_outputs()))\n")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env={**os.environ, **(env or {})})
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_no_runtime_path_needs_scipy():
    assert child_outputs("sys.modules['scipy'] = None\n") == _outputs_here()


def test_golden_with_one_blas_thread():
    """Byte-identity across thread counts covers BLAS threads too."""
    got = child_outputs(env={"OPENBLAS_NUM_THREADS": "1"})
    assert got == _outputs_here()
    if MODE.startswith("sha256"):
        assert got["stdout"] == [e["sha256"] for e in _RECORDED["commands"]]


def write() -> None:
    commands = []
    for argv in ARGVS:
        data = stdout_of(argv)
        commands.append({"argv": argv,
                         "sha256": hashlib.sha256(data).hexdigest(),
                         "payload": parse(argv, data)})
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump({"stack": stack(), "commands": commands}, f, indent=1)
        f.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write()
