"""Workload `cli_readme`: the README commands as fresh processes.

The eight README commands plus `gns construct` run round-robin, one at a
time (closed loop, one client).  Each is a fresh interpreter entering
through `qtoolkit.cli:main`, as the installed console script does, so the
`runpy` warning of `python -m` is not measured.  A command takes
0.5-0.8 s, of which ~0.55 s is `import qtoolkit.cli` and tens of ms are
compute: import cost shows here and nowhere else, and a change that adds
per-call overhead at tiny sizes shows as a cost.

Every command gets `--seed`, derived from the workload seed.  Each
command's stdout must be byte-identical in every round, and
`decohere sweep` must print the same bytes with `--threads 1` and
`--threads 2`.  The sha256 of each command's stdout is reported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from batch import expect
from cli_child import SPANS_MARKER

ENTRY = "import sys; from qtoolkit.cli import main; sys.exit(main())"
IMPORT = "import qtoolkit.cli"
SETUP_SAMPLES = 5
COMMAND_TIMEOUT = 60


def _payload(out):
    return json.loads(out.decode("utf-8"))


def _statmech(out):
    lines = out.decode("utf-8").splitlines()
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    beta, eps = 0.693, 1.0
    f = math.exp(-beta * eps)
    z = 1.0 + f
    n = f / z
    expected = {"beta": beta, "Z": z, "E": eps * n,
                "S": beta * eps * n + math.log(z), "F": -math.log(z) / beta,
                "n_1": n}
    gap = max(abs(row[k] - v) / max(1.0, abs(v)) for k, v in expected.items())
    return expect(gap <= 1e-12, f"closed-form gap {gap:.3e}")


def _grassmann(out):
    p = _payload(out)
    return expect(p["result"] == "1 - e1 e2 e3 e4"
                  and p["berezin_integral"] == [-1.0, 0.0],
                  f"cos(e1 e2 + e3 e4) = {p['result']!r}")


def _fock(out):
    p = _payload(out)
    return expect(p["max_gap"] <= p["tolerance"],
                  f"spectrum gap {p['max_gap']!r} > {p['tolerance']!r}")


def _weyl(out):
    p = _payload(out)
    return expect(p["max_associativity_defect"] <= p["tolerance"],
                  f"associativity defect {p['max_associativity_defect']!r}")


def _trotter(out):
    p = _payload(out)
    return expect(abs(p["order"] - p["expected_order"]) <= p["tolerance"],
                  f"splitting order {p['order']!r}")


def _decohere(out):
    p = _payload(out)
    bound = 0.5 * math.sqrt(2.0) + 1e-12  # off-diagonal norm of K0
    ok = len(p["results"]) == 2 and all(
        r["trials"] == 4096 and r["mc_stderr"] > 0
        and r["offdiag_norm"] <= bound for r in p["results"])
    return expect(ok, f"ensemble payload {p['results']!r}")


def _green(out):
    p = _payload(out)
    kms = abs(complex(*p["kms_ratio"]) - 2.0)
    return expect(p["pole_gap"] <= p["resolution"] and kms <= 2e-12,
                  f"pole gap {p['pole_gap']!r}, KMS {kms:.3e}")


def _lfunc_sweep(out):
    p = _payload(out)
    return expect(abs(p["slope"] - p["expected_slope"]) <= p["tolerance"],
                  f"hbar slope {p['slope']!r}")


def _gns(out):
    g = _payload(out)["gns"]
    worst = max(g["homomorphism_defect"], g["involution_defect"],
                g["expectation_defect"])
    return expect(worst <= 1e-12 and g["carrier_dim"] == 2,
                  f"GNS defect {worst!r}, carrier {g['carrier_dim']}")


DECOHERE = ["decohere", "sweep", "--alpha", "1e-1,1e-2", "--trials", "4096"]

# (layer, argv, named check, oracle on stdout)
COMMANDS = [
    ("statmech", ["statmech", "sweep", "--eps", "1", "--stat", "fermi",
                  "--beta", "0.693", "--format", "csv"],
     "statmech_closed_form", _statmech),
    ("grassmann", ["grassmann", "eval", "cos(e1 e2 + e3 e4)"],
     "grassmann_berezin", _grassmann),
    ("fock", ["fock", "spectrum", "--stat", "bose", "--cutoffs", "3,3",
              "--eps", "1.0,2.0"],
     "fock_spectrum_tolerance", _fock),
    ("weyl_clifford", ["weyl", "check", "--modes", "2", "--trials", "50"],
     "weyl_associativity_tolerance", _weyl),
    ("evolution", ["evolve", "trotter", "--cutoff", "20", "--n",
                   "16,32,64,128"],
     "trotter_order_tolerance", _trotter),
    ("decoherence", DECOHERE, "decohere_mc_quadrature", _decohere),
    ("lfunctional", ["lfunc", "green", "--n", "1", "--eps", "0.7",
                     "--window", "200", "--dt", "0.05"],
     "green_pole_resolution_kms", _green),
    ("lfunctional", ["lfunc", "sweep", "--hbars", "1e-1,1e-2,1e-3"],
     "lfunc_slope_tolerance", _lfunc_sweep),
    ("geometry_gns", ["gns", "construct", "--rho",
                      '{"rows":2,"cols":2,"data":[[1,0],[0,0],[0,0],[0,0]]}'],
     "gns_defects", _gns),
]


class _Ledger:
    """Failure accounting, stdout hashes and check verdicts of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer = {}
        self.checks = {}
        self.errors = []
        self.sha = {}       # command label -> sha256 of its first stdout
        self.accepted = {}  # command label -> hashes that passed the oracle

    def verdict(self, name, miss):
        entry = self.checks.setdefault(name, {"ok": 0, "miss": 0})
        if miss is None:
            entry["ok"] += 1
            return True
        entry["miss"] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {miss}")
        return False

    def judge(self, label, layer, check, oracle, proc, stderr):
        self.attempted += 1
        ok = self.verdict("exit_clean", expect(
            proc.returncode == 0 and b"Traceback" not in stderr,
            f"{label}: exit {proc.returncode}, "
            f"stderr {stderr[-300:].decode('utf-8', 'replace')!r}"))
        sha = hashlib.sha256(proc.stdout).hexdigest()
        first = self.sha.setdefault(label, sha)
        ok &= self.verdict("stdout_identical_across_passes", expect(
            sha == first, f"{label}: stdout changed between rounds"))
        seen = self.accepted.setdefault(label, set())
        if ok and sha not in seen:
            try:
                miss = oracle(proc.stdout)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                miss = f"unreadable payload: {type(exc).__name__}: {exc}"
            if self.verdict(check, miss):
                seen.add(sha)
            else:
                ok = False
        elif ok:
            self.verdict(check, None)
        if not ok:
            self.failed += 1
            self.failed_by_layer[layer] = \
                self.failed_by_layer.get(layer, 0) + 1


def _label(argv):
    return " ".join(argv[:2])


class CliWorkload:
    def __init__(self, root, seed):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.seed = str(seed)
        self.ledger = _Ledger()

    def _spawn(self, argv, traced=False):
        if traced:
            cmd = [sys.executable, os.path.join("perfbench", "cli_child.py")]
        else:
            cmd = [sys.executable, "-c", ENTRY]
        start = time.perf_counter()
        proc = subprocess.run(cmd + argv, cwd=self.root, env=self.env,
                              capture_output=True, timeout=COMMAND_TIMEOUT)
        return time.perf_counter() - start, proc

    def setup_samples(self):
        samples = []
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", IMPORT],
                                  cwd=self.root, env=self.env,
                                  capture_output=True, timeout=COMMAND_TIMEOUT)
            samples.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError("import qtoolkit.cli failed: "
                                   + proc.stderr.decode("utf-8", "replace"))
        return samples

    def round(self, traced, spans):
        """One round-robin pass; returns (wall, per-command seconds)."""
        results, times = [], []
        start = time.perf_counter()
        for layer, argv, check, oracle in COMMANDS:
            dt, proc = self._spawn(argv + ["--seed", self.seed], traced)
            times.append(dt)
            results.append((layer, argv, check, oracle, proc))
        wall = time.perf_counter() - start
        for layer, argv, check, oracle, proc in results:
            stderr = proc.stderr
            if traced:
                stderr, _, tail = stderr.rpartition(
                    b"\n" + SPANS_MARKER.encode())
                if tail:
                    spans.append(json.loads(tail))
            self.ledger.judge(_label(argv), layer, check, oracle, proc, stderr)
        return wall, times

    def rounds(self, seconds, traced=False, spans=None):
        """Whole rounds until their walls add up to `seconds`."""
        walls, samples = [], []
        while sum(walls) < seconds:
            wall, times = self.round(traced, spans)
            walls.append(wall)
            samples.extend(times)
        return walls, samples

    def threads_check(self):
        """decohere sweep prints the same bytes with 1 and 2 threads."""
        outs = []
        for threads in ("1", "2"):
            _, proc = self._spawn(DECOHERE + ["--seed", self.seed,
                                              "--threads", threads])
            self.ledger.judge(f"decohere sweep --threads {threads}",
                              "decoherence", "decohere_mc_quadrature",
                              _decohere, proc, proc.stderr)
            outs.append(hashlib.sha256(proc.stdout).hexdigest())
        same = outs[0] == outs[1] == self.ledger.sha.get(_label(DECOHERE))
        if not self.ledger.verdict("threads_byte_identical", expect(
                same, "decohere sweep differs between thread counts")):
            self.ledger.failed += 2
            self.ledger.failed_by_layer["decoherence"] = \
                self.ledger.failed_by_layer.get("decoherence", 0) + 2


def _merge_spans(children):
    """Concatenate per-process spans, shifting parent indices."""
    merged = []
    for child in children:
        offset = len(merged)
        for name, start, end, parent, op, failed, counts in child["spans"]:
            merged.append([name, start, end,
                           parent + offset if parent >= 0 else -1,
                           op, failed, counts])
    return merged


def run(root, seed, seconds, trace):
    work = CliWorkload(root, seed)
    result = {"ops": [_label(argv) for _, argv, _, _ in COMMANDS]}
    if trace:
        walls, samples = work.rounds(seconds / 2)
        children = []
        traced, _ = work.rounds(seconds / 2, traced=True, spans=children)
    else:
        result["setup_samples"] = work.setup_samples()
        walls, samples = work.rounds(seconds)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    work.threads_check()
    ledger = work.ledger
    if trace:
        from spans import layer_metrics
        overhead = statistics.median(traced) - statistics.median(walls)
        import_s = statistics.median(c["import_s"] for c in children)
        result["per_layer"] = layer_metrics(
            _merge_spans(children), len(traced), ledger.failed_by_layer,
            import_s, overhead)
        result["traced_walls"] = traced
    result.update(walls=walls, samples=samples, attempted=ledger.attempted,
                  failed=ledger.failed, failed_by_layer=ledger.failed_by_layer,
                  checks=ledger.checks, errors=ledger.errors,
                  stdout_sha256=ledger.sha)
    return result
