"""qtoolkit benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload {cli_readme,symbolic,numeric}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qtoolkit is imported from ./src.  The
last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, measured untraced; with --trace 1 they are the per-layer
ones, from a run whose second half is traced (see spans.py), plus the
tracing overhead.  The line before it holds the details: provenance, the
tail percentile with its value and sample count, failed_frac, every named
check, per-operation medians, stdout hashes and the sizes left out for
cost.

End-to-end metrics (a timing is a median):
  setup_s      symbolic/numeric: fresh interpreter start, `import
               qtoolkit`, input generation and warm-up, up to the READY
               line.  cli_readme: a fresh `import qtoolkit.cli`, the fixed
               cost every command pays.  Several set-ups per run.
  wall_s       wall time of one pass of the fixed batch (one round of
               the nine commands for cli_readme), oracles excluded.
  op_p50_s     median time of one operation: one CLI process or one
               public-function call.
  op_tail_s    mean time of the operations beyond the highest of the
               percentiles in stats.TAIL_GRID with at least ten samples
               beyond it (the percentile itself is in the detail line).
               A percentile of a batch of distinct operations falls on one
               or two of them, at a rank that moves with the number of
               passes a run fits; on numeric its spread over ten seeds
               reached a quarter of its median.
  peak_rss_mb  peak resident memory of the workload process through
               set-up and its first pass; for cli_readme the maximum
               over its children.  Later passes repeat the same work,
               but glibc keeps freed blocks from pass to pass (in the
               arenas of average_density's threads among others), which
               moved their peak by 40-50 MiB from run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import tail  # noqa: E402

WORKLOADS = ("cli_readme", "symbolic", "numeric")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_SAMPLES = 3    # in-process workloads: set-ups per run
READY_TIMEOUT = 120  # seconds a worker may take to set up
# Sizes kept out of the batches because 22 runs of them cost too much.
LEFT_OUT = {
    "symbolic": {"product a^8 . a*^8 (one mode)": "4-7 s per call"},
    "numeric": {"car_defect at 10 modes": "33 s per call",
                "fermi_gas_dual_route at m = 16": "10 s per call",
                "ccr_defect at dim 1331": "3.8 s per call",
                "gns_construct at d = 16": "minutes per call (extrapolated)"},
}
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "QTOOLKIT_THREADS")


def _worker(root, workload, seed, seconds, trace, setup_only):
    """Start an in-process worker; returns (set-up seconds, result)."""
    cmd = [sys.executable, os.path.join("perfbench", "inproc.py"), workload,
           str(seed), repr(seconds), "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(READY_TIMEOUT) and proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready != b"READY\n":
            proc.kill()
            _, err = proc.communicate()
            raise RuntimeError(f"{workload} worker did not set up: "
                               + err.decode("utf-8", "replace")[-2000:])
        out, err = proc.communicate(timeout=seconds + READY_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: "
                           + err.decode("utf-8", "replace")[-2000:])
    if setup_only:
        return setup, None
    return setup, json.loads(out.decode("utf-8").strip().splitlines()[-1])


def _inproc(root, workload, seed, seconds, trace):
    samples = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(_worker(root, workload, seed, seconds, trace,
                                   True)[0])
    setup, result = _worker(root, workload, seed, seconds, trace, False)
    result["setup_samples"] = samples + [setup]
    return result


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, timeout=10)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode().strip() or None


def _source_tree(root):
    """Line count and content hash of src/qtoolkit (the hash stands in for
    the commit in checkouts that are not git repositories)."""
    pkg = os.path.join(root, "src", "qtoolkit")
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    data = handle.read()
                digest.update(os.path.relpath(path, pkg).encode() + b"\0")
                digest.update(data)
                lines += data.count(b"\n")
    return lines, digest.hexdigest()


def _provenance(root, seed):
    import numpy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    lines, tree = _source_tree(root)
    return {
        "git_commit": _git_commit(root),
        "src_sha256": tree,
        "src_qtoolkit_lines": lines,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _op_medians(result):
    names = result["ops"]
    n = len(names)
    samples = result["samples"]
    return {name: statistics.median(samples[i::n])
            for i, name in enumerate(names)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qtoolkit",
                                       "__init__.py")):
        print("perfbench: run from a checkout root that has src/qtoolkit",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    seed = args.seed % (1 << 63)  # numpy and the CLI take unsigned seeds
    try:
        if args.workload == "cli_readme":
            import cli_readme
            result = cli_readme.run(root, seed, args.seconds,
                                    bool(args.trace))
        else:
            result = _inproc(root, args.workload, seed, args.seconds,
                             bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    samples = result["samples"]
    op_tail = tail(samples)
    misses = sum(c["miss"] for c in result["checks"].values())
    correct = result["failed"] == 0 and misses == 0
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": _provenance(root, args.seed),
        "pass_walls": result["walls"],
        "op_tail": {k: op_tail[k] for k in ("percentile", "value",
                                            "samples", "beyond")},
        "failed_frac": result["failed"] / max(result["attempted"], 1),
        "failed_by_layer": result["failed_by_layer"],
        "checks": result["checks"],
        "errors": result["errors"],
        "op_median_s": _op_medians(result),
    }
    for key in ("setup_samples", "traced_walls", "stdout_sha256"):
        if key in result:
            detail[key] = result[key]
    if args.workload in LEFT_OUT:
        detail["left_out"] = LEFT_OUT[args.workload]
    if args.trace:
        metrics = result["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(result["setup_samples"]),
            "wall_s": statistics.median(result["walls"]),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": op_tail["mean_beyond"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
