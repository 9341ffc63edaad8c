"""Worker process of the in-process workloads (`symbolic`, `numeric`).

    python3 perfbench/inproc.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Run from the root of a checkout.  It imports qtoolkit from ./src, builds
the seeded batch, warms up, and prints READY; the parent times set-up from
process start to that line.  With --setup-only it stops there.  Otherwise
it runs passes of the batch for SECONDS (with TRACE=1, the first half
untraced and the second half traced) and prints one JSON line with the
raw timings, the check ledger and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import sys
import time


def _import_qtoolkit(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import qtoolkit
    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(qtoolkit.__file__))
    if where != os.path.join(src, "qtoolkit"):
        raise SystemExit(f"qtoolkit imported from {where}, not from {src}")
    return elapsed


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _passes(runner, seconds, recorder=None):
    """Whole passes until their walls add up to `seconds`; the oracle
    checks between passes do not count toward the run length.  Also
    returns the peak RSS through the first pass (see run.py)."""
    walls, samples, first_peak = [], [], None
    while sum(walls) < seconds:
        wall, times = runner.run_pass(recorder)
        walls.append(wall)
        samples.extend(times)
        if first_peak is None:
            first_peak = _peak_rss_mb()
    return walls, samples, first_peak


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), \
        argv[3] == "1"
    import_s = _import_qtoolkit(os.getcwd())

    from batch import Runner
    batch = importlib.import_module(workload).build(seed)
    runner = Runner(batch)
    runner.warm_up()
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    result = {"import_s": import_s, "ops": [op.name for op in batch.ops]}
    if trace:
        from spans import Recorder, layer_metrics
        walls, samples, peak = _passes(runner, seconds / 2)
        recorder = Recorder()
        recorder.install()
        traced, _, _ = _passes(runner, seconds / 2, recorder)
        overhead = statistics.median(traced) - statistics.median(walls)
        result["per_layer"] = layer_metrics(
            recorder.spans, len(traced), runner.failed_by_layer, import_s,
            overhead)
        result["traced_walls"] = traced
    else:
        walls, samples, peak = _passes(runner, seconds)
    result.update(
        walls=walls, samples=samples, attempted=runner.attempted,
        failed=runner.failed, failed_by_layer=runner.failed_by_layer,
        checks={name: {"ok": runner.check_ok[name],
                       "miss": runner.check_miss[name]}
                for name in runner.check_ok},
        errors=runner.errors, peak_rss_mb=peak)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
