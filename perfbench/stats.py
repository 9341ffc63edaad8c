"""Order statistics and span arithmetic shared by every workload.

Pure functions on plain numbers, so the self-test can check them on
synthetic data without importing the program under test.
"""

from __future__ import annotations

import math

# Percentiles tried for the tail, highest first.  A coarse grid keeps the
# reported percentile fixed while the sample count of a run moves with
# the machine's speed: about 50-100 samples give p75, 100-1000 p90.
TAIL_GRID = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    h = (len(xs) - 1) * p / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def tail(values, grid=TAIL_GRID, min_beyond=MIN_BEYOND):
    """Highest grid percentile with at least `min_beyond` samples above it.

    Returns a dict with the percentile, its value, the number of samples
    strictly above that value, their mean and the sample count.  With too
    few samples for any grid point the median is reported, flagged by its
    percentile.

    The mean beyond the percentile is the steadier tail figure for a batch
    of distinct operations: the percentile itself falls on one or two
    operation kinds and carries their noise, while the mean covers every
    sample beyond it.
    """
    n = len(values)
    for p in grid:
        value = percentile(values, p)
        out = [x for x in values if x > value]
        if len(out) >= min_beyond:
            break
    else:
        p = 50.0
        value = percentile(values, p)
        out = [x for x in values if x > value]
    return {"percentile": p, "value": value, "beyond": len(out),
            "mean_beyond": sum(out) / len(out) if out else value,
            "samples": n}


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    `spans` is a sequence of (start, end, parent) with parent an index
    into the same sequence or -1.  Children are clipped to their parent's
    interval, and overlapping children (from threads) count once.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        clipped = [(max(spans[c][0], start), min(spans[c][1], end))
                   for c in children[i]]
        clipped = [(s, e) for s, e in clipped if e > s]
        out.append((end - start) - _covered(clipped))
    return out
