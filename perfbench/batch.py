"""Operations, oracle checks and the pass loop of an in-process workload.

A workload module builds a `Batch`: a fixed list of operations, each one
public-function call into qtoolkit, and the named checks that verify
their outputs.  A pass runs every operation once, back to back, in a
closed loop.  After the pass each check runs on the outputs it names;
when every output it reads is bit-identical to outputs it already
accepted, the earlier verdict stands, so a costly oracle runs once per
distinct output.  Operations fail when they raise or when a check on
them misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Callable

import numpy as np


@dataclasses.dataclass
class Op:
    """One public-function call.  `call(outs)` performs exactly that call;
    it may read outputs of earlier operations of the same pass by name.
    The call must look the function up on its module at call time, so
    that tracing wrappers installed later are used."""

    name: str
    layer: str
    call: Callable[[dict], Any]


@dataclasses.dataclass
class Check:
    """A named oracle over the outputs of `ops`; `fn(outs)` returns a
    message describing the miss, or None when the outputs pass."""

    name: str
    ops: tuple
    fn: Callable[[dict], Any]


@dataclasses.dataclass
class Batch:
    ops: list
    checks: list
    warmup: list  # names of independent operations run once before timing

    def __post_init__(self):
        names = [op.name for op in self.ops]
        if len(set(names)) != len(names):
            raise ValueError("operation names must be unique")
        known = set(names)
        for check in self.checks:
            missing = set(check.ops) - known
            if missing:
                raise ValueError(f"check {check.name} reads unknown {missing}")
        unchecked = known - {o for c in self.checks for o in c.ops}
        if unchecked:
            raise ValueError(
                f"operations without a check: {sorted(unchecked)}")


def expect(condition, message):
    """Oracle verdict: None when `condition` holds, else the miss message."""
    return None if condition else message


def digest(obj) -> str:
    """Hash of an output's full value, arrays and dataclasses included."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            h.update(field.name.encode())
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


class Runner:
    """Runs passes of a batch and keeps the failure and check ledgers."""

    def __init__(self, batch: Batch):
        self.batch = batch
        self.by_name = {op.name: op for op in batch.ops}
        self.accepted = {}  # check index -> accepted digest tuples
        self.check_ok = {c.name: 0 for c in batch.checks}
        self.check_miss = {c.name: 0 for c in batch.checks}
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer = {}
        self.errors = []

    def warm_up(self):
        outs = {}
        for name in self.batch.warmup:
            outs[name] = self.by_name[name].call(outs)

    def run_pass(self, recorder=None):
        """One pass; returns (wall seconds, per-operation seconds)."""
        outs, raised, times = {}, set(), []
        clock = time.perf_counter
        start = clock()
        for index, op in enumerate(self.batch.ops):
            if recorder is not None:
                recorder.op = index
                recorder.active = True
            t0 = clock()
            try:
                outs[op.name] = op.call(outs)
            except Exception as exc:  # a raising operation is a failure
                raised.add(op.name)
                self._error(f"{op.name}: {type(exc).__name__}: {exc}")
            times.append(clock() - t0)
            if recorder is not None:
                recorder.active = False
        wall = clock() - start
        self._verify(outs, raised)
        return wall, times

    def _error(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)

    def _verify(self, outs, raised):
        failed = set(raised)
        digests = {name: digest(out) for name, out in outs.items()}
        for index, check in enumerate(self.batch.checks):
            if raised & set(check.ops):
                self.check_miss[check.name] += 1
                failed.update(check.ops)
                continue
            key = tuple(digests[o] for o in check.ops)
            seen = self.accepted.setdefault(index, set())
            if key in seen:
                self.check_ok[check.name] += 1
                continue
            try:
                miss = check.fn(outs)
            except Exception as exc:  # an oracle that cannot run is a miss
                miss = f"oracle raised {type(exc).__name__}: {exc}"
            if miss is None:
                seen.add(key)
                self.check_ok[check.name] += 1
            else:
                self.check_miss[check.name] += 1
                failed.update(check.ops)
                self._error(f"{check.name}: {miss}")
        self.attempted += len(self.batch.ops)
        self.failed += len(failed)
        for name in failed:
            layer = self.by_name[name].layer
            self.failed_by_layer[layer] = \
                self.failed_by_layer.get(layer, 0) + 1
