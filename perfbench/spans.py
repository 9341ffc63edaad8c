"""Span recording around the public functions of qtoolkit's modules.

`Recorder.install()` replaces every public module-level function of each
qtoolkit module (the functions named in the module's ``__all__``) with a
wrapper that records a span: name, start, end and parent.  Calls that go
through module globals are seen nested: ``adiabatic_evolve`` ->
``propagate_linear_ode``, ``induced_hamiltonian`` -> ``gns_construct``,
``commutator`` / ``NormalOrderedPolynomial.__mul__`` -> ``product``,
``gaussian_integral`` -> ``pfaffian``, and the CLI handlers' call-time
``from .x import f``.  Modules imported after installation are wrapped
when their import finishes, so a package that imports lazily is traced
the same way.  Nothing under ``src/`` changes.

Spans stay in memory; `layer_metrics` turns them into per-layer numbers
at the end of a run.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import threading
import time

from stats import self_times

MODULES = ("cli", "serialize", "fock", "weyl_clifford", "grassmann",
           "evolution", "decoherence", "lfunctional", "statmech",
           "geometry_gns")
LAYERS = ("qtoolkit",) + MODULES

# Spans whose layer is not the module that defines them.
SPAN_LAYER = {"cli.emit": "serialize"}

# Per-layer metrics, in the order BENCHMARK.json lists them.
FUNCTION_SELF = (
    "cli.run", "cli.emit",
    "weyl_clifford.product", "grassmann.pfaffian",
    "grassmann.parse_expression", "weyl_clifford.represent",
    "fock.ccr_defect", "fock.car_defect", "lfunctional.from_density",
    "geometry_gns.gns_construct", "geometry_gns.induced_hamiltonian",
    "evolution.propagate_linear_ode", "decoherence.average_density",
    "evolution.trotter_order", "lfunctional.two_point_green",
    "lfunctional.hbar_sweep", "statmech.fermi_gas_dual_route",
)
PER_LAYER = (
    [("qtoolkit.import_s", "s")]
    + [(f"{name}.self_s", "s") for name in FUNCTION_SELF]
    + [("weyl_clifford.product.calls", "count"),
       ("weyl_clifford.product.terms_out", "count"),
       ("grassmann.pfaffian.calls", "count"),
       ("evolution.propagate_linear_ode.steps", "count"),
       ("evolution.propagate_linear_ode.useful_ratio", "ratio"),
       ("decoherence.average_density.trials", "count"),
       ("decoherence.average_density.cpu_per_wall", "ratio")]
    + [(f"{module}.self_s", "s") for module in MODULES]
    + [(f"{layer}.failed", "count") for layer in LAYERS]
    + [("trace.overhead_s", "s")]
)

# propagate_linear_ode starts at this many steps and doubles until two
# resolutions agree, so a call that ends at S steps integrated 2S - START.
ODE_START_STEPS = 1024


def _counts(name, out, wall, cpu):
    if name == "weyl_clifford.product":
        return {"terms_out": len(out.terms)}
    if name == "evolution.propagate_linear_ode":
        return {"steps": int(out[1])}
    if name == "decoherence.average_density":
        return {"trials": int(out.trials), "cpu": cpu, "wall": wall}
    return None


class Recorder:
    """Collects spans from wrapped functions while `active` is true.

    A span is [name, start, end, parent, op, failed, counts]; `op` is the
    benchmark operation that was running, so spans of one operation share
    it.  Each thread keeps its own stack of open spans.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.op,
                    False, None]
            with rec._lock:
                idx = len(rec.spans)
                rec.spans.append(span)
            stack.append(idx)
            cpu0 = time.process_time()
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[6] = _counts(name, out, span[2] - span[1],
                              time.process_time() - cpu0)
            return out

        traced.__perfbench_original__ = fn
        return traced

    def wrap_module(self, module):
        short = module.__name__.rpartition(".")[2]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not hasattr(fn, "__perfbench_original__")):
                setattr(module, attr, self.wrap(f"{short}.{attr}", fn))

    def install(self):
        """Wrap loaded qtoolkit modules now and later ones on import."""
        for name in MODULES:
            module = sys.modules.get(f"qtoolkit.{name}")
            if module is not None:
                self.wrap_module(module)
        sys.meta_path.insert(0, _WrapOnImport(self))


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Wraps a qtoolkit module's functions as soon as it has executed."""

    def __init__(self, recorder):
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        package, _, short = fullname.rpartition(".")
        if package != "qtoolkit" or short not in MODULES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        exec_module = loader.exec_module
        recorder = self.recorder

        def exec_and_wrap(module):
            exec_module(module)
            recorder.wrap_module(module)

        loader.exec_module = exec_and_wrap
        return spec


def layer_of(span_name):
    return SPAN_LAYER.get(span_name, span_name.partition(".")[0])


def layer_metrics(spans, passes, failed_by_layer, import_s, overhead_s):
    """Per-layer metrics, as values per pass over the traced passes.

    `spans` are Recorder spans from `passes` traced passes of the fixed
    batch; `failed_by_layer` counts failed operations over the whole run.
    Every metric of PER_LAYER is present; a layer the workload does not
    reach reads 0.
    """
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    func_self, calls, layer_self = {}, {}, {}
    sums = {"terms_out": 0, "steps": 0, "trials": 0, "cpu": 0.0,
            "wall": 0.0, "ode_work": 0}
    for span, own in zip(spans, selfs):
        name = span[0]
        func_self[name] = func_self.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        for key, value in (span[6] or {}).items():
            sums[key] += value
        if name == "evolution.propagate_linear_ode" and span[6]:
            sums["ode_work"] += 2 * span[6]["steps"] - ODE_START_STEPS
    per = max(passes, 1)
    values = {"qtoolkit.import_s": import_s, "trace.overhead_s": overhead_s}
    for name in FUNCTION_SELF:
        values[f"{name}.self_s"] = func_self.get(name, 0.0) / per
    values["weyl_clifford.product.calls"] = \
        calls.get("weyl_clifford.product", 0) / per
    values["weyl_clifford.product.terms_out"] = sums["terms_out"] / per
    values["grassmann.pfaffian.calls"] = \
        calls.get("grassmann.pfaffian", 0) / per
    values["evolution.propagate_linear_ode.steps"] = sums["steps"] / per
    values["evolution.propagate_linear_ode.useful_ratio"] = (
        sums["steps"] / sums["ode_work"] if sums["ode_work"] else 0.0)
    values["decoherence.average_density.trials"] = sums["trials"] / per
    values["decoherence.average_density.cpu_per_wall"] = (
        sums["cpu"] / sums["wall"] if sums["wall"] else 0.0)
    for module in MODULES:
        values[f"{module}.self_s"] = layer_self.get(module, 0.0) / per
    for layer in LAYERS:
        values[f"{layer}.failed"] = failed_by_layer.get(layer, 0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
