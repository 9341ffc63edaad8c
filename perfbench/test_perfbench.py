"""Self-test of the benchmark's arithmetic and result schema.

    python3 -m pytest perfbench -q

Needs no qtoolkit import: spans, percentiles and the schema are checked on
synthetic data.
"""

import json
import os
import re
import types

import pytest

import run
from batch import Batch, Check, Op
from spans import PER_LAYER, Recorder, layer_metrics
from stats import percentile, self_times, tail

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_percentile_interpolates_between_ranks():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 90) == pytest.approx(4.6)


def test_tail_is_highest_percentile_with_ten_beyond():
    t = tail([float(i) for i in range(1, 101)])
    assert (t["percentile"], t["beyond"], t["samples"]) == (90.0, 10, 100)
    assert t["value"] == pytest.approx(90.1)
    assert t["mean_beyond"] == pytest.approx(95.5)
    t = tail([float(i) for i in range(1, 1001)])
    assert (t["percentile"], t["beyond"]) == (99.0, 10)
    t = tail([float(i) for i in range(1, 301)])
    assert (t["percentile"], t["beyond"]) == (90.0, 30)
    t = tail([float(i) for i in range(1, 46)])
    assert (t["percentile"], t["beyond"]) == (75.0, 11)
    t = tail([1.0, 2.0, 3.0])
    assert t["percentile"] == 50.0 and t["value"] == 2.0
    assert t["mean_beyond"] == 3.0
    assert tail([4.0] * 5)["mean_beyond"] == 4.0


def test_self_time_subtracts_nested_children():
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (6.0, 7.0, 0), (2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 8.0, 0), (9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def _fake_module():
    module = types.ModuleType("qtoolkit.weyl_clifford")
    source = (
        "__all__ = ['product', 'commutator']\n"
        "def product(a, b):\n"
        "    class Out:\n"
        "        terms = {i: 1 for i in range(a * b)}\n"
        "    return Out()\n"
        "def commutator(a, b):\n"
        "    return product(a, b), product(b, a)\n")
    exec(compile(source, "<fake>", "exec"), module.__dict__)
    for fn in (module.product, module.commutator):
        fn.__module__ = module.__name__
    return module


def test_recorder_nests_calls_through_module_globals():
    module = _fake_module()
    recorder = Recorder()
    recorder.wrap_module(module)
    module.product(2, 3)  # inactive: no span
    recorder.active = True
    module.commutator(2, 3)
    recorder.active = False
    names = [s[0] for s in recorder.spans]
    parents = [s[3] for s in recorder.spans]
    assert names == ["weyl_clifford.commutator", "weyl_clifford.product",
                     "weyl_clifford.product"]
    assert parents == [-1, 0, 0]
    assert [s[6] for s in recorder.spans[1:]] == [{"terms_out": 6}] * 2


def test_layer_metrics_per_pass_counts_and_ratios():
    spans = [
        ["weyl_clifford.commutator", 0.0, 1.0, -1, 0, False, None],
        ["weyl_clifford.product", 0.1, 0.4, 0, 0, False, {"terms_out": 5}],
        ["weyl_clifford.product", 0.5, 0.9, 0, 0, False, {"terms_out": 7}],
        ["evolution.adiabatic_evolve", 2.0, 4.0, -1, 1, False, None],
        ["evolution.propagate_linear_ode", 2.5, 3.5, 3, 1, False,
         {"steps": 8192}],
        ["cli.emit", 5.0, 5.5, -1, 2, False, None],
    ]
    m = layer_metrics(spans, 2, {"fock": 3}, 0.5, 0.01)
    value = {k: v["value"] for k, v in m.items()}
    assert value["weyl_clifford.product.calls"] == 1.0
    assert value["weyl_clifford.product.terms_out"] == 6.0
    assert value["weyl_clifford.product.self_s"] == pytest.approx(0.35)
    assert value["weyl_clifford.self_s"] == pytest.approx(0.5)
    assert value["evolution.propagate_linear_ode.useful_ratio"] == \
        pytest.approx(8192 / (2 * 8192 - 1024))
    assert value["serialize.self_s"] == pytest.approx(0.25)
    assert value["cli.emit.self_s"] == pytest.approx(0.25)
    assert value["fock.failed"] == 3 and value["qtoolkit.failed"] == 0
    assert list(m) == [name for name, _ in PER_LAYER]


def test_batch_requires_a_check_for_every_operation():
    ops = [Op("a", "fock", lambda o: 1), Op("b", "fock", lambda o: 2)]
    with pytest.raises(ValueError, match="without a check"):
        Batch(ops, [Check("c", ("a",), lambda o: None)], [])


def test_benchmark_json_follows_the_schema(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    every = names + [m["name"] for m in bench["end_to_end"]
                     + bench["per_layer"]]
    assert all(NAME.match(n) for n in every)
    assert len(set(every)) == len(every)


def test_result_schema_names_every_metric_with_its_unit(bench):
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(PER_LAYER)
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
