"""Tests of the benchmark's own machinery (spans, wrapping, signatures).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os

import pytest

from perfbench import layers
from perfbench.spans import SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ScriptedClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_arithmetic_on_a_nested_call_tree():
    clock = ScriptedClock()
    recorder = SpanRecorder(clock=clock)

    class Outer:  # layer "a"
        def outer(self):
            clock.advance(1.0)
            Middle().mid()
            clock.advance(2.0)

    class Middle:  # layer "b"
        def mid(self):
            clock.advance(3.0)
            recorder.mark("inside")  # a mark taken with three spans open
            Outer().inner()
            # A collector pause inside "b": it belongs to gc, not to b.
            recorder._on_gc("start", {"generation": 2})
            clock.advance(6.0)
            recorder._on_gc("stop", {"generation": 2})
            clock.advance(5.0)

    def inner(self):
        clock.advance(4.0)

    Outer.inner = inner
    recorder.wrap_class(Outer, "a")
    recorder.wrap_class(Middle, "b")
    try:
        recorder.start()
        clock.advance(10.0)  # outside every span
        Outer().outer()
        recorder.mark("end")
    finally:
        recorder.uninstall()

    totals = recorder.layer_self()
    assert totals["a"] == pytest.approx(1.0 + 2.0 + 4.0)
    assert totals["b"] == pytest.approx(3.0 + 5.0)
    assert totals["gc"] == pytest.approx(6.0)
    assert totals["unattributed"] == pytest.approx(10.0)
    assert sum(totals.values()) == pytest.approx(clock.now)
    assert recorder.gc_collections == [0, 0, 1]
    # Calls *into* a layer: root->a (outer), b->a (inner); a->b (mid).
    assert recorder.layer_entries() == {"a": 2, "b": 1}
    assert recorder.function("Outer.outer").total_s == pytest.approx(21.0)

    (first, wall_1, self_1), (second, wall_2, self_2) = recorder.phase_table()
    assert (first, second) == ("inside", "end")
    assert wall_1 == pytest.approx(14.0) and wall_2 == pytest.approx(17.0)
    assert self_1["a"] == pytest.approx(1.0) and self_1["b"] == pytest.approx(3.0)
    assert self_2["a"] == pytest.approx(6.0) and self_2["b"] == pytest.approx(5.0)
    for _, wall, totals in recorder.phase_table():
        assert sum(totals.values()) == pytest.approx(wall)


def test_exceptions_close_their_span():
    clock = ScriptedClock()
    recorder = SpanRecorder(clock=clock)

    class Failing:
        def boom(self):
            clock.advance(2.0)
            raise KeyError("x")

    recorder.wrap_class(Failing, "f")
    try:
        recorder.start()
        with pytest.raises(KeyError):
            Failing().boom()
        clock.advance(1.0)
    finally:
        recorder.uninstall()
    totals = recorder.layer_self()
    assert totals["f"] == pytest.approx(2.0)
    assert totals["unattributed"] == pytest.approx(1.0)


def _class_attributes(modules):
    snapshot = {}
    for name in modules:
        module = importlib.import_module(name)
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                snapshot[value] = dict(vars(value))
    return snapshot


def test_wrap_then_unwrap_restores_every_class_attribute():
    modules = [m for mods in layers.LAYER_MODULES.values() for m in mods]
    before = _class_attributes(modules)
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        from repro.cluster.cluster import SimulatedCluster
        from repro.network.fabric import NetworkFabric

        assert vars(NetworkFabric)["send"] is not before[NetworkFabric]["send"]
        assert vars(SimulatedCluster)["__init__"] is before[SimulatedCluster]["__init__"]
        assert len(recorder.functions) > 100
    finally:
        recorder.uninstall()
    after = _class_attributes(modules)
    assert after.keys() == before.keys()
    for cls, attributes in before.items():
        assert after[cls].keys() == attributes.keys(), cls
        for name, value in attributes.items():
            assert after[cls][name] is value, f"{cls.__name__}.{name}"


def test_descriptors_survive_a_wrap():
    class Sample:
        def __init__(self, x):
            self.x = x

        def double(self):
            return 2 * self.x

        @staticmethod
        def three():
            return 3

        @classmethod
        def make(cls, x):
            return cls(x)

        @property
        def prop(self):
            return self.x

    original = dict(vars(Sample))
    recorder = SpanRecorder()
    recorder.wrap_class(Sample, "s")
    try:
        assert vars(Sample)["prop"] is original["prop"]
        sample = Sample.make(4)
        assert (sample.double(), Sample.three(), sample.three(), sample.prop) == (8, 3, 3, 4)
        assert recorder.function("Sample.double").calls == 1
        assert recorder.function("Sample.__init__").calls == 1
    finally:
        recorder.uninstall()
    assert dict(vars(Sample)) == original


def test_traced_and_untraced_jobs_have_equal_signatures():
    from repro.workload.workloads import WORKLOAD_B

    from perfbench.job import run_job
    from perfbench.workloads import build_workloads, geo3_scenario

    # A miniature of the geo3 workload: partition, heal, bootstrap, repair.
    spec = dataclasses.replace(
        build_workloads()["geo3-partition-bootstrap"],
        scenario=geo3_scenario(isolate_at=0.5, isolation_s=2.0, bootstrap_delay=0.5),
        workload=WORKLOAD_B.scaled(record_count=150, operation_count=2200),
    )
    plain = run_job(spec, seed=3, mode="plain")
    traced = run_job(spec, seed=3, mode="spans")
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["signature"] == traced["signature"]
    assert plain["sim"] == traced["sim"]
    for row in traced["phases"]:
        assert sum(row["self_s"].values()) == pytest.approx(row["wall_s"], abs=1e-6)
    assert traced["layers"]["membership.epoch"] == 1
    assert traced["layers"]["transfers.started"] > 0


def test_benchmark_json_names_the_metrics_the_runner_prints():
    from perfbench import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
