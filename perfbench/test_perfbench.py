"""Self-tests of the benchmark's tracer and metric plumbing.

    python3 -m pytest perfbench -q

They run no workload: the tracer is checked on synthetic calls with a
scripted clock, and the real layer map is installed and removed without
running the program.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from layers import DURABLE_WRITERS, SPANS, LayerProbe, \
    layer_metrics  # noqa: E402
from run import END_TO_END_UNITS, layer_unit  # noqa: E402
from tracer import LayerTracer, restored_cleanly  # noqa: E402


class ScriptedClock:
    def __init__(self, *ticks: float):
        self._ticks = list(ticks)

    def __call__(self) -> float:
        return self._ticks.pop(0)


def test_self_time_is_span_minus_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]
    tracer = LayerTracer(clock=ScriptedClock(0, 1, 3, 4, 5, 10))

    def inner():
        return "inner"

    def outer():
        return (traced_inner(), traced_inner())

    traced_inner = tracer.wrap("inner", inner)
    assert tracer.wrap("outer", outer)() == ("inner", "inner")
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.inclusive["outer"] == 10
    assert tracer.self_time["outer"] == 7
    assert tracer.inclusive["inner"] == 3
    assert tracer.self_time["inner"] == 3
    assert tracer.edges[("outer", "inner")] == 3
    assert tracer.root_seconds == 10
    assert tracer.open_spans == 0


def test_reentered_layer_counts_inclusive_time_once():
    # a [0, 8] -> b [1, 7] -> a [2, 4]
    tracer = LayerTracer(clock=ScriptedClock(0, 1, 2, 4, 7, 8))

    def a(depth):
        return traced_b() if depth == 0 else None

    def b():
        return traced_a(1)

    traced_a = tracer.wrap("a", a)
    traced_b = tracer.wrap("b", b)
    traced_a(0)
    assert tracer.inclusive["a"] == 8
    assert tracer.self_time["a"] == (8 - 6) + 2
    assert tracer.self_time["b"] == 6 - 2
    assert tracer.root_seconds == 8


def test_span_closes_when_the_call_raises():
    tracer = LayerTracer(clock=ScriptedClock(0, 2))

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.open_spans == 0
    assert tracer.self_time["boom"] == 2


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self):
        return "own"


def test_uninstall_restores_own_and_inherited_attributes():
    module = types.ModuleType("fake")
    module.function = lambda: "function"
    originals = (vars(Child)["own"], module.function)
    tracer = LayerTracer()
    tracer.install(Child, "own", "own")
    tracer.install(Child, "inherited", "inherited")
    tracer.install(module, "function", "function", count_only=True)
    assert vars(Child)["own"] is not originals[0]
    assert (Child().own(), Child().inherited(), module.function()) == (
        "own", "base", "function")
    assert tracer.calls == {"own": 1, "inherited": 1, "function": 1}

    patches = tracer.uninstall()
    assert restored_cleanly(patches)
    assert vars(Child)["own"] is originals[0]
    assert "inherited" not in vars(Child)
    assert module.function is originals[1]


def _targets():
    targets = [(owner, attribute) for owner, attribute, _ in SPANS]
    return targets + DURABLE_WRITERS


def test_layer_map_is_fully_restored():
    before = {(id(owner), attribute): vars(owner).get(attribute)
              for owner, attribute in _targets()}
    probe = LayerProbe()
    probe.install()
    assert all(vars(owner).get(attribute) is not before[(id(owner),
                                                         attribute)]
               for owner, attribute in _targets())
    assert restored_cleanly(probe.uninstall())
    after = {(id(owner), attribute): vars(owner).get(attribute)
             for owner, attribute in _targets()}
    assert after == before


def _benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_reported_metrics_match_benchmark_json():
    bench = _benchmark()
    reported = layer_metrics(LayerProbe(), {}, workload="batch-480",
                             wall_s=1.0, covered_s=0.5, untraced_wall_s=1.0)
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(reported)
    for metric in bench["per_layer"]:
        assert metric["unit"] == layer_unit(metric["name"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        END_TO_END_UNITS


def test_plan_maps_every_layer_metric_and_names_both_seeds():
    bench = _benchmark()
    plan = json.loads((HERE / "plan.json").read_text())
    mapped = [name for group in plan["layer_map"]
              for name in group["layer_metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    workloads = [w["name"] for w in bench["workloads"]]
    assert sorted(plan["workloads"]) == sorted(workloads)
    for group in plan["layer_map"]:
        for end_to_end, on in group["moves"].items():
            assert end_to_end in END_TO_END_UNITS
            assert set(on) <= set(workloads)
    assert plan["default_seed"] != plan["held_out_seed"]
