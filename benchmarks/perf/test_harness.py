"""Timing-free tests of the benchmark harness itself (collected by tier-1).

They pin the arithmetic a metric goes through (span folding, p10, probe
normalisation, the two-set comparator), the contract ``BENCHMARK.json`` must
meet, and — most important for later PRs — that every function the tracer
wraps still resolves, so a renamed public function fails here instead of
silently emptying a row of the layer table.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perf import adapter, config, stats, trace, workloads
from perf import run as runner

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(name, sid, parent, wall, cpu, *, thread=1, pid=1, turn=None, failed=False, value=None,
          start=0.0):
    return trace.Span(name, sid, parent, thread, pid, turn, start, start + wall, 0.0, cpu,
                      failed, value)


# -- span folding -------------------------------------------------------
def test_fold_self_time_is_own_minus_children():
    spans = [
        _span("loop", 1, 0, wall=10.0, cpu=6.0),
        _span("select", 2, 1, wall=2.0, cpu=2.0),
        _span("wait", 3, 1, wall=5.0, cpu=0.5),
        _span("inner", 4, 3, wall=1.0, cpu=0.25),
    ]
    rows = trace.fold(spans)
    assert rows["loop"].self_cpu == pytest.approx(6.0 - 2.0 - 0.5)
    assert rows["loop"].self_wall == pytest.approx(10.0 - 2.0 - 5.0)
    assert rows["wait"].self_cpu == pytest.approx(0.25)
    assert rows["wait"].self_wait == pytest.approx((5.0 - 1.0) - 0.25)
    assert rows["inner"].self_cpu == rows["inner"].cpu == 0.25
    # self times partition the root's inclusive time
    assert sum(r.self_cpu for r in rows.values()) == pytest.approx(6.0)


def test_fold_keeps_processes_apart_and_counts_values():
    spans = [
        _span("turn", 1, 0, wall=4.0, cpu=4.0, pid=1, value=10.0),
        _span("turn", 1, 0, wall=2.0, cpu=2.0, pid=2, value=30.0),
        _span("train", 2, 1, wall=1.0, cpu=1.0, pid=2, failed=True),
    ]
    rows = trace.fold(spans)
    # pid 2's child has the same parent id as pid 1's root: only pid 2 pays
    assert rows["turn"].calls == 2 and rows["turn"].self_cpu == pytest.approx(4.0 + 1.0)
    assert rows["turn"].value_sum == 40.0 and rows["turn"].value_n == 2
    assert rows["train"].failed == 1


def test_orphaned_child_counts_as_top_level():
    """A span whose parent fell outside the window is nobody's child."""
    spans = [_span("train", 5, 99, wall=1.0, cpu=1.0, thread=7)]
    assert trace.fold(spans)["train"].self_cpu == 1.0
    assert trace.top_level_cpu(spans) == {(1, 7): 1.0}


def test_window_and_turn_pairing():
    spans = [
        _span("runtime.submit", 1, 0, wall=1.0, cpu=1.0, turn=(3, 1), start=10.0),
        _span("node.swap_in", 2, 0, wall=1.0, cpu=1.0, turn=(3, 1), start=14.0, pid=2),
        _span("scheduler.ticket_wait", 3, 0, wall=2.0, cpu=0.1, turn=(3, 1), start=15.0),
        _span("runtime.submit", 4, 0, wall=1.0, cpu=1.0, turn=(4, 1), start=1.0),
    ]
    kept = trace.in_window(spans, 5.0, 20.0)
    assert [s.sid for s in kept] == [1, 2, 3]
    pairs = trace.pair_turns(kept)
    assert pairs["queue_wait_s"] == pytest.approx(14.0 - 11.0)
    assert pairs["turn_rtt_s"] == pytest.approx(17.0 - 10.0)
    assert (pairs["submitted"], pairs["started"], pairs["returned"]) == (1.0, 1.0, 1.0)


def test_cpu_outside_spans_goes_to_the_thread_that_ran_it():
    import os
    import threading

    pid, main = os.getpid(), threading.main_thread().ident
    spans = [
        _span("loop", 1, 0, wall=5.0, cpu=4.0, thread=main, pid=pid),
        _span("train", 2, 0, wall=3.0, cpu=3.0, thread=11, pid=pid),
        _span("train", 1, 0, wall=2.0, cpu=2.0, thread=1, pid=pid + 1),  # a worker process
    ]
    threads = {main: ("MainThread", 4.5), 11: ("pool_worker_0_0", 3.5),
               12: ("redis-broker-collector", 0.25), 13: ("Thread-9", 0.5)}
    cpu = trace.attribute_cpu(spans, threads, worker_cpu=2.5,
                              groups={"pool": ("pool_worker_",), "collector": ("collector",)})
    # the main thread's 0.5 s outside spans is the harness: not the program's
    assert cpu["program"] == pytest.approx(4.0 + 3.5 + 0.25 + 0.5 + 2.5)
    assert cpu["group_outside"] == {"pool": pytest.approx(0.5), "collector": pytest.approx(0.25)}
    assert cpu["group_total"]["pool"] == 3.5
    assert cpu["worker_outside"] == pytest.approx(0.5)
    assert cpu["unattributed"] == pytest.approx(0.5)  # Thread-9: no span, no group


def test_layer_value_kinds():
    rows = trace.fold([
        _span("a", 1, 0, wall=4.0, cpu=3.0, value=8.0),
        _span("b", 2, 1, wall=1.0, cpu=1.0),
    ])

    def layer(kind, spans=("a",), **kw):
        return config.Layer("x", "s", "lower", kind, spans, **kw)

    assert trace.layer_value(layer("self"), rows, {}, 2) == pytest.approx(1.0)
    assert trace.layer_value(layer("cpu"), rows, {}, 2) == pytest.approx(1.5)
    assert trace.layer_value(layer("wait"), rows, {}, 2) == pytest.approx(((4.0 - 1.0) - 2.0) / 2)
    assert trace.layer_value(layer("calls", ("a", "b")), rows, {}, 2) == 1.0
    assert trace.layer_value(layer("sum"), rows, {}, 2) == 4.0
    assert trace.layer_value(layer("mean"), rows, {}, 2) == 8.0
    assert trace.layer_value(layer("extra", ()), rows, {}, 2) is None
    assert trace.layer_value(layer("cpu", worker_only=True), rows, {}, 2) == 0.0


# -- wrappers -----------------------------------------------------------
class _Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        if n < 0:
            raise ValueError(n)
        return n

    def items(self):
        yield from (1, 2)

    @classmethod
    def make(cls):
        return cls()


def test_install_records_parentage_and_restores():
    target = lambda span, path, **kw: adapter.Target(span, __name__, path, **kw)  # noqa: E731
    before = dict(vars(_Toy))
    rec = trace.Recorder()
    inst = trace.install(rec, [
        target("outer", "_Toy.outer"), target("inner", "_Toy.inner"),
        target("item", "_Toy.items", mode="iter"), target("make", "_Toy.make"),
    ], {})
    try:
        toy = _Toy.make()
        assert toy.outer(1) == 2
        assert list(toy.items()) == [1, 2]
        with pytest.raises(ValueError):
            toy.inner(-1)
    finally:
        inst.remove()
    assert dict(vars(_Toy)) == before
    spans = [trace.Span(*row) for row in rec.spans]
    by_name = {s.name: s for s in spans}
    assert by_name["inner"].failed  # the last `inner` recorded is the raising one
    first_inner = next(s for s in spans if s.name == "inner")
    assert first_inner.parent == by_name["outer"].sid and not first_inner.failed
    # one span per next(): two items, and the call that found the end
    assert sum(s.name == "item" for s in spans) == 3
    assert by_name["make"].parent == 0


def test_every_wrapper_target_resolves():
    """Import + getattr for each wrapped function, its rebinding sites and
    its hooks: a renamed public function must fail a test, not empty a row."""
    adapter.ensure_importable()
    import importlib

    for target in adapter.TARGETS:
        owner, attr, raw = trace.resolve(target.module, target.path)
        fn = getattr(raw, "__func__", raw)
        assert callable(fn), target
        assert target.mode in ("call", "outermost", "iter")
        for site in target.sites:
            assert vars(importlib.import_module(site)).get(attr) is raw, (target, site)
        for hook in (target.turn, target.value):
            assert hook is None or hook in adapter.HOOKS


def test_install_on_the_program_is_reversible():
    adapter.ensure_importable()
    originals = [trace.resolve(t.module, t.path) for t in adapter.TARGETS]
    inst = trace.install(trace.Recorder(), adapter.TARGETS, adapter.HOOKS)
    inst.remove()
    for (owner, attr, raw), target in zip(originals, adapter.TARGETS):
        assert vars(owner)[attr] is raw, target


def test_every_layer_row_has_a_wrapped_source():
    wrapped = {t.span for t in adapter.TARGETS}
    for layer in config.PER_LAYER:
        assert layer.kind in ("self", "cpu", "wait", "calls", "sum", "mean", "extra")
        if layer.kind == "extra":
            assert not layer.spans
        else:
            assert layer.spans and set(layer.spans) <= wrapped, layer.name
    grouped = {m for members in config.LAYER_GROUPS.values() for m in members}
    assert grouped <= {layer.name for layer in config.PER_LAYER}


# -- arithmetic ---------------------------------------------------------
def test_p10_interpolates_between_order_statistics():
    values = list(range(1, 102))  # 1..101: the 10th percentile is exactly 11
    assert stats.p10(values) == 11
    assert stats.p10([5.0]) == 5.0
    assert stats.p10([1.0, 2.0]) == pytest.approx(1.1)
    assert stats.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        stats.p10([])


def test_probe_normalisation_uses_the_faster_probe():
    # machine ran at half reference speed (probe took twice as long): a 2 s
    # lap counts as 1 s at reference speed
    assert stats.normalise(2.0, 0.050, 0.060, ref=0.025) == pytest.approx(1.0)
    assert stats.normalise(2.0, 0.060, 0.050, ref=0.025) == pytest.approx(1.0)
    assert stats.normalise(3.0, 0.025, 0.025, ref=0.025) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        stats.normalise(1.0, 0.0, 0.025, ref=0.025)


def test_summarise_laps():
    walls = [1.0] * 9 + [5.0]
    out = stats.summarise_laps(walls, [w / 2 for w in walls], [0.05] * 11, ref=0.025)
    assert out["laps"] == 10
    assert out["lap_s"] == pytest.approx(0.5) and out["raw_lap_s"] == pytest.approx(1.0)
    assert out["lap_cpu_s"] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        stats.summarise_laps(walls, walls, [0.05] * 10, ref=0.025)


def test_two_set_comparator():
    same = stats.compare_sets([10, 11, 9, 10], [10.5, 10, 11, 10], "higher", 0.10)
    assert same["ok"] and same["gap"] == pytest.approx(0.025)
    # direction does not matter for agreement: a set that reads *better* by
    # more than the bound is just as much disagreement
    assert not stats.compare_sets([10, 10, 10, 10], [12, 12, 12, 12], "higher", 0.10)["ok"]
    assert not stats.compare_sets([10, 10, 10, 10], [12, 12, 12, 12], "lower", 0.10)["ok"]
    assert stats.worsening(10.0, 9.0, "higher") == pytest.approx(0.1)
    assert stats.worsening(10.0, 9.0, "lower") == pytest.approx(-0.1)
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# -- the contract -------------------------------------------------------
def test_names_units_and_limits():
    names = ([w.name for w in config.WORKLOADS] + [m.name for m in config.END_TO_END]
             + [layer.name for layer in config.PER_LAYER])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in config.END_TO_END + config.PER_LAYER)
    assert 2 <= len(config.WORKLOADS) <= 8
    assert 1 <= len(config.END_TO_END) <= 16
    assert 1 <= len(config.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in config.END_TO_END)
    assert all(m.better in ("higher", "lower") for m in config.END_TO_END + config.PER_LAYER)
    setup = next(m for m in config.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in config.END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in config.WORKLOADS)
    assert set(workloads.SPECS) == {w.name for w in config.WORKLOADS}
    assert all("mode" not in workloads.SPECS[w.name](0) for w in config.WORKLOADS)


def test_benchmark_json_matches_what_run_py_emits():
    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    bench = json.loads(path.read_text(encoding="utf8"))
    assert list(bench) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                           "per_layer"]
    assert bench["command"] == ["python3", "benchmarks/perf/run.py"]
    assert bench["paths"] == ["benchmarks/perf"]
    assert bench["run_seconds"] == config.RUN_SECONDS and 1 <= bench["run_seconds"] <= 60
    assert bench["workloads"] == [{"name": w.name, "why": w.why} for w in config.WORKLOADS]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in config.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better}
        for layer in config.PER_LAYER
    ]
    assert [m["name"] for m in bench["end_to_end"]] == runner._expected_names(0)
    assert [m["name"] for m in bench["per_layer"]] == runner._expected_names(1)
    # the whole sweep the driver makes has to fit its time limit
    runs = 4 + 22 * len(config.WORKLOADS)
    assert runs * (config.RUN_SECONDS + 12) <= 3420
